"""Command-line front end.

Five subcommands: `sweep` writes observable tables, `spectrum` lists
low-lying levels with multiplicities, `bethe` solves one ring
analytically, `scaling` chains sweep -> derivative -> extremum ->
extrapolation, and `check` runs the acceptance battery.

Exit codes: 0 success, 1 usage error (the CLI only parses text, so this
is also the ValueError the library raises for a grid, size, geometry,
worker count or criterion out of range, or a nonzero `--beta` for a family
without it; an `--out` in a missing directory or naming a directory is refused
before any work, and one that cannot be written exits 1 after it), 2
numerical failure or running out of memory (output is still written with
failed rows annotated where that makes sense). A parameter whose sector
matrix is too large to solve is refused before any solve: exit 1 from
`spectrum`, a failed row and exit 2 from `sweep`.

Output files start with `#` metadata lines (tool version, resolved
configuration, wall-clock seconds) so they stay self-describing while
loading directly into pandas or gnuplot. The configuration is the parsed
command line, every option included, and each payload is the library's
result object, so neither restates a field. Floats are printed with 12
significant digits; apart from the elapsed-seconds line, identical
configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    EXTREMA,
    GEOMETRIES,
    OBSERVABLES,
    EdgeExtremumError,
    SweepRow,
    extremum_scaling,
    shared_workspace,
    sweep,
)
from .bethe import solve_ground
from .checks import CRITERIA, run_all
from .eigensolver import ConvergenceError, degeneracy_count, low_spectrum
from .hamiltonian import FAMILIES, model_for

_MODEL_NAMES = {family.replace("_", "-"): family for family in FAMILIES}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_jobs() -> str:
    """SPINENT_JOBS, or "1" when it is unset or empty.

    argparse runs a string default through the option's type when the flag
    is absent, so a bad value is rejected exactly like a bad --jobs (a
    non-integer by _parse_jobs, one below 1 by analysis.check_jobs), and only
    by the subcommands that take --jobs.
    """
    return os.environ.get("SPINENT_JOBS") or "1"


def _parse_jobs(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"could not parse --jobs '{text}'") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must be start:end:count, got '{text}'")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"could not parse grid '{text}'") from None


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(piece) for piece in text.split(",") if piece]
    except ValueError:
        raise _UsageError(f"could not parse sizes '{text}'") from None
    if not sizes:
        raise _UsageError("at least one size is required")
    return sizes


def _parse_criteria(text: str) -> list[int]:
    try:
        return sorted({int(piece) for piece in text.split(",") if piece})
    except ValueError:
        raise _UsageError(f"could not parse criteria list '{text}'") from None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)):
        return str(value)
    return f"{value:.12g}"


def _rounded(value):
    """Round floats to 12 significant digits recursively for JSON output."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return _rounded(value.tolist())
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _meta(ns, elapsed: float, **extra) -> dict:
    """The metadata block: ``config`` is the parsed command line, every
    option as its handler resolved it."""
    config = {key: value for key, value in vars(ns).items() if key != "command"}
    return {
        "tool": "spinent",
        "version": __version__,
        "command": ns.command,
        "config": config,
        "elapsed_seconds": round(elapsed, 3),
        **extra,
    }


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as fail:
        raise _UsageError(f"could not write --out {path}: {fail.strerror or fail}") from None


def _write_json(path: str, payload: dict) -> None:
    _write(path, json.dumps(_rounded(payload), sort_keys=True, indent=2) + "\n")


def _write_sweep_csv(path: str, meta: dict, rows) -> None:
    lines = [
        f"# spinent {meta['version']}",
        f"# command: {meta['command']}",
        f"# config: {json.dumps(meta['config'], sort_keys=True)}",
        f"# rows: {len(rows)}",
        f"# failed_rows: {meta['failed_rows']}",
    ]
    for row in rows:
        if row.error is not None:
            lines.append(f"# row_error: param={_fmt(row.param)} size={row.size}: {row.error}")
    lines.append(f"# elapsed_seconds: {meta['elapsed_seconds']}")
    # the error text already went into the row_error lines above
    columns = [name for name in SweepRow._fields if name != "error"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in columns))
    _write(path, "\n".join(lines) + "\n")


def _model_param(ns, family: str) -> float:
    """The family's swept parameter. Every swept flag of FAMILIES leaves the
    namespace and the value stays as ``ns.param``, so the config records it once."""
    swept = FAMILIES[family].parameters[0]
    given = {n: vars(ns).pop(n) for n in sorted({f.parameters[0] for f in FAMILIES.values()})}
    if given[swept] is None:
        raise _UsageError(f"{ns.model} needs --{swept}")
    for name, value in given.items():
        if name != swept and value is not None:
            raise _UsageError(f"{ns.model} takes --{swept}, not --{name}")
    ns.param = given[swept]
    return ns.param


def _cmd_sweep(ns) -> int:
    started = time.perf_counter()
    table = sweep(
        _MODEL_NAMES[ns.model], ns.geometry, ns.sizes, ns.grid,
        fixed={"beta": ns.beta}, tol_deg=ns.tol_deg, tol=ns.tol, jobs=ns.jobs,
    )
    elapsed = time.perf_counter() - started
    failed = [row for row in table.rows if row.error is not None]
    meta = _meta(ns, elapsed, failed_rows=len(failed))
    if ns.format == "json":
        _write_json(ns.out, {"meta": meta, "rows": [r._asdict() for r in table.rows]})
    else:
        _write_sweep_csv(ns.out, meta, table.rows)
    if failed:
        print(
            f"{len(failed)} of {len(table.rows)} rows failed; see annotations in {ns.out}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_spectrum(ns) -> int:
    family = _MODEL_NAMES[ns.model]
    model = model_for(family, _model_param(ns, family), beta=ns.beta)
    workspace = shared_workspace(family, ns.geometry, ns.size)
    started = time.perf_counter()
    merged = low_spectrum(workspace, model, ns.levels, tol=ns.tol, tol_deg=ns.tol_deg)
    elapsed = time.perf_counter() - started
    cluster_sizes = degeneracy_count([energy for energy, _ in merged], ns.tol_deg)
    payload = {
        "meta": _meta(ns, elapsed, collection_depth_per_sector=ns.levels),
        "levels": [{"energy": energy, "sz": sz} for energy, sz in merged],
        "clusters": [
            {"energy": merged[start][0], "multiplicity": size}
            for start, size in zip(accumulate([0, *cluster_sizes]), cluster_sizes)
        ],
    }
    _write_json(ns.out, payload)
    return 0


def _cmd_bethe(ns) -> int:
    started = time.perf_counter()
    state = solve_ground(ns.size, ns.delta)
    elapsed = time.perf_counter() - started
    _write_json(ns.out, {"meta": _meta(ns, elapsed), **asdict(state)})
    return 0


def _cmd_scaling(ns) -> int:
    started = time.perf_counter()
    extrema, fits = extremum_scaling(
        _MODEL_NAMES[ns.model], ns.geometry, ns.sizes, ns.grid, ns.observable,
        derivative=ns.derivative, extremum=ns.extremum,
        fixed={"beta": ns.beta}, tol_deg=ns.tol_deg, tol=ns.tol, jobs=ns.jobs,
    )
    elapsed = time.perf_counter() - started
    payload = {
        "meta": _meta(ns, elapsed),
        "extrema": [dict(zip(("size", "param", "value"), entry)) for entry in extrema],
        "fits": [asdict(fit) for fit in fits],
    }
    _write_json(ns.out, payload)
    return 0


def _cmd_check(ns) -> int:
    ns.criteria = ns.criteria or list(CRITERIA)
    started = time.perf_counter()
    results = run_all(
        ns.criteria,
        jobs=ns.jobs,
        progress=lambda text: print(text, file=sys.stderr),
    )
    elapsed = time.perf_counter() - started
    for result in results:
        print(result.summary_line())
        for line in result.details:
            print(f"  {line}")
    passed = all(result.passed for result in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    if ns.out:
        payload = {
            "meta": _meta(ns, elapsed),
            "results": [
                {**asdict(r), "elapsed_seconds": round(r.elapsed_seconds, 3)}
                for r in results
            ],
        }
        _write_json(ns.out, payload)
    return 0 if passed else 2


def _add_common_solver_flags(parser, with_jobs=True):
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="eigensolver residual tolerance")
    parser.add_argument("--tol-deg", type=float, default=1e-8, dest="tol_deg",
                        help="energy window counted as degenerate")
    if with_jobs:
        parser.add_argument("--jobs", type=_parse_jobs, default=_default_jobs(),
                            help="parallel sweep workers (env SPINENT_JOBS)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinent", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinent {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    model = _Parser(add_help=False)
    model.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    model.add_argument("--geometry", choices=tuple(GEOMETRIES), default="chain")
    model.add_argument("--beta", type=float, default=0.0, help="biquadratic weight for xxz-one")

    sweep_parser = commands.add_parser(
        "sweep", parents=[model], help="observable table over a parameter grid"
    )
    sweep_parser.add_argument("--sizes", type=_parse_sizes, required=True,
                              help="comma-separated sizes, e.g. 12,16")
    sweep_parser.add_argument("--param", type=_parse_grid, required=True, dest="grid",
                              metavar="PARAM", help="grid start:end:count")
    sweep_parser.add_argument("--format", choices=("csv", "json"), default=None)
    sweep_parser.add_argument("--out", required=True)
    _add_common_solver_flags(sweep_parser)

    spectrum_parser = commands.add_parser(
        "spectrum", parents=[model], help="low-lying levels and multiplicities"
    )
    spectrum_parser.add_argument("--size", type=int, required=True)
    spectrum_parser.add_argument("--delta", type=float, default=None)
    spectrum_parser.add_argument("--theta", type=float, default=None)
    spectrum_parser.add_argument("--levels", type=int, default=12)
    spectrum_parser.add_argument("--out", required=True)
    _add_common_solver_flags(spectrum_parser, with_jobs=False)

    bethe_parser = commands.add_parser("bethe", help="analytic ring ground state")
    bethe_parser.add_argument("--size", type=int, required=True)
    bethe_parser.add_argument("--delta", type=float, required=True)
    bethe_parser.add_argument("--out", required=True)

    scaling_parser = commands.add_parser(
        "scaling", parents=[model], help="sweep, differentiate, refine extrema, extrapolate"
    )
    scaling_parser.add_argument("--sizes", type=_parse_sizes, required=True)
    scaling_parser.add_argument("--param", type=_parse_grid, required=True, dest="grid",
                                metavar="PARAM", help="grid start:end:count")
    scaling_parser.add_argument("--observable", default="ev", choices=OBSERVABLES)
    scaling_parser.add_argument("--derivative", action=argparse.BooleanOptionalAction,
                                default=True,
                                help="locate the extremum of the first derivative")
    scaling_parser.add_argument("--extremum", choices=EXTREMA, default="min")
    scaling_parser.add_argument("--out", required=True)
    _add_common_solver_flags(scaling_parser)

    check_parser = commands.add_parser("check", help="run the acceptance battery")
    check_parser.add_argument("--criteria", type=_parse_criteria, default=None,
                              help="comma-separated subset, e.g. 1,3,10")
    check_parser.add_argument("--jobs", type=_parse_jobs, default=_default_jobs())
    check_parser.add_argument("--out", default=None, help="optional JSON report path")

    return parser


_HANDLERS = {
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "bethe": _cmd_bethe,
    "scaling": _cmd_scaling,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if ns.out is not None and not Path(ns.out).parent.is_dir():
            raise _UsageError(f"--out {ns.out}: no directory {Path(ns.out).parent}")
        if ns.out is not None and Path(ns.out).is_dir():
            raise _UsageError(f"--out {ns.out}: is a directory")
        if ns.command == "sweep" and ns.format is None:
            ns.format = "json" if ns.out.endswith(".json") else "csv"
        return _HANDLERS[ns.command](ns)
    except _UsageError as fail:
        print(f"error: {fail}", file=sys.stderr)
        return 1
    except (ConvergenceError, EdgeExtremumError) as fail:
        print(f"numerical failure: {fail}", file=sys.stderr)
        return 2
    except ValueError as fail:
        print(f"error: {fail}", file=sys.stderr)
        return 1
    except MemoryError as fail:
        detail = f": {fail}" if str(fail) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
