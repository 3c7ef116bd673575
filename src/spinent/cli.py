"""Command-line front end.

Five subcommands: `sweep` writes observable tables, `spectrum` lists
low-lying levels with multiplicities, `bethe` solves one ring
analytically, `scaling` chains sweep -> derivative -> extremum ->
extrapolation, and `check` runs the acceptance battery.

Exit codes: 0 success, 1 usage error (the CLI only parses text, so this
is also the ValueError the library raises for a grid, size, geometry or
criterion out of range, or `--beta` for a family without it), 2 numerical
failure or running out of memory (output is still written with failed
rows annotated where that makes sense).

Output files start with `#` metadata lines (tool version, resolved
configuration, wall-clock seconds) so they stay self-describing while
loading directly into pandas or gnuplot. Floats are printed with 12
significant digits; apart from the elapsed-seconds line, identical
configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .analysis import (
    OBSERVABLES,
    EdgeExtremumError,
    SweepRow,
    extremum_scaling,
    shared_workspace,
    sweep,
)
from .bethe import solve_ground
from .checks import CRITERIA, CheckContext, run_all
from .eigensolver import ConvergenceError, degeneracy_count, low_spectrum
from .hamiltonian import FAMILY_PARAMETERS, model_for

_MODEL_NAMES = {"xxz-half": "xxz_half", "xxz-one": "xxz_one", "blbq": "blbq"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_jobs() -> str:
    """SPINENT_JOBS, or "1" when it is unset or empty.

    argparse runs a string default through the option's type when the flag
    is absent, so a bad value is rejected by _parse_jobs exactly like a bad
    --jobs, and only by the subcommands that take --jobs.
    """
    return os.environ.get("SPINENT_JOBS") or "1"


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise _UsageError(f"could not parse --jobs '{text}'") from None
    if jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {jobs}")
    return jobs


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
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _meta(command: str, config: dict, elapsed: float, extra: dict | None = None) -> dict:
    meta = {
        "tool": "spinent",
        "version": __version__,
        "command": command,
        "config": config,
        "elapsed_seconds": round(elapsed, 3),
    }
    if extra:
        meta.update(extra)
    return meta


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(_rounded(payload), sort_keys=True, indent=2) + "\n")


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
    columns = [f.name for f in fields(SweepRow) if f.name != "error"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, name)) for name in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _model_param(ns, family: str) -> float:
    """The family's swept parameter, from --delta or --theta."""
    swept = FAMILY_PARAMETERS[family][0]
    if getattr(ns, swept) is None:
        raise _UsageError(f"{ns.model} needs --{swept}")
    for name in ("delta", "theta"):
        if name != swept and getattr(ns, name) is not None:
            raise _UsageError(f"{ns.model} takes --{swept}, not --{name}")
    return getattr(ns, swept)


def _cmd_sweep(ns) -> int:
    family = _MODEL_NAMES[ns.model]
    grid = _parse_grid(ns.param)
    sizes = _parse_sizes(ns.sizes)
    config = {
        "model": ns.model, "geometry": ns.geometry, "sizes": sizes,
        "grid": list(grid), "beta": ns.beta, "tol": ns.tol,
        "tol_deg": ns.tol_deg, "jobs": ns.jobs, "format": ns.format,
        "out": ns.out,
    }
    started = time.perf_counter()
    table = sweep(
        family, ns.geometry, sizes, grid,
        beta=ns.beta, tol_deg=ns.tol_deg, tol=ns.tol, jobs=ns.jobs,
    )
    elapsed = time.perf_counter() - started
    failed = [row for row in table.rows if row.error is not None]
    meta = _meta("sweep", config, elapsed, {"failed_rows": len(failed)})
    if ns.format == "json":
        _write_json(ns.out, {"meta": meta, "rows": [asdict(r) for r in table.rows]})
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
    value = _model_param(ns, family)
    config = {
        "model": ns.model, "geometry": ns.geometry, "size": ns.size,
        "param": value, "beta": ns.beta, "levels": ns.levels,
        "tol": ns.tol, "tol_deg": ns.tol_deg, "out": ns.out,
    }
    model = model_for(family, value, ns.beta)
    workspace = shared_workspace(family, ns.geometry, ns.size)
    started = time.perf_counter()
    merged = low_spectrum(
        model, workspace.lattice, ns.levels, tol=ns.tol, tol_deg=ns.tol_deg,
        workspace=workspace,
    )
    elapsed = time.perf_counter() - started
    cluster_sizes = degeneracy_count([energy for energy, _ in merged], ns.tol_deg)
    clusters = []
    cursor = 0
    for size in cluster_sizes:
        clusters.append({"energy": merged[cursor][0], "multiplicity": size})
        cursor += size
    payload = {
        "meta": _meta("spectrum", config, elapsed,
                      {"collection_depth_per_sector": ns.levels}),
        "levels": [{"energy": energy, "sz": sz} for energy, sz in merged],
        "clusters": clusters,
    }
    _write_json(ns.out, payload)
    return 0


def _cmd_bethe(ns) -> int:
    config = {"size": ns.size, "delta": ns.delta, "out": ns.out}
    started = time.perf_counter()
    state = solve_ground(ns.size, ns.delta)
    elapsed = time.perf_counter() - started
    payload = {
        "meta": _meta("bethe", config, elapsed),
        "num_sites": state.num_sites,
        "num_down": state.num_down,
        "delta": state.delta,
        "gamma": state.gamma,
        "energy": state.energy,
        "converged": state.converged,
        "max_equation_residual": state.max_equation_residual,
        "rapidities": state.rapidities.tolist(),
        "quantum_numbers": state.quantum_numbers.tolist(),
    }
    _write_json(ns.out, payload)
    return 0


def _cmd_scaling(ns) -> int:
    grid = _parse_grid(ns.param)
    sizes = _parse_sizes(ns.sizes)
    config = {
        "model": ns.model, "geometry": ns.geometry, "sizes": sizes,
        "grid": list(grid), "beta": ns.beta, "observable": ns.observable,
        "derivative": ns.derivative, "extremum": ns.extremum,
        "tol": ns.tol, "tol_deg": ns.tol_deg, "jobs": ns.jobs, "out": ns.out,
    }
    started = time.perf_counter()
    extrema, fits = extremum_scaling(
        _MODEL_NAMES[ns.model], ns.geometry, sizes, grid, ns.observable,
        derivative=ns.derivative, extremum=ns.extremum,
        beta=ns.beta, tol_deg=ns.tol_deg, tol=ns.tol, jobs=ns.jobs,
    )
    elapsed = time.perf_counter() - started
    payload = {
        "meta": _meta("scaling", config, elapsed),
        "extrema": [dict(zip(("size", "param", "value"), entry)) for entry in extrema],
        "fits": [asdict(fit) for fit in fits],
    }
    _write_json(ns.out, payload)
    return 0


def _cmd_check(ns) -> int:
    numbers = None
    if ns.criteria:
        try:
            numbers = sorted({int(piece) for piece in ns.criteria.split(",") if piece})
        except ValueError:
            raise _UsageError(f"could not parse criteria list '{ns.criteria}'") from None
    config = {"criteria": numbers or list(CRITERIA), "jobs": ns.jobs, "out": ns.out}
    started = time.perf_counter()
    results = run_all(
        numbers,
        CheckContext(jobs=ns.jobs),
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
            "meta": _meta("check", config, elapsed),
            "results": [
                {
                    "number": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "details": r.details,
                    "elapsed_seconds": round(r.elapsed_seconds, 3),
                }
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

    sweep_parser = commands.add_parser("sweep", help="observable table over a parameter grid")
    sweep_parser.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    sweep_parser.add_argument("--geometry", choices=("chain", "square"), default="chain")
    sweep_parser.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 12,16")
    sweep_parser.add_argument("--param", required=True, help="grid start:end:count")
    sweep_parser.add_argument("--beta", type=float, default=0.0,
                              help="biquadratic weight for xxz-one")
    sweep_parser.add_argument("--format", choices=("csv", "json"), default=None)
    sweep_parser.add_argument("--out", required=True)
    _add_common_solver_flags(sweep_parser)

    spectrum_parser = commands.add_parser("spectrum", help="low-lying levels and multiplicities")
    spectrum_parser.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    spectrum_parser.add_argument("--geometry", choices=("chain", "square"), default="chain")
    spectrum_parser.add_argument("--size", type=int, required=True)
    spectrum_parser.add_argument("--delta", type=float, default=None)
    spectrum_parser.add_argument("--theta", type=float, default=None)
    spectrum_parser.add_argument("--beta", type=float, default=0.0)
    spectrum_parser.add_argument("--levels", type=int, default=12)
    spectrum_parser.add_argument("--out", required=True)
    _add_common_solver_flags(spectrum_parser, with_jobs=False)

    bethe_parser = commands.add_parser("bethe", help="analytic ring ground state")
    bethe_parser.add_argument("--size", type=int, required=True)
    bethe_parser.add_argument("--delta", type=float, required=True)
    bethe_parser.add_argument("--out", required=True)

    scaling_parser = commands.add_parser(
        "scaling", help="sweep, differentiate, refine extrema, extrapolate"
    )
    scaling_parser.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    scaling_parser.add_argument("--geometry", choices=("chain", "square"), default="chain")
    scaling_parser.add_argument("--sizes", required=True)
    scaling_parser.add_argument("--param", required=True, help="grid start:end:count")
    scaling_parser.add_argument("--beta", type=float, default=0.0)
    scaling_parser.add_argument("--observable", default="ev", choices=OBSERVABLES)
    scaling_parser.add_argument("--derivative", action=argparse.BooleanOptionalAction,
                                default=True,
                                help="locate the extremum of the first derivative")
    scaling_parser.add_argument("--extremum", choices=("min", "max"), default="min")
    scaling_parser.add_argument("--out", required=True)
    _add_common_solver_flags(scaling_parser)

    check_parser = commands.add_parser("check", help="run the acceptance battery")
    check_parser.add_argument("--criteria", default=None,
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
