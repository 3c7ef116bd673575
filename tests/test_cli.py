import errno
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import spinent
from spinent import __version__, analysis, checks, cli, eigensolver, hamiltonian
from spinent.basis import nonnegative_sectors
from spinent.bethe import BetheState
from one_point import scan_one
from spinent.hamiltonian import SectorWorkspace, model_for
from spinent.lattice import chain_lattice

CSV_HEADER = (
    "family,geometry,size,param,energy,czz,cxx,ev,"
    "concurrence,degeneracy,degenerate_flag"
)


def _strip_elapsed(text: str) -> list[str]:
    return [
        line for line in text.splitlines()
        if not line.startswith("# elapsed_seconds:")
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "ising", "--sizes", "4", "--param", "0:1:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "1:0:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "", "--param", "0:1:3", "--out", "x.csv"],
        ["spectrum", "--model", "blbq", "--delta", "0.5", "--size", "6", "--out", "x.json"],
        ["spectrum", "--model", "xxz-half", "--theta", "0.5", "--size", "6", "--out", "x.json"],
        ["spectrum", "--model", "xxz-half", "--size", "6", "--out", "x.json"],
        ["scaling", "--model", "xxz-half", "--sizes", "8,10", "--param", "0:1:3", "--out", "x.json"],
        ["check", "--criteria", "0,11"],
        ["check", "--criteria", "two"],
        ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:3", "--jobs", "0",
         "--out", "x.csv"],
        ["scaling", "--model", "xxz-half", "--sizes", "4,6,8", "--param", "0:1:3",
         "--jobs", "-3", "--out", "x.json"],
        ["check", "--criteria", "4", "--jobs", "0"],
        ["sweep", "--model", "xxz-half", "--sizes", "8", "--param", "0:inf:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "8", "--param", "nan:1:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "8", "--param", "-inf:1:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-one", "--sizes", "4", "--param", "0:1:3", "--beta", "nan",
         "--out", "x.csv"],
        ["scaling", "--model", "xxz-half", "--sizes", "4,6,8", "--param", "0:inf:3",
         "--out", "x.json"],
        ["spectrum", "--model", "xxz-half", "--delta", "nan", "--size", "6", "--out", "x.json"],
        ["spectrum", "--model", "blbq", "--theta", "inf", "--size", "6", "--out", "x.json"],
        ["spectrum", "--model", "xxz-one", "--delta", "1", "--beta", "-inf", "--size", "4",
         "--out", "x.json"],
        *(
            ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:3", flag, value,
             "--out", "x.csv"]
            for flag, value in (
                ("--tol", "0"), ("--tol", "-1e-10"), ("--tol", "nan"), ("--tol", "inf"),
                ("--tol", "tiny"), ("--tol-deg", "-1"), ("--tol-deg", "nan"),
                ("--tol-deg", "inf"),
            )
        ),
        ["spectrum", "--model", "xxz-half", "--delta", "0.5", "--size", "6", "--tol-deg", "nan",
         "--out", "x.json"],
        # a size or geometry the lattice or the register cannot hold
        ["sweep", "--model", "xxz-half", "--sizes", "1", "--param", "0:1:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--geometry", "square", "--sizes", "2",
         "--param", "0:1:3", "--out", "x.csv"],
        ["sweep", "--model", "xxz-half", "--sizes", "8,25", "--param", "0:1:3", "--out", "x.csv"],
        ["scaling", "--model", "xxz-half", "--sizes", "1,2,3", "--param", "0:1:3",
         "--out", "x.json"],
        # --beta for a family without it
        ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:3", "--beta", "5",
         "--out", "x.csv"],
        ["sweep", "--model", "blbq", "--sizes", "4", "--param", "0:1:3", "--beta", "-0.5",
         "--out", "x.json"],
        ["spectrum", "--model", "xxz-half", "--delta", "0.5", "--beta", "5", "--size", "6",
         "--out", "x.json"],
        ["spectrum", "--model", "blbq", "--theta", "0.5", "--beta", "0.1", "--size", "6",
         "--out", "x.json"],
        ["scaling", "--model", "xxz-half", "--sizes", "4,6,8", "--param", "0:1:3",
         "--beta", "5", "--out", "x.json"],
    ],
)
def test_usage_errors_exit_one(argv, capsys, tmp_path):
    argv = [piece.replace("x.", str(tmp_path / "x.")) for piece in argv]
    assert cli.run(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--model", "blbq", "--size", "6", "--theta", "1", "--delta", "0.3",
          "--out", "x.json"], "blbq takes --theta, not --delta"),
        (["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:x", "--out", "x.csv"],
         "could not parse grid '0:1:x'"),
        (["sweep", "--model", "xxz-half", "--sizes", "8,a", "--param", "0:1:3", "--out", "x.csv"],
         "could not parse sizes '8,a'"),
    ],
    ids=["second-parameter", "grid", "sizes"],
)
def test_unparsable_input_exits_one_naming_it(argv, message, capsys, tmp_path):
    """The usage errors above, checked for their message."""
    argv = [piece.replace("x.", str(tmp_path / "x.")) for piece in argv]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "value,message",
    [
        ("abc", "could not parse --jobs 'abc'"),
        ("0", "--jobs must be at least 1, got 0"),
        ("-3", "--jobs must be at least 1, got -3"),
    ],
)
@pytest.mark.parametrize("command", ["sweep", "check"])
def test_bad_jobs_environment_is_a_usage_error(
    monkeypatch, capsys, tmp_path, value, message, command
):
    monkeypatch.setenv("SPINENT_JOBS", value)
    argv = {
        "sweep": ["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:3",
                  "--out", str(tmp_path / "x.csv")],
        "check": ["check", "--criteria", "4"],
    }[command]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value,jobs", [("2", 2), ("", 1)])
def test_jobs_environment_sets_the_default(monkeypatch, tmp_path, value, jobs):
    monkeypatch.setenv("SPINENT_JOBS", value)
    out = tmp_path / "x.csv"
    argv = [
        "sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:2", "--out", str(out),
    ]
    assert cli.run(argv) == 0
    assert f'"jobs": {jobs},' in out.read_text()
    # the flag wins over the environment, and only subcommands with --jobs read it
    monkeypatch.setenv("SPINENT_JOBS", "0")
    assert cli.run(argv + ["--jobs", "1"]) == 0
    bethe = ["bethe", "--size", "4", "--delta", "0.5", "--out", str(tmp_path / "b.json")]
    assert cli.run(bethe) == 0


def test_sweep_writes_the_documented_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.run([
        "sweep", "--model", "xxz-half", "--sizes", "4,6",
        "--param", "0:1:3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# spinent {__version__}"
    assert lines[1] == "# command: sweep"
    assert lines[2].startswith("# config: {")
    assert "# rows: 6" in lines
    assert "# failed_rows: 0" in lines
    header_at = lines.index(CSV_HEADER)
    data = lines[header_at + 1 :]
    assert len(data) == 6
    first = data[0].split(",")
    assert len(first) == 11
    assert first[0] == "xxz_half"
    assert first[1] == "chain"
    assert first[2] == "4"
    assert first[3] == "0"
    workspace = SectorWorkspace("xxz_half", chain_lattice(4))
    report = scan_one(workspace, model_for("xxz_half", 0.0))
    assert first[4] == f"{report.ground_energy:.12g}"
    assert first[10] in ("0", "1")
    # config json is parseable and round-trips the request
    config = json.loads(lines[2].split("# config: ", 1)[1])
    assert config["sizes"] == [4, 6]
    assert config["grid"] == [0.0, 1.0, 3]


def test_sweep_output_is_deterministic_apart_from_timing(tmp_path):
    argv = [
        "sweep", "--model", "xxz-half", "--sizes", "6",
        "--param", "0:1:4",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(argv + ["--out", str(first)]) == 0
    assert cli.run(argv + ["--out", str(second)]) == 0
    left = _strip_elapsed(first.read_text().replace(str(first), "OUT"))
    right = _strip_elapsed(second.read_text().replace(str(second), "OUT"))
    assert left == right


def test_sweep_json_by_extension(tmp_path):
    out = tmp_path / "table.json"
    code = cli.run([
        "sweep", "--model", "xxz-one", "--sizes", "4",
        "--param", "0.5:1.5:2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["meta"]["command"] == "sweep"
    assert payload["meta"]["failed_rows"] == 0
    rows = payload["rows"]
    assert len(rows) == 2
    assert rows[0]["family"] == "xxz_one"
    assert rows[0]["concurrence"] is None
    assert rows[0]["error"] is None
    assert isinstance(rows[0]["energy"], float)


def test_sweep_annotates_failures_and_exits_two(tmp_path, capsys):
    """Both points overflow the N=8 Hamiltonian, a real solver failure."""
    out = tmp_path / "table.csv"
    code = cli.run([
        "sweep", "--model", "xxz-half", "--sizes", "8",
        "--param", "1e308:1.7e308:2", "--out", str(out),
    ])
    assert code == 2
    assert "2 of 2 rows failed" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert "# failed_rows: 2" in lines
    assert sum(1 for line in lines if line.startswith("# row_error:")) == 2
    data = lines[lines.index(CSV_HEADER) + 1 :]
    # numeric fields are left empty rather than faked
    assert data[0].split(",")[4] == ""


def test_sweep_out_of_memory_keeps_the_good_rows(tmp_path, capsys, monkeypatch):
    real_scan = analysis.ground_state_scan

    def scan(workspace, models, *, each, **kwargs):
        for model in models:
            if model.params["delta"] == 0.5:
                each(MemoryError())  # what a failed allocation in Python raises
            else:
                each(real_scan(workspace, [model], **kwargs)[0])

    monkeypatch.setattr(analysis, "ground_state_scan", scan)
    out = tmp_path / "table.csv"
    code = cli.run([
        "sweep", "--model", "xxz-half", "--sizes", "4",
        "--param", "0:1:3", "--out", str(out),
    ])
    assert code == 2
    assert "1 of 3 rows failed" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert "# row_error: param=0.5 size=4: MemoryError" in lines
    data = lines[lines.index(CSV_HEADER) + 1 :]
    assert [bool(line.split(",")[4]) for line in data] == [True, False, True]


def test_sweep_rejects_overflowing_parameters_without_warnings(tmp_path, capsys):
    """delta = 1e308 overflows the sum over bonds, and at 5e307 the matrix
    is finite but too large for a solve to stay finite. Both rows fail with
    the model named and one message, and no numpy warning is raised on the way."""
    out = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([
            "sweep", "--model", "xxz-half", "--sizes", "8",
            "--param", "0:1e308:3", "--out", str(out),
        ])
    assert code == 2
    assert "Warning" not in capsys.readouterr().err
    lines = out.read_text().splitlines()
    errors = [line for line in lines if line.startswith("# row_error:")]
    assert len(errors) == 2
    assert errors == [
        f"# row_error: param={delta} size=8: the Hamiltonian of xxz_half delta={delta} "
        "overflows: its entries are too large for a solve to stay finite"
        for delta in ("5e+307", "1e+308")
    ]
    data = lines[lines.index(CSV_HEADER) + 1 :]
    assert [bool(line.split(",")[4]) for line in data] == [True, False, False]


def test_sweep_rejects_a_lanczos_overflow_without_warnings(tmp_path, capsys):
    """At delta = 1e306 the 1,107-state Sz=0 sector of xxz_one L=8 (beta < 0,
    so it is solved whole by Lanczos) is finite, but the norm of its first
    Lanczos vector would overflow. The combination refuses it before any
    solve: the row fails with the model named, and no numpy warning is
    raised on the way."""
    out = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([
            "sweep", "--model", "xxz-one", "--sizes", "8", "--beta", "-0.2",
            "--param", "1:1e306:2", "--out", str(out),
        ])
    assert code == 2
    assert "Warning" not in capsys.readouterr().err
    lines = out.read_text().splitlines()
    errors = [line for line in lines if line.startswith("# row_error:")]
    assert errors == [
        "# row_error: param=1e+306 size=8: the Hamiltonian of xxz_one delta=1e+306 "
        "beta=-0.2 overflows: its entries are too large for a solve to stay finite"
    ]
    data = lines[lines.index(CSV_HEADER) + 1 :]
    assert [bool(line.split(",")[4]) for line in data] == [True, False]


_BENCHMARK_REFERENCE = (
    Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "blbq_phase_map_seed0.csv"
)
_CONFIG = "# config: "


def test_blbq_phase_map_matches_the_benchmark_reference(tmp_path):
    """The benchmark's seed-0 byte check: the sweep on the grid of the stored
    CSV's config line reproduces it line by line, apart from the timing and
    the output path. The stored file is only read."""
    reference = _BENCHMARK_REFERENCE.read_text().splitlines()
    config = json.loads(next(line for line in reference if line.startswith(_CONFIG))[len(_CONFIG):])
    start, end, count = config["grid"]
    out = tmp_path / "blbq_phase_map.csv"
    code = cli.run([
        "sweep", "--model", config["model"], "--sizes", ",".join(map(str, config["sizes"])),
        "--param", f"{start!r}:{end!r}:{count}", "--jobs", str(config["jobs"]),
        "--out", str(out),
    ])
    assert code == 0
    produced = _strip_elapsed(out.read_text())
    expected = [line for line in reference if not line.startswith("# elapsed_seconds:")]
    assert len(produced) == len(expected)
    for ours, stored in zip(produced, expected):
        if stored.startswith(_CONFIG):
            ours_config = json.loads(ours[len(_CONFIG):])
            assert ours_config.pop("out") == str(out)
            config.pop("out")
            assert ours_config == config
        else:
            assert ours == stored


def test_module_entry_point_runs_the_cli():
    paths = [str(Path(spinent.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "spinent.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"spinent {__version__}"


def test_every_exported_name_resolves():
    missing = [name for name in spinent.__all__ if not hasattr(spinent, name)]
    assert not missing
    assert len(set(spinent.__all__)) == len(spinent.__all__)


def test_benchmark_tracer_wraps_names_that_resolve():
    """The benchmark's tracer (perfbench/tracing.py, read here, never
    changed) wraps spinent functions at the names the calling modules bind
    them under; a name a refactor drops would break ``--trace 1``.
    Installing must wrap each of them, uninstalling must put every original
    back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer("names")
    try:
        tracer.install()
        wrapped = list(tracer._originals)
        assert all(getattr(module, attr) is not original for module, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in wrapped)
    names = {f"{module.__name__.rsplit('.', 1)[1]}.{attr}" for module, attr, _ in wrapped}
    assert {
        "hamiltonian.build_basis", "hamiltonian.assemble_parts", "hamiltonian.combine_parts",
        "eigensolver.lanczos_lowest", "checks.dense_lowest", "checks.lanczos_lowest",
        "analysis.two_site_rdm", "analysis.ground_state_scan", "cli.run",
    } <= names


def test_benchmark_workloads_build_their_workspaces(monkeypatch):
    """The benchmark's set-up and references (perfbench/workloads.py, read
    here, never changed) call SectorWorkspace directly: each family's
    ``_build_workspace`` builds every Sz >= 0 sector of a ring, and
    OneChainL12 reads ``workspace.matrix(model, 0.0).matrix``. A workspace
    refactor that drops either would break the benchmark."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    modules = {}
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, root / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        # workloads.py imports tracing by its bare name
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    workloads = modules["workloads"]
    for family in ("xxz_half", "xxz_one", "blbq"):
        seconds, workspace = workloads._build_workspace(family, 6, keep=False)
        assert seconds >= 0.0
        assert isinstance(workspace, SectorWorkspace) and workspace.family == family
        for sz in nonnegative_sectors(workspace.spin, 6):
            basis, parts = workspace.sector(sz)
            assert all(part.shape == (basis.dimension,) * 2 for part in parts.values())
        model = model_for(family, 1.3)
        matrix = workspace.matrix(model, 0.0).matrix
        assert matrix.shape == (workspace.basis(0.0).dimension,) * 2
        assert abs(matrix - matrix.T).max() == 0.0
    assert workloads.WORKLOADS["one_chain_l12"].family == "xxz_one"


def test_spectrum_reports_levels_and_clusters(tmp_path):
    out = tmp_path / "levels.json"
    code = cli.run([
        "spectrum", "--model", "blbq", "--theta", repr(3 * math.pi / 2),
        "--size", "6", "--levels", "12", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    levels = payload["levels"]
    assert len(levels) == 12
    energies = [entry["energy"] for entry in levels]
    assert energies == sorted(energies)
    assert levels[0]["sz"] == 0
    # the complete 8-fold cluster carries its spin-flip partners
    cluster_sz = sorted(entry["sz"] for entry in levels[1:9])
    assert cluster_sz == sorted(-v for v in cluster_sz)
    clusters = payload["clusters"]
    assert clusters[0]["multiplicity"] == 1
    assert clusters[1]["multiplicity"] == 8
    assert sum(c["multiplicity"] for c in clusters) == 12


def test_bethe_energy_matches_diagonalization(tmp_path):
    out = tmp_path / "bethe.json"
    assert cli.run(["bethe", "--size", "12", "--delta", "0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ham = SectorWorkspace("xxz_half", chain_lattice(12)).matrix(model_for("xxz_half", 0.5), 0.0)
    reference = float(np.linalg.eigvalsh(ham.matrix.toarray())[0])
    assert abs(payload["energy"] - reference) <= 1e-8
    assert payload["max_equation_residual"] <= 1e-10
    assert len(payload["rapidities"]) == 6


def test_bethe_rejects_the_gapped_regime(tmp_path, capsys):
    out = tmp_path / "bethe.json"
    assert cli.run(["bethe", "--size", "12", "--delta", "1.5", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_pipeline_writes_extrema_and_fits(tmp_path):
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", "xxz-half", "--sizes", "6,8,10",
        "--param", "0.8:1.2:5", "--observable", "ev",
        "--no-derivative", "--extremum", "max", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [entry["size"] for entry in payload["extrema"]] == [6, 8, 10]
    for entry in payload["extrema"]:
        assert 0.8 <= entry["param"] <= 1.2
    forms = [fit["form"] for fit in payload["fits"]]
    assert forms == ["inverse_L", "inverse_L_squared"]


def test_scaling_boundary_extremum_exits_two(tmp_path, capsys):
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", "xxz-half", "--sizes", "6,8,10",
        "--param", "0:1:5", "--observable", "energy",
        "--extremum", "min", "--out", str(out),
    ])
    assert code == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["xxz-one", "blbq"])
def test_scaling_concurrence_of_spin_one_is_a_usage_error(model, tmp_path, capsys, monkeypatch):
    """Spin-1 rows carry no concurrence, so the request is refused before any
    sweep runs; it used to exit 2 on a grid minimum of NaNs."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(analysis, "sweep", no_sweep)
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", model, "--sizes", "4,6,8", "--param", "0.5:1.5:5",
        "--observable", "concurrence", "--out", str(out),
    ])
    assert code == 1
    assert "concurrence is defined for spin-1/2 models only" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_lost_rows_error_quotes_the_first_failure(tmp_path, capsys, monkeypatch):
    """It used to report only a count and a residual of nan, and then the
    row's error with a residual of nan after it."""
    real_scan = analysis.ground_state_scan

    def scan(workspace, models, *, each, **kwargs):
        for model in models:
            if model.params["delta"] == 0.5:
                each(MemoryError("Unable to allocate 1. GiB for an array"))
            else:
                each(real_scan(workspace, [model], **kwargs)[0])

    monkeypatch.setattr(analysis, "ground_state_scan", scan)
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", "xxz-half", "--sizes", "4,6,8", "--param", "0:1:5",
        "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: size 4 lost 1 rows to solver failures, the first at 0.5: "
        "Unable to allocate 1. GiB for an array\n"
    )
    assert not out.exists()


def test_scaling_and_criterion_7_run_one_pipeline(tmp_path, monkeypatch):
    """`spinent scaling` with criterion 7's model, sizes and grid computes the
    very minima and fits the criterion judges, and writes them rounded."""
    results = []

    def recorded(*args, **kwargs):
        results.append(analysis.extremum_scaling(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "extremum_scaling", recorded)
    monkeypatch.setattr(checks, "extremum_scaling", recorded)
    out = tmp_path / "scaling.json"
    assert cli.run([
        "scaling", "--model", "xxz-one", "--sizes", "8,10,12", "--param", "0.9:2.1:25",
        "--out", str(out),
    ]) == 0
    assert checks.run_criterion(7).passed
    (extrema, fits), criterion = results
    assert (extrema, fits) == criterion
    payload = json.loads(out.read_text())
    assert payload["extrema"] == [
        {"size": size, "param": cli._rounded(param), "value": cli._rounded(value)}
        for size, param, value in extrema
    ]
    assert payload["fits"] == [cli._rounded(asdict(fit)) for fit in fits]


def test_observable_names_have_one_source(tmp_path):
    """The --observable choices, the CSV value columns and the JSON row keys
    are all analysis.OBSERVABLES, and so are SweepRow's value fields; spin-1
    rows leave out what it says."""
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    choices = subcommands["scaling"]._option_string_actions["--observable"].choices
    assert tuple(choices) == tuple(analysis.OBSERVABLES)
    argv = ["sweep", "--model", "xxz-one", "--sizes", "4", "--param", "0.5:1.5:2", "--out"]
    assert cli.run(argv + [str(tmp_path / "t.csv")]) == 0
    assert cli.run(argv + [str(tmp_path / "t.json")]) == 0
    header = next(line for line in (tmp_path / "t.csv").read_text().splitlines()
                  if line.startswith("family,"))
    columns = header.split(",")
    assert tuple(columns[columns.index("param") + 1 : columns.index("degeneracy")]) == (
        tuple(analysis.OBSERVABLES)
    )
    assert analysis.SweepRow._fields == (
        "family", "geometry", "size", "param", *analysis.OBSERVABLES,
        "degeneracy", "degenerate_flag", "error",
    )
    row = json.loads((tmp_path / "t.json").read_text())["rows"][0]
    assert set(analysis.OBSERVABLES) <= set(row)
    filled = analysis.observables("xxz_one")
    assert [key for key in analysis.OBSERVABLES if row[key] is not None] == list(filled)
    assert "concurrence" not in filled
    assert analysis.observables("xxz_half") == tuple(analysis.OBSERVABLES)


def test_scaling_repeated_size_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """A size listed twice is refused before any sweep runs; it used to run
    the whole sweep and then exit 1 on a grid that is not ascending."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(analysis, "sweep", no_sweep)
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", "xxz-half", "--sizes", "6,6,8", "--param", "0.5:1.5:5",
        "--out", str(out),
    ])
    assert code == 1
    assert "got 6 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_with_fewer_than_three_grid_points_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    """A two-point grid is refused before any sweep runs; it used to run the
    whole sweep and then exit 1 in finite_difference."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(analysis, "sweep", no_sweep)
    out = tmp_path / "scaling.json"
    code = cli.run([
        "scaling", "--model", "xxz-one", "--sizes", "6,8,10", "--param", "0.9:2.1:2",
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: need at least 3 points, got 2\n"
    assert not out.exists()


def test_spectrum_levels_past_the_dense_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """Asking for every level of a sector above the dense limit would need
    a dense array of that size; it is refused, naming the sector, before
    anything is assembled. Here the limit is lowered to 50 states, below
    the N=8 ring's Sz=0 (70 states) and Sz=1 (56) sectors."""
    monkeypatch.setattr(eigensolver, "_DENSE_LIMIT", 50)
    monkeypatch.setattr(analysis, "_WORKSPACES", {})

    def no_assembly(*args, **kwargs):
        raise AssertionError("a block was assembled")

    out = tmp_path / "levels.json"
    argv = ["spectrum", "--model", "xxz-half", "--size", "8", "--delta", "0.5", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(hamiltonian, "assemble_parts", no_assembly)
        assert cli.run(argv + ["--levels", "60"]) == 1
    err = capsys.readouterr().err
    assert "56-state sector Sz=1" in err and "50-state limit" in err
    assert not out.exists()
    assert cli.run(argv + ["--levels", "40"]) == 0
    assert len(json.loads(out.read_text())["levels"]) == 40


def test_spectrum_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 273. GiB for an array")

    monkeypatch.setattr(cli, "low_spectrum", out_of_memory)
    out = tmp_path / "levels.json"
    code = cli.run([
        "spectrum", "--model", "xxz-half", "--size", "8", "--delta", "0.5",
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: out of memory: Unable to allocate 273. GiB for an array\n"
    assert not out.exists()


def test_check_subset_prints_summary_lines(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.run(["check", "--criteria", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "criterion 4: PASS" in captured.out
    assert "1/1 criteria passed" in captured.out
    assert "running criterion 4" in captured.err
    payload = json.loads(out.read_text())
    assert payload["results"][0]["number"] == 4
    assert payload["results"][0]["passed"] is True


# Each subcommand with a small run that succeeds, and the library entry it calls.
_OUT_RUNS = {
    "sweep": (["sweep", "--model", "xxz-half", "--sizes", "4", "--param", "0:1:3"], "sweep"),
    "spectrum": (
        ["spectrum", "--model", "xxz-half", "--size", "6", "--delta", "0.5"], "low_spectrum"
    ),
    "bethe": (["bethe", "--size", "6", "--delta", "0.5"], "solve_ground"),
    "scaling": (
        ["scaling", "--model", "xxz-half", "--sizes", "6,8,10", "--param", "0.8:1.2:5",
         "--no-derivative", "--extremum", "max"],
        "extremum_scaling",
    ),
    "check": (["check", "--criteria", "4"], "run_all"),
}


def _run_without_work(command, out, monkeypatch):
    """The command's small run with ``--out out`` and its library entry
    patched to fail if called."""
    argv, entry = _OUT_RUNS[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{entry} ran")

    monkeypatch.setattr(cli, entry, no_work)
    return cli.run(argv + ["--out", str(out)])


@pytest.mark.parametrize("command", sorted(_OUT_RUNS))
def test_out_in_a_missing_directory_is_refused_before_any_work(
    command, tmp_path, capsys, monkeypatch
):
    """It used to compute everything and then die in a traceback."""
    out = tmp_path / "missing" / "x.json"
    assert _run_without_work(command, out, monkeypatch) == 1
    assert capsys.readouterr().err == f"error: --out {out}: no directory {out.parent}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(_OUT_RUNS))
def test_out_that_names_a_directory_is_refused_before_any_work(
    command, tmp_path, capsys, monkeypatch
):
    """It used to pass the up-front check and fail only at the write, after
    all the work (`check --criteria 4 --out <dir>` ran criterion 4 first)."""
    out = tmp_path / "taken"
    out.mkdir()
    assert _run_without_work(command, out, monkeypatch) == 1
    assert capsys.readouterr().err == f"error: --out {out}: is a directory\n"
    assert list(tmp_path.iterdir()) == [out] and not list(out.iterdir())


@pytest.mark.parametrize("command", sorted(_OUT_RUNS))
def test_out_that_cannot_be_written_exits_one_in_one_line(
    command, tmp_path, capsys, monkeypatch
):
    """A write that fails after the work (here a full disk) is one error
    line and exit 1, not a traceback."""
    argv, _ = _OUT_RUNS[command]

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "x.json"
    assert cli.run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("running criterion")] == [
        f"error: could not write --out {out}: {os.strerror(errno.ENOSPC)}"
    ]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", sorted(_OUT_RUNS))
def test_an_option_added_to_the_parser_lands_in_the_config(command, tmp_path, monkeypatch):
    """config is the parsed command line: a new option needs no other edit
    to be recorded."""
    build = cli._build_parser

    def with_probe():
        parser = build()
        for subcommand in parser._subparsers._group_actions[0].choices.values():
            subcommand.add_argument("--probe", default="probe default")
        return parser

    monkeypatch.setattr(cli, "_build_parser", with_probe)
    argv, _ = _OUT_RUNS[command]
    out = tmp_path / "x.json"
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["config"]["probe"] == "probe default"


def test_bethe_and_check_payloads_are_their_result_objects(tmp_path):
    out = tmp_path / "bethe.json"
    assert cli.run(_OUT_RUNS["bethe"][0] + ["--out", str(out)]) == 0
    assert set(json.loads(out.read_text())) == {f.name for f in fields(BetheState)} | {"meta"}
    out = tmp_path / "check.json"
    assert cli.run(_OUT_RUNS["check"][0] + ["--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert set(result) == {f.name for f in fields(checks.CriterionResult)}


def test_choice_lists_are_their_library_owners():
    """--model, --geometry and --extremum offer exactly the names the
    library defines, on every subcommand that takes them (--observable has
    its own test above)."""
    owners = {
        "model": sorted(family.replace("_", "-") for family in hamiltonian.FAMILIES),
        "geometry": list(analysis.GEOMETRIES),
        "extremum": list(analysis.EXTREMA),
    }
    assert sorted(cli._MODEL_NAMES.values()) == sorted(hamiltonian.FAMILIES)
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    offered = {}
    for name, parser in subcommands.items():
        for action in parser._actions:
            if action.dest in owners:
                offered[name, action.dest] = list(action.choices)
    assert offered == {
        (name, dest): owners[dest]
        for name in ("sweep", "spectrum", "scaling")
        for dest in ("model", "geometry")
    } | {("scaling", "extremum"): owners["extremum"]}
