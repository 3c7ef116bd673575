"""Span and counter recorder that instruments spinent from the outside.

Nothing in ``src/`` knows about tracing. ``Tracer.install`` replaces each
public function at the name the *calling* module binds it under (for
example ``analysis.two_site_rdm``, ``checks.lanczos_lowest``), so a call
made through that binding is recorded as a span. Sector matrices coming
out of ``combine_parts`` are handed on inside a proxy that forwards every
attribute and counts each ``@`` as one matvec.

Spans stay in memory as (name, start, end, parent) for one workload and
are written out once, by ``write_spans``, when the run ends. ``layer_metrics``
turns them into the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Criteria the check_battery workload runs; 7 is left out (see README.md).
BATTERY_CRITERIA = (1, 2, 3, 4, 5, 6, 8, 9, 10)

# Counters that must repeat exactly between two traced runs of one input.
DETERMINISTIC_COUNTERS = (
    "eigensolver.matvecs",
    "eigensolver.lanczos_calls",
    "hamiltonian.combine_calls",
    "hamiltonian.nnz",
    "basis.states",
    "bethe.solves",
)


class CountingMatrix:
    """Stand-in for a sector CSR matrix that counts and times each ``@``.

    Bytes are computed, not measured: the CSR arrays plus the input and
    output vectors of every product, ignoring cache reuse.
    """

    def __init__(self, matrix, tracer: "Tracer"):
        self._matrix = matrix
        self._tracer = tracer
        self._csr_bytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes

    def __matmul__(self, vector):
        with self._tracer.span("eigensolver.matvec"):
            product = self._matrix @ vector
        counters = self._tracer.counters
        counters["eigensolver.matvecs"] += 1
        counters["eigensolver.matvec_bytes_computed"] += (
            self._csr_bytes + vector.nbytes + product.nbytes
        )
        return product

    def __getitem__(self, key):
        return self._matrix[key]

    def __getattr__(self, name):
        return getattr(self._matrix, name)


def _count_states(tracer, basis):
    tracer.counters["basis.states"] += basis.dimension
    return basis


def _count_nnz(tracer, parts):
    tracer.counters["hamiltonian.nnz"] += sum(part.nnz for part in parts.values())
    return parts


def _count_combine(tracer, matrix):
    tracer.counters["hamiltonian.combine_calls"] += 1
    return CountingMatrix(matrix, tracer)


def _counter(name):
    def count(tracer, result):
        tracer.counters[name] += 1
        return result

    return count


def _criterion_name(args):
    return f"checks.criterion_{args[0]}"


class Tracer:
    """In-memory spans and counters for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
            return after(tracer, result) if after is not None else result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def install(self) -> None:
        """Wrap every public spinent function the workloads reach."""
        from spinent import analysis, checks, cli, eigensolver, hamiltonian

        table = [
            (hamiltonian, "build_basis", "basis.build", _count_states),
            (hamiltonian, "assemble_parts", "hamiltonian.assemble", _count_nnz),
            (hamiltonian, "combine_parts", "hamiltonian.combine", _count_combine),
            (eigensolver, "lanczos_lowest", "eigensolver.lanczos",
             _counter("eigensolver.lanczos_calls")),
            (checks, "lanczos_lowest", "eigensolver.lanczos",
             _counter("eigensolver.lanczos_calls")),
            (analysis, "ground_state_scan", "eigensolver.ground_state_scan", None),
            (checks, "dense_lowest", "eigensolver.dense_lowest", None),
            (checks, "low_spectrum", "eigensolver.low_spectrum", None),
            (checks, "solve_ground", "bethe.solve", _counter("bethe.solves")),
            (cli, "run", "cli.run", None),
            (cli, "sweep", "analysis.sweep", None),
            (checks, "sweep", "analysis.sweep", None),
            (checks, "run_criterion", _criterion_name, None),
        ]
        for module in (analysis, checks):
            table += [
                (module, "two_site_rdm", "entanglement.rdm", None),
                (module, "von_neumann_entropy", "entanglement.entropy", None),
                (module, "bond_correlators", "entanglement.correlators", None),
            ]
        table.append((analysis, "concurrence", "entanglement.entropy", None))
        for module, attr, name, after in table:
            self._wrap(module, attr, name, after)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "workload": self.workload,
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals, self times and counters from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children. ``lanczos_other_s`` is the self time of Lanczos calls, which
    is everything but the matvecs: reorthogonalization and the Ritz step.
    ``dense_s`` is the self time of the scan and of the dense/spectrum
    entry points, i.e. dense ``eigh`` plus their bookkeeping.
    """
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(tracer.spans):
        total[name] += end - start
        own[name] += end - start - child_time[index]
    counters = tracer.counters
    metrics = {
        "basis.build_s": total["basis.build"],
        "basis.states": counters["basis.states"],
        "hamiltonian.assemble_s": total["hamiltonian.assemble"],
        "hamiltonian.nnz": counters["hamiltonian.nnz"],
        "hamiltonian.combine_s": total["hamiltonian.combine"],
        "hamiltonian.combine_calls": counters["hamiltonian.combine_calls"],
        "eigensolver.lanczos_s": total["eigensolver.lanczos"],
        "eigensolver.lanczos_calls": counters["eigensolver.lanczos_calls"],
        "eigensolver.matvecs": counters["eigensolver.matvecs"],
        "eigensolver.matvec_s": total["eigensolver.matvec"],
        "eigensolver.matvec_bytes_computed": counters["eigensolver.matvec_bytes_computed"],
        "eigensolver.lanczos_other_s": own["eigensolver.lanczos"],
        "eigensolver.dense_s": own["eigensolver.ground_state_scan"]
        + own["eigensolver.dense_lowest"] + own["eigensolver.low_spectrum"],
        "entanglement.rdm_s": total["entanglement.rdm"],
        "entanglement.entropy_s": total["entanglement.entropy"],
        "entanglement.correlators_s": total["entanglement.correlators"],
        "bethe.solve_s": total["bethe.solve"],
        "bethe.solves": counters["bethe.solves"],
        "cli.self_s": own["cli.run"],
    }
    for number in BATTERY_CRITERIA:
        metrics[f"checks.criterion_{number}_s"] = total[f"checks.criterion_{number}"]
    return metrics
