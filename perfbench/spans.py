"""In-memory span tracing of qpwave's layers, installed from outside the package.

Each traced function is wrapped by rebinding the module attribute that its
callers look up at call time (``qpwave.solver.convolve_power`` as well as
``qpwave.nonlin.convolve_power``, ``scipy.linalg.lu_factor`` as ``solver``
resolves it, ``numpy.linalg.eigvalsh`` as ``linop`` resolves it, ...).  Nothing
under ``src/`` is modified.  Spans are kept in flat arrays as
(name, start, end, parent, op id) and aggregated into per-layer metrics when the
run ends; :meth:`Tracer.uninstall` restores every rebound name and
:func:`leftover_wrappers` proves that none is left behind.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import time
from array import array
from collections import defaultdict

import numpy.linalg
import scipy.linalg
import scipy.sparse.linalg

from qpwave import cli, lattice, linop, nonlin, solver, spectrum

PHASE_PREFIX = "op."   # spans the benchmark opens around each phase of an op
MARKER = "_perfbench_span"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_convolve(tracer, args, kwargs, result):
    tracer.count("nonlin.convolve_power.input_entries",
                 len(_first_arg(args, kwargs, "q")))
    tracer.count("nonlin.convolve_power.output_entries", len(result))


def _count_index(tracer, args, kwargs, result):
    tracer.count("lattice.box_sites", result.size)


def _count_nnz(tracer, args, kwargs, result):
    tracer.count("linop.assemble_sparse.nnz", result.nnz)


def _count_solve(tracer, args, kwargs, result):
    tracer.count("solver.solve.stages", len(result.trace) - 1)
    tracer.count("solver.field_entries", len(result.q))


def _count_oracle(tracer, args, kwargs, result):
    tracer.count("solver.oracle.iterations", result.iterations)


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("cli.write_file.bytes",
                 os.path.getsize(_first_arg(args, kwargs, "path")))


class _CountedSuperLU:
    """Stands in for the SuperLU object ``splu`` returns so that the sparse
    back-solves ``p_step`` runs through ``lu.solve`` are spans too."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        idx = self._tracer.open("solver.backsolve")
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _wrap_splu(tracer, args, kwargs, result):
    return _CountedSuperLU(tracer, result)


# span name -> (the (module, attribute) pairs callers resolve, post-call hook)
# A hook returning a value other than None replaces the call's result.
TARGETS = {
    "nonlin.convolve_power": ([(nonlin, "convolve_power"),
                               (solver, "convolve_power")], _count_convolve),
    "nonlin.residual": ([(nonlin, "residual"), (solver, "residual")], None),
    "nonlin.linearize": ([(nonlin, "linearize"), (solver, "linearize")], None),
    "nonlin.quality": ([(solver, "pde_residual"),
                        (solver, "weighted_tail_norm")], None),
    "solver.solve": ([(solver, "solve")], _count_solve),
    "solver.q_step": ([(solver, "q_step")], None),
    "solver.p_step": ([(solver, "p_step")], None),
    "solver.decay_fit": ([(solver, "decay_fit")], None),
    "solver.brute_force_oracle": ([(solver, "brute_force_oracle")],
                                  _count_oracle),
    "solver.lu_factor": ([(scipy.linalg, "lu_factor")], None),
    "solver.backsolve": ([(scipy.linalg, "lu_solve")], None),
    "solver.splu": ([(scipy.sparse.linalg, "splu")], _wrap_splu),
    "lattice.index_map": ([(lattice, "index_map"), (solver, "index_map"),
                           (linop, "index_map")], _count_index),
    "linop.assemble": ([(linop, "assemble"), (solver, "assemble")], None),
    "linop.assemble_sparse": ([(linop, "assemble_sparse"),
                               (solver, "assemble_sparse")], _count_nnz),
    "linop.lde_scan": ([(linop, "lde_scan")], None),
    "linop.elementary_region_family": ([(linop, "elementary_region_family")],
                                       None),
    "linop.eigvalsh": ([(numpy.linalg, "eigvalsh")], None),
    "linop.inv": ([(numpy.linalg, "inv")], None),
    "spectrum.admissible_m_scan": ([(spectrum, "admissible_m_scan")], None),
    "spectrum.cluster_scan": ([(spectrum, "cluster_scan")], None),
    "spectrum.dc_checks": ([(spectrum, "check_alpha_dc"),
                            (spectrum, "check_theta_dc"),
                            (spectrum, "separation_certificate")], None),
    "spectrum.transversality_margin": ([(spectrum, "transversality_margin")],
                                       None),
    "cli.load_config": ([(cli, "load_config")], None),
    "cli.write_file": ([(cli, "write_file")], _count_bytes),
    "cli.field_records": ([(cli, "field_records")], None),
}

MODULES = (nonlin, solver, lattice, linop, spectrum, cli, numpy.linalg,
           scipy.linalg, scipy.sparse.linalg)


class Tracer:
    """Span recorder for one benchmark run (single-threaded)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")     # an enclosing span has the same name
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self.op_id = -1
        self.counts: dict = defaultdict(float)   # counter -> total
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nested.append(self._depth[name] > 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[name] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[self.name_id[idx]]] -= 1

    def count(self, counter: str, value) -> None:
        self.counts[counter] += value

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                replaced = hook(tracer, args, kwargs, result)
                if replaced is not None:
                    return replaced
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (sites, hook) in TARGETS.items():
            for module, attr in sites:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated rows: name start end parent op."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")


def leftover_wrappers() -> list:
    """Names in the traced modules that still hold a span wrapper."""
    return [f"{m.__name__}.{attr}" for m in MODULES
            for attr, value in vars(m).items() if hasattr(value, MARKER)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


COUNTERS = {"nonlin.convolve_power.input_entries": "count",
            "nonlin.convolve_power.output_entries": "count",
            "lattice.box_sites": "count", "linop.assemble_sparse.nnz": "count",
            "solver.solve.stages": "count", "solver.field_entries": "count",
            "solver.oracle.iterations": "count", "cli.write_file.bytes": "bytes"}


def layer_metrics(tracer: Tracer, op_walls: dict) -> tuple:
    """Per-op means of the per-layer metrics over the traced ops.

    ``op_walls`` maps each traced op id to its wall time.  Returns
    (metrics, notes): metrics maps name -> (value, unit); notes holds the
    base of each ratio and, under "breakdown", the per-op calls and busy
    time of every layer split by the op phase they ran in.
    """
    n_ops = len(op_walls)
    names = tracer.names
    n = len(tracer.start)
    busy = defaultdict(float)         # outermost spans only
    self_time = defaultdict(float)
    calls = defaultdict(int)
    by_phase = defaultdict(lambda: defaultdict(float))
    child_sum = [0.0] * n
    root = [0] * n
    in_oracle = [False] * n
    top_level = defaultdict(float)    # op id -> library time directly in phases
    oracle_residuals = 0
    for i in range(n):
        name = names[tracer.name_id[i]]
        dur = tracer.end[i] - tracer.start[i]
        par = tracer.parent[i]
        root[i] = i if par < 0 else root[par]
        in_oracle[i] = name == "solver.brute_force_oracle" or (
            par >= 0 and in_oracle[par])
        if par >= 0:
            child_sum[par] += dur
        if name.startswith(PHASE_PREFIX):
            continue
        if par < 0 or names[tracer.name_id[par]].startswith(PHASE_PREFIX):
            top_level[tracer.op[i]] += dur
        phase = names[tracer.name_id[root[i]]][len(PHASE_PREFIX):]
        calls[name] += 1
        by_phase[name + ".calls"][phase] += 1
        if not tracer.nested[i]:
            busy[name] += dur
            by_phase[name + ".busy_s"][phase] += dur
        if name == "nonlin.residual" and in_oracle[i]:
            oracle_residuals += 1
    for i in range(n):
        if not tracer.nested[i]:
            name = names[tracer.name_id[i]]
            self_time[name] += tracer.end[i] - tracer.start[i] - child_sum[i]

    counts = tracer.counts

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    m = {}
    for name in TARGETS:
        m[name + ".calls"] = (per_op(calls[name]), "count")
        m[name + ".busy_s"] = (per_op(busy[name]), "s")
    for name in ("solver.p_step", "linop.lde_scan"):
        m[name + ".self_s"] = (per_op(self_time[name]), "s")
    for counter, unit in COUNTERS.items():
        m[counter] = (per_op(counts[counter]), unit)
    m["solver.backsolves"] = m["solver.backsolve.calls"]
    m["spectrum.calls"] = (sum(per_op(calls[k]) for k in TARGETS
                               if k.startswith("spectrum.")), "count")
    m["solver.oracle.residual_calls"] = (per_op(oracle_residuals), "count")
    iterations = counts["solver.oracle.iterations"]
    m["solver.oracle.residual_calls_per_iteration"] = (
        _ratio(oracle_residuals, iterations), "ratio")
    m["linop.inv_per_eig"] = (
        _ratio(calls["linop.inv"], calls["linop.eigvalsh"]), "ratio")
    m["untraced_s"] = (statistics.median(
        op_walls[op] - top_level[op] for op in op_walls) if n_ops else 0.0, "s")

    notes = {
        "solver.oracle.residual_calls_per_iteration":
            f"base {iterations:g} oracle iterations",
        "linop.inv_per_eig": f"base {calls['linop.eigvalsh']} eigvalsh calls",
        "breakdown": {key: {ph: per_op(v) for ph, v in sorted(phases.items())}
                      for key, phases in sorted(by_phase.items())},
    }
    return m, notes
