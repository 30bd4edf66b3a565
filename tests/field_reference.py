"""Dict-loop references for the field engine and the field readers.

``reference_convolve`` and ``reference_residual`` are ``nonlin.convolve``
and ``nonlin.residual`` as they were before the integer k code: each field
grouped by space site into dicts keyed by k tuples, every key built as a
tuple and checked with ``canonical_k``.  ``reference_residual`` takes its
power from ``reference_power`` (no powers are kept on the field), so it
shares no code with the engine.  ``reference_weighted_tail_norm``,
``reference_compare`` and ``reference_oracle_values`` are the readers that
went through ``Site``, ``CoefficientField.get`` and a rebuilt dict per key.
Each keeps the summation order of the fast form, so outputs are equal bit
for bit.
"""

import math
from typing import Dict

import numpy as np

from qpwave.lattice import Site, canonical_k, neighbor_offsets
from qpwave.nonlin import CoefficientField
from qpwave.spectrum import mu


def reference_convolve(qa: CoefficientField,
                       qb: CoefficientField) -> CoefficientField:
    if (qa.b, qa.d) != (qb.b, qb.d):
        raise ValueError("fields live on different lattices")
    slices_b = qb.by_site()
    data: Dict[tuple, float] = {}
    for n, a in qa.by_site().items():
        b = slices_b.get(n)
        if b is None:
            continue
        acc: Dict[tuple, float] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                acc[key] = acc.get(key, 0.0) + va * vb
        for k, v in acc.items():
            if k == canonical_k(k):
                data[(k, n)] = v
    return CoefficientField(data, qa.b, qa.d, _trusted=True)


def reference_power(q: CoefficientField, order: int) -> CoefficientField:
    """q_*^order, each power the previous one convolved with q once more."""
    out = q
    for _ in range(order - 1):
        out = reference_convolve(out, q)
    return out


def reference_residual(q: CoefficientField, omega, params) -> CoefficientField:
    omega = np.asarray(omega, dtype=float)
    data: Dict[tuple, float] = {}

    def add(k: tuple, n: tuple, v: float):
        key = (canonical_k(k), n)
        data[key] = data.get(key, 0.0) + v

    mu_cache: Dict[tuple, float] = {}

    def mu2(n: tuple) -> float:
        if n not in mu_cache:
            mu_cache[n] = mu(n, params) ** 2
        return mu_cache[n]

    offs = neighbor_offsets(q.d)
    for (k, n), v in q._data.items():
        kw = float(np.dot(k, omega))
        add(k, n, (mu2(n) - kw * kw) * v)
        if params.eps != 0.0:
            for off in offs:
                add(k, tuple(x + o for x, o in zip(n, off)), params.eps * v)
    if params.delta != 0.0:
        power = reference_power(q, params.p + 1)
        for (k, n), v in power._data.items():
            add(k, n, params.delta * v)

    return CoefficientField(data, q.b, q.d, _trusted=True)


def reference_weighted_tail_norm(q: CoefficientField, rho: float, S) -> float:
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    out = 0.0
    for k, n, v in q.full_items():
        if Site(k, n) in S:
            continue
        out += abs(v) * math.exp(rho * Site(k, n).order)
    return out


def reference_compare(q_solution: CoefficientField, q_oracle: CoefficientField,
                      box: int) -> float:
    """The sup discrepancy of ``solver.compare_with_oracle`` at ``box``."""
    worst = 0.0
    keys = {(k, n) for field in (q_solution, q_oracle)
            for k, n, _v in field.canonical_items()}
    for k, n in keys:
        if max((abs(x) for x in k + n), default=0) > box:
            continue
        diff = abs(q_solution.get(k, n) - q_oracle.get(k, n))
        worst = max(worst, diff)
    return worst


def reference_oracle_values(keys, field: CoefficientField) -> np.ndarray:
    """``_OracleSystem.values``: the field at the canonical ``keys``."""
    stored = {(k, n): v for k, n, v in field.canonical_items()}
    return np.array([stored.get(key, 0.0) for key in keys])
