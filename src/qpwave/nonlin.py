"""Sparse symmetric coefficient fields and the nonlinear lattice residual.

A coefficient field assigns a real amplitude to finitely many sites (k, n)
subject to the cosine-series symmetry q(k, n) = q(-k, n), enforced
structurally by storing only canonical k representatives.  The residual map
is F(q) = D q + eps * Laplacian(q) + delta * q_*^(p+1) with D the diagonal
mu_n^2 - (k.omega)^2 and the (p+1)-fold convolution taken in k per space
site.  Convolutions are exact sparse sums (supports stay tiny at the scales
this package targets).

Every field obeys one drop rule, applied by its constructor: it holds no
zero and no entry below ``DROP * sup_norm()``.  The coefficients decay
exponentially, so such entries are round-off, not solution; sums,
increments, convolutions and residuals all shed them the same way.
Fields are immutable, so each convolution power is computed once per field
and kept on it for later calls of :func:`convolve_power`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .lattice import ResonantSet, Site, canonical_k, neighbor_offsets
from .spectrum import ModelParams, mu

DROP = 1e-16  # a field keeps entries with |v| >= DROP * its sup norm, v != 0


class CoefficientField:
    """Immutable sparse map Site -> amplitude with q(k,n) = q(-k,n).

    Only the lexicographically larger of {k, -k} is stored (k = 0 once);
    lookups canonicalize.  Use :meth:`from_entries` to build one.  The
    constructor is the one place that decides what a field keeps: no zero
    and no entry below ``DROP * sup_norm()``.  Nothing writes to ``_data``
    after construction; ``_powers`` keeps the convolution powers already
    computed from it (order -> field).
    """

    __slots__ = ("_data", "b", "d", "_powers")

    def __init__(self, data: Dict[tuple, float], b: int, d: int, _trusted=False):
        if not _trusted:
            raise TypeError("use CoefficientField.from_entries")
        # the cut comes from the finite magnitudes, and a non-finite value is
        # always kept, for the callers' finite checks to see.  max skips a
        # NaN unless it comes first, so a finite max is the finite one's
        top = max(map(abs, data.values()), default=0.0)
        if not top < math.inf:
            top = max((a for a in map(abs, data.values()) if a < math.inf),
                      default=0.0)
        cut = DROP * top
        self._data = {key: v for key, v in data.items()
                      if v != 0.0 and not abs(v) < cut}
        self.b = b
        self.d = d
        self._powers: Dict[int, "CoefficientField"] = {}

    @classmethod
    def from_entries(cls, entries: Iterable, b: int, d: int) -> "CoefficientField":
        """Build from ((k, n), value) pairs; mirror entries must agree."""
        data: Dict[tuple, float] = {}
        for (k, n), v in (entries.items() if isinstance(entries, dict) else entries):
            k = tuple(int(x) for x in k)
            n = tuple(int(x) for x in n)
            if len(k) != b or len(n) != d:
                raise ValueError(f"entry ({k}, {n}) does not match (b={b}, d={d})")
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v} at ({k}, {n})")
            key = (canonical_k(k), n)
            if key in data and data[key] != v:
                raise ValueError(
                    f"conflicting values at {key}: {data[key]} vs {v} "
                    f"(symmetry q(k,n) = q(-k,n) violated)")
            data[key] = v
        return cls(data, b, d, _trusted=True)

    @classmethod
    def zero(cls, b: int, d: int) -> "CoefficientField":
        return cls({}, b, d, _trusted=True)

    # -- access ----------------------------------------------------------------

    def get(self, k: Sequence[int], n: Sequence[int]) -> float:
        key = (canonical_k(tuple(int(x) for x in k)), tuple(int(x) for x in n))
        return self._data.get(key, 0.0)

    def canonical_items(self) -> Iterator[Tuple[tuple, tuple, float]]:
        """(k, n, value) over stored (canonical) entries."""
        for (k, n), v in self._data.items():
            yield k, n, v

    def full_items(self) -> Iterator[Tuple[tuple, tuple, float]]:
        """(k, n, value) over the full lattice support (both k and -k)."""
        for (k, n), v in self._data.items():
            yield k, n, v
            if any(k):
                yield tuple(-x for x in k), n, v

    def as_arrays(self) -> tuple:
        """(vectors, values) over the full lattice support, in the order of
        :meth:`full_items`: rows (k | n) of an int array and their values."""
        items = list(self.full_items())
        return (np.array([k + n for k, n, _v in items], dtype=int).reshape(
                    len(items), self.b + self.d),
                np.array([v for _k, _n, v in items], dtype=float))

    def multiplicity(self, k: tuple) -> int:
        return 2 if any(k) else 1

    def __len__(self) -> int:
        return len(self._data)

    @property
    def num_lattice_entries(self) -> int:
        return sum(self.multiplicity(k) for (k, _n) in self._data.keys())

    # -- norms and support -----------------------------------------------------

    def sup_norm(self) -> float:
        return max((abs(v) for v in self._data.values()), default=0.0)

    def l1_norm(self) -> float:
        return sum(self.multiplicity(k) * abs(v) for (k, _), v in self._data.items())

    def l2_norm(self) -> float:
        return math.sqrt(sum(self.multiplicity(k) * v * v
                             for (k, _), v in self._data.items()))

    def support_bound(self) -> int:
        """Smallest L with all entries inside the cube of radius L."""
        out = 0
        for (k, n) in self._data.keys():
            out = max(out, max(abs(x) for x in k + n))
        return out

    def support_k_bound(self) -> int:
        return max((max((abs(x) for x in k), default=0)
                    for (k, _) in self._data.keys()), default=0)

    def support_n_bound(self) -> int:
        return max((max((abs(x) for x in n), default=0)
                    for (_, n) in self._data.keys()), default=0)

    # -- functional updates ------------------------------------------------------

    def add(self, other: "CoefficientField", scale: float = 1.0) -> "CoefficientField":
        data = dict(self._data)
        for key, v in other._data.items():
            data[key] = data.get(key, 0.0) + scale * v
        return CoefficientField(data, self.b, self.d, _trusted=True)

    def scaled(self, factor: float) -> "CoefficientField":
        return CoefficientField({k: factor * v for k, v in self._data.items()},
                                self.b, self.d, _trusted=True)

    def by_site(self) -> Dict[tuple, Dict[tuple, float]]:
        """The field grouped by space site: n -> {k: value} over both k and
        -k, in the order of :meth:`full_items`."""
        out: Dict[tuple, Dict[tuple, float]] = {}
        for (k, n), v in self._data.items():
            row = out.setdefault(n, {})
            row[k] = v
            if any(k):
                row[tuple(-x for x in k)] = v
        return out


def convolve(qa: CoefficientField, qb: CoefficientField) -> CoefficientField:
    """Per-site k-convolution of two fields (symmetry is preserved); the one
    convolution engine, powers included.  Each field is grouped by space
    site once."""
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


def convolve_power(q: CoefficientField, order: int) -> CoefficientField:
    """Per-site order-fold k-convolution q_*^order; order 1 is q itself.
    Computed on the first call for (q, order) and stored on q."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order == 1:
        return q
    if order not in q._powers:
        q._powers[order] = _power(q, order)
    return q._powers[order]


def _power(q: CoefficientField, order: int) -> CoefficientField:
    """q_*^order for order >= 2: the stored lower power convolved once more."""
    return convolve(convolve_power(q, order - 1), q)


def residual(q: CoefficientField, omega: Sequence[float],
             params: ModelParams) -> CoefficientField:
    """F(q) = D q + eps * Delta q + delta * q_*^(p+1), evaluated entrywise.

    D(k, n) = mu_n^2 - (k.omega)^2.  The result is computed on the closure
    of the supports of the three terms and is symmetric in k by construction.
    """
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
        power = convolve_power(q, params.p + 1)
        for (k, n), v in power._data.items():
            add(k, n, params.delta * v)

    return CoefficientField(data, q.b, q.d, _trusted=True)


def linearize(q: CoefficientField, p: int) -> CoefficientField:
    """Convolution kernel of the linearized nonlinearity: (p+1) * q_*^p."""
    return convolve_power(q, p).scaled(float(p + 1))


def evaluate_solution(q: CoefficientField, omega: Sequence[float], t: float,
                      n: Sequence[int]) -> float:
    """u(t, n) = sum_k q(k, n) cos(k.omega t), an exact finite cosine sum."""
    omega = np.asarray(omega, dtype=float)
    n = tuple(int(x) for x in n)
    out = 0.0
    for (k, nn), v in q._data.items():
        if nn != n:
            continue
        out += q.multiplicity(k) * v * math.cos(float(np.dot(k, omega)) * t)
    return out


def pde_residual(q: CoefficientField, omega: Sequence[float],
                 params: ModelParams, t_samples: Sequence[float]) -> float:
    """Max over sampled (t, n) of the time-domain equation residual.

    Evaluates |u_tt + eps*Delta u + cos(phase)u + m u + delta u^(p+1)| with
    u_tt formed spectrally; for a lattice solution this is the cosine
    transform of F(q) and is bounded by its l1 norm.
    """
    omega = np.asarray(omega, dtype=float)
    offs = neighbor_offsets(q.d)
    slices: Dict[tuple, list] = {}
    for (k, n), v in q._data.items():
        kw = float(np.dot(k, omega))
        slices.setdefault(n, []).append((kw, q.multiplicity(k) * v))
    space = set(slices)
    for n in list(space):
        for off in offs:
            space.add(tuple(x + o for x, o in zip(n, off)))
    space = sorted(space)
    potential = {n: math.cos(params.phase(n)) + params.m for n in space}
    neighbours = {n: [tuple(x + o for x, o in zip(n, off)) for off in offs]
                  for n in space}
    worst = 0.0
    for t in t_samples:
        u = {}
        utt = {}
        for n in space:
            un = 0.0
            uttn = 0.0
            for kw, coeff in slices.get(n, ()):
                c = coeff * math.cos(kw * t)
                un += c
                uttn -= kw * kw * c
            u[n] = un
            utt[n] = uttn
        for n in space:
            lap = sum(u.get(m, 0.0) for m in neighbours[n])
            val = (utt[n] + params.eps * lap + potential[n] * u[n]
                   + params.delta * u[n] ** (params.p + 1))
            worst = max(worst, abs(val))
    return worst


def weighted_tail_norm(q: CoefficientField, rho: float, S: ResonantSet) -> float:
    """sum over lattice sites outside S of |q(k,n)| * exp(rho(|k|+|n|))."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    out = 0.0
    for k, n, v in q.full_items():
        if Site(k, n) in S:
            continue
        out += abs(v) * math.exp(rho * Site(k, n).order)
    return out
