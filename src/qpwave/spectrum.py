"""Linear frequencies and arithmetic non-resonance certification.

The linear frequencies are mu_n = sqrt(cos(n.alpha + theta0) + m) with the
phase convention that alpha and theta0 are supplied in [0,1] and scaled by
2*pi internally; torus distances are measured to 2*pi*Z.  This module
certifies Diophantine conditions on (alpha, theta0), pair separation of the
mu_n, transversality of frequency combinations in m (via the closed-form
m-derivatives and their Vandermonde determinant), sublevel measure
estimates, the admissible-m scan and the per-shift cluster count.

Unspecified theory constants (the transversality prefactor and the sublevel
constant C(r)) are treated as reported empirical quantities: certificates
carry attained margins, and scaling shapes are checked by the test suite
rather than gated on unknown constants.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (InsufficientResolution, InvalidAnchors, NotApplicable,
                     PreconditionFailed)
from .lattice import ResonantSet, box_vectors, unit_k

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Model data: potential phases, mass, couplings and anchors.

    ``alpha`` (length d) and ``theta0`` live in [0,1] and are scaled by 2*pi
    when phases are formed.  ``anchors`` are the b distinct space sites that
    carry the prescribed amplitudes ``amplitudes`` (in [1,2]).  ``gamma`` is
    the certified decay rate of convolution kernels, positive and finite.
    """

    b: int
    d: int
    p: int
    m: float
    eps: float
    delta: float
    alpha: tuple
    theta0: float
    anchors: tuple
    amplitudes: tuple
    gamma: float = 1.0

    def __post_init__(self):
        if self.b < 1 or self.d < 1:
            raise ValueError("b and d must be positive integers")
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"p must be a positive even integer, got {self.p}")
        if not 2.0 <= self.m <= 3.0:
            raise ValueError(f"m must lie in [2,3], got {self.m}")
        for name in ("eps", "delta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) != self.d or any(not 0.0 <= a <= 1.0 for a in alpha):
            raise ValueError(
                f"alpha must be a length-{self.d} vector in [0,1]^d, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        if not 0.0 <= self.theta0 <= 1.0:
            raise ValueError(f"theta0 must lie in [0,1], got {self.theta0}")
        anchors = tuple(tuple(int(x) for x in n) for n in self.anchors)
        if len(anchors) != self.b or len(set(anchors)) != self.b:
            raise InvalidAnchors(f"need b={self.b} distinct anchors, got {anchors}")
        if any(len(n) != self.d for n in anchors):
            raise InvalidAnchors("anchor sites must have length d")
        object.__setattr__(self, "anchors", anchors)
        amps = tuple(float(a) for a in self.amplitudes)
        if len(amps) != self.b or any(not 1.0 <= a <= 2.0 for a in amps):
            raise ValueError(f"amplitudes must lie in [1,2]^b, got {amps}")
        object.__setattr__(self, "amplitudes", amps)
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}")

    # -- derived quantities ---------------------------------------------------

    def phase(self, n: Sequence[int]) -> float:
        """Radian phase 2*pi*(n.alpha + theta0) of site n."""
        return TWO_PI * (sum(ni * ai for ni, ai in zip(n, self.alpha)) + self.theta0)

    def resonant_set(self) -> ResonantSet:
        return ResonantSet(self.anchors, self.b, self.d)

    def with_m(self, m: float) -> "ModelParams":
        return dataclasses.replace(self, m=float(m))

    def with_couplings(self, eps: float, delta: float) -> "ModelParams":
        return dataclasses.replace(self, eps=float(eps), delta=float(delta))


def torus_distance(x) -> np.ndarray:
    """Distance of x (radians) to 2*pi*Z."""
    return np.abs(np.remainder(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi)


def mu(n: Sequence[int], params: ModelParams, m: Optional[float] = None) -> float:
    """Linear frequency sqrt(cos(phase(n)) + m); lies in [sqrt(m-1), sqrt(m+1)]."""
    mm = params.m if m is None else m
    val = math.cos(params.phase(n)) + mm
    if val <= 0:
        raise ValueError(f"cos(phase)+m = {val} <= 0 at n={tuple(n)} (m={mm})")
    return math.sqrt(val)


def omega0(params: ModelParams) -> np.ndarray:
    """Unperturbed frequency vector (mu at each anchor)."""
    return np.array([mu(n, params) for n in params.anchors])


def _mu_array(space_sites: np.ndarray, params: ModelParams,
              m_values: np.ndarray) -> np.ndarray:
    """mu over sites (rows) x m grid (columns)."""
    alpha = np.asarray(params.alpha)
    phases = TWO_PI * (space_sites @ alpha + params.theta0)
    return np.sqrt(np.cos(phases)[:, None] + m_values[None, :])


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of one non-resonance check.

    ``margin`` is worst-case slack: positive iff every checked instance
    satisfies its inequality strictly (ties count as failure).  Witnesses
    record the extremal index tuples and attained values.
    """

    kind: str
    inputs: dict
    margin: float
    witnesses: tuple
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


def _enumerate_nonzero(limit: int, dim: int):
    """All integer vectors 0 < |v| <= limit (sup norm), as an array."""
    vecs = box_vectors((0,) * dim, (limit,) * dim)
    keep = np.abs(vecs).max(axis=1) > 0
    return vecs[keep]


def _dc_vectors(alpha: Sequence[float], L: int, c_star: float) -> tuple:
    """(alpha as an array, d = len(alpha), every 0 < |n| <= 2L) once L and
    c_star check."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 0.0 < c_star < 1.0:
        raise ValueError("c_star must lie in (0,1)")
    alpha = np.asarray(alpha, dtype=float)
    return alpha, len(alpha), _enumerate_nonzero(2 * L, len(alpha))


def _dc_certificate(kind: str, inputs: dict, vecs: np.ndarray,
                    attained: np.ndarray, threshold) -> Certificate:
    """attained >= threshold on every vector; the three tightest witness."""
    slack = attained - threshold
    witnesses = tuple((tuple(int(x) for x in vecs[i]), float(attained[i]))
                      for i in np.argsort(slack)[:3])
    return Certificate(kind=kind, inputs=inputs, margin=float(slack.min()),
                       witnesses=witnesses)


def check_alpha_dc(alpha: Sequence[float], L: int, c_star: float,
                   mode: str = "fixed") -> Certificate:
    """Diophantine certificate for alpha over all 0 < |n| <= 2L.

    ``mode="fixed"`` checks ||(n/2).alpha||_T >= c_star.  ``mode="power"``
    checks min over the full and half multiples of ||.||_T >= c_star/|n|^(2d).
    """
    alpha, dd, vecs = _dc_vectors(alpha, L, c_star)
    dots = vecs @ (TWO_PI * alpha)
    if mode == "fixed":
        attained = torus_distance(0.5 * dots)
        thresholds = np.full(len(vecs), c_star)
    elif mode == "power":
        attained = np.minimum(torus_distance(dots), torus_distance(0.5 * dots))
        thresholds = c_star / (np.abs(vecs).max(axis=1).astype(float) ** (2 * dd))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _dc_certificate(
        "alpha_dc", {"alpha": tuple(float(a) for a in alpha), "L": L,
                     "c_star": c_star, "mode": mode},
        vecs, attained, thresholds)


def check_theta_dc(theta0: float, alpha: Sequence[float], L: int, c_star: float,
                   mode: str = "fixed") -> Certificate:
    """Diophantine certificate for theta0 over all |n| <= 2L (n = 0 included).

    ``mode="power"`` uses the scale-coupled threshold L^(-3d) instead of
    c_star.
    """
    alpha, dd, vecs = _dc_vectors(alpha, L, c_star)
    vecs = np.vstack([np.zeros((1, dd), dtype=int), vecs])
    attained = torus_distance(TWO_PI * theta0 + 0.5 * (vecs @ (TWO_PI * alpha)))
    return _dc_certificate(
        "theta_dc", {"theta0": float(theta0),
                     "alpha": tuple(float(a) for a in alpha), "L": L,
                     "c_star": c_star, "mode": mode},
        vecs, attained, c_star if mode == "fixed" else float(L) ** (-3 * dd))


def diophantine_certificates(params: ModelParams, L: int,
                             c_star: float) -> tuple:
    """The alpha and theta0 Diophantine certificates at (L, c_star), fixed
    mode.  The last few are kept per (alpha, theta0, L, c_star), so that a
    certify computes each once for its own report and for the preconditions
    of ``separation_certificate`` and ``admissible_m_scan``; each call gets
    its own ``inputs`` dicts."""
    return tuple(dataclasses.replace(c, inputs=dict(c.inputs)) for c in
                 _diophantine(params.alpha, params.theta0, L, c_star))


@functools.lru_cache(maxsize=4)
def _diophantine(alpha: tuple, theta0: float, L: int, c_star: float) -> tuple:
    return (check_alpha_dc(alpha, L, c_star),
            check_theta_dc(theta0, alpha, L, c_star))


def _require_diophantine(params: ModelParams, L: int, c_star: float) -> None:
    """Raise PreconditionFailed unless alpha and theta0 both pass their
    Diophantine certificates at (L, c_star)."""
    failed = [c.kind for c in diophantine_certificates(params, L, c_star)
              if not c.passed]
    if failed:
        raise PreconditionFailed(f"Diophantine certificates failed at "
                                 f"(L={L}, c_star={c_star:.3e}): {failed}")


def _smallest_gap(values: np.ndarray):
    """Smallest |v_i - v_j| over i != j down axis 0, from neighbours in
    sorted order (rounding is monotone, so no other pair is closer): per
    column for 2-D ``values``; for 1-D, (gap, (i, j)) with (i, j) the first
    pair attaining it in row-major order (smallest i, then smallest j)."""
    if values.ndim > 1:
        return np.diff(np.sort(values, axis=0), axis=0).min(axis=0)
    order = np.argsort(values, kind="stable")
    gaps = np.diff(values[order])
    gap = gaps.min()
    nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    i = int(order[nearest == gap].min())
    others = np.arange(len(values)) != i
    j = int(np.flatnonzero(others & (np.abs(values[i] - values) == gap))[0])
    return gap, (i, j)


def separation_certificate(params: ModelParams, L: int, c_star: float) -> Certificate:
    """Pair-separation certificate for the mu_n over |(n,n')| <= L.

    Requires the alpha/theta Diophantine certificates to pass at (L, c_star),
    then verifies |mu_n - mu_n'| >= (2/pi^2) c_star^2 and
    |mu_n^2 - mu_n'^2| >= (8/pi^2) c_star^2 by sorted gaps.
    """
    _require_diophantine(params, L, c_star)
    sites = _enumerate_nonzero(L, params.d)
    sites = np.vstack([np.zeros((1, params.d), dtype=int), sites])
    mus = _mu_array(sites, params, np.array([params.m]))[:, 0]

    thr1 = (2.0 / math.pi**2) * c_star**2
    thr2 = (8.0 / math.pi**2) * c_star**2
    gap1, pair1 = _smallest_gap(mus)
    gap2, pair2 = _smallest_gap(mus**2)
    witnesses = tuple(
        (tuple(tuple(int(x) for x in sites[i]) for i in pair), float(gap))
        for gap, pair in ((gap1, pair1), (gap2, pair2)))
    return Certificate(
        kind="separation",
        inputs={"L": L, "c_star": c_star, "m": params.m},
        margin=min(float(gap1 - thr1), float(gap2 - thr2)),
        witnesses=witnesses,
        notes=f"min|mu-mu'|={gap1:.6e} (threshold {thr1:.3e}); "
              f"min|mu^2-mu'^2|={gap2:.6e} (threshold {thr2:.3e})",
    )


# ---------------------------------------------------------------------------
# m-derivatives and the Wronskian determinant
# ---------------------------------------------------------------------------

def derivative_prefactor(l: int) -> float:
    """lambda_l = (1/2)(1/2 - 1)...(1/2 - l + 1); lambda_1 = 1/2."""
    if l < 1:
        raise ValueError("derivative order must be >= 1")
    return math.prod(0.5 - j for j in range(l))


def d_mu_dm(n: Sequence[int], l: int, params: ModelParams) -> float:
    """Closed-form l-th m-derivative of mu_n: lambda_l * mu_n^{-(2l-1)}."""
    v = mu(n, params)
    return derivative_prefactor(l) * v ** (-(2 * l - 1))


def wronskian_matrix(space_sites: Sequence[Sequence[int]], m: float,
                     params: ModelParams) -> np.ndarray:
    """The beta x beta matrix M[l,s] = lambda_l * v_s^{-(2l-1)}."""
    beta = len(space_sites)
    v = np.array([mu(n, params, m) for n in space_sites])
    out = np.empty((beta, beta))
    for l in range(1, beta + 1):
        out[l - 1] = derivative_prefactor(l) * v ** (-(2 * l - 1))
    return out


def wronskian_det(space_sites: Sequence[Sequence[int]], m: float,
                  params: ModelParams) -> tuple:
    """Determinant of the derivative matrix via its exact factorization.

    det M = (prod_l lambda_l) * (prod_s v_s^{-1}) * Vandermonde(v_s^{-2}),
    with Vandermonde(x) = prod_{s1<s2} (x_{s2} - x_{s1}).  Returns
    (value, degenerate); repeated sites collapse the Vandermonde factor to 0.

    Each row l carries one factor lambda_l and each column s one factor
    v_s^{-1}; cross-validation against the direct determinant of
    ``wronskian_matrix`` pins this down (see the test suite).
    """
    beta = len(space_sites)
    if beta < 1:
        raise ValueError("need at least one site")
    sites = [tuple(int(x) for x in n) for n in space_sites]
    degenerate = len(set(sites)) != beta
    if degenerate:
        return 0.0, True
    v = np.array([mu(n, params, m) for n in sites])
    prefac = math.prod(derivative_prefactor(l) for l in range(1, beta + 1))
    prefac *= float(np.prod(1.0 / v))
    x = 1.0 / v**2
    vand = 1.0
    for s2 in range(beta):
        for s1 in range(s2):
            vand *= x[s2] - x[s1]
    value = prefac * vand
    if value == 0.0:
        degenerate = True
    return float(value), degenerate


# ---------------------------------------------------------------------------
# transversality in m
# ---------------------------------------------------------------------------

_KINDS = ("harmonic", "shifted", "difference")


def _reduce_combination(kind: str, k: Sequence[int], params: ModelParams,
                        n: Optional[Sequence[int]] = None,
                        n_prime: Optional[Sequence[int]] = None):
    """Reduce a frequency combination to (ktilde, site list, r).

    The combination value is ktilde . v(m) where v(m) stacks mu at the
    returned space sites; r is the number of derivative orders to take.
    Raises NotApplicable for the excluded index configurations.
    """
    b = params.b
    k = tuple(int(x) for x in k)
    if len(k) != b:
        raise ValueError(f"k must have length b={b}")
    anchors = {tuple(a): l for l, a in enumerate(params.anchors, start=1)}

    if kind == "harmonic":
        if all(x == 0 for x in k):
            raise NotApplicable("harmonic combination requires k != 0")
        return k, list(params.anchors), b

    if kind == "shifted":
        if n is None:
            raise ValueError("shifted combination requires a space site n")
        n = tuple(int(x) for x in n)
        l = anchors.get(n)
        if l is not None:
            e = unit_k(l, b)
            if k == e or k == tuple(-x for x in e):
                raise NotApplicable(f"(k, n) = ({k}, {n}) lies in the resonant set")
            ktilde = tuple(ki + ei for ki, ei in zip(k, e))
            return ktilde, list(params.anchors), b
        return k + (1,), list(params.anchors) + [n], b + 1

    if kind == "difference":
        if n is None or n_prime is None:
            raise ValueError("difference combination requires sites n and n'")
        n = tuple(int(x) for x in n)
        n_prime = tuple(int(x) for x in n_prime)
        if n == n_prime:
            raise NotApplicable("difference combination requires n != n'")
        l, lp = anchors.get(n), anchors.get(n_prime)
        if l is not None and lp is not None:
            e, ep = unit_k(l, b), unit_k(lp, b)
            ktilde = tuple(ki + ei - epi for ki, ei, epi in zip(k, e, ep))
            if all(x == 0 for x in ktilde):
                raise NotApplicable(
                    f"k = -e_{l} + e_{lp} is the excluded anchor difference")
            return ktilde, list(params.anchors), b
        if l is not None:  # n anchored, n' free
            e = unit_k(l, b)
            ktilde = tuple(ki + ei for ki, ei in zip(k, e)) + (-1,)
            return ktilde, list(params.anchors) + [n_prime], b + 1
        if lp is not None:  # n free, n' anchored
            ep = unit_k(lp, b)
            ktilde = tuple(ki - epi for ki, epi in zip(k, ep)) + (1,)
            return ktilde, list(params.anchors) + [n], b + 1
        return k + (1, -1), list(params.anchors) + [n, n_prime], b + 2

    raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class FrequencyCombination:
    """A function family member f(m) = ktilde . (mu at the listed sites)."""

    kind: str
    ktilde: tuple
    space_sites: tuple
    r: int
    params: ModelParams

    @classmethod
    def build(cls, kind: str, k: Sequence[int], params: ModelParams,
              n=None, n_prime=None) -> "FrequencyCombination":
        ktilde, sites, r = _reduce_combination(kind, k, params, n, n_prime)
        return cls(kind, tuple(ktilde), tuple(tuple(s) for s in sites), r, params)

    def _mu_values(self, m_values: np.ndarray) -> np.ndarray:
        sites = np.array(self.space_sites, dtype=float)
        return _mu_array(sites, self.params, np.asarray(m_values, dtype=float))

    def values(self, m_values) -> np.ndarray:
        """f(m) on a grid."""
        mus = self._mu_values(np.atleast_1d(np.asarray(m_values, dtype=float)))
        return np.asarray(self.ktilde, dtype=float) @ mus

    def derivative(self, l: int, m_values) -> np.ndarray:
        """Closed-form l-th m-derivative of f on a grid."""
        mus = self._mu_values(np.atleast_1d(np.asarray(m_values, dtype=float)))
        lam = derivative_prefactor(l)
        return np.asarray(self.ktilde, dtype=float) @ (lam * mus ** (-(2 * l - 1)))

    def derivative_sup_bound(self, orders: int) -> float:
        """Analytic bound on sup over 1<=l<=orders of |d^l f/dm^l| (mu >= 1)."""
        lam_max = max(abs(derivative_prefactor(l)) for l in range(1, orders + 1))
        return lam_max * float(np.abs(self.ktilde).sum())


def transversality_margin(kind: str, k: Sequence[int], params: ModelParams,
                          m_grid, n=None, n_prime=None) -> Certificate:
    """Attained transversality of a frequency combination over an m grid.

    Evaluates sup over derivative orders 1..r of |d^l f/dm^l| at each grid m
    (closed forms) and reports margin = min over the grid of that sup.  The
    implied empirical prefactor, that minimum over |ktilde|_2, is recorded
    in the notes.
    """
    combo = FrequencyCombination.build(kind, k, params, n, n_prime)
    m_grid = np.atleast_1d(np.asarray(m_grid, dtype=float))
    sup = np.zeros_like(m_grid)
    for l in range(1, combo.r + 1):
        sup = np.maximum(sup, np.abs(combo.derivative(l, m_grid)))
    imin = int(np.argmin(sup))
    attained = float(sup[imin])
    witnesses = ((combo.ktilde, attained), (("m",), float(m_grid[imin])))
    return Certificate(
        kind="transversality",
        inputs={"combination": kind, "k": tuple(int(x) for x in k),
                "n": None if n is None else tuple(int(x) for x in n),
                "n_prime": None if n_prime is None else tuple(int(x) for x in n_prime),
                "r": combo.r, "m_grid_points": len(m_grid)},
        margin=attained,
        witnesses=witnesses,
        notes=f"implied prefactor "
              f"{attained / float(np.linalg.norm(combo.ktilde)):.6e}",
    )


# ---------------------------------------------------------------------------
# sublevel measure
# ---------------------------------------------------------------------------

M_INTERVAL = (2.0, 3.0)


@dataclass(frozen=True)
class SublevelResult:
    bound: float       # the analytic bound on meas{|f| <= eta}
    empirical: float   # the grid-sampled measure


def sublevel_measure(f_spec: Union[FrequencyCombination, Callable], eta: float,
                     r: int, tau: float, derivative_bound: float,
                     grid_points: Optional[int] = None) -> SublevelResult:
    """Analytic sublevel bound and a grid-sampled estimate of meas{|f|<=eta}.

    The analytic bound is C(r) * A * |I| * eta^(1/r) / tau^2 with
    C(r) = r(r+3) * (2A|I|/tau + 1) / (A|I|), i.e. the subdivision count
    folded into the constant.  The empirical estimate counts midpoints of a
    uniform grid over M_INTERVAL; its spacing must satisfy spacing <= eta/A.
    """
    if not 0.0 < tau < 1.0:
        raise InsufficientResolution(f"tau must lie in (0,1), got {tau}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    if derivative_bound <= 0.0:
        raise ValueError("derivative bound must be positive")
    a, b = M_INTERVAL
    length = b - a
    A = derivative_bound
    if grid_points is None:
        # default: an order of magnitude inside the hard precondition
        grid_points = int(math.ceil(10.0 * A * length / eta)) + 1
    spacing = length / grid_points
    if spacing > eta / A:
        raise InsufficientResolution(
            f"grid spacing {spacing:.3e} exceeds eta/A = {eta / A:.3e}")
    mids = a + (np.arange(grid_points) + 0.5) * spacing
    if isinstance(f_spec, FrequencyCombination):
        values = f_spec.values(mids)
    else:
        values = np.asarray(f_spec(mids), dtype=float)
    empirical = float(np.count_nonzero(np.abs(values) <= eta)) * spacing
    c_r = r * (r + 3) * (2.0 * A * length / tau + 1.0) / (A * length)
    bound = c_r * A * length * eta ** (1.0 / r) / tau**2
    return SublevelResult(bound=float(bound), empirical=empirical)


# ---------------------------------------------------------------------------
# admissible m scan and cluster counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleMScan:
    certified_m: np.ndarray
    failing_fraction: float
    theoretical_bound: float
    theoretical_bound_feasible: bool
    condition_fail_fractions: dict
    certificate: Certificate


SURVIVOR_SLACK = 1e-9        # relative margin by which a bound must clear eta


def _survivors(kw: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               eta: float) -> tuple:
    """(shifted, difference): masks of the (k, column) cells of the k.omega0
    rows ``kw`` that the closed-form bounds cannot clear, for columns whose
    mu_n lie in [lo, hi].

    |k.omega0 + mu_n| >= dist(-k.omega0, [lo, hi]) and
    |k.omega0 + mu_n - mu_n'| >= |k.omega0| - (hi - lo); rounding is
    monotone, so each bound, rounded, also bounds the rounded values.  A
    cell whose bound exceeds eta by SURVIVOR_SLACK * (1 + |k.omega0| + hi)
    (far above the rounding by which the caller's k.omega0 may differ from
    these rows) passes for every n, n'.  A NaN keeps its cell.
    """
    edge = eta + SURVIVOR_SLACK * (1.0 + np.abs(kw) + hi)
    shifted = ~((kw + lo > edge) | (kw + hi < -edge))
    difference = ~(np.abs(kw) - (hi - lo) > edge)
    return shifted, difference


def admissible_m_scan(params: ModelParams, L: int, eta: float,
                      m_grid) -> AdmissibleMScan:
    """Scan an m grid for the non-resonance conditions at scale (L, eta).

    Conditions checked at every grid m (params.m is ignored):
      (1) |mu_n - mu_n'| >= (2/pi^2) L^(-6d) for n != n', |(n,n')| <= L;
      (2) |k.omega0| > eta for 0 < |k| <= 2L;
      (3) |k.omega0 + mu_n| > eta on the cube of radius L minus the
          resonant set;
      (4) |k.omega0 + mu_n - mu_n'| > eta over the admissible index pairs
          (|k| <= 2L; at least one of n, n' off-anchor, or both anchored
          with the non-degenerate frequency offset).
    With mu in [lo, hi] per m, (3) and (4) evaluate a k != 0 only where
    dist(-k.omega0, [lo, hi]) or |k.omega0| - (hi - lo) fails to clear eta
    (``_survivors``); the verdicts are those of the full evaluation.

    Requires every anchor in the box |n| <= L and the alpha/theta
    Diophantine certificates at (L, L^(-3d)).
    The theoretical complement bound L^(50 d b^2) * eta^(1/(b+2)) is
    reported but not enforced (it is vacuous at desk scales).
    """
    if L < 2:   # L = 1 makes the Diophantine constant c* = L^(-3d) = 1
        raise PreconditionFailed(f"scan scale L must be >= 2, got L = {L}")
    outside = [a for a in params.anchors if max(abs(x) for x in a) > L]
    if outside:
        raise PreconditionFailed(
            f"anchors {outside} lie outside the scan box |n| <= L = {L}")
    _require_diophantine(params, L, float(L) ** (-3 * params.d))
    m_grid = np.atleast_1d(np.asarray(m_grid, dtype=float))
    nm = len(m_grid)
    space = box_vectors((0,) * params.d, (L,) * params.d)  # (Ns, d)
    mus = _mu_array(space.astype(float), params, m_grid)  # (Ns, nm)
    anchor_rows = [int(np.ravel_multi_index(tuple(x + L for x in a),
                                            (2 * L + 1,) * params.d))
                   for a in params.anchors]
    om = mus[anchor_rows, :]                          # (b, nm)

    ok = np.ones(nm, dtype=bool)
    fails = {}

    # (1) pair separation
    thr1 = (2.0 / math.pi**2) * float(L) ** (-6 * params.d)
    gap = _smallest_gap(mus)
    cond1 = gap >= thr1
    fails["separation"] = float(1.0 - cond1.mean())
    ok &= cond1

    # (2) harmonics
    kvecs = _enumerate_nonzero(2 * L, params.b)       # (Nk2, b)
    komega = kvecs.astype(float) @ om                 # (Nk2, nm)
    cond2 = (np.abs(komega) > eta).all(axis=0)
    fails["harmonic"] = float(1.0 - cond2.mean())
    ok &= cond2

    # (3) and (4): k = 0 reads mu_n > eta and |mu_n - mu_n'| > eta, the
    # column minimum and (1)'s gap; a k != 0 is evaluated only on the columns
    # that its closed-form bound (_survivors) cannot clear
    lo, hi = mus.min(axis=0), mus.max(axis=0)
    cond3, cond4 = lo > eta, gap > eta
    shifted = np.empty(komega.shape, dtype=bool)
    difference = np.empty(komega.shape, dtype=bool)
    for s in range(0, len(komega), len(space)):   # temporaries <= (Ns, nm)
        block = slice(s, s + len(space))
        shifted[block], difference[block] = _survivors(komega[block], lo, hi,
                                                       eta)

    # (3) over the cube of radius L minus the resonant set
    shifted &= (np.abs(kvecs) <= L).all(axis=1)[:, None]
    for t in np.flatnonzero(shifted.any(axis=1)):
        kv, cols = kvecs[t], np.flatnonzero(shifted[t])
        rows = np.ones(len(space), dtype=bool)
        if np.abs(kv).sum() == 1:    # k = +-e_l: (k, n^(l)) is resonant
            rows[anchor_rows[int(np.argmax(kv != 0))]] = False
        kw = (kv.astype(float) @ om)[cols]
        cond3[cols] &= (np.abs(kw + mus[np.ix_(rows, cols)]) > eta).all(axis=0)
    fails["shifted"] = float(1.0 - cond3.mean())
    ok &= cond3

    # (4) differences over the pairs i < j ((j, i, -k) repeats (i, j, k)),
    # one row i at a time so that no temporary exceeds (Ns, nm); for anchors
    # l and l' at rows i < j, k = e_l' - e_l vanishes identically: excluded
    excluded = {}                # (i, index of k in kvecs) -> rows of diffs
    for l, i in enumerate(anchor_rows, start=1):
        for lp, j in enumerate(anchor_rows, start=1):
            if i < j:
                e = np.subtract(unit_k(lp, params.b), unit_k(l, params.b))
                t = int(np.flatnonzero((kvecs == e).all(axis=1))[0])
                excluded.setdefault((i, t), []).append(j - i - 1)
    for t in np.flatnonzero(difference.any(axis=1)):
        cols = np.flatnonzero(difference[t] & cond4)
        if not len(cols):
            continue
        kw = (kvecs[t].astype(float) @ om)[cols]
        sub = mus[:, cols]
        for i in range(len(space) - 1):
            values = np.abs(kw + (sub[i] - sub[i + 1:]))
            values[excluded.get((i, t), [])] = np.inf
            cond4[cols] &= (values > eta).all(axis=0)
    fails["difference"] = float(1.0 - cond4.mean())
    ok &= cond4

    failing = float(1.0 - ok.mean())
    # L^(50 d b^2) alone overflows already at b = 3, L = 5: the verdict is
    # read from the log, and the bound is inf once that power is past range
    exponent, root = 50 * params.d * params.b**2, 1.0 / (params.b + 2)
    log_eta = math.log(eta) if eta > 0.0 else -math.inf
    feasible = exponent * math.log(L) + root * log_eta < 0.0
    try:
        theoretical_bound = float(L) ** exponent * eta ** root
    except OverflowError:
        theoretical_bound = math.inf
    certified = m_grid[ok]
    cert = Certificate(
        kind="admissible_m",
        inputs={"L": L, "eta": eta, "grid_points": nm},
        margin=(1.0 if len(certified) else -1.0),
        witnesses=((("certified_count",), float(len(certified))),
                   (("failing_fraction",), failing)),
        notes=f"theoretical complement bound {theoretical_bound:.6e} "
              f"({'feasible' if feasible else 'vacuous at this scale'})",
    )
    return AdmissibleMScan(
        certified_m=certified,
        failing_fraction=failing,
        theoretical_bound=theoretical_bound,
        theoretical_bound_feasible=feasible,
        condition_fail_fractions=fails,
        certificate=cert,
    )


def cluster_count(sigma: float, params: ModelParams, L: int, eta: float) -> int:
    """Max over the sign xi of #{(k,n), |(k,n)|<=L : |xi(sigma+k.w0)+mu_n| < eta/2}:
    ``cluster_scan`` at the one shift sigma."""
    return cluster_scan(params, L, eta, [sigma])[0]


def cluster_scan(params: ModelParams, L: int, eta: float, sigma_grid) -> tuple:
    """(max cluster count over the grid, first sigma attaining it; xi = +1
    ahead of xi = -1).  The count at sigma is the number of resonance centres
    -(k.w0 + mu_n) (xi = +1) or mu_n - k.w0 (xi = -1) strictly inside
    (sigma - eta/2, sigma + eta/2): two binary searches in the sorted
    centres.  The k-box is symmetric, so the xi = -1 centres are the xi = +1
    centres negated: one sorted array serves both, searched at (-hi, -lo)
    for xi = -1."""
    sigma_grid = np.atleast_1d(np.asarray(sigma_grid, dtype=float))
    space = box_vectors((0,) * params.d, (L,) * params.d)
    mus = _mu_array(space.astype(float), params, np.array([params.m]))[:, 0]
    kw = box_vectors((0,) * params.b, (L,) * params.b).astype(float) \
        @ omega0(params)
    centres = np.sort(-(kw[:, None] + mus), axis=None)
    lo, hi = sigma_grid - eta / 2.0, sigma_grid + eta / 2.0
    best = (0, float(sigma_grid[0]))
    for a, z in ((lo, hi), (-hi, -lo)):
        counts = (np.searchsorted(centres, z, "left")
                  - np.searchsorted(centres, a, "right"))
        i = int(np.argmax(counts))
        if counts[i] > best[0]:
            best = (int(counts[i]), float(sigma_grid[i]))
    return best
