"""Staged construction of quasi-periodic solutions.

The lattice equation F(q) = 0 splits into P-equations (off the resonant
set, solved for q by a Newton scheme on geometrically growing boxes) and
Q-equations (on the resonant set, solved for the frequency vector omega;
the anchored amplitudes q = a_l/2 stay frozen exactly).  At frozen q the
Q-equations give omega^2 in closed form, so a Q-step solves them exactly.
Each stage takes one smoothed Newton step delta_q = -G * F(q), with G the
inverse of the linearized operator restricted to the stage box minus the
resonant set, then one Q-step on the new q; the resonant rows of F then
vanish identically, and the next stage's P-step reuses that F.  The
increment is even in k, so G is applied by one sparse LU of the operator
folded onto the even subspace, and a Higham-Tisseur 1-norm condition
estimate of that folded operator decides whether the box is resonant.  A
stage box's geometry (its row index, canonical rows and folded columns,
with the assembly pattern its index keeps) depends only on (box, b, d,
resonant set) and is kept for the last STAGE_MEMO keys whose cube holds at
most STAGE_MEMO_SITES candidate sites; every P-step recomputes the
operator's values.

A plain dense Newton iteration on the full truncated system (q off the
resonant set plus omega, no staging) serves as an independent validation
oracle.  It shares no assembly with the P-step: its closed-form Jacobian is
built from its own index arrays, fixed per box, and the row-by-row form in
``tests/oracle_reference.py`` is their reference.

A ``Solution`` holds q, omega, a tuple of one ``StageRecord`` per stage
(the rows of ``trace.txt``; ``NonConvergence`` carries the same tuple), the
quality block and the convergence flag.  ``decay_fit`` returns the fitted
rate alone.  Certification is not checked here: ``qpwave solve`` refuses a
failed or stale certificate bundle before it calls ``solve``.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (FrequencyCollapse, InsufficientData, NonConvergence,
                     OracleDiverged, OracleTooLarge, PreconditionFailed,
                     ResonantBox, check_ranges)
from .lattice import (RegionIndex, ResonantSet, Site, _read_only, box_vectors,
                      cube, index_map, neighbor_offsets, sites_of, unit_k)
from .linop import DECAY_FIT_FLOOR, MAX_CONDITION, _entries_on
# perfbench/spans.py wraps solver.assemble and solver.assemble_sparse
from .linop import assemble, assemble_sparse  # noqa: F401
from .nonlin import (DROP, CoefficientField, convolve_power, linearize,
                     pde_residual, residual, weighted_tail_norm)
from .spectrum import ModelParams, mu, omega0

COUPLING_LIMIT = 0.1       # largest eps+delta the stage scheme accepts
DECAY_FIT_MIN_POINTS = 10  # off-resonant points a decay fit needs
ORACLE_TOLERANCE = 1e-13   # oracle stops once |F| falls below this
ORACLE_MAX_ITERATIONS = 50
ORACLE_CHUNK = 1 << 14     # kernel (row, column) pairs the oracle gathers at once
STAGE_MEMO = 8             # stage plans _stage_sites keeps, least recently used out
# p_step keeps the plan of a stage cube of at most this many candidate sites
# (a plan holds about 200 bytes per site); larger plans are rebuilt per call
STAGE_MEMO_SITES = 10_000


@dataclass(frozen=True)
class SolverConfig:
    """Box growth base M (stage r solves on the box of radius M^r), stage
    count and residual floor.  Q-steps are exact, so nothing is damped."""

    M: int = 3
    r_max: int = 6
    residual_floor: float = 1e-12

    def __post_init__(self):
        check_ranges("solver.", self, (
            ("M", self.M >= 2, ">= 2"), ("r_max", self.r_max >= 1, ">= 1"),
            ("residual_floor", self.residual_floor > 0.0, "> 0")))


@dataclass(frozen=True)
class StageRecord:
    """One row of the stage trace; stage 0 (the seed) has no box, so its
    box_sites is 0 and its condition_estimate None."""

    stage: int
    box_radius: int
    box_sites: int
    condition_estimate: Optional[float]
    delta_q_norm: float
    residual_norm: float
    omega: tuple
    decay_rate: Optional[float]
    wall_time: float


@dataclass(frozen=True)
class Solution:
    q: CoefficientField
    omega: tuple
    trace: tuple              # StageRecord per stage, stage 0 first
    quality: dict
    converged: bool


@dataclass(frozen=True)
class OracleResult:
    q: CoefficientField
    omega: tuple
    residual_history: tuple
    final_residual: float
    iterations: int


# ---------------------------------------------------------------------------
# basic steps
# ---------------------------------------------------------------------------

def initial_field(params: ModelParams) -> CoefficientField:
    """The anchored seed: a_l/2 at (+-e_l, n^(l)), zero elsewhere."""
    entries = {}
    for l, (n, a) in enumerate(zip(params.anchors, params.amplitudes), start=1):
        entries[(unit_k(l, params.b), tuple(n))] = a / 2.0
    return CoefficientField.from_entries(entries, params.b, params.d)


def _q_equation_rhs(q: CoefficientField, params: ModelParams) -> np.ndarray:
    """Per anchor l: eps*(2/a_l)(Delta q)(e_l, n^(l)) + delta*(2/a_l)q_*^{p+1}."""
    power = convolve_power(q, params.p + 1) if params.delta != 0.0 else None
    out = np.zeros(params.b)
    for l, (n, a) in enumerate(zip(params.anchors, params.amplitudes), start=1):
        e = unit_k(l, params.b)
        lap = 0.0
        if params.eps != 0.0:
            for off in neighbor_offsets(params.d):
                lap += q.get(e, tuple(x + o for x, o in zip(n, off)))
        val = params.eps * (2.0 / a) * lap
        if power is not None:
            val += params.delta * (2.0 / a) * power.get(e, n)
        out[l - 1] = val
    return out


def q_step(q: CoefficientField, params: ModelParams) -> np.ndarray:
    """Solve the Q-equations for omega at frozen q.

    The Q-equations fix omega^2 in closed form,
      omega_l^2 = (omega_l^0)^2 + eps*(2/a_l)(Delta q)(e_l, n^(l))
                + delta*(2/a_l) q_*^{p+1}(e_l, n^(l)),
    which does not depend on omega, so the step returns its square root.
    Raises FrequencyCollapse when a squared frequency would turn nonpositive.
    """
    for l, (n, a) in enumerate(zip(params.anchors, params.amplitudes), start=1):
        expected = a / 2.0
        if q.get(unit_k(l, params.b), n) != expected:
            raise PreconditionFailed(
                f"anchor value at l={l} is {q.get(unit_k(l, params.b), n)}, "
                f"expected a_l/2 = {expected}")
    om_sq = omega0(params) ** 2 + _q_equation_rhs(q, params)
    if (om_sq <= 0.0).any():
        raise FrequencyCollapse(
            f"nonpositive squared frequency {om_sq}; couplings too large")
    return np.sqrt(om_sq)


@dataclass(frozen=True)
class PStepResult:
    increment: CoefficientField
    box_radius: int
    box_sites: int
    condition_estimate: float


class _StagePlan(NamedTuple):
    """A stage box minus the resonant set, read-only: its index, the
    canonical rows (k = 0 or first nonzero entry of k positive) and each
    row's folded column (the place in ``canon`` of its mirror class's
    canonical row, so a canonical row's own place)."""
    index: RegionIndex
    canon: np.ndarray
    fold: np.ndarray


def _stage_plan(box: int, b: int, d: int, resonant: ResonantSet) -> _StagePlan:
    """The plan of the cube of radius ``box`` minus ``resonant``."""
    idx = index_map(cube(box, b, d, excluded=resonant))
    k = idx.vectors[:, :b]
    canonical = _canonical_mask(k)
    column = np.cumsum(canonical) - 1      # a canonical row's place in canon
    rep = idx.lookup(np.hstack([np.where(canonical[:, None], k, -k),
                                idx.vectors[:, b:]]))
    return _StagePlan(idx, *_read_only(np.flatnonzero(canonical), column[rep]))


# the memoized plans; RegionTooLarge is raised again by every call
_stage_sites = functools.lru_cache(maxsize=STAGE_MEMO)(_stage_plan)


def _folded_operator(plan: _StagePlan, omega: Sequence[float],
                     params: ModelParams,
                     kernel: Optional[CoefficientField]) -> sp.csc_matrix:
    """H(0) on the plan's canonical rows, each column added onto its
    mirror's, as CSC with sorted rows.  At most two entries (a column and
    its mirror) meet in one place, so the sum is the one a product with a
    0/1 fold matrix forms; a place that sums to zero is dropped, as that
    product drops it."""
    ent = _entries_on(plan.index, 0.0, omega, params, kernel)
    # a canonical row is its own mirror class's canonical row
    keep = plan.canon[plan.fold[ent.rows]] == ent.rows
    on_diag = np.arange(plan.canon.size)
    matrix = sp.csc_matrix(
        (np.concatenate([ent.diag[plan.canon], ent.vals[keep]]),
         (np.concatenate([on_diag, plan.fold[ent.rows[keep]]]),
          np.concatenate([on_diag, plan.fold[ent.cols[keep]]]))),
        shape=(plan.canon.size,) * 2)
    matrix.eliminate_zeros()
    return matrix


def _one_norm(matrix: sp.csc_matrix):
    """The largest column sum of |entries|, each column summed in stored
    order from 0 as ``scipy.sparse.linalg.norm(matrix, 1)`` sums it."""
    size = matrix.shape[1]
    column = np.repeat(np.arange(size), np.diff(matrix.indptr))
    return np.bincount(column, weights=np.abs(matrix.data),
                       minlength=size).max()


def _gated_solve(matrix: sp.csc_matrix, rhs: np.ndarray, stage: int, box: int,
                 site_of: Callable[[int], Site]) -> tuple:
    """x with ``matrix`` x = ``rhs`` by sparse LU, and the 1-norm condition
    estimate of ``matrix``.  Raises ResonantBox when the LU fails or the
    estimate exceeds MAX_CONDITION; a finite estimate's site is ``site_of``
    the row where the estimate's witness column peaks."""
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise ResonantBox(f"stage {stage} box factorization failed: {exc}",
                          stage=stage) from exc

    # Higham-Tisseur 1-norm estimate of the folded inverse.  Odd near-null
    # directions cannot affect an even solve, so the guard measures exactly
    # the operator that is factored.  t = 1 starts from the all-ones column
    # only; t >= 2 draws further start columns from the global np.random,
    # which would make the gate depend on global RNG state.  A tiny pivot
    # can overflow A^-1 x to inf and the estimate's sign step to NaN while
    # the estimate it returns stays finite, so an overflow or NaN in the
    # estimate is an infinite condition.
    inverse = spla.LinearOperator(matrix.shape, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda v: lu.solve(v, trans="T"))
    try:
        with np.errstate(over="raise", invalid="raise"):
            inv_norm, w = spla.onenormest(inverse, t=1, compute_w=True)
            cond = float(inv_norm * _one_norm(matrix))
    except FloatingPointError:
        cond = math.inf
    cond = cond if np.isfinite(cond) else math.inf
    if cond > MAX_CONDITION:
        worst = site_of(int(np.argmax(np.abs(w)))) if cond < math.inf else None
        raise ResonantBox(
            f"stage {stage} box (radius {box}) is resonant: condition estimate "
            f"{cond:.3e} at site {worst}", stage=stage, condition=cond,
            site=worst)
    return lu.solve(rhs), cond


def p_step(q: CoefficientField, omega: Sequence[float], f: CoefficientField,
           params: ModelParams, stage: int, config: SolverConfig) -> PStepResult:
    """One smoothed Newton increment on the stage box minus the resonant set.

    ``f`` is F(q) at ``omega`` (``residual(q, omega, params)``).
    Solves (D(0) + eps*Delta + delta*T_q) dq = -F(q) restricted to the cube
    of radius M^stage with the resonant set removed.  The cube, the resonant
    set and the operator are symmetric under k -> -k and F(q) is even, so
    the increment is even: the system is folded onto the canonical rows,
    each column added onto its mirror's, and factored by sparse LU.  The
    pieces are the stage plan (``_stage_sites``, kept per box, b, d and
    resonant set when the cube holds at most STAGE_MEMO_SITES candidate
    sites), the folded operator (``_folded_operator``) and the gated
    solve (``_gated_solve``).  Raises ResonantBox when the box does not hold
    the resonant set, or the folded operator is singular or its 1-norm
    condition estimate exceeds MAX_CONDITION, and RegionTooLarge (before
    any site is built) when the cube holds more than
    lattice.MATERIALIZE_LIMIT candidate sites.
    """
    box = config.M ** stage
    resonant = params.resonant_set()
    for site in resonant.members:
        if site.norm > box:
            raise ResonantBox(
                f"stage box radius {box} does not contain the resonant set",
                stage=stage, site=site)
    kept = (2 * box + 1) ** (params.b + params.d) <= STAGE_MEMO_SITES
    plan = (_stage_sites if kept else _stage_plan)(box, params.b, params.d,
                                                   resonant)
    idx, canon = plan.index, plan.canon

    kernel = linearize(q, params.p) if params.delta != 0.0 else None
    matrix = _folded_operator(plan, omega, params, kernel)

    f_vecs, f_vals = f.as_arrays()
    at = idx.lookup(f_vecs)
    rhs = np.zeros(idx.size)
    rhs[at[at >= 0]] = -f_vals[at >= 0]
    x, cond = _gated_solve(matrix, rhs[canon], stage, box,
                           lambda row: idx.site_of(int(canon[row])))
    increment = _increment(idx.vectors[canon], x, params.b, params.d)
    return PStepResult(increment=increment, box_radius=box, box_sites=idx.size,
                       condition_estimate=cond)


def _increment(vectors: np.ndarray, x: np.ndarray, b: int,
               d: int) -> CoefficientField:
    """The field of the values x at the canonical rows (k | n) ``vectors``.

    The field's drop rule (x != 0, |x| >= DROP * max|x|) is applied to the
    array first, so only the survivors become sites.  The constructor keeps
    what it is given in order and applies the same cut to the same values,
    so the field, dict order included, is the one built from every row.  A
    non-finite value is refused with the ValueError ``from_entries`` raises.
    """
    mag, bad = np.abs(x), ~np.isfinite(x)
    keep = ((x != 0.0) & (mag >= DROP * mag.max(initial=0.0))) | bad
    sites, values = sites_of(vectors[keep], b), x[keep].tolist()
    if bad.any():
        first = int(np.argmax(bad[keep]))
        k, n = sites[first]
        raise ValueError(f"non-finite value {values[first]} at ({k}, {n})")
    # the rows are canonical and distinct, so the sites are a field's keys
    return CoefficientField(dict(zip(sites, values)), b, d, _trusted=True)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def decay_fit(q: CoefficientField,
              resonant_set: Optional[ResonantSet] = None) -> float:
    """Least-squares decay rate of log|q| against |k| + |n| off the resonant
    set; the rate is the negated slope.  The points are the field's full
    lattice entries in the order of ``full_items``."""
    vecs, vals = q.as_arrays()
    order = (np.abs(vecs[:, :q.b]).max(axis=1, initial=0)
             + np.abs(vecs[:, q.b:]).max(axis=1, initial=0))
    keep = ~(np.abs(vals) <= DECAY_FIT_FLOOR)     # NaN is kept
    if resonant_set is not None:
        for site in resonant_set.members:
            keep &= (vecs != site.vector).any(axis=1)
    xs = order[keep].astype(float)
    if len(xs) < DECAY_FIT_MIN_POINTS or len(np.unique(xs)) < 2:
        raise InsufficientData(
            f"decay fit needs >= {DECAY_FIT_MIN_POINTS} off-resonant points "
            f"above {DECAY_FIT_FLOOR:g}, got {len(xs)}")
    ys = np.array([math.log(a) for a in np.abs(vals[keep]).tolist()])
    return float(-np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# the staged solve
# ---------------------------------------------------------------------------

def _quality_block(q: CoefficientField, omega: np.ndarray, params: ModelParams,
                   final_residual: CoefficientField) -> dict:
    resonant = params.resonant_set()
    anchors_ok = all(
        q.get(unit_k(l, params.b), n) == a / 2.0
        for l, (n, a) in enumerate(zip(params.anchors, params.amplitudes), start=1))
    om0 = omega0(params)
    t_samples = np.linspace(0.0, 10.0, 16)
    return {
        "weighted_tail_rho": 0.1,
        "weighted_tail": weighted_tail_norm(q, 0.1, resonant),
        "tail_threshold": math.sqrt(params.eps + params.delta)
        if params.eps + params.delta > 0 else 0.0,
        "pde_residual_max": pde_residual(q, omega, params, t_samples),
        "anchors_exact": anchors_ok,
        "omega_deviation": float(np.abs(omega - om0).max()),
        "final_residual_l2": final_residual.l2_norm(),
        "final_residual_sup": final_residual.sup_norm(),
        "final_residual_l1": final_residual.l1_norm(),
        "support_bound": q.support_bound(),
        "lattice_entries": q.num_lattice_entries,
    }


def solve(params: ModelParams, config: SolverConfig = SolverConfig()) -> Solution:
    """Alternate P- and Q-steps on growing boxes until the residual floor.

    One Q-step and F(q) at its omega come first; stage r (r = 1..r_max)
    then takes one P-step on the box of radius M^r, one Q-step and one
    residual, which the next stage's P-step reuses.  Raises ResonantBox
    (propagated from p_step) and NonConvergence when the residual ratio
    stays >= 0.9 across three consecutive stages.
    """
    if params.eps + params.delta > COUPLING_LIMIT:
        raise PreconditionFailed(
            f"eps+delta = {params.eps + params.delta} exceeds the coupling "
            f"limit {COUPLING_LIMIT}")
    if params.eps > params.delta and params.delta > 0.0:
        warnings.warn("eps > delta: outside the regime the construction targets",
                      stacklevel=2)

    q = initial_field(params)
    omega = omega0(params)
    f = residual(q, omega, params)
    norm = f.l2_norm()
    records = [StageRecord(stage=0, box_radius=0, box_sites=0,
                           condition_estimate=None, delta_q_norm=0.0,
                           residual_norm=norm,
                           omega=tuple(float(w) for w in omega),
                           decay_rate=None, wall_time=0.0)]
    converged = norm <= config.residual_floor
    slow_stages = 0
    if not converged:
        omega = q_step(q, params)
        f = residual(q, omega, params)
        for stage in range(1, config.r_max + 1):
            t0 = time.perf_counter()
            step = p_step(q, omega, f, params, stage, config)
            q = q.add(step.increment)
            omega = q_step(q, params)
            prev_norm = norm
            f = residual(q, omega, params)
            norm = f.l2_norm()
            try:
                rate = decay_fit(q, params.resonant_set())
            except InsufficientData:
                rate = None
            records.append(StageRecord(
                stage=stage, box_radius=step.box_radius,
                box_sites=step.box_sites,
                condition_estimate=step.condition_estimate,
                delta_q_norm=step.increment.l2_norm(),
                residual_norm=norm,
                omega=tuple(float(w) for w in omega),
                decay_rate=rate,
                wall_time=time.perf_counter() - t0))
            if norm <= config.residual_floor:
                converged = True
                break
            slow_stages = slow_stages + 1 if norm >= 0.9 * prev_norm else 0
            if slow_stages >= 3:
                raise NonConvergence(
                    f"residual stagnated for 3 stages (now {norm:.3e})",
                    trace=tuple(records))

    return Solution(q=q, omega=tuple(float(w) for w in omega),
                    trace=tuple(records),
                    quality=_quality_block(q, omega, params, f),
                    converged=converged)


# ---------------------------------------------------------------------------
# dense validation oracle
# ---------------------------------------------------------------------------

def _cube_place(vectors: np.ndarray, radius: int) -> np.ndarray:
    """Row-major place of each vector (last axis) in the cube of ``radius``,
    the order of ``lattice.box_vectors``; -1 outside the cube."""
    place = np.zeros(vectors.shape[:-1], dtype=np.intp)
    for j in range(vectors.shape[-1]):
        place = place * (2 * radius + 1) + vectors[..., j] + radius
    return np.where((np.abs(vectors) <= radius).all(axis=-1), place, -1)


def _canonical_mask(k: np.ndarray) -> np.ndarray:
    """Rows k (int, m x b) that are canonical: k = 0 or first nonzero > 0."""
    return k[np.arange(len(k)), (k != 0).argmax(axis=1)] >= 0


class _OracleSystem:
    """The oracle's truncated system on the cube of radius ``box``, with the
    index arrays of its closed-form Jacobian, built once per call.

    Unknowns are q at the canonical sites of the cube minus the resonant set,
    in the cube's lexicographic order, then the b frequencies.  Rows are F at
    those sites, then F at the b anchors (the Q-equations).  A column table
    over the cube maps both (k, n) and (-k, n) to the unknown at canonical k,
    so canonical(k - k') is one table read.  Each iterate reads the delta
    kernel into a grid over the space sites and the k' that can reach a
    column (|k'| <= 2 box); a (row k, column t) pair takes its at most two
    kernel terms, k' = k - t and k' = k + t, in the kernel's own order, so
    every entry is summed as the row-by-row form sums it.
    """

    def __init__(self, params: ModelParams, box: int):
        b, d = params.b, params.d
        self.params = params
        self.box = box
        vecs = cube(box, b, d, excluded=params.resonant_set()).vectors()
        unknowns = vecs[_canonical_mask(vecs[:, :b])]
        rows = np.vstack([unknowns] + [
            np.array(unit_k(l, b) + tuple(n)) for l, n in
            enumerate(params.anchors, start=1)])
        self.n_unknowns = n_unknowns = len(unknowns)
        # canonical (k, n) key of every row, as a field stores it
        self.keys = [(tuple(v[:b]), tuple(v[b:])) for v in rows.tolist()]
        self.frozen = {key: a / 2.0 for key, a in
                       zip(self.keys[n_unknowns:], params.amplitudes)}
        site = self.site = _cube_place(rows[:, b:], box)  # -1: anchor outside

        spaces = box_vectors((0,) * d, (box,) * d)
        self.mu2 = np.array([mu(n, params) ** 2
                             for n in map(tuple, spaces.tolist())])
        col = np.full(((2 * box + 1) ** b, len(spaces)), -1, dtype=np.intp)
        at = site[:n_unknowns]
        col[_cube_place(unknowns[:, :b], box), at] = np.arange(n_unknowns)
        col[_cube_place(-unknowns[:, :b], box), at] = np.arange(n_unknowns)
        k_place = _cube_place(rows[:, :b], box)

        # eps: the neighbours (k, n +- e_j) of each row
        nbr = _cube_place(rows[:, None, b:] + np.array(neighbor_offsets(d)), box)
        i, e = np.nonzero(nbr >= 0)
        j = col[k_place[i], nbr[i, e]]
        self.eps_pairs = (i[j >= 0], j[j >= 0])

        # delta: row k and column t (both canonical) meet the kernel at
        # k' = k - t and k' = k + t, one grid place past the end (a zero)
        # standing for the second term of t = 0
        kc = box_vectors((0,) * b, (box,) * b)
        kc = kc[_canonical_mask(kc)]
        self.kernel_cols = col[_cube_place(kc, box)].T     # site x canonical k
        self.grid_size = (4 * box + 1) ** b
        # a grid place is linear in k, with k = 0 at the middle
        wide, mid = _cube_place(kc, 2 * box), self.grid_size // 2
        self.first_k = wide[:, None] - wide[None, :] + mid
        self.second_k = wide[:, None] + wide[None, :] - mid
        self.second_k[:, ~kc.any(axis=1)] = self.grid_size
        canon_of = np.full((2 * box + 1) ** b, -1, dtype=np.intp)
        canon_of[_cube_place(kc, box)] = np.arange(len(kc))
        self.kernel_rows = np.flatnonzero(site >= 0)
        self.row_k = canon_of[k_place]
        self.kc = kc.astype(float)
        self.k_rows = self.kc[self.row_k]

    def field(self, x: np.ndarray) -> CoefficientField:
        """q at the point x: the anchors a_l/2, then x at the unknowns.  The
        keys are canonical and distinct (the unknowns exclude the resonant
        anchors), and x is finite (the callers check every trial point), so
        the dict is a field as it stands."""
        entries = dict(self.frozen)
        entries.update(zip(self.keys[:self.n_unknowns],
                           x[:self.n_unknowns].tolist()))
        return CoefficientField(entries, self.params.b, self.params.d,
                                _trusted=True)

    def values(self, field: CoefficientField) -> np.ndarray:
        """A field's values at the rows' sites, in row order."""
        get = field._data.get
        return np.array([get(key, 0.0) for key in self.keys])

    def jacobian(self, x: np.ndarray, q: CoefficientField) -> np.ndarray:
        """dF/d(q, omega) at x, where q is ``field(x)``."""
        params, n_unknowns = self.params, self.n_unknowns
        omega = x[n_unknowns:]
        # k.omega by np.dot per distinct k, as F sums it
        kw = np.array([np.dot(k, omega) for k in self.kc])[self.row_k]
        size = n_unknowns + params.b
        jac = np.zeros((size, size))
        diag = np.arange(n_unknowns)
        jac[diag, diag] += self.mu2[self.site[diag]] - kw[diag] * kw[diag]
        if params.eps != 0.0:
            jac[self.eps_pairs] += params.eps
        if params.delta != 0.0:
            self._add_kernel(jac, linearize(q, params.p))
        jac[:, n_unknowns:] += -2.0 * kw[:, None] * self.k_rows \
            * self.values(q)[:, None]
        return jac

    def _add_kernel(self, jac: np.ndarray, kernel: CoefficientField) -> None:
        b, box = self.params.b, self.box
        vecs, vals = kernel.as_arrays()
        g = _cube_place(vecs[:, :b], 2 * box)
        s = _cube_place(vecs[:, b:], box)
        ok = (g >= 0) & (s >= 0)
        shape = (len(self.mu2), self.grid_size + 1)
        value = np.zeros(shape)
        value[s[ok], g[ok]] = self.params.delta * vals[ok]
        order = np.full(shape, len(vals))       # place in kernel.full_items
        order[s[ok], g[ok]] = np.flatnonzero(ok)
        chunk = max(1, ORACLE_CHUNK // len(self.first_k))
        for lo in range(0, len(self.kernel_rows), chunk):
            i = self.kernel_rows[lo:lo + chunk]
            site = self.site[i][:, None]
            g1, g2 = self.first_k[self.row_k[i]], self.second_k[self.row_k[i]]
            cols = self.kernel_cols[self.site[i]]
            ok = cols >= 0
            at = (np.broadcast_to(i[:, None], cols.shape)[ok], cols[ok])
            v1, v2 = value[site, g1][ok], value[site, g2][ok]
            swap = (order[site, g2] < order[site, g1])[ok]
            jac[at] += np.where(swap, v2, v1)
            jac[at] += np.where(swap, v1, v2)


def brute_force_oracle(params: ModelParams, box: int) -> OracleResult:
    """Plain dense Newton on the full truncated system (no staging).

    Unknowns are q at the canonical sites of the cube of radius ``box``
    minus the resonant set, plus the b frequencies; equations are F at those
    sites plus the b Q-equations.  The Jacobian is the closed form, built
    from index arrays fixed per box (``_OracleSystem``); its row-by-row
    reference is ``tests/oracle_reference.py``.  Each iterate's field is
    built once: F and the Jacobian there share it, so the kernel reads the
    power of q that F computed.  A singular Jacobian, a non-finite Newton
    step and a non-finite F raise OracleDiverged.
    """
    # canonical k (k = 0 and half the rest) times the space sites, minus the
    # resonant (e_l, n^(l)) inside the box: counted before any site is built
    side = 2 * box + 1
    n_unknowns = (side ** params.b + 1) // 2 * side ** params.d - sum(
        max(map(abs, n)) <= box for n in params.anchors)
    if n_unknowns + params.b > 10_000:
        raise OracleTooLarge(
            f"oracle box {box}: truncated system has {n_unknowns + params.b} "
            f"unknowns (> 10^4)")
    system = _OracleSystem(params, box)

    def f_at(x: np.ndarray, q: CoefficientField, iteration: int) -> np.ndarray:
        fv = system.values(residual(q, x[n_unknowns:], params))
        if not np.isfinite(fv).all():
            raise OracleDiverged(f"non-finite F at iteration {iteration}")
        return fv

    x = np.zeros(n_unknowns + params.b)
    x[n_unknowns:] = omega0(params)
    history = []
    qf = system.field(x)
    fv = f_at(x, qf, 0)
    for iteration in range(ORACLE_MAX_ITERATIONS):
        rnorm = float(np.linalg.norm(fv))
        history.append(rnorm)
        if rnorm < ORACLE_TOLERANCE:
            return OracleResult(q=qf, omega=tuple(float(w) for w in x[n_unknowns:]),
                                residual_history=tuple(history),
                                final_residual=rnorm, iterations=iteration)
        try:
            step = np.linalg.solve(system.jacobian(x, qf), fv)
        except np.linalg.LinAlgError as exc:
            raise OracleDiverged(f"Jacobian singular at iteration {iteration}: "
                                 f"{exc}") from exc
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            if not np.isfinite(trial).all():
                raise OracleDiverged(
                    f"non-finite Newton step at iteration {iteration}")
            qf = system.field(trial)
            fv = f_at(trial, qf, iteration)   # kept with qf: the next F(x)
            if np.linalg.norm(fv) < rnorm or scale < 1e-9:
                break
            scale *= 0.5
        else:
            raise OracleDiverged(
                f"step control failed at iteration {iteration} "
                f"(residual {rnorm:.3e})")
        x = trial
    raise OracleDiverged(
        f"no convergence in {ORACLE_MAX_ITERATIONS} iterations "
        f"(residual {history[-1]:.3e})")


def compare_with_oracle(solution: Solution, oracle: OracleResult,
                        box: Optional[int] = None) -> dict:
    """Sup-norm discrepancy between a staged solution and the oracle on the
    overlap of their boxes."""
    if box is None:
        box = min(solution.q.support_bound(), oracle.q.support_bound())
    # both fields store canonical keys; the max of the differences does not
    # depend on the order of the keys
    ours, theirs = solution.q._data, oracle.q._data
    worst = 0.0
    for key in ours.keys() | theirs.keys():
        k, n = key
        if max(map(abs, k + n), default=0) > box:
            continue
        worst = max(worst, abs(ours.get(key, 0.0) - theirs.get(key, 0.0)))
    omega_diff = float(np.abs(np.array(solution.omega) - np.array(oracle.omega)).max())
    return {"sup_discrepancy": worst, "omega_discrepancy": omega_diff,
            "overlap_box": box}
