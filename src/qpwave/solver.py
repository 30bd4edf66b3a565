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
estimate of that folded operator decides whether the box is resonant.

A plain dense Newton iteration on the full truncated system (q off the
resonant set plus omega, no staging) serves as an independent validation
oracle.

A ``Solution`` holds q, omega, a tuple of one ``StageRecord`` per stage
(the rows of ``trace.txt``; ``NonConvergence`` carries the same tuple), the
quality block and the convergence flag.  ``decay_fit`` returns the fitted
rate alone.  Certification is not checked here: ``qpwave solve`` refuses a
failed or stale certificate bundle before it calls ``solve``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (FrequencyCollapse, InsufficientData, NonConvergence,
                     OracleDiverged, OracleTooLarge, PreconditionFailed,
                     ResonantBox, check_ranges)
from .lattice import (ResonantSet, Site, canonical_k, cube, index_map,
                      neighbor_offsets, sites_of, unit_k)
from .linop import DECAY_FIT_FLOOR, MAX_CONDITION, OperatorSpec, assemble_sparse
from .linop import assemble  # noqa: F401  perfbench/spans.py wraps solver.assemble
from .nonlin import (CoefficientField, convolve_power, linearize,
                     pde_residual, residual, weighted_tail_norm)
from .spectrum import ModelParams, mu, omega0

COUPLING_LIMIT = 0.1       # largest eps+delta the stage scheme accepts
DECAY_FIT_MIN_POINTS = 10  # off-resonant points a decay fit needs
ORACLE_TOLERANCE = 1e-13   # oracle stops once |F| falls below this
ORACLE_MAX_ITERATIONS = 50


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
    stage: int
    box_radius: int
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


def p_step(q: CoefficientField, omega: Sequence[float], f: CoefficientField,
           params: ModelParams, stage: int, config: SolverConfig) -> PStepResult:
    """One smoothed Newton increment on the stage box minus the resonant set.

    ``f`` is F(q) at ``omega`` (``residual(q, omega, params)``).
    Solves (D(0) + eps*Delta + delta*T_q) dq = -F(q) restricted to the cube
    of radius M^stage with the resonant set removed.  The cube, the resonant
    set and the operator are symmetric under k -> -k and F(q) is even, so
    the increment is even: the system is folded onto the canonical rows
    (k = 0 or first nonzero entry of k positive), each column added onto
    its mirror's, and factored by sparse LU.  Raises ResonantBox when the
    folded operator is singular or its 1-norm condition estimate exceeds
    MAX_CONDITION, and RegionTooLarge (before any site is built) when the
    cube holds more than lattice.MATERIALIZE_LIMIT candidate sites.
    """
    box = config.M ** stage
    resonant = params.resonant_set()
    for site in resonant.members:
        if site.norm > box:
            raise ResonantBox(
                f"stage box radius {box} does not contain the resonant set",
                stage=stage, site=site)
    region = cube(box, params.b, params.d, excluded=resonant)
    idx = index_map(region)
    n_sites = idx.size

    kernel = linearize(q, params.p) if params.delta != 0.0 else None
    spec = OperatorSpec(region, 0.0, tuple(float(w) for w in omega), params, kernel)

    f_vecs, f_vals = f.as_arrays()
    at = idx.lookup(f_vecs)
    rhs = np.zeros(n_sites)
    rhs[at[at >= 0]] = -f_vals[at >= 0]

    vecs, b = idx.vectors, params.b
    k = vecs[:, :b]
    lead = k[np.arange(n_sites), (k != 0).argmax(axis=1)]
    canon = np.flatnonzero(lead >= 0)
    column = np.cumsum(lead >= 0) - 1      # a canonical row's place in canon
    rep = idx.lookup(np.hstack([np.where(lead[:, None] < 0, -k, k), vecs[:, b:]]))
    fold = sp.csr_matrix((np.ones(n_sites), (np.arange(n_sites), column[rep])),
                         shape=(n_sites, canon.size))
    matrix = (assemble_sparse(spec)[canon] @ fold).tocsc()
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
            cond = float(inv_norm * spla.norm(matrix, 1))
    except FloatingPointError:
        cond = math.inf
    cond = cond if np.isfinite(cond) else math.inf
    if cond > MAX_CONDITION:
        worst = (idx.site_of(int(canon[np.argmax(np.abs(w))]))
                 if cond < math.inf else None)
        raise ResonantBox(
            f"stage {stage} box (radius {box}) is resonant: condition estimate "
            f"{cond:.3e} at site {worst}", stage=stage, condition=cond,
            site=worst)

    increment = CoefficientField.from_entries(
        zip(sites_of(vecs[canon], b), lu.solve(rhs[canon]).tolist()), b, params.d)
    return PStepResult(increment=increment, box_radius=box, box_sites=n_sites,
                       condition_estimate=cond)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def decay_fit(q: CoefficientField,
              resonant_set: Optional[ResonantSet] = None) -> float:
    """Least-squares decay rate of log|q| against |k| + |n| off the resonant
    set; the rate is the negated slope."""
    xs, ys = [], []
    for k, n, v in q.full_items():
        if resonant_set is not None and Site(k, n) in resonant_set:
            continue
        if abs(v) <= DECAY_FIT_FLOOR:
            continue
        xs.append(float(Site(k, n).order))
        ys.append(math.log(abs(v)))
    if len(xs) < DECAY_FIT_MIN_POINTS or len(set(xs)) < 2:
        raise InsufficientData(
            f"decay fit needs >= {DECAY_FIT_MIN_POINTS} off-resonant points "
            f"above {DECAY_FIT_FLOOR:g}, got {len(xs)}")
    return float(-np.polyfit(np.array(xs), np.array(ys), 1)[0])


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
    records = [StageRecord(stage=0, box_radius=0, delta_q_norm=0.0,
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

def brute_force_oracle(params: ModelParams, box: int) -> OracleResult:
    """Plain dense Newton on the full truncated system (no staging).

    Unknowns are q at the canonical sites of the cube of radius ``box``
    minus the resonant set, plus the b frequencies; equations are F at those
    sites plus the b Q-equations.  The Jacobian is assembled in closed form.
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
    region = cube(box, params.b, params.d, excluded=params.resonant_set())
    unknown_sites = [s for s in region.members() if canonical_k(s.k) == s.k]
    col = {s: i for i, s in enumerate(unknown_sites)}
    anchor_rows = [(unit_k(l, params.b), tuple(n), a)
                   for l, (n, a) in enumerate(
                       zip(params.anchors, params.amplitudes), start=1)]

    frozen = {(e, n): a / 2.0 for e, n, a in anchor_rows}

    def field_of(x: np.ndarray) -> CoefficientField:
        entries = dict(frozen)
        for s, i in col.items():
            entries[(s.k, s.n)] = x[i]
        return CoefficientField.from_entries(entries, params.b, params.d)

    def f_vector(x: np.ndarray) -> np.ndarray:
        qf = field_of(x)
        omega = x[n_unknowns:]
        ff = residual(qf, omega, params)
        out = np.empty(n_unknowns + params.b)
        for s, i in col.items():
            out[i] = ff.get(s.k, s.n)
        for j, (e, n, _a) in enumerate(anchor_rows):
            out[n_unknowns + j] = ff.get(e, n)
        return out

    offsets = neighbor_offsets(params.d)

    def jacobian(x: np.ndarray) -> np.ndarray:
        qf = field_of(x)
        omega = x[n_unknowns:]
        kernel = linearize(qf, params.p) if params.delta != 0.0 else None
        kernel_slices = {}
        if kernel is not None:
            for k, n, v in kernel.full_items():
                kernel_slices.setdefault(n, {})[k] = v
        jac = np.zeros((n_unknowns + params.b, n_unknowns + params.b))

        def fill_row(row: int, k: tuple, n: tuple):
            kw = float(np.dot(k, omega))
            j = col.get(Site(k, n))
            if j is not None:
                jac[row, j] += mu(n, params) ** 2 - kw * kw
            if params.eps != 0.0:
                for off in offsets:
                    nb = tuple(xx + o for xx, o in zip(n, off))
                    j = col.get(Site(k, nb))
                    if j is not None:
                        jac[row, j] += params.eps
            sl = kernel_slices.get(n)
            if sl is not None:
                for koff, v in sl.items():
                    tgt = canonical_k(tuple(a - b for a, b in zip(k, koff)))
                    j = col.get(Site(tgt, n))
                    if j is not None:
                        jac[row, j] += params.delta * v
            qval = qf.get(k, n)
            for l in range(params.b):
                jac[row, n_unknowns + l] += -2.0 * kw * k[l] * qval

        for s, i in col.items():
            fill_row(i, s.k, s.n)
        for jrow, (e, n, _a) in enumerate(anchor_rows):
            fill_row(n_unknowns + jrow, e, n)
        return jac

    x = np.zeros(n_unknowns + params.b)
    x[n_unknowns:] = omega0(params)
    history = []
    fv = f_vector(x)
    for iteration in range(ORACLE_MAX_ITERATIONS):
        rnorm = float(np.linalg.norm(fv))
        history.append(rnorm)
        if rnorm < ORACLE_TOLERANCE:
            qf = field_of(x)
            return OracleResult(q=qf, omega=tuple(float(w) for w in x[n_unknowns:]),
                                residual_history=tuple(history),
                                final_residual=rnorm, iterations=iteration)
        jac = jacobian(x)
        try:
            step = np.linalg.solve(jac, fv)
        except np.linalg.LinAlgError as exc:
            raise OracleDiverged(f"Jacobian singular at iteration {iteration}: "
                                 f"{exc}") from exc
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            fv = f_vector(trial)    # kept: the next iteration's F(x)
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
    worst = 0.0
    keys = {(k, n) for field in (solution.q, oracle.q)
            for k, n, _v in field.canonical_items()}
    for k, n in keys:
        if max((abs(x) for x in k + n), default=0) > box:
            continue
        diff = abs(solution.q.get(k, n) - oracle.q.get(k, n))
        worst = max(worst, diff)
    omega_diff = float(np.abs(np.array(solution.omega) - np.array(oracle.omega)).max())
    return {"sup_discrepancy": worst, "omega_discrepancy": omega_diff,
            "overlap_box": box}
