"""Linearized operators on regions, Green's functions and empirical scans.

The operator is H(sigma) = D(sigma) + eps*Delta + delta*T_phi with diagonal
D(sigma) at (k, n) equal to mu_n^2 - (sigma + k.omega)^2, the discrete
Laplacian coupling l1-adjacent space sites at equal k, and the Toeplitz
convolution T_phi coupling equal-n sites through a symmetric kernel phi.
Its entries are built as arrays over the rows of the region's
``lattice.index_map``, whose lookup finds every neighbour and kernel offset
of an array of sites at once; they are laid out dense (``assemble``, for
the Green's function diagnostics and the Schur complement) or as CSR
(``assemble_sparse``, for the solver's P-step).  Green's function reports
carry the operator norm, a fitted off-diagonal decay rate and pass flags
against exp(M^rho2) and exp(-gamma' |j-j'|) for |j-j'| >= M^rho3.
Scans over the spectral shift classify each grid sigma as good or bad for a
subsampled family of translated elementary regions, whose entries are
restricted from one assembly on the family's union; bad fractions are
reported against exp(-M^rho1).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (ComplementSingular, RegionTooLarge, Singular, cast_number,
                     check_ranges)
from .lattice import (RegionIndex, RegionSpec, ResonantSet, Site, box_vectors,
                      index_map, neighbor_offsets)
from .nonlin import CoefficientField
from .spectrum import ModelParams, mu

MAX_CONDITION = 1e14  # above this condition estimate a P-step box is resonant
SINGULARITY_RTOL = 1.0 / MAX_CONDITION
DECAY_FIT_FLOOR = 1e-30    # smaller magnitudes are left out of a decay fit
MAX_FAMILY_REGIONS = 64
# bytes of one stack of coupled-block matrices in the LDE scan
BATCH_BYTES = 1 << 20
# bytes of one n x n float array of an LDE scan region (n <= 1448 sites)
REGION_BYTES = 1 << 24


@dataclass(frozen=True)
class Thresholds:
    """Large-deviation exponents, positive and finite; gamma_prime defaults
    to gamma - M^(-0.2)."""

    rho1: float = 0.1
    rho2: float = 0.7
    rho3: float = 0.9
    gamma_prime: Optional[float] = None

    def __post_init__(self):
        if self.gamma_prime is not None:
            object.__setattr__(self, "gamma_prime",
                               cast_number("gamma_prime", self.gamma_prime, float))
        check_ranges("", self, [
            (name, 0.0 < v < math.inf, "positive and finite")
            for name, v in dataclasses.asdict(self).items() if v is not None])

    def bounds(self, gamma: float, scale: float) -> tuple:
        """(exp(M^rho2), gamma', M^rho3) at scale M, model decay rate gamma."""
        rate = self.gamma_prime if self.gamma_prime is not None \
            else gamma - scale ** -0.2
        return math.exp(scale ** self.rho2), rate, scale ** self.rho3


@dataclass(frozen=True)
class OperatorSpec:
    """One restricted operator instance H(sigma) on a region.

    ``kernel`` is the convolution kernel phi (a CoefficientField, symmetric
    by construction; build one with ``from_entries``) or None for phi = 0.
    For the linearized operator of a state q, pass ``nonlin.linearize(q, p)``.
    """

    region: RegionSpec
    sigma: float
    omega: tuple
    params: ModelParams
    kernel: Optional[CoefficientField] = None


def _per_distinct(rows: np.ndarray, fn) -> np.ndarray:
    """fn(row) for every row of an int array, evaluated once per distinct
    row (on a list of Python ints) and broadcast back to the rows."""
    lo = rows.min(axis=0)
    code = np.ravel_multi_index((rows - lo).T, rows.max(axis=0) - lo + 1)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return np.array([fn(r) for r in rows[first].tolist()], dtype=float)[inverse]


class _Entries(NamedTuple):
    """H(sigma) on a region as arrays over the region's rows: the diagonal,
    its mu_n^2 and k.omega parts, and the off-diagonal entries."""
    index: RegionIndex
    mu2: np.ndarray
    kw: np.ndarray
    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def restrict(self, idx: RegionIndex) -> "_Entries":
        """The entries on the sub-region indexed by ``idx``: every entry
        depends only on the sites it sits on, so this is the sub-region's own
        assembly, with its edges in another order."""
        at = self.index.lookup(idx.vectors)
        local = np.full(self.index.size, -1)
        local[at] = np.arange(idx.size)
        rows, cols = local[self.rows], local[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        return _Entries(idx, self.mu2[at], self.kw[at], self.diag[at],
                        rows[keep], cols[keep], self.vals[keep])


def _entries_on(idx: RegionIndex, sigma: float, omega: Sequence[float],
                params: ModelParams,
                kernel: Optional[CoefficientField]) -> _Entries:
    """The entries of H(sigma) on the rows of ``idx``.  k.omega and mu_n^2 are
    evaluated once per distinct k and n with the scalar ``np.dot`` and ``mu``,
    so every entry has the bits of the site-by-site formula.  No (row, col)
    pair occurs twice."""
    b, d = params.b, params.d
    vecs = idx.vectors
    omega = np.asarray(omega, dtype=float)
    kw = _per_distinct(vecs[:, :b], lambda k: float(np.dot(k, omega)))
    mu2 = _per_distinct(vecs[:, b:], lambda n: mu(n, params) ** 2)
    shift = sigma + kw
    diag = mu2 - shift * shift

    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]

    def couple(i, offsets, values):
        # values[e] at (i, the row of vector i + offsets[e]) where it exists
        j = idx.lookup(vecs[i][None, :, :] + offsets[:, None, :])
        e, at = np.nonzero(j >= 0)
        rows.append(i[at])
        cols.append(j[e, at])
        vals.append(values[e])

    if params.eps != 0.0:
        offs = np.zeros((2 * d, b + d), dtype=int)
        offs[:, b:] = neighbor_offsets(d)
        couple(np.arange(idx.size), offs, np.full(2 * d, params.eps))
    slices = kernel.by_site() if kernel is not None else {}
    for n, sl in slices.items():
        i = np.flatnonzero((vecs[:, b:] == n).all(axis=1))
        offs = np.zeros((len(sl), b + d), dtype=int)
        offs[:, :b] = -np.array(list(sl)).reshape(len(sl), b)
        v = np.array(list(sl.values()), dtype=float)
        zero = ~offs.any(axis=1)
        diag[i] += params.delta * (v[zero][0] if zero.any() else 0.0)
        if params.delta != 0.0:
            couple(i, offs[~zero], params.delta * v[~zero])
    return _Entries(idx, mu2, kw, diag, *map(np.concatenate, (rows, cols, vals)))


def _assemble_entries(spec: OperatorSpec) -> _Entries:
    """The entries of H(sigma) on the spec's region."""
    return _entries_on(index_map(spec.region), spec.sigma, spec.omega,
                       spec.params, spec.kernel)


def assemble(spec: OperatorSpec) -> np.ndarray:
    """Dense symmetric matrix of H(sigma) on the region."""
    ent = _assemble_entries(spec)
    out = np.diag(ent.diag)
    out[ent.rows, ent.cols] += ent.vals
    return out


def assemble_sparse(spec: OperatorSpec) -> sp.csr_matrix:
    """CSR matrix of H(sigma), with the same entries as ``assemble``."""
    ent = _assemble_entries(spec)
    diag = np.arange(ent.index.size)
    return sp.csr_matrix((np.concatenate([ent.diag, ent.vals]),
                          (np.concatenate([diag, ent.rows]),
                           np.concatenate([diag, ent.cols]))),
                         shape=(ent.index.size,) * 2)


# ---------------------------------------------------------------------------
# Green's function diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenReport:
    """Inverse diagnostics for one region and shift."""

    scale: float                 # M used for the threshold comparisons
    operator_norm: float
    norm_bound: float            # exp(M^rho2)
    norm_ok: bool
    decay_rate_fit: float        # gamma-hat; nan when no far pairs exist
    decay_fit_residual: float
    decay_ok: bool
    decay_rate_required: float   # gamma'
    min_distance: float          # M^rho3
    n_far_pairs: int
    smallest_singular_value: float
    condition: float
    inverse_residual: float      # max |A G - I|


def _pair_distances(vecs: np.ndarray) -> np.ndarray:
    """Sup-norm distances between the rows of an int array."""
    return np.abs(vecs[:, None, :] - vecs[None, :, :]).max(axis=-1)


def _is_singular(smallest, largest):
    """The singular guard on min and max |eigenvalue| (elementwise on arrays):
    the smallest is zero or below SINGULARITY_RTOL times the largest."""
    return (smallest < SINGULARITY_RTOL * largest) | (smallest == 0.0)


def _eig_extent(matrix: np.ndarray) -> tuple:
    """(min, max) |eigenvalue| of a symmetric matrix; raises Singular when
    the pair fails the singular guard."""
    abs_eig = np.abs(np.linalg.eigvalsh(matrix))
    smallest, largest = float(abs_eig.min()), float(abs_eig.max())
    if _is_singular(smallest, largest):
        raise Singular(f"matrix numerically singular (min |eig| = {smallest:.3e})",
                       smallest_singular_value=smallest)
    return smallest, largest


def _inverse_norm(abs_eig: np.ndarray) -> float:
    """Reported 1 / min |eigenvalue|: inf at exactly 0, no singular guard."""
    smallest = float(abs_eig.min())
    return math.inf if smallest == 0.0 else 1.0 / smallest


def _green_report(matrix: np.ndarray, vecs: np.ndarray, scale: float,
                  norm_bound: float, rate_req: float,
                  min_dist: float) -> GreenReport:
    """Invert ``matrix`` (rows at ``vecs``) and check the three bounds."""
    smallest, largest = _eig_extent(matrix)
    green = np.linalg.inv(matrix)
    norm = 1.0 / smallest
    inv_res = float(np.abs(matrix @ green - np.eye(len(vecs))).max())

    dists = _pair_distances(vecs)
    far = dists >= min_dist
    np.fill_diagonal(far, False)
    n_far = int(np.count_nonzero(far))
    decay_ok = bool((np.abs(green[far]) <= np.exp(-rate_req * dists[far])).all()) \
        if n_far else True

    rate_fit, fit_res = float("nan"), float("nan")
    if n_far:
        g = np.abs(green[far])
        x = dists[far]
        keep = g > DECAY_FIT_FLOOR
        if np.count_nonzero(keep) >= 2 and len(np.unique(x[keep])) >= 2:
            coeffs, res, *_ = np.polyfit(x[keep], np.log(g[keep]), 1, full=True)
            rate_fit = float(-coeffs[0])
            fit_res = float(res[0]) if len(res) else 0.0

    return GreenReport(
        scale=scale,
        operator_norm=norm,
        norm_bound=norm_bound,
        norm_ok=bool(norm <= norm_bound),
        decay_rate_fit=rate_fit,
        decay_fit_residual=fit_res,
        decay_ok=decay_ok,
        decay_rate_required=rate_req,
        min_distance=min_dist,
        n_far_pairs=n_far,
        smallest_singular_value=smallest,
        condition=largest / smallest,
        inverse_residual=inv_res,
    )


def green(spec: OperatorSpec, thresholds: Thresholds = Thresholds(),
          scale: Optional[float] = None) -> GreenReport:
    """Invert H(sigma) on the region and evaluate the LDE inequalities.

    ``scale`` defaults to the region diameter.  Raises Singular when the
    smallest |eigenvalue| is below SINGULARITY_RTOL times the largest.
    """
    matrix = assemble(spec)
    m_scale = float(spec.region.diameter()) if scale is None else float(scale)
    return _green_report(matrix, spec.region.vectors(), m_scale,
                         *thresholds.bounds(spec.params.gamma, m_scale))


def green_matrix(spec: OperatorSpec) -> np.ndarray:
    """The bare inverse, singular-guarded (for identities and oracles)."""
    matrix = assemble(spec)
    _eig_extent(matrix)
    return np.linalg.inv(matrix)


# ---------------------------------------------------------------------------
# elementary-region families and the LDE scan
# ---------------------------------------------------------------------------

def elementary_region_family(M: int, b: int, d: int,
                             excluded: Optional[ResonantSet] = None,
                             max_regions: int = MAX_FAMILY_REGIONS) -> list:
    """Subsampled family of translated elementary regions of scale M.

    Base rectangles have half-width w = M//2 (even M gives diameter exactly
    M); shifts z range over no-shift, half-overlap, corner and unit offsets,
    and space translations over 0, +-M, +-2M along each axis (the |n| <= 2M
    translation range).  Duplicate member sets are removed and the family is
    truncated to ``max_regions``; the truncation is part of the scan report.
    """
    if M < 2:
        raise ValueError(f"scale M must be >= 2, got {M}")
    w = M // 2
    dim = b + d
    shifts = [(0,) * dim]
    for axis in range(dim):
        for mag in (w, 1, -w):     # w = M // 2 >= 1
            shifts.append(tuple(mag if i == axis else 0 for i in range(dim)))
    shifts.append((w,) * dim)

    translations = [(0,) * d]
    for axis in range(d):
        for mag in (M, -M, 2 * M, -2 * M):
            translations.append(tuple(mag if i == axis else 0 for i in range(d)))

    family, seen = [], set()
    for tn in translations:
        center = Site((0,) * b, tn)
        for z in shifts:
            spec = RegionSpec(center, (w,) * dim, z, b, d, excluded)
            key = spec.vectors().tobytes()      # b"" for an empty region
            if not key or key in seen:
                continue
            seen.add(key)
            family.append(spec)
            if len(family) >= max_regions:
                return family
    return family


def _family_vectors(family: Sequence[RegionSpec]) -> np.ndarray:
    """The distinct member vectors of a family's regions, in lexicographic
    order."""
    return np.unique(np.concatenate([r.vectors() for r in family]), axis=0)


@dataclass(frozen=True)
class LdeScanReport:
    """Good/bad classification of a sigma grid for one scale."""

    scale: int
    sigma_grid: np.ndarray
    bad_flags: np.ndarray
    worst_norm: np.ndarray           # per sigma, max over regions (inf if singular)
    worst_decay_margin: np.ndarray   # per sigma, min of bound - |G| over far pairs
    bad_fraction: float
    bad_measure: float               # bad_fraction * window length
    window: tuple
    comparison_value: float          # exp(-M^rho1)
    bad_intervals: tuple
    n_regions: int
    subsampled: bool
    thresholds: Thresholds

    @property
    def passes(self) -> bool:
        return self.bad_fraction <= self.comparison_value


def default_sigma_window(M: int, params: ModelParams,
                         omega: Sequence[float]) -> tuple:
    """Window covering the shifts k.omega arising up to scale 2M plus the
    spectral radius."""
    reach = 2 * M * float(np.abs(np.asarray(omega)).sum()) \
        + math.sqrt(params.m + 1.0) + 1.0
    return (-reach, reach)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component labels of the undirected graph on 0..n-1 with
    edges (rows[e], cols[e]), numbered in the order of each component's
    smallest node.  Every node takes the smallest label among itself and its
    neighbours, then the label of its label, until nothing changes; the
    labels are then the components' smallest nodes."""
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def _sigma_chunks(count: int, size: int) -> list:
    """Consecutive slices of range(count) whose stacks of size x size float
    matrices stay within BATCH_BYTES (one sigma at least)."""
    step = max(1, BATCH_BYTES // (8 * size * size))
    return [slice(a, a + step) for a in range(0, count, step)]


@dataclass(frozen=True)
class _CoupledBlock:
    """A connected block whose sites carry several k.omega.  Its diagonal
    moves non-uniformly with sigma, so it is assembled at each sigma."""

    offdiag: np.ndarray
    mu2: np.ndarray
    rest: np.ndarray          # kernel's phi(0, n) part of the diagonal
    kw: np.ndarray
    far: np.ndarray           # far-pair mask within the block
    decay_bound: np.ndarray   # exp(-gamma' |j-j'|) on the far pairs

    def at(self, sigmas: np.ndarray) -> np.ndarray:
        """The block at each of ``sigmas``, stacked (len(sigmas), s, s)."""
        a = np.repeat(self.offdiag[None], len(sigmas), axis=0)
        diag = np.arange(len(self.kw))
        a[:, diag, diag] = self.mu2 - (sigmas[:, None] + self.kw) ** 2 \
            + self.rest
        return a


@dataclass(frozen=True)
class _ScanRegion:
    """One family region split into the connected blocks of its
    sigma-independent off-diagonal part (labelled by ``_components``).

    A rigid block has a single k, so H_c(sigma) = B_c - (sigma + k.omega)^2 I
    and the eigenpairs (zeta_l, V) of B_c give every sigma at once: the
    eigenvalues zeta_l - s^2 and G_ij = sum_l V_il V_jl / (zeta_l - s^2).
    A coupled block is stacked over chunks of the grid of at most
    BATCH_BYTES and gets one eigvalsh, and one inv over the passing sigmas,
    per chunk.
    """

    zeta: np.ndarray          # eigenvalues of all rigid B_c
    zeta_kw: np.ndarray       # k.omega of the block of each zeta
    weights: np.ndarray       # (zeta, rigid far pairs i<j): V_il V_jl
    pair_bound: np.ndarray    # decay bound of each rigid far pair
    cross_bound: float        # min decay bound over far pairs across blocks
    coupled: tuple

    def scan(self, sigma_grid: np.ndarray, norm_bound: float) -> tuple:
        """Per sigma: the norm 1/min|eig| (inf when singular), the mask of
        sigmas passing the singular guard and the norm bound, and the min
        of bound - |G| over far pairs (meaningful where the mask holds)."""
        eig = self.zeta - (sigma_grid[:, None] + self.zeta_kw) ** 2
        abs_eig = np.abs(eig)
        smallest = abs_eig.min(axis=1, initial=np.inf)
        largest = abs_eig.max(axis=1, initial=0.0)
        for block in self.coupled:
            for sl in _sigma_chunks(len(sigma_grid), len(block.kw)):
                block_eig = np.abs(np.linalg.eigvalsh(block.at(sigma_grid[sl])))
                smallest[sl] = np.minimum(smallest[sl], block_eig.min(axis=1))
                largest[sl] = np.maximum(largest[sl], block_eig.max(axis=1))
        singular = _is_singular(smallest, largest)
        with np.errstate(divide="ignore"):
            norm = np.where(singular, np.inf, 1.0 / smallest)
        ok = ~singular & (norm <= norm_bound)

        margin = np.full(len(sigma_grid), self.cross_bound)
        if self.pair_bound.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                g = (1.0 / eig) @ self.weights
            margin = np.minimum(margin, (self.pair_bound - np.abs(g)).min(axis=1))
        passing = np.flatnonzero(ok)
        for block in self.coupled:
            if not block.decay_bound.size:
                continue
            for sl in _sigma_chunks(len(passing), len(block.kw)):
                isg = passing[sl]
                g = np.linalg.inv(block.at(sigma_grid[isg]))
                margin[isg] = np.minimum(margin[isg], (
                    block.decay_bound - np.abs(g[:, block.far])).min(axis=1))
        return norm, ok, margin


def _scan_region(ent: _Entries, rate_req: float,
                 min_dist: float) -> _ScanRegion:
    """Split one region's sigma = 0 entries into rigid and coupled blocks."""
    kw, mu2, n = ent.kw, ent.mu2, ent.index.size
    offdiag = np.zeros((n, n))
    offdiag[ent.rows, ent.cols] += ent.vals
    rest = ent.diag - (mu2 - kw**2)
    dists = _pair_distances(ent.index.vectors)
    far = dists >= min_dist
    np.fill_diagonal(far, False)
    decay_bound = np.exp(-rate_req * dists)

    edge = ent.vals != 0.0
    labels = _components(n, ent.rows[edge], ent.cols[edge])
    cross = far & (labels[:, None] != labels[None, :])
    cross_bound = float(decay_bound[cross].min()) if cross.any() else np.inf
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)

    coupled, rigid_by_size = [], {}
    for idx in blocks:
        if (kw[idx] == kw[idx[0]]).all():
            rigid_by_size.setdefault(len(idx), []).append(idx)
        else:
            sub = np.ix_(idx, idx)
            coupled.append(_CoupledBlock(offdiag[sub], mu2[idx], rest[idx],
                                         kw[idx], far[sub],
                                         decay_bound[sub][far[sub]]))

    empty, none = np.zeros(0), np.zeros(0, dtype=int)
    zeta, zeta_kw, bounds, vals = [empty], [empty], [empty], [empty]
    rows, cols = [none], [none]
    offset = n_pairs = 0
    for size, group in sorted(rigid_by_size.items()):
        idx = np.array(group)                      # (blocks, size)
        pair = (idx[:, :, None], idx[:, None, :])
        mats = offdiag[pair]
        diag = np.arange(size)
        mats[:, diag, diag] = mu2[idx] + rest[idx]
        z, v = np.linalg.eigh(mats)
        zeta.append(z.ravel())
        zeta_kw.append(np.repeat(kw[idx[:, 0]], size))
        blk, i, j = np.nonzero(np.triu(far[pair]))
        rows.append((offset + blk[:, None] * size + diag).ravel())
        cols.append(np.repeat(n_pairs + np.arange(len(blk)), size))
        vals.append((v[blk, i, :] * v[blk, j, :]).ravel())
        bounds.append(decay_bound[idx[blk, i], idx[blk, j]])
        offset += idx.size
        n_pairs += len(blk)

    weights = np.zeros((offset, n_pairs))
    weights[np.concatenate(rows), np.concatenate(cols)] = np.concatenate(vals)
    return _ScanRegion(
        zeta=np.concatenate(zeta), zeta_kw=np.concatenate(zeta_kw),
        weights=weights, pair_bound=np.concatenate(bounds),
        cross_bound=cross_bound, coupled=tuple(coupled))


def lde_scan(M: int, params: ModelParams, omega: Sequence[float],
             kernel: Optional[CoefficientField] = None,
             sigma_grid: Optional[np.ndarray] = None,
             thresholds: Thresholds = Thresholds(),
             max_regions: int = MAX_FAMILY_REGIONS,
             num_sigma: int = 1601) -> LdeScanReport:
    """Classify a sigma grid against the LDE inequalities at scale M.

    A sigma is bad when any family region violates the norm bound
    exp(M^rho2) or the off-diagonal decay bound at distance >= M^rho3
    (singular restrictions count as bad).  The fraction of bad grid points
    and its scaling to measure on the window are reported against
    exp(-M^rho1); at desk scales the meaningful comparison is the fraction
    (the asymptotic absolute-measure bound requires scales far beyond any
    grid this tool runs).

    Every region's entries are restricted from one assembly on the union of
    the family's sites.  Sigma enters H only on the diagonal, as
    -(sigma + k.omega)^2, so each region is split once into the connected
    components of its off-diagonal part (by min-label propagation); the
    inverse vanishes between components.  A component on a single k (every
    site away from the kernel's n-support, and every site when
    eps = delta = 0) is rigid: one eigendecomposition of its sigma = -k.omega
    matrix gives its eigenvalues and far-pair Green's entries on the whole
    grid.  The remaining components (those the kernel couples across k) are
    stacked over chunks of sigmas of at most BATCH_BYTES; each chunk gets one
    eigvalsh, and, when the component holds far pairs, one inverse over the
    chunk's sigmas where the region passes the norm checks.  Per sigma and
    region, min and max |eig| are taken over all components and feed the
    singular guard; far pairs across components count with G = 0.
    """
    resonant = params.resonant_set()
    family = elementary_region_family(M, params.b, params.d, resonant,
                                      max_regions)
    subsampled = len(family) >= max_regions
    largest = max(len(region.vectors()) for region in family)
    if 8 * largest**2 > REGION_BYTES:
        raise RegionTooLarge(
            f"an LDE scan region of {largest} sites needs {8 * largest**2} "
            f"bytes per n x n array, above REGION_BYTES = {REGION_BYTES}")
    if sigma_grid is None:
        lo, hi = default_sigma_window(M, params, omega)
        sigma_grid = np.linspace(lo, hi, num_sigma)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    window = (float(sigma_grid.min()), float(sigma_grid.max()))

    norm_bound, rate_req, min_dist = thresholds.bounds(params.gamma, float(M))

    n_sigma = len(sigma_grid)
    bad = np.zeros(n_sigma, dtype=bool)
    worst_norm = np.zeros(n_sigma)
    worst_decay = np.full(n_sigma, np.inf)
    union = _entries_on(RegionIndex(_family_vectors(family), params.b), 0.0,
                        omega, params, kernel)
    for region in family:
        blocks = _scan_region(union.restrict(index_map(region)), rate_req,
                              min_dist)
        norm, ok, margin = blocks.scan(sigma_grid, norm_bound)
        worst_norm = np.maximum(worst_norm, norm)
        worst_decay = np.where(ok, np.minimum(worst_decay, margin), worst_decay)
        bad |= ~ok | (margin < 0.0)

    frac = float(bad.mean())
    length = window[1] - window[0]
    # runs of bad flags start and end where the padded flags change
    edges = np.flatnonzero(np.diff(np.concatenate([[False], bad, [False]])))
    intervals = [(float(sigma_grid[a]), float(sigma_grid[z - 1]))
                 for a, z in zip(edges[::2], edges[1::2])]

    return LdeScanReport(
        scale=M,
        sigma_grid=sigma_grid,
        bad_flags=bad,
        worst_norm=worst_norm,
        worst_decay_margin=worst_decay,
        bad_fraction=frac,
        bad_measure=frac * length,
        window=window,
        comparison_value=math.exp(-float(M) ** thresholds.rho1),
        bad_intervals=tuple(intervals),
        n_regions=len(family),
        subsampled=subsampled,
        thresholds=thresholds,
    )


def diagonal_bad_intervals(M: int, params: ModelParams,
                           omega: Sequence[float]) -> list:
    """Explicit resonance intervals for the uncoupled (eps=delta=0) operator.

    With no off-diagonal part, sigma is bad iff some site of the default
    family satisfies |mu_n^2 - (sigma + k.omega)^2| <= exp(-M^rho2) (the
    default rho2), i.e. |sigma + k.omega| lies in [sqrt(mu^2 - t),
    sqrt(mu^2 + t)].  Returns merged intervals.
    """
    family = elementary_region_family(M, params.b, params.d,
                                      params.resonant_set())
    t = math.exp(-float(M) ** Thresholds().rho2)
    vecs = _family_vectors(family)
    omega = np.asarray(omega, dtype=float)
    kw = _per_distinct(vecs[:, :params.b], lambda k: float(np.dot(k, omega)))
    m2 = _per_distinct(vecs[:, params.b:], lambda n: mu(n, params) ** 2)
    lo, hi = np.sqrt(np.maximum(m2 - t, 0.0)), np.sqrt(m2 + t)
    # |sigma + kw| in [lo, hi]
    raw = sorted(zip(np.concatenate([lo - kw, -hi - kw]).tolist(),
                     np.concatenate([hi - kw, -lo - kw]).tolist()))
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------------------
# Schur complement and per-k block diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurReport:
    schur_matrix: np.ndarray
    min_singular_value: float
    complement_green_norm: float
    green_norm: float
    bound_rhs: float
    bound_holds: bool


def schur_complement(spec: OperatorSpec, b_star: Sequence) -> SchurReport:
    """Schur reduction onto the near-singular block B*.

    S = H_BB - H_Bc G_c H_cB with G_c the complement inverse; additionally
    verifies the inversion bound |G| <= 4 (1 + |G_c|)^2 (1 + |S^-1|) on the
    instance.  Raises ComplementSingular when the complement block cannot
    be inverted.
    """
    idx = index_map(spec.region)
    matrix = assemble(spec)
    b_idx = np.unique([idx.index_of(s) for s in b_star]).astype(np.intp)
    c_idx = np.setdiff1d(np.arange(idx.size), b_idx)

    if len(c_idx):
        hcc = matrix[np.ix_(c_idx, c_idx)]
        eig = np.abs(np.linalg.eigvalsh(hcc))
        if _is_singular(eig.min(), eig.max()):
            raise ComplementSingular(
                f"complement block singular (min |eig| = {eig.min():.3e})")
        gcc = np.linalg.inv(hcc)
        gc_norm = _inverse_norm(eig)
    else:
        gcc = np.zeros((0, 0))
        gc_norm = 0.0

    if len(b_idx):
        hbb = matrix[np.ix_(b_idx, b_idx)]
        hbc = matrix[np.ix_(b_idx, c_idx)]
        schur = hbb - hbc @ gcc @ hbc.T
        s_eig = np.abs(np.linalg.eigvalsh(schur))
        s_min = float(s_eig.min())
        s_inv_norm = _inverse_norm(s_eig)
    else:
        schur = np.zeros((0, 0))
        s_min = float("inf")
        s_inv_norm = 0.0

    g_norm = _inverse_norm(np.abs(np.linalg.eigvalsh(matrix)))
    rhs = 4.0 * (1.0 + gc_norm) ** 2 * (1.0 + s_inv_norm)
    return SchurReport(
        schur_matrix=schur,
        min_singular_value=s_min,
        complement_green_norm=gc_norm,
        green_norm=g_norm,
        bound_rhs=rhs,
        bound_holds=bool(g_norm <= rhs),
    )


def _space_block(space_rows: np.ndarray, eps: float,
                 diagonal: np.ndarray) -> np.ndarray:
    """diag(diagonal) + eps*Delta on distinct space sites (rows of an int
    array), dense; raises ValueError when a site repeats."""
    idx = RegionIndex(space_rows, 0)
    if (idx.lookup(space_rows) != np.arange(len(space_rows))).any():
        raise ValueError("space sites must be distinct")
    offs = np.array(neighbor_offsets(space_rows.shape[1]))
    nb = idx.lookup(space_rows[None, :, :] + offs[:, None, :])   # (2d, N)
    _, i = np.nonzero(nb >= 0)
    out = np.diag(diagonal)
    out[i, nb[nb >= 0]] += eps
    return out


@dataclass(frozen=True)
class BlockSpectralReport:
    eigenvalues: np.ndarray      # zeta_l of the fixed-k space block
    inverse_norm_bound: float    # max_l 1 / |zeta_l - (sigma + k.omega)^2|
    direct_inverse_norm: float
    negative_shift: bool         # some zeta_l <= 0 (reported, not hidden)


def block_spectral_bound(k: Sequence[int], space_sites: Sequence,
                         sigma: float, omega: Sequence[float],
                         params: ModelParams) -> BlockSpectralReport:
    """Eigenvalues of the fixed-k space block and the induced inverse bound.

    The block R(D(sigma) + eps*Delta)R at fixed k has eigenvalues
    zeta_l - (sigma + k.omega)^2 where zeta_l are the eigenvalues of
    diag(mu_n^2) + eps*Delta on the space sites; the inverse norm equals
    max_l |sigma + k.omega - sqrt(zeta_l)|^-1 |sigma + k.omega + sqrt(zeta_l)|^-1
    for positive zeta_l.  Cross-checked against direct inversion.
    """
    rows = np.asarray(space_sites, dtype=int).reshape(len(space_sites), -1)
    block = _space_block(rows, params.eps,
                         _per_distinct(rows, lambda n: mu(n, params) ** 2))
    zetas = np.linalg.eigvalsh(block)
    shift = float(sigma + np.dot(k, np.asarray(omega, dtype=float)))
    full = block - shift**2 * np.eye(len(block))
    return BlockSpectralReport(
        eigenvalues=zetas,
        inverse_norm_bound=_inverse_norm(np.abs(zetas - shift**2)),
        direct_inverse_norm=_inverse_norm(np.abs(np.linalg.eigvalsh(full))),
        negative_shift=bool((zetas <= 0.0).any()),
    )


# ---------------------------------------------------------------------------
# auxiliary quasi-periodic Schrodinger block operator
# ---------------------------------------------------------------------------

def qp_schrodinger_matrix(space_sites: Sequence, energy: float, theta: float,
                          params: ModelParams) -> np.ndarray:
    """R_Q (cos(theta_rad + n.alpha_rad) + m - E + eps*Delta) R_Q on Z^d.

    ``theta`` follows the package convention: supplied in [0,1], scaled by
    2*pi internally.
    """
    rows = np.asarray(space_sites, dtype=int).reshape(len(space_sites), -1)
    alpha = np.asarray(params.alpha)
    diagonal = [math.cos(2.0 * math.pi * (float(np.dot(n, alpha)) + theta))
                + params.m - energy for n in rows.tolist()]
    return _space_block(rows, params.eps, np.array(diagonal))


def qp_schrodinger_green(space_sites: Sequence, energy: float,
                         theta: float, params: ModelParams,
                         scale: Optional[float] = None) -> GreenReport:
    """Green diagnostics for the auxiliary space-direction block operator.

    The norm bound is exp(sqrt(N)) and the required off-diagonal rate is
    |log eps| / 2 at distances >= N^rho3 (N the scale, by default the sites'
    diameter; rho3 the default of ``Thresholds``).  Raises Singular for
    near-singular instances; the verdict is per (E, theta).
    """
    rows = np.asarray(space_sites, dtype=int).reshape(len(space_sites), -1)
    n_scale = float((rows.max(axis=0) - rows.min(axis=0)).max()) \
        if scale is None else float(scale)
    matrix = qp_schrodinger_matrix(rows, energy, theta, params)
    # eps = 0 decouples the sites entirely: the required rate is infinite and
    # the (identically zero) off-diagonal satisfies it.
    rate = 0.5 * abs(math.log(params.eps)) if params.eps > 0.0 else math.inf
    return _green_report(matrix, rows, n_scale, math.exp(math.sqrt(n_scale)),
                         rate, n_scale ** Thresholds().rho3)


def qp_schrodinger_theta_scan(N: int, energy: float, params: ModelParams,
                              theta_grid, rho4: float = 0.05) -> dict:
    """Fraction of theta grid points violating the auxiliary bounds.

    rho4 is a free report parameter: the comparison value is exp(-N^rho4).
    """
    sites = box_vectors((0,) * params.d, (N // 2,) * params.d)
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    bad = 0
    for theta in theta_grid:
        try:
            rep = qp_schrodinger_green(sites, energy, float(theta), params,
                                       scale=float(N))
            if not (rep.norm_ok and rep.decay_ok):
                bad += 1
        except Singular:
            bad += 1
    frac = bad / len(theta_grid)
    return {
        "scale": N,
        "energy": energy,
        "bad_fraction": frac,
        "comparison_value": math.exp(-float(N) ** rho4),
        "rho4": rho4,
        "theta_points": len(theta_grid),
        "passes": frac <= math.exp(-float(N) ** rho4),
    }
