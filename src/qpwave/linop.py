"""Linearized operators on regions, Green's functions and empirical scans.

The operator is H(sigma) = D(sigma) + eps*Delta + delta*T_phi with diagonal
D(sigma) at (k, n) equal to mu_n^2 - (sigma + k.omega)^2, the discrete
Laplacian coupling l1-adjacent space sites at equal k, and the Toeplitz
convolution T_phi coupling equal-n sites through a symmetric kernel phi.
Its entries are built as arrays over the rows of the region's
``lattice.index_map``, whose lookup finds every neighbour and kernel offset
of an array of sites at once; they are laid out dense (``assemble``, for
the Green's function diagnostics) or as CSR (``assemble_sparse``, for the
solver's P-step).  Green's function reports carry the operator norm, a
fitted off-diagonal decay rate, the count of far pairs |j-j'| >= M^rho3
and pass flags against exp(M^rho2) and exp(-gamma' |j-j'|) on those pairs.
Scans over the spectral shift mark each grid sigma good or bad on a family
of translated elementary regions, all split into blocks at once from one
assembly on their union; bad fractions are compared with exp(-M^rho1).

What depends only on (M, b, d, resonant set, region cap) is computed once:
``elementary_region_family`` keeps the last FAMILY_MEMO families with the
index of their union, each region keeps its ``index_map`` and each index
keeps its assembly pattern (``RegionIndex.distinct`` and ``pairs``).  Each
family also keeps its last FAMILY_MEMO block plans (``_ScanPlan``), one per
nonzero pattern of the union, partition of its rows by k.omega, gamma' and
M^rho3.  Every call to ``_entries_on`` (so ``assemble``, ``green`` and
``lde_scan``) recomputes k.omega, mu_n^2 and the entry values from sigma,
omega, the model and the kernel, and ``lde_scan`` gathers them into the
plan.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (PreconditionFailed, RegionTooLarge, Singular,
                     cast_number, check_ranges)
from .lattice import (RegionIndex, RegionSpec, ResonantSet, Site, _read_only,
                      index_map, neighbor_offsets)
from .nonlin import CoefficientField
from .spectrum import ModelParams, mu

MAX_CONDITION = 1e14  # above this condition estimate a P-step box is resonant
SINGULARITY_RTOL = 1.0 / MAX_CONDITION
DECAY_FIT_FLOOR = 1e-30    # smaller magnitudes are left out of a decay fit
MAX_FAMILY_REGIONS = 64
# region families kept by elementary_region_family, least recently used out
FAMILY_MEMO = 8
# bytes of one stack of block matrices, or of one (sigma x eigenvalue) array
# of a run of regions, in the LDE scan
BATCH_BYTES = 1 << 20
# caps an LDE scan region at n sites with 8 n^2 <= REGION_BYTES (1448 sites)
REGION_BYTES = 1 << 24


@dataclass(frozen=True)
class Thresholds:
    """Large-deviation exponents, positive and finite; gamma_prime defaults
    to gamma - M^(-0.2), which ``lde_scan`` requires to be positive too."""

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


def _on_distinct(distinct: tuple, fn) -> np.ndarray:
    """fn(row) for every row of an int array, evaluated once per distinct
    row (on a list of Python ints) and broadcast back to the rows; takes
    the rows' ``lattice.distinct_rows``."""
    firsts, inverse = distinct
    return np.array([fn(r) for r in firsts], dtype=float)[inverse]


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


def _entries_on(idx: RegionIndex, sigma: float, omega: Sequence[float],
                params: ModelParams,
                kernel: Optional[CoefficientField]) -> _Entries:
    """The entries of H(sigma) on the rows of ``idx``.  k.omega and mu_n^2 are
    evaluated once per distinct k and n with the scalar ``np.dot`` and ``mu``,
    so every entry has the bits of the site-by-site formula.  No (row, col)
    pair occurs twice."""
    b, d = params.b, params.d
    omega = np.asarray(omega, dtype=float)
    kw = _on_distinct(idx.distinct("k"), lambda k: float(np.dot(k, omega)))
    mu2 = _on_distinct(idx.distinct("n"), lambda n: mu(n, params) ** 2)
    shift = sigma + kw
    diag = mu2 - shift * shift

    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    if params.eps != 0.0:
        offs = np.zeros((2 * d, b + d), dtype=int)
        offs[:, b:] = neighbor_offsets(d)
        i, j, _ = idx.pairs(None, offs)
        rows.append(i)
        cols.append(j)
        vals.append(np.full(len(i), params.eps))
    slices = kernel.by_site() if kernel is not None else {}
    for n, sl in slices.items():
        offs = np.zeros((len(sl), b + d), dtype=int)
        offs[:, :b] = -np.array(list(sl)).reshape(len(sl), b)
        v = params.delta * np.array(list(sl.values()), dtype=float)
        # delta * phi(k - k', n) at (i, j); the k = k' term is diagonal
        i, j, e = idx.pairs(n, offs)
        on_diag = i == j
        diag[i[on_diag]] += v[e[on_diag]]
        if params.delta != 0.0:
            rows.append(i[~on_diag])
            cols.append(j[~on_diag])
            vals.append(v[e[~on_diag]])
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
    """Inverse diagnostics for one region and shift at scale M."""

    operator_norm: float
    norm_ok: bool                # operator_norm <= exp(M^rho2)
    decay_rate_fit: float        # gamma-hat; nan when no far pairs exist
    decay_ok: bool               # |G| <= exp(-gamma' |j-j'|) on far pairs
    n_far_pairs: int             # pairs at sup distance >= M^rho3


def _pair_distances(vecs: np.ndarray) -> np.ndarray:
    """Sup-norm distances between the rows of (stacks of) int arrays, taken
    one axis at a time."""
    axes = np.moveaxis(vecs, -1, 0)
    out = np.zeros(axes.shape[1:] + axes.shape[-1:], dtype=vecs.dtype)
    for x in axes:
        np.maximum(out, np.abs(x[..., :, None] - x[..., None, :]), out=out)
    return out


def _is_singular(smallest, largest):
    """The singular guard on min and max |eigenvalue| (elementwise on arrays):
    the smallest is zero or below SINGULARITY_RTOL times the largest."""
    return (smallest < SINGULARITY_RTOL * largest) | (smallest == 0.0)


def _smallest_eig(matrix: np.ndarray) -> float:
    """min |eigenvalue| of a symmetric matrix; raises Singular when it fails
    the singular guard against the largest."""
    abs_eig = np.abs(np.linalg.eigvalsh(matrix))
    smallest, largest = float(abs_eig.min()), float(abs_eig.max())
    if _is_singular(smallest, largest):
        raise Singular(f"matrix numerically singular (min |eig| = {smallest:.3e})",
                       smallest_singular_value=smallest)
    return smallest


def green(spec: OperatorSpec, thresholds: Thresholds = Thresholds(),
          scale: Optional[float] = None) -> GreenReport:
    """Invert H(sigma) on the region and evaluate the LDE inequalities.

    ``scale`` (M) defaults to the region diameter.  Raises Singular when the
    smallest |eigenvalue| is below SINGULARITY_RTOL times the largest.
    """
    matrix = assemble(spec)
    m_scale = float(spec.region.diameter()) if scale is None else float(scale)
    norm_bound, rate_req, min_dist = thresholds.bounds(spec.params.gamma,
                                                       m_scale)
    norm = 1.0 / _smallest_eig(matrix)
    dists = _pair_distances(spec.region.vectors())
    far = dists >= min_dist
    np.fill_diagonal(far, False)
    g, x = np.abs(np.linalg.inv(matrix)[far]), dists[far]

    rate_fit = float("nan")
    keep = g > DECAY_FIT_FLOOR
    if np.count_nonzero(keep) >= 2 and len(np.unique(x[keep])) >= 2:
        rate_fit = float(-np.polyfit(x[keep], np.log(g[keep]), 1)[0])
    return GreenReport(operator_norm=norm, norm_ok=bool(norm <= norm_bound),
                       decay_rate_fit=rate_fit,
                       decay_ok=bool((g <= np.exp(-rate_req * x)).all()),
                       n_far_pairs=len(x))


def green_matrix(spec: OperatorSpec) -> np.ndarray:
    """The bare inverse, singular-guarded (for identities and oracles)."""
    matrix = assemble(spec)
    _smallest_eig(matrix)
    return np.linalg.inv(matrix)


# ---------------------------------------------------------------------------
# elementary-region families and the LDE scan
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """A region family, the index of its union (the distinct member vectors
    of its regions, in lexicographic order) and its LDE scan plans."""
    regions: tuple
    union: RegionIndex
    plans: dict


def elementary_region_family(M: int, b: int, d: int,
                             excluded: Optional[ResonantSet] = None,
                             max_regions: int = MAX_FAMILY_REGIONS) -> tuple:
    """Subsampled family of translated elementary regions of scale M.

    Base rectangles have half-width w = M//2 (even M gives diameter exactly
    M); shifts z range over no-shift, half-overlap, corner and unit offsets,
    and space translations over 0, +-M, +-2M along each axis (the |n| <= 2M
    translation range).  Duplicate member sets are removed and the family is
    truncated to ``max_regions``; the truncation is part of the scan report.
    The family is built once per (M, b, d, excluded, max_regions) and kept,
    its regions with their member vectors and row indices, so every call
    with the same key returns the same regions.
    """
    return _region_family(M, b, d, excluded, max_regions).regions


@functools.lru_cache(maxsize=FAMILY_MEMO)
def _region_family(M: int, b: int, d: int, excluded: Optional[ResonantSet],
                   max_regions: int) -> _Family:
    """``elementary_region_family`` and its union, memoized; RegionTooLarge
    and ValueError are raised again by every call."""
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
    for tn, z in itertools.product(translations, shifts):
        spec = RegionSpec(Site((0,) * b, tn), (w,) * dim, z, b, d, excluded)
        key = spec.vectors().tobytes()      # b"" for an empty region
        if not key or key in seen:
            continue
        seen.add(key)
        family.append(spec)
        if len(family) >= max_regions:
            break
    return _Family(tuple(family), RegionIndex(_family_vectors(family), b),
                   {})


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


def _chunks(count: int, size: int) -> list:
    """Consecutive slices of range(count) whose stacks of size x size float
    matrices stay within BATCH_BYTES (one matrix at least)."""
    step = max(1, BATCH_BYTES // (8 * size * size))
    return [slice(a, a + step) for a in range(0, count, step)]


def _runs(cut: np.ndarray, width: int) -> list:
    """Runs [a, z) of consecutive items, item i holding cut[i+1] - cut[i]
    columns of ``width`` floats, whose columns stay within BATCH_BYTES (one
    item at least)."""
    step = max(1, BATCH_BYTES // (8 * width))
    runs, a = [], 0
    while a < len(cut) - 1:
        z = max(a + 1, int(np.searchsorted(cut, cut[a] + step, "right")) - 1)
        runs.append((a, z))
        a = z
    return runs


def _within(keys: np.ndarray, sl: slice) -> slice:
    """Where the sorted ``keys`` lie in [sl.start, sl.stop)."""
    return slice(*np.searchsorted(keys, (sl.start, sl.stop)))


def _groups(keys: np.ndarray, count: int) -> tuple:
    """Items grouped by an int key in range(count): their stable order by
    key, each item's rank within its key, and where each key's items end in
    that order."""
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(keys, minlength=count)
    ends = np.cumsum(sizes)
    rank = np.empty(len(keys), dtype=int)
    rank[order] = np.arange(len(keys)) - np.repeat(ends - sizes, sizes)
    return order, rank, ends


def _restrict_family(index: RegionIndex, rows: np.ndarray, cols: np.ndarray,
                     family: Sequence[RegionSpec]) -> tuple:
    """The off-diagonal pattern ``rows``, ``cols`` on the union ``index``,
    restricted to the family's regions side by side, each in its own row
    order: every row's union row and region, and the rows and cols of the
    restricted entries with the position of each in ``rows``.  Entries
    depend only on their sites, so each region's part is its own assembly."""
    at = index.lookup(np.concatenate([r.vectors() for r in family]))
    region = np.repeat(np.arange(len(family)), [r.size() for r in family])
    by_row, _, row_end = _groups(rows, index.size)
    # each row's union entries, then the same region's row at their columns
    deg = np.diff(row_end, prepend=0)[at]
    src = np.repeat(np.arange(len(at)), deg)
    e = by_row[np.repeat(row_end[at] - np.cumsum(deg), deg)
               + np.arange(deg.sum())]
    key = region * index.size + at
    target = region[src] * index.size + cols[e]
    sorter = np.argsort(key)
    dst = sorter[np.minimum(np.searchsorted(key, target, sorter=sorter),
                            len(key) - 1)]
    hit = key[dst] == target
    return at, region, src[hit], dst[hit], e[hit]


def _cross_reach(lo: np.ndarray, hi: np.ndarray, group: np.ndarray,
                 count: int) -> np.ndarray:
    """Per group in range(count), the largest sup distance between points of
    two different boxes [lo, hi] (int rows) of the group, 0 for one box: per
    axis the top box by hi and the bottom box by lo or, when they are one
    box, either with the other's runner-up."""
    sizes = np.bincount(group, minlength=count)
    many = sizes >= 2
    top = np.cumsum(sizes)[many] - 1
    bot = top + 1 - sizes[many]
    reach = np.zeros(count, dtype=int)
    for h, l in zip(hi.T, lo.T):
        by_h, by_l = np.lexsort((h, group)), np.lexsort((l, group))
        t1, t2, b1, b2 = by_h[top], by_h[top - 1], by_l[bot], by_l[bot + 1]
        reach[many] = np.maximum(reach[many], np.where(
            t1 != b1, h[t1] - l[b1], np.maximum(h[t1] - l[b2], h[t2] - l[b1])))
    return reach


class _RigidStack(NamedTuple):
    """The family's rigid blocks of one size s, in label order: their union
    rows (blocks, s), their nonzero off-diagonal entries (block, i, j, place
    among the union's nonzero entries) and their far pairs i < j (block, i,
    j), both sorted by block."""
    rows: np.ndarray
    entries: np.ndarray
    pairs: np.ndarray

    def eigen(self, diag: np.ndarray, vals: np.ndarray) -> tuple:
        """The blocks' eigenvalues zeta, block by block, and the weights
        V_il V_jl of their far pairs, pair by pair, from one eigh per
        BATCH_BYTES chunk of the sigma = -k.omega matrices with the union's
        diagonal ``diag`` and nonzero entries ``vals``."""
        s = self.rows.shape[1]
        on_diag = np.arange(s)
        zeta, weights = [], []
        for sl in _chunks(len(self.rows), s):
            mats = np.zeros((len(self.rows[sl]), s, s))
            mats[:, on_diag, on_diag] = diag[self.rows[sl]]
            blk, i, j, e = self.entries[:, _within(self.entries[0], sl)]
            mats[blk - sl.start, i, j] = vals[e]
            z, v = np.linalg.eigh(mats)
            blk, i, j = self.pairs[:, _within(self.pairs[0], sl)]
            blk = blk - sl.start
            zeta.append(z.ravel())
            weights.append((v[blk, i, :] * v[blk, j, :]).ravel())
        return zeta, weights


class _CoupledSites(NamedTuple):
    """A coupled block of the family: its union rows, its nonzero
    off-diagonal entries (i, j, place among the union's nonzero entries),
    its far pairs in row-major order as (i, column of ``columns``), the
    identity's columns j that hold a far pair, and exp(-gamma' |j-j'|) on
    the far pairs."""
    rows: np.ndarray
    entries: np.ndarray
    far: np.ndarray
    columns: np.ndarray
    decay_bound: np.ndarray


@dataclass(frozen=True)
class _CoupledBlock:
    """A connected block whose sites carry several k.omega: its sites and
    one scan's values.  Its diagonal moves non-uniformly with sigma, so it
    is assembled at each sigma."""

    sites: _CoupledSites
    offdiag: np.ndarray
    mu2: np.ndarray
    rest: np.ndarray          # kernel's phi(0, n) part of the diagonal
    kw: np.ndarray

    def at(self, sigmas: np.ndarray) -> np.ndarray:
        """The block at each of ``sigmas``, stacked (len(sigmas), s, s)."""
        a = np.repeat(self.offdiag[None], len(sigmas), axis=0)
        diag = np.arange(len(self.kw))
        a[:, diag, diag] = self.mu2 - (sigmas[:, None] + self.kw) ** 2 \
            + self.rest
        return a

    def margin(self, sigma_grid: np.ndarray, where: np.ndarray) -> np.ndarray:
        """Per sigma, min of decay_bound - |G| over the far pairs, inf where
        ``where`` is False.  G is solved only on the columns that hold a far
        pair, one solve per chunk of the sigmas."""
        out = np.full(len(sigma_grid), np.inf)
        i, col = self.sites.far
        at = np.flatnonzero(where) if len(i) else np.zeros(0, int)
        for sl in _chunks(len(at), len(self.kw)):
            g = np.linalg.solve(self.at(sigma_grid[at[sl]]),
                                self.sites.columns)[:, i, col]
            out[at[sl]] = (self.sites.decay_bound - np.abs(g)).min(axis=1)
        return out

    def extent(self, sigma_grid: np.ndarray) -> tuple:
        """Per sigma, min and max |eigenvalue|, one eigvalsh per chunk."""
        lo, hi = np.empty(len(sigma_grid)), np.empty(len(sigma_grid))
        for sl in _chunks(len(sigma_grid), len(self.kw)):
            eig = np.abs(np.linalg.eigvalsh(self.at(sigma_grid[sl])))
            lo[sl], hi[sl] = eig.min(axis=1), eig.max(axis=1)
        return lo, hi


class _ScanPlan(NamedTuple):
    """A family's blocks, laid out for ``lde_scan``.  Each region's rigid
    eigenvalues zeta, rigid far pairs and (zeta x pair) weight matrix lie at
    cut[r]:cut[r+1] of the region-ordered arrays ``zeta_cut``, ``pair_cut``
    and ``weight_cut``; ``zeta_order`` puts the stacks' zeta in region order,
    ``zeta_rows`` are their union rows and ``weight_at`` the places of the
    stacks' weights.  ``cross`` is each region's cross-block bound, and
    ``members`` the (region, coupled block) pairs."""
    stacks: tuple
    zeta_order: np.ndarray
    zeta_rows: np.ndarray
    zeta_cut: np.ndarray
    pair_bound: np.ndarray
    pair_cut: np.ndarray
    weight_at: np.ndarray
    weight_cut: np.ndarray
    cross: np.ndarray
    coupled: tuple
    members: np.ndarray

    def values(self, union: _Entries, vals: np.ndarray) -> tuple:
        """The blocks at the union's entries (``vals`` its nonzero
        off-diagonal ones): zeta in region order, their k.omega, every
        region's weights end to end, and the coupled blocks."""
        rest = union.diag - (union.mu2 - union.kw**2)
        diag = union.mu2 + rest
        zeta, weights = [np.zeros(0)], [np.zeros(0)]
        for stack in self.stacks:
            z, w = stack.eigen(diag, vals)
            zeta += z
            weights += w
        flat = np.zeros(self.weight_cut[-1])
        flat[self.weight_at] = np.concatenate(weights)
        blocks = []
        for sites in self.coupled:
            s = len(sites.rows)
            offdiag = np.zeros((s, s))
            i, j, e = sites.entries
            offdiag[i, j] = vals[e]
            blocks.append(_CoupledBlock(sites, offdiag, union.mu2[sites.rows],
                                        rest[sites.rows],
                                        union.kw[sites.rows]))
        return (np.concatenate(zeta)[self.zeta_order],
                union.kw[self.zeta_rows], flat, blocks)


def _scan_plan(index: RegionIndex, rows: np.ndarray, cols: np.ndarray,
               kw: np.ndarray, family: Sequence[RegionSpec], rate_req: float,
               min_dist: float) -> _ScanPlan:
    """Every family region's blocks, found at once from the union's nonzero
    off-diagonal pattern ``rows``, ``cols`` and its rows' k.omega: the
    regions' entries lie side by side, one min-label propagation splits
    them into blocks, and a block is rigid when its k.omega are equal."""
    at, region, src, dst, entry = _restrict_family(index, rows, cols, family)
    kw, vecs = kw[at], index.vectors[at]
    labels = _components(len(at), src, dst)
    order, pos, ends = _groups(labels, labels.max() + 1)
    size = np.diff(ends, prepend=0)
    start = ends - size
    block_region = region[order[start]]
    rigid = np.minimum.reduceat(kw[order], start) \
        == np.maximum.reduceat(kw[order], start)
    reach = _cross_reach(np.minimum.reduceat(vecs[order], start),
                         np.maximum.reduceat(vecs[order], start),
                         block_region, len(family))
    cross = np.where(reach >= min_dist, np.exp(-rate_req * reach), np.inf)
    block_of = labels[src]
    entries = np.stack([block_of, pos[src], pos[dst], entry])[
        :, np.argsort(block_of, kind="stable")]

    # per rigid block size: the blocks' rows; per far pair its block's first
    # row, size and bound; per weight (pair, l) the row of zeta_l
    stacks = []
    z_node, p_node, p_size, w_node = ([np.zeros(0, int)] for _ in range(4))
    bound = [np.zeros(0)]
    for s in np.unique(size[rigid]):
        ids = np.flatnonzero(rigid & (size == s))
        nodes = order[start[ids][:, None] + np.arange(s)]
        e = entries[:, np.isin(entries[0], ids)]
        e[0] = np.searchsorted(ids, e[0])
        pairs = [np.zeros((3, 0), int)]
        for sl in _chunks(len(ids), s):
            dists = _pair_distances(vecs[nodes[sl]])
            blk, i, j = np.nonzero(np.triu(dists >= min_dist))
            pairs.append(np.stack([blk + sl.start, i, j]))
            bound.append(np.exp(-rate_req * dists[blk, i, j]))
        pairs = np.concatenate(pairs, axis=1)
        stacks.append(_RigidStack(at[nodes], e, pairs))
        z_node.append(nodes.ravel())
        p_node.append(nodes[pairs[0], 0])
        p_size.append(np.full(pairs.shape[1], s))
        w_node.append(nodes[pairs[0]].ravel())
    z_node, p_node, p_size, bound, w_node = map(
        np.concatenate, (z_node, p_node, p_size, bound, w_node))
    z_order, z_rank, z_end = _groups(region[z_node], len(family))
    p_order, p_rank, p_end = _groups(region[p_node], len(family))
    row_of = np.empty(len(at), dtype=int)
    row_of[z_node] = z_rank
    n_zeta, n_pair = np.diff(z_end, prepend=0), np.diff(p_end, prepend=0)
    weight_cut = np.concatenate([[0], np.cumsum(n_zeta * n_pair)])
    w_pair = np.repeat(np.arange(len(p_node)), p_size)
    w_region = region[w_node]
    weight_at = weight_cut[w_region] + row_of[w_node] * n_pair[w_region] \
        + p_rank[w_pair]

    # one coupled block per distinct site set, shared by the regions holding it
    coupled, shared, members = [], {}, []
    for c in np.flatnonzero(~rigid):
        nodes = order[start[c]:ends[c]]
        key = at[nodes].tobytes()
        if key not in shared:
            shared[key] = len(coupled)
            dists = _pair_distances(vecs[nodes])
            far = dists >= min_dist
            i, j = np.nonzero(far)
            columns, col = np.unique(j, return_inverse=True)
            coupled.append(_CoupledSites(
                at[nodes], entries[1:, entries[0] == c], np.stack([i, col]),
                np.eye(size[c])[:, columns], np.exp(-rate_req * dists[far])))
        members.append((block_region[c], shared[key]))
    plan = _ScanPlan(
        tuple(stacks), z_order, at[z_node[z_order]],
        np.concatenate([[0], z_end]), bound[p_order],
        np.concatenate([[0], p_end]), weight_at, weight_cut, cross,
        tuple(coupled), np.array(members, dtype=int).reshape(-1, 2).T)
    for part in (plan, *plan.stacks, *plan.coupled):
        _read_only(*(a for a in part if isinstance(a, np.ndarray)))
    return plan


def _family_plan(family: _Family, union: _Entries, rate_req: float,
                 min_dist: float) -> tuple:
    """The family's scan plan for the union's entries, and their nonzero
    off-diagonal values.  A plan is kept per nonzero pattern, partition of
    the rows by k.omega, gamma' and M^rho3, the last FAMILY_MEMO of each
    family."""
    edge = union.vals != 0.0
    rows, cols = union.rows[edge], union.cols[edge]
    # np.unique puts every NaN in one class, but a block holding a NaN
    # k.omega is never rigid, so the NaN rows are part of the key
    key = (rate_req, min_dist, rows.tobytes(), cols.tobytes(),
           np.unique(union.kw, return_inverse=True)[1].tobytes(),
           np.isnan(union.kw).tobytes())
    plan = family.plans.pop(key, None)
    if plan is None:
        plan = _scan_plan(union.index, rows, cols, union.kw, family.regions,
                          rate_req, min_dist)
        if len(family.plans) >= FAMILY_MEMO:
            del family.plans[next(iter(family.plans))]
    family.plans[key] = plan
    return plan, union.vals[edge]


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

    The scan runs once per family: the regions' entries, restricted from
    one assembly on the family's union, lie side by side, and one min-label
    propagation splits them into every region's connected blocks.  That
    block plan depends only on the union's nonzero pattern, the partition
    of its rows by k.omega, gamma' and M^rho3, and is kept with the family
    for the next scan with the same ones (``_family_plan``); each scan
    gathers its entry values into it.  Sigma enters H only on the diagonal,
    as -(sigma + k.omega)^2, so the inverse vanishes between blocks.  A
    block on one k.omega (every block when eps = delta = 0) is rigid: the
    eigenpairs of its sigma = -k.omega matrix, from one eigh per block size
    and BATCH_BYTES chunk, give its eigenvalues and far-pair Green's entries
    on the whole grid.  All regions' rigid eigenvalues are taken together,
    in runs of regions within BATCH_BYTES, for the min and max |eig| per
    (sigma, region); each region's far-pair entries are one product of its
    1/eig with its weights.  A coupled block gets one eigvalsh per sigma
    chunk and distinct site set and, with far pairs, one solve for the
    columns that hold them per sigma where any region holding it passes the
    norm checks (a region that fails them is bad whatever its G is).  Min
    and max |eig| over a region's blocks feed the singular guard.  Far pairs
    across blocks have G = 0 and enter as exp(-gamma' D), in closed form
    with D >= M^rho3 the largest sup distance between two blocks' bounding
    boxes.  A derived gamma' = gamma - M^-0.2 <= 0 would make that bound
    grow with D, so it raises PreconditionFailed before any scan work, as
    an explicit gamma_prime <= 0 already fails in Thresholds.
    """
    norm_bound, rate_req, min_dist = thresholds.bounds(params.gamma, float(M))
    if rate_req <= 0.0:
        raise PreconditionFailed(
            f"derived gamma_prime = gamma - M^-0.2 = {params.gamma!r} - "
            f"{M}^-0.2 = {rate_req:.6g} is not positive; set "
            f"scan.gamma_prime to a positive decay rate")
    fam = _region_family(M, params.b, params.d, params.resonant_set(),
                         max_regions)
    family = fam.regions
    subsampled = len(family) >= max_regions
    largest = max(len(region.vectors()) for region in family)
    if 8 * largest**2 > REGION_BYTES:
        raise RegionTooLarge(
            f"an LDE scan region of {largest} sites is above the "
            f"{math.isqrt(REGION_BYTES // 8)}-site cap of REGION_BYTES")
    if sigma_grid is None:
        sigma_grid = np.linspace(*default_sigma_window(M, params, omega),
                                 num_sigma)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    window = (float(sigma_grid.min()), float(sigma_grid.max()))

    union = _entries_on(fam.union, 0.0, omega, params, kernel)
    plan, vals = _family_plan(fam, union, rate_req, min_dist)
    zeta, zeta_kw, weights, blocks = plan.values(union, vals)
    shape = (len(sigma_grid), len(family))
    smallest, largest = np.full(shape, np.inf), np.zeros(shape)
    margin = np.repeat(plan.cross[None], len(sigma_grid), axis=0)
    z_cut, p_cut, w_cut = (c.tolist() for c in (
        plan.zeta_cut, plan.pair_cut, plan.weight_cut))
    for first, last in _runs(plan.zeta_cut, len(sigma_grid)):
        # eig = zeta - (sigma + k.omega)^2, formed in place in one array
        a, z = z_cut[first], z_cut[last]
        eig = np.add.outer(sigma_grid, zeta_kw[a:z])
        np.subtract(zeta[a:z], np.square(eig, out=eig), out=eig)
        # one product per region: its bits depend on the operands' shapes
        for r in range(first, last):
            if p_cut[r] == p_cut[r + 1]:
                continue
            w = weights[w_cut[r]:w_cut[r + 1]].reshape(
                z_cut[r + 1] - z_cut[r], p_cut[r + 1] - p_cut[r])
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.abs((1.0 / eig[:, z_cut[r] - a:z_cut[r + 1] - a]) @ w)
            margin[:, r] = np.minimum(plan.cross[r], (
                plan.pair_bound[p_cut[r]:p_cut[r + 1]] - g).min(axis=1))
        # a region without rigid blocks keeps its inf and 0
        held = first + np.flatnonzero(np.diff(plan.zeta_cut[first:last + 1]))
        if len(held):
            abs_eig = np.abs(eig, out=eig)
            at = plan.zeta_cut[held] - a
            smallest[:, held] = np.minimum.reduceat(abs_eig, at, axis=1)
            largest[:, held] = np.maximum.reduceat(abs_eig, at, axis=1)

    region_of, block_of = plan.members
    extents = np.array([block.extent(sigma_grid) for block in blocks])
    extents = extents.reshape(len(blocks), 2, len(sigma_grid))
    np.minimum.at(smallest.T, region_of, extents[block_of, 0])
    np.maximum.at(largest.T, region_of, extents[block_of, 1])
    singular = _is_singular(smallest, largest)
    with np.errstate(divide="ignore"):
        norm = np.where(singular, np.inf, 1.0 / smallest)
    ok = ~singular & (norm <= norm_bound)

    # a coupled block is solved once per sigma where a region holding it
    # passes the norm checks; elsewhere its regions are bad whatever G is
    passing = np.zeros((len(blocks), len(sigma_grid)), dtype=bool)
    np.logical_or.at(passing, block_of, ok.T[region_of])
    block_margin = np.array([block.margin(sigma_grid, at)
                             for block, at in zip(blocks, passing)])
    np.minimum.at(margin.T, region_of,
                  block_margin.reshape(passing.shape)[block_of])
    worst_norm = norm.max(axis=1, initial=0.0)
    worst_decay = np.where(ok, margin, np.inf).min(axis=1)
    bad = (~ok | (margin < 0.0)).any(axis=1)

    frac = float(bad.mean())
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
        bad_measure=frac * (window[1] - window[0]),
        window=window,
        comparison_value=math.exp(-float(M) ** thresholds.rho1),
        bad_intervals=tuple(intervals),
        n_regions=len(family),
        subsampled=subsampled,
    )


def diagonal_bad_intervals(M: int, params: ModelParams,
                           omega: Sequence[float]) -> list:
    """Explicit resonance intervals for the uncoupled (eps=delta=0) operator.

    With no off-diagonal part, sigma is bad iff some site of the default
    family satisfies |mu_n^2 - (sigma + k.omega)^2| <= exp(-M^rho2) (the
    default rho2), i.e. |sigma + k.omega| lies in [sqrt(mu^2 - t),
    sqrt(mu^2 + t)].  Returns merged intervals.
    """
    union = _region_family(M, params.b, params.d, params.resonant_set(),
                           MAX_FAMILY_REGIONS).union
    t = math.exp(-float(M) ** Thresholds().rho2)
    omega = np.asarray(omega, dtype=float)
    kw = _on_distinct(union.distinct("k"), lambda k: float(np.dot(k, omega)))
    m2 = _on_distinct(union.distinct("n"), lambda n: mu(n, params) ** 2)
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

