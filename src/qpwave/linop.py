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
keeps its assembly pattern (``RegionIndex.distinct`` and ``pairs``).  Every
call to ``_entries_on`` (so ``assemble``, ``green`` and ``lde_scan``)
recomputes k.omega, mu_n^2 and the entry values from sigma, omega, the
model and the kernel.
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
from .lattice import (RegionIndex, RegionSpec, ResonantSet, Site, index_map,
                      neighbor_offsets)
from .nonlin import CoefficientField
from .spectrum import ModelParams, mu

MAX_CONDITION = 1e14  # above this condition estimate a P-step box is resonant
SINGULARITY_RTOL = 1.0 / MAX_CONDITION
DECAY_FIT_FLOOR = 1e-30    # smaller magnitudes are left out of a decay fit
MAX_FAMILY_REGIONS = 64
# region families kept by elementary_region_family, least recently used out
FAMILY_MEMO = 8
# bytes of one stack of coupled-block matrices in the LDE scan
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
    """A region family and the index of its union: the distinct member
    vectors of its regions, in lexicographic order."""
    regions: tuple
    union: RegionIndex


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
    return _Family(tuple(family), RegionIndex(_family_vectors(family), b))


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


def _restrict_family(union: _Entries, family: Sequence[RegionSpec]) -> tuple:
    """The union's entries on the family's regions side by side, each in its
    own row order: every row's union row and region, and the rows, cols and
    values of the nonzero off-diagonal entries.  Entries depend only on
    their sites, so each region's part is its own assembly."""
    at = union.index.lookup(np.concatenate([r.vectors() for r in family]))
    region = np.repeat(np.arange(len(family)), [r.size() for r in family])
    edge = union.vals != 0.0
    rows, cols, vals = union.rows[edge], union.cols[edge], union.vals[edge]
    by_row, _, row_end = _groups(rows, union.index.size)
    # each row's union entries, then the same region's row at their columns
    deg = np.diff(row_end, prepend=0)[at]
    src = np.repeat(np.arange(len(at)), deg)
    e = by_row[np.repeat(row_end[at] - np.cumsum(deg), deg)
               + np.arange(deg.sum())]
    key = region * union.index.size + at
    target = region[src] * union.index.size + cols[e]
    sorter = np.argsort(key)
    dst = sorter[np.minimum(np.searchsorted(key, target, sorter=sorter),
                            len(key) - 1)]
    hit = key[dst] == target
    return at, region, src[hit], dst[hit], vals[e[hit]]


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

    def margin(self, sigma_grid: np.ndarray, where: np.ndarray) -> np.ndarray:
        """Per sigma, min of decay_bound - |G| over the far pairs, from one
        inv per chunk of the sigmas ``where`` holds; inf at the others."""
        out = np.full(len(sigma_grid), np.inf)
        at = np.flatnonzero(where) if self.far.any() else np.zeros(0, int)
        for sl in _chunks(len(at), len(self.kw)):
            g = np.linalg.inv(self.at(sigma_grid[at[sl]]))[:, self.far]
            out[at[sl]] = (self.decay_bound - np.abs(g)).min(axis=1)
        return out

    def extent(self, sigma_grid: np.ndarray) -> tuple:
        """Per sigma, min and max |eigenvalue|, one eigvalsh per chunk."""
        lo, hi = np.empty(len(sigma_grid)), np.empty(len(sigma_grid))
        for sl in _chunks(len(sigma_grid), len(self.kw)):
            eig = np.abs(np.linalg.eigvalsh(self.at(sigma_grid[sl])))
            lo[sl], hi[sl] = eig.min(axis=1), eig.max(axis=1)
        return lo, hi


def _family_blocks(union: _Entries, family: Sequence[RegionSpec],
                   rate_req: float, min_dist: float) -> tuple:
    """Every family region's blocks, found at once: the distinct coupled
    blocks and, per region, the cross-block bound; its rigid blocks'
    eigenvalues zeta, their k.omega, the bounds of its rigid far pairs i < j
    and the (zeta, pair) rows, cols and values V_il V_jl of the weights, by
    (block size, block, l or i, j); the indices of its coupled blocks."""
    at, region, rows, cols, vals = _restrict_family(union, family)
    kw, mu2, vecs = union.kw[at], union.mu2[at], union.index.vectors[at]
    rest = (union.diag - (union.mu2 - union.kw**2))[at]
    labels = _components(len(at), rows, cols)
    order, pos, ends = _groups(labels, labels.max() + 1)
    size = np.diff(ends, prepend=0)
    start = ends - size
    block_region, block_of_entry = region[order[start]], labels[rows]
    rigid = np.minimum.reduceat(kw[order], start) \
        == np.maximum.reduceat(kw[order], start)
    reach = _cross_reach(np.minimum.reduceat(vecs[order], start),
                         np.maximum.reduceat(vecs[order], start),
                         block_region, len(family))
    cross = np.where(reach >= min_dist, np.exp(-rate_req * reach), np.inf)

    def rigid_stack(blk, s):
        # blocks blk of size s: their rows (the l-th holds zeta_l); per far
        # pair a row, size and bound; per weight its zeta's row and value
        diag = np.arange(s)
        nodes = order[start[blk][:, None] + diag]
        e = np.flatnonzero(np.isin(block_of_entry, blk))
        mats = np.zeros((len(blk), s, s))
        mats[:, diag, diag] = mu2[nodes] + rest[nodes]
        mats[np.searchsorted(blk, block_of_entry[e]), pos[rows[e]],
             pos[cols[e]]] = vals[e]
        z, v = np.linalg.eigh(mats)
        dists = _pair_distances(vecs[nodes])
        b, i, j = np.nonzero(np.triu(dists >= min_dist))
        return (nodes.ravel(), z.ravel(), nodes[b, 0], np.full(len(b), s),
                np.exp(-rate_req * dists[b, i, j]), nodes[b].ravel(),
                (v[b, i, :] * v[b, j, :]).ravel())

    none, empty = np.zeros(0, dtype=int), np.zeros(0)
    stacks = [(none, empty, none, none, empty, none, empty)] + [
        rigid_stack(ids[sl], s) for s in np.unique(size[rigid])
        for ids in [np.flatnonzero(rigid & (size == s))]
        for sl in _chunks(len(ids), s)]
    z_node, zeta, p_node, p_size, bound, w_node, w_val = map(
        np.concatenate, zip(*stacks))
    z_order, z_rank, z_end = _groups(region[z_node], len(family))
    p_order, p_rank, p_end = _groups(region[p_node], len(family))
    w_order, _, w_end = _groups(region[w_node], len(family))
    row_of = np.empty(len(at), dtype=int)
    row_of[z_node] = z_rank
    w_pair = np.repeat(np.arange(len(p_node)), p_size)

    def per_region(x, end):
        # the slices of x that end at each region's end
        cut = [0, *end.tolist()]
        return [x[a:z] for a, z in zip(cut, cut[1:])]

    rigid_parts = [per_region(x, end) for x, end in (
        (zeta[z_order], z_end), (kw[z_node[z_order]], z_end),
        (bound[p_order], p_end), (row_of[w_node[w_order]], w_end),
        (p_rank[w_pair[w_order]], w_end), (w_val[w_order], w_end))]

    # one coupled block per distinct site set, shared by the regions holding it
    blocks, shared, coupled = [], {}, [[] for _ in family]
    for c in np.flatnonzero(~rigid):
        nodes = order[start[c]:ends[c]]
        key = at[nodes].tobytes()
        if key not in shared:
            e = np.flatnonzero(block_of_entry == c)
            offdiag = np.zeros((size[c], size[c]))
            offdiag[pos[rows[e]], pos[cols[e]]] = vals[e]
            dists = _pair_distances(vecs[nodes])
            far = dists >= min_dist
            shared[key] = len(blocks)
            blocks.append(_CoupledBlock(offdiag, mu2[nodes], rest[nodes],
                                        kw[nodes], far,
                                        np.exp(-rate_req * dists[far])))
        coupled[block_region[c]].append(shared[key])
    return blocks, list(zip(cross, *rigid_parts, coupled))


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
    propagation splits them into every region's connected blocks.  Sigma
    enters H only on the diagonal, as -(sigma + k.omega)^2, so the inverse
    vanishes between blocks.  A block on one k.omega (every block when
    eps = delta = 0) is rigid: the eigenpairs of its sigma = -k.omega
    matrix, from one eigh per block size and BATCH_BYTES chunk, give its
    eigenvalues and far-pair Green's entries on the whole grid.  A coupled
    block gets one eigvalsh per sigma chunk and distinct site set and, with
    far pairs, one inv per sigma where any region holding it passes the
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
    family, union = _region_family(M, params.b, params.d,
                                   params.resonant_set(), max_regions)
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

    worst_norm = np.zeros(len(sigma_grid))
    worst_decay = np.full(len(sigma_grid), np.inf)
    bad = np.zeros(len(sigma_grid), dtype=bool)
    blocks, regions = _family_blocks(
        _entries_on(union, 0.0, omega, params, kernel), family, rate_req,
        min_dist)
    extents = [block.extent(sigma_grid) for block in blocks]
    scanned = []
    for cross, zeta, zeta_kw, bound, w_rows, w_cols, w_val, coupled in regions:
        eig = zeta - (sigma_grid[:, None] + zeta_kw) ** 2
        abs_eig = np.abs(eig)
        smallest = np.min([abs_eig.min(axis=1, initial=np.inf)]
                          + [extents[c][0] for c in coupled], axis=0)
        largest = np.max([abs_eig.max(axis=1, initial=0.0)]
                         + [extents[c][1] for c in coupled], axis=0)
        singular = _is_singular(smallest, largest)
        with np.errstate(divide="ignore"):
            norm = np.where(singular, np.inf, 1.0 / smallest)
        ok = ~singular & (norm <= norm_bound)

        weights = np.zeros((len(zeta), len(bound)))
        weights[w_rows, w_cols] = w_val
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.abs((1.0 / eig) @ weights)
        margin = np.minimum(cross, (bound - g).min(axis=1, initial=np.inf))
        scanned.append((norm, ok, margin, coupled))

    # a coupled block is inverted once per sigma where a region holding it
    # passes the norm checks; elsewhere its regions are bad whatever G is
    passing = np.zeros((len(blocks), len(sigma_grid)), dtype=bool)
    for _, ok, _, coupled in scanned:
        passing[coupled] |= ok
    block_margins = [block.margin(sigma_grid, at)
                     for block, at in zip(blocks, passing)]
    for norm, ok, margin, coupled in scanned:
        for c in coupled:
            margin = np.minimum(margin, block_margins[c])
        worst_norm = np.maximum(worst_norm, norm)
        worst_decay = np.where(ok, np.minimum(worst_decay, margin), worst_decay)
        bad |= ~ok | (margin < 0.0)

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

