"""References for ``linop.lde_scan``.

``reference_lde_scan`` is the full-matrix oracle: every (sigma, region) pair
is assembled as one dense matrix and gets its own ``eigvalsh`` and, when the
region passes the singular guard and the norm bound, its own ``inv``.  No
block structure is used.

``reference_block_scan`` is the block scan region by region: each region is
restricted from the union assembly on its own, labelled on its own, and its
far pairs, decay bounds and cross-block bound come from n x n arrays.  The
family-wide scan must reproduce its outputs bit for bit.

``pair_distances`` is the broadcast form of ``linop._pair_distances``: one
(n, n, b+d) array of coordinate differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from qpwave.lattice import RegionIndex, index_map
from qpwave.linop import (MAX_FAMILY_REGIONS, SINGULARITY_RTOL, OperatorSpec,
                          Thresholds, _components, _Entries, _entries_on,
                          _family_vectors, _is_singular, assemble,
                          elementary_region_family)
from qpwave.spectrum import mu

BATCH_BYTES = 1 << 20


def pair_distances(vecs):
    """Sup-norm distances between the rows of (stacks of) int arrays."""
    return np.abs(vecs[..., :, None, :] - vecs[..., None, :, :]).max(axis=-1)


def reference_lde_scan(M, params, omega, kernel, sigma_grid,
                       thresholds=Thresholds(),
                       max_regions=MAX_FAMILY_REGIONS):
    """(bad_flags, worst_norm, worst_decay_margin) over ``sigma_grid``."""
    family = elementary_region_family(M, params.b, params.d,
                                      params.resonant_set(), max_regions)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    norm_bound = math.exp(float(M) ** thresholds.rho2)
    rate_req = thresholds.gamma_prime if thresholds.gamma_prime is not None \
        else params.gamma - float(M) ** -0.2
    min_dist = float(M) ** thresholds.rho3

    prepared = []
    for spec_region in family:
        spec0 = OperatorSpec(spec_region, 0.0, tuple(omega), params, kernel)
        base = assemble(spec0)
        sites = spec_region.members()
        kw = np.array([float(np.dot(s.k, np.asarray(omega))) for s in sites])
        mu2 = np.array([mu(s.n, params) ** 2 for s in sites])
        base_offdiag = base - np.diag(np.diag(base))
        diag_rest = np.diag(base) - (mu2 - kw**2)
        dists = pair_distances(np.array([s.vector for s in sites]))
        far = dists >= min_dist
        np.fill_diagonal(far, False)
        decay_bound = np.exp(-rate_req * dists)
        prepared.append((base_offdiag, diag_rest, kw, mu2, far, decay_bound))

    n_sigma = len(sigma_grid)
    bad = np.zeros(n_sigma, dtype=bool)
    worst_norm = np.zeros(n_sigma)
    worst_decay = np.full(n_sigma, np.inf)
    for isg, sigma in enumerate(sigma_grid):
        for base_offdiag, diag_rest, kw, mu2, far, decay_bound in prepared:
            a = base_offdiag.copy()
            shift = sigma + kw
            np.fill_diagonal(a, mu2 - shift**2 + diag_rest)
            eig = np.abs(np.linalg.eigvalsh(a))
            smallest, largest = eig.min(), eig.max()
            if smallest < SINGULARITY_RTOL * largest or smallest == 0.0:
                bad[isg] = True
                worst_norm[isg] = np.inf
                continue
            norm = 1.0 / smallest
            worst_norm[isg] = max(worst_norm[isg], norm)
            if norm > norm_bound:
                bad[isg] = True
                continue
            if far.any():
                g = np.linalg.inv(a)
                margin = float((decay_bound[far] - np.abs(g[far])).min())
                worst_decay[isg] = min(worst_decay[isg], margin)
                if margin < 0.0:
                    bad[isg] = True
    return bad, worst_norm, worst_decay


def _sigma_chunks(count, size):
    step = max(1, BATCH_BYTES // (8 * size * size))
    return [slice(a, a + step) for a in range(0, count, step)]


@dataclass(frozen=True)
class _CoupledBlock:
    offdiag: np.ndarray
    mu2: np.ndarray
    rest: np.ndarray
    kw: np.ndarray
    far: np.ndarray
    decay_bound: np.ndarray

    def at(self, sigmas):
        a = np.repeat(self.offdiag[None], len(sigmas), axis=0)
        diag = np.arange(len(self.kw))
        a[:, diag, diag] = self.mu2 - (sigmas[:, None] + self.kw) ** 2 \
            + self.rest
        return a


@dataclass(frozen=True)
class _ScanRegion:
    zeta: np.ndarray
    zeta_kw: np.ndarray
    weights: np.ndarray
    pair_bound: np.ndarray
    cross_bound: float
    coupled: tuple

    def scan(self, sigma_grid, norm_bound):
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


def restrict(ent, idx):
    """The entries on the sub-region indexed by ``idx``, from the entries
    ``ent`` on a region holding it."""
    at = ent.index.lookup(idx.vectors)
    local = np.full(ent.index.size, -1)
    local[at] = np.arange(idx.size)
    rows, cols = local[ent.rows], local[ent.cols]
    keep = (rows >= 0) & (cols >= 0)
    return _Entries(idx, ent.mu2[at], ent.kw[at], ent.diag[at],
                    rows[keep], cols[keep], ent.vals[keep])


def _scan_region(ent, rate_req, min_dist):
    kw, mu2, n = ent.kw, ent.mu2, ent.index.size
    offdiag = np.zeros((n, n))
    offdiag[ent.rows, ent.cols] += ent.vals
    rest = ent.diag - (mu2 - kw**2)
    dists = pair_distances(ent.index.vectors)
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
        idx = np.array(group)
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


def reference_block_scan(M, params, omega, kernel, sigma_grid,
                         thresholds=Thresholds(),
                         max_regions=MAX_FAMILY_REGIONS):
    """(bad_flags, worst_norm, worst_decay_margin) over ``sigma_grid``, one
    region at a time."""
    family = elementary_region_family(M, params.b, params.d,
                                      params.resonant_set(), max_regions)
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    norm_bound, rate_req, min_dist = thresholds.bounds(params.gamma, float(M))
    n_sigma = len(sigma_grid)
    bad = np.zeros(n_sigma, dtype=bool)
    worst_norm = np.zeros(n_sigma)
    worst_decay = np.full(n_sigma, np.inf)
    union = _entries_on(RegionIndex(_family_vectors(family), params.b), 0.0,
                        omega, params, kernel)
    for region in family:
        blocks = _scan_region(restrict(union, index_map(region)), rate_req,
                              min_dist)
        norm, ok, margin = blocks.scan(sigma_grid, norm_bound)
        worst_norm = np.maximum(worst_norm, norm)
        worst_decay = np.where(ok, np.minimum(worst_decay, margin), worst_decay)
        bad |= ~ok | (margin < 0.0)
    return bad, worst_norm, worst_decay
