"""Full-matrix reference for ``linop.lde_scan``.

Every (sigma, region) pair is assembled as one dense matrix and gets its own
``eigvalsh`` and, when the region passes the singular guard and the norm
bound, its own ``inv``.  No block structure is used, so this is the oracle
for the block-decomposed scan.
"""

import math

import numpy as np

from qpwave.linop import (MAX_FAMILY_REGIONS, SINGULARITY_RTOL, OperatorSpec,
                          Thresholds, _pair_distances, assemble,
                          elementary_region_family)
from qpwave.spectrum import mu


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
        dists = _pair_distances(np.array([s.vector for s in sites]))
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
