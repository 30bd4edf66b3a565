"""Site-by-site reference for ``linop.assemble`` and ``assemble_sparse``.

Every member site is visited in row order and its diagonal, its +-e_j
Laplacian neighbours and its kernel offsets are looked up one by one in a
dict from Site to row, built here from ``RegionSpec.members``.  Nothing of
the array assembly (the row index, the per-distinct-k/n evaluation) is
used, so this is the oracle for it.
"""

from typing import Dict

import numpy as np
import scipy.sparse as sp

from qpwave.lattice import Site, neighbor_offsets
from qpwave.spectrum import mu


def reference_entries(spec):
    """(number of sites, rows, cols, values) of H(sigma), site by site."""
    sites = spec.region.members()
    index = {s: i for i, s in enumerate(sites)}
    params = spec.params
    omega = np.asarray(spec.omega, dtype=float)
    slices = {}
    if spec.kernel is not None:
        for k, n, v in spec.kernel.full_items():
            slices.setdefault(n, {})[k] = v

    rows, cols, vals = [], [], []
    mu2_cache: Dict[tuple, float] = {}

    def mu2(n):
        if n not in mu2_cache:
            mu2_cache[n] = mu(n, params) ** 2
        return mu2_cache[n]

    offs = neighbor_offsets(params.d)
    for i, site in enumerate(sites):
        k, n = site.k, site.n
        shift = spec.sigma + float(np.dot(k, omega))
        diag = mu2(n) - shift * shift
        sl = slices.get(n)
        if sl is not None:
            diag += params.delta * sl.get((0,) * params.b, 0.0)
        rows.append(i); cols.append(i); vals.append(diag)
        if params.eps != 0.0:
            for off in offs:
                j = index.get(Site(k, tuple(x + o for x, o in zip(n, off))))
                if j is not None:
                    rows.append(i); cols.append(j); vals.append(params.eps)
        if sl is not None and params.delta != 0.0:
            for koff, v in sl.items():
                if not any(koff):
                    continue
                j = index.get(Site(tuple(x - o for x, o in zip(k, koff)), n))
                if j is not None:
                    rows.append(i); cols.append(j); vals.append(params.delta * v)
    return len(sites), rows, cols, vals


def reference_assemble(spec) -> np.ndarray:
    n, rows, cols, vals = reference_entries(spec)
    out = np.zeros((n, n))
    for r, c, v in zip(rows, cols, vals):
        out[r, c] += v
    return out


def reference_assemble_sparse(spec) -> sp.csr_matrix:
    n, rows, cols, vals = reference_entries(spec)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
