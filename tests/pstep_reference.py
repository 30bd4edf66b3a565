"""Full-box reference for ``solver.p_step``.

The stage box minus the resonant set is assembled dense with
``linop.assemble`` (rows for k and for -k alike), factored with
``scipy.linalg.lu_factor``, solved for -F(q), and each canonical row
(k = 0 or first nonzero entry of k positive) is averaged with its mirror
(-k, n).  Nothing of the even-subspace folding or the sparse LU is used, so
this is the oracle for them.  It has no condition gate.

``all_rows_increment`` is the reference for the last piece of ``p_step``:
it builds the increment field from every solved row, where ``p_step``
applies the drop rule to the array first.
"""

import numpy as np
import scipy.linalg as sla

from qpwave.lattice import cube, index_map, sites_of
from qpwave.linop import OperatorSpec, assemble
from qpwave.nonlin import CoefficientField, linearize, residual


def reference_increment(q, omega, params, stage, config) -> dict:
    """{(k, n): value} of the P-step increment at its nonzero canonical
    sites."""
    region = cube(config.M ** stage, params.b, params.d,
                  excluded=params.resonant_set())
    idx = index_map(region)
    kernel = linearize(q, params.p) if params.delta != 0.0 else None
    spec = OperatorSpec(region, 0.0, tuple(float(w) for w in omega), params,
                        kernel)
    rhs = np.zeros(idx.size)
    for k, n, v in residual(q, omega, params).full_items():
        i = idx.get((k, n))
        if i is not None:
            rhs[i] = -v
    x = sla.lu_solve(sla.lu_factor(assemble(spec)), rhs)

    out = {}
    for i, site in enumerate(idx.sites):
        lead = next((c for c in site.k if c != 0), 0)
        if lead < 0:
            continue
        val = x[i]
        if lead > 0:
            mirror = idx.get((tuple(-c for c in site.k), site.n))
            if mirror is not None:
                val = 0.5 * (val + x[mirror])
        if val != 0.0:
            out[(site.k, site.n)] = val
    return out


def all_rows_increment(vectors, x, b, d):
    """The P-step increment as ``p_step`` first built it: every canonical
    row (k | n) of ``vectors`` with its value in x, passed to the field
    constructor, which then drops what its rule cuts."""
    return CoefficientField.from_entries(
        zip(sites_of(vectors, b), x.tolist()), b, d)
