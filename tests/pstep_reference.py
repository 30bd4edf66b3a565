"""Full-box reference for ``solver.p_step``.

The stage box minus the resonant set is assembled dense with
``linop.assemble`` (rows for k and for -k alike), factored with
``scipy.linalg.lu_factor``, solved for -F(q), and each canonical row
(k = 0 or first nonzero entry of k positive) is averaged with its mirror
(-k, n).  Nothing of the even-subspace folding or the sparse LU is used, so
this is the oracle for them.  It has no condition gate.

``fold_and_gate`` is ``p_step`` as one function, before its split into a
stage plan, a folded operator and a gated solve: it indexes the cube on
every call, assembles the whole box as CSR with ``linop.assemble_sparse``,
folds it by a product with a 0/1 fold matrix and takes the 1-norm with
``scipy.sparse.linalg.norm``.  It is the bitwise reference for the pieces.

``all_rows_increment`` is the reference for the last piece of ``p_step``:
it builds the increment field from every solved row, where ``p_step``
applies the drop rule to the array first.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qpwave.errors import ResonantBox
from qpwave.lattice import cube, index_map, sites_of
from qpwave.linop import MAX_CONDITION, OperatorSpec, assemble, assemble_sparse
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


def fold_and_gate(q, omega, f, params, stage, config) -> tuple:
    """(folded CSC matrix, condition estimate, increment) of the P-step, or
    the ResonantBox it raises."""
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
    spec = OperatorSpec(region, 0.0, tuple(float(w) for w in omega), params,
                        kernel)

    f_vecs, f_vals = f.as_arrays()
    at = idx.lookup(f_vecs)
    rhs = np.zeros(n_sites)
    rhs[at[at >= 0]] = -f_vals[at >= 0]

    vecs, b = idx.vectors, params.b
    k = vecs[:, :b]
    lead = k[np.arange(n_sites), (k != 0).argmax(axis=1)]
    canon = np.flatnonzero(lead >= 0)
    column = np.cumsum(lead >= 0) - 1
    rep = idx.lookup(np.hstack([np.where(lead[:, None] < 0, -k, k),
                                vecs[:, b:]]))
    fold = sp.csr_matrix((np.ones(n_sites), (np.arange(n_sites), column[rep])),
                         shape=(n_sites, canon.size))
    matrix = (assemble_sparse(spec)[canon] @ fold).tocsc()
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise ResonantBox(f"stage {stage} box factorization failed: {exc}",
                          stage=stage) from exc
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
    x = lu.solve(rhs[canon])
    return matrix, cond, all_rows_increment(vecs[canon], x, b, params.d)
