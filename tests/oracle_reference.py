"""Row-by-row reference for the Jacobian of ``solver.brute_force_oracle``.

This is the oracle's Jacobian as it was first written: a Python ``fill_row``
per row, with the unknowns in a dict of ``Site`` objects and each entry found
by a ``canonical_k`` lookup.  The oracle now builds the same closed form from
index arrays fixed per box; this module is the check on them.
"""

import numpy as np

from qpwave.lattice import Site, canonical_k, cube, neighbor_offsets, unit_k
from qpwave.nonlin import CoefficientField, linearize
from qpwave.spectrum import mu


def reference_jacobian(params, box: int, x: np.ndarray) -> np.ndarray:
    """The oracle's Jacobian at ``x`` (q at the canonical unknowns in the
    cube's order, then the b frequencies), rows F at the unknowns then at
    the b anchors."""
    region = cube(box, params.b, params.d, excluded=params.resonant_set())
    unknown_sites = [s for s in region.members() if canonical_k(s.k) == s.k]
    col = {s: i for i, s in enumerate(unknown_sites)}
    n_unknowns = len(unknown_sites)
    anchor_rows = [(unit_k(l, params.b), tuple(n), a)
                   for l, (n, a) in enumerate(
                       zip(params.anchors, params.amplitudes), start=1)]

    frozen = {(e, n): a / 2.0 for e, n, a in anchor_rows}

    def field_of(x: np.ndarray) -> CoefficientField:
        entries = dict(frozen)
        for s, i in col.items():
            entries[(s.k, s.n)] = x[i]
        return CoefficientField.from_entries(entries, params.b, params.d)

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

    return jacobian(x)
