"""Pair-matrix reference for ``spectrum.separation_certificate`` and
``spectrum.admissible_m_scan``, and a direct-count reference for
``spectrum.cluster_scan``.

Separation takes its minima from the full n x n difference matrices, and the
difference condition of the scan walks every ordered pair (i, j) with every
k, then the both-anchored pairs in a loop of their own.  The cluster count
tests |xi(sigma + k.w0) + mu_n| < eta/2 at every shift for every k and n.
Nothing uses the sorted gaps, the (i, j, k) ~ (j, i, -k) symmetry or sorted
resonance centres, so this is the oracle for the certify path.
"""

import math

import numpy as np

from qpwave.lattice import box_vectors, unit_k
from qpwave.spectrum import (AdmissibleMScan, Certificate, _enumerate_nonzero,
                             _mu_array, _require_diophantine, omega0)


def reference_separation_certificate(params, L, c_star):
    """``separation_certificate`` from the n x n matrices of |mu_n - mu_n'|
    and |mu_n^2 - mu_n'^2|; witnesses are their row-major argmins."""
    _require_diophantine(params, L, c_star)
    sites = _enumerate_nonzero(L, params.d)
    sites = np.vstack([np.zeros((1, params.d), dtype=int), sites])
    mus = _mu_array(sites, params, np.array([params.m]))[:, 0]

    thr1 = (2.0 / math.pi**2) * c_star**2
    thr2 = (8.0 / math.pi**2) * c_star**2
    diff = np.abs(mus[:, None] - mus[None, :])
    diff2 = np.abs(mus[:, None]**2 - mus[None, :]**2)
    np.fill_diagonal(diff, np.inf)
    np.fill_diagonal(diff2, np.inf)
    i1 = np.unravel_index(np.argmin(diff), diff.shape)
    i2 = np.unravel_index(np.argmin(diff2), diff2.shape)
    margin1 = float(diff[i1] - thr1)
    margin2 = float(diff2[i2] - thr2)
    witnesses = (
        ((tuple(int(x) for x in sites[i1[0]]), tuple(int(x) for x in sites[i1[1]])),
         float(diff[i1])),
        ((tuple(int(x) for x in sites[i2[0]]), tuple(int(x) for x in sites[i2[1]])),
         float(diff2[i2])),
    )
    return Certificate(
        kind="separation",
        inputs={"L": L, "c_star": c_star, "m": params.m},
        margin=min(margin1, margin2),
        witnesses=witnesses,
        notes=f"min|mu-mu'|={diff[i1]:.6e} (threshold {thr1:.3e}); "
              f"min|mu^2-mu'^2|={diff2[i2]:.6e} (threshold {thr2:.3e})",
    )


def reference_admissible_m_scan(params, L, eta, m_grid):
    """``admissible_m_scan`` over ordered pairs, with the both-anchored pairs
    in a second loop."""
    _require_diophantine(params, L, float(L) ** (-3 * params.d))
    m_grid = np.atleast_1d(np.asarray(m_grid, dtype=float))
    nm = len(m_grid)
    space = box_vectors((0,) * params.d, (L,) * params.d)  # (Ns, d)
    mus = _mu_array(space.astype(float), params, m_grid)  # (Ns, nm)
    anchor_rows = [int(np.where((space == np.asarray(a)).all(axis=1))[0][0])
                   for a in params.anchors]
    om = mus[anchor_rows, :]                          # (b, nm)

    ok = np.ones(nm, dtype=bool)
    fails = {}

    # (1) pair separation
    thr1 = (2.0 / math.pi**2) * float(L) ** (-6 * params.d)
    pair_min = np.full(nm, np.inf)
    for i in range(len(space) - 1):
        pair_min = np.minimum(pair_min, np.abs(mus[i + 1:] - mus[i]).min(axis=0))
    cond1 = pair_min >= thr1
    fails["separation"] = float(1.0 - cond1.mean())
    ok &= cond1

    # (2) harmonics
    kvecs = _enumerate_nonzero(2 * L, params.b)       # (Nk2, b)
    komega = kvecs.astype(float) @ om                 # (Nk2, nm)
    cond2 = (np.abs(komega) > eta).all(axis=0)
    fails["harmonic"] = float(1.0 - cond2.mean())
    ok &= cond2

    # (3) shifted, over the cube of radius L minus the resonant set
    kcube = np.vstack([np.zeros((1, params.b), dtype=int),
                       _enumerate_nonzero(L, params.b)])
    cond3 = np.ones(nm, dtype=bool)
    for kv in kcube:
        rows = np.ones(len(space), dtype=bool)
        if np.abs(kv).sum() == 1:    # k = +-e_l: (k, n^(l)) is resonant
            rows[anchor_rows[int(np.argmax(kv != 0))]] = False
        kw = kv.astype(float) @ om                    # (nm,)
        cond3 &= (np.abs(kw + mus[rows]) > eta).all(axis=0)
    fails["shifted"] = float(1.0 - cond3.mean())
    ok &= cond3

    # (4) differences over the admissible pairs, one row i at a time so that
    # no temporary exceeds (Ns, nm)
    anchored = np.isin(np.arange(len(space)), anchor_rows)
    kall = np.vstack([np.zeros((1, params.b), dtype=int), kvecs])
    kws = [kv.astype(float) @ om for kv in kall]      # each (nm,)
    cond4 = np.ones(nm, dtype=bool)
    for i in range(len(space)):
        free = np.arange(len(space)) != i
        if anchored[i]:
            free &= ~anchored
        diffs = mus[i] - mus[free]                    # (pairs of row i, nm)
        for kw in kws:
            cond4 &= (np.abs(kw[None, :] + diffs) > eta).all(axis=0)
    for l, i in enumerate(anchor_rows, start=1):
        for lp, j in enumerate(anchor_rows, start=1):
            if l == lp:
                continue
            e = np.array(unit_k(l, params.b)) - np.array(unit_k(lp, params.b))
            for kv, kw in zip(kall, kws):
                if (kv + e == 0).all():
                    continue  # identically-zero combination, excluded
                cond4 &= np.abs(kw + mus[i] - mus[j]) > eta
    fails["difference"] = float(1.0 - cond4.mean())
    ok &= cond4

    failing = float(1.0 - ok.mean())
    # L^(50 d b^2) alone overflows already at b = 3, L = 5: the verdict is
    # read from the log, and the bound is inf once that power is past range
    exponent, root = 50 * params.d * params.b**2, 1.0 / (params.b + 2)
    log_eta = math.log(eta) if eta > 0.0 else -math.inf
    feasible = exponent * math.log(L) + root * log_eta < 0.0
    try:
        theoretical_bound = float(L) ** exponent * eta ** root
    except OverflowError:
        theoretical_bound = math.inf
    certified = m_grid[ok]
    cert = Certificate(
        kind="admissible_m",
        inputs={"L": L, "eta": eta, "grid_points": nm},
        margin=(1.0 if len(certified) else -1.0),
        witnesses=((("certified_count",), float(len(certified))),
                   (("failing_fraction",), failing)),
        notes=f"theoretical complement bound {theoretical_bound:.6e} "
              f"({'feasible' if feasible else 'vacuous at this scale'})",
    )
    return AdmissibleMScan(
        certified_m=certified,
        failing_fraction=failing,
        theoretical_bound=theoretical_bound,
        theoretical_bound_feasible=feasible,
        condition_fail_fractions=fails,
        certificate=cert,
    )


def reference_cluster_scan(params, L, eta, sigma_grid):
    """``cluster_scan`` by a (sigma, n) comparison for every k and sign xi."""
    sigma_grid = np.atleast_1d(np.asarray(sigma_grid, dtype=float))
    space = box_vectors((0,) * params.d, (L,) * params.d)
    mus = _mu_array(space.astype(float), params, np.array([params.m]))[:, 0]
    om = omega0(params)
    kcube = np.vstack([np.zeros((1, params.b), dtype=int),
                       _enumerate_nonzero(L, params.b)])
    kw = kcube.astype(float) @ om
    best = (0, float(sigma_grid[0]))
    for xi in (1.0, -1.0):
        counts = np.zeros(len(sigma_grid), dtype=int)
        for w in kw:
            shift = xi * (sigma_grid + w)
            counts += (np.abs(shift[:, None] + mus[None, :]) < eta / 2.0).sum(axis=1)
        i = int(np.argmax(counts))
        if counts[i] > best[0]:
            best = (int(counts[i]), float(sigma_grid[i]))
    return best
