"""Site-by-site references for the quality diagnostics.

``reference_decay_fit`` is ``solver.decay_fit`` as a loop over the field's
full lattice entries, each a ``Site`` checked against the resonant set.
``reference_pde_residual`` is ``nonlin.pde_residual`` with each site's
neighbour keys built again at every time sample.  Both keep the point and
summation order of the fast forms, so the outputs are equal bit for bit.
"""

import math

import numpy as np

from qpwave.errors import InsufficientData
from qpwave.lattice import Site, neighbor_offsets
from qpwave.linop import DECAY_FIT_FLOOR
from qpwave.solver import DECAY_FIT_MIN_POINTS


def reference_decay_fit(q, resonant_set=None) -> float:
    xs, ys = [], []
    for k, n, v in q.full_items():
        if resonant_set is not None and Site(k, n) in resonant_set:
            continue
        if abs(v) <= DECAY_FIT_FLOOR:
            continue
        xs.append(float(Site(k, n).order))
        ys.append(math.log(abs(v)))
    if len(xs) < DECAY_FIT_MIN_POINTS or len(set(xs)) < 2:
        raise InsufficientData(
            f"decay fit needs >= {DECAY_FIT_MIN_POINTS} off-resonant points "
            f"above {DECAY_FIT_FLOOR:g}, got {len(xs)}")
    return float(-np.polyfit(np.array(xs), np.array(ys), 1)[0])


def reference_pde_residual(q, omega, params, t_samples) -> float:
    omega = np.asarray(omega, dtype=float)
    offs = neighbor_offsets(q.d)
    slices = {}
    for k, n, v in q.canonical_items():
        kw = float(np.dot(k, omega))
        slices.setdefault(n, []).append((kw, q.multiplicity(k) * v))
    space = set(slices)
    for n in list(space):
        for off in offs:
            space.add(tuple(x + o for x, o in zip(n, off)))
    space = sorted(space)
    potential = {n: math.cos(params.phase(n)) + params.m for n in space}
    worst = 0.0
    for t in t_samples:
        u, utt = {}, {}
        for n in space:
            un = 0.0
            uttn = 0.0
            for kw, coeff in slices.get(n, ()):
                c = coeff * math.cos(kw * t)
                un += c
                uttn -= kw * kw * c
            u[n] = un
            utt[n] = uttn
        for n in space:
            lap = sum(u.get(tuple(x + o for x, o in zip(n, off)), 0.0)
                      for off in offs)
            val = (utt[n] + params.eps * lap + potential[n] * u[n]
                   + params.delta * u[n] ** (params.p + 1))
            worst = max(worst, abs(val))
    return worst
