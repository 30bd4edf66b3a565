import math

import pytest

from qpwave import ModelParams, linop

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
PRESET_THETA0 = 0.3455
# per space axis; (g, g) would not be Diophantine: n = (1, -1) gives n.alpha = 0
GOLDEN_ALPHA = (GOLDEN_MEAN, math.sqrt(2.0) - 1.0)


@pytest.fixture(autouse=True)
def cold_family_memo():
    """Every test starts with no region family kept, so that no outcome
    depends on which tests ran before it."""
    linop._region_family.cache_clear()


def golden_params(b=1, d=1, p=2, m=2.5, eps=1e-3, delta=1e-3, anchors=None,
                  amplitudes=None, gamma=1.0):
    """The well-certified reference point used throughout the suite."""
    if anchors is None:
        anchors = tuple(tuple(l if i == 0 else 0 for i in range(d))
                        for l in range(b))
    if amplitudes is None:
        amplitudes = (1.0,) * b
    return ModelParams(b=b, d=d, p=p, m=m, eps=eps, delta=delta,
                       alpha=GOLDEN_ALPHA[:d], theta0=PRESET_THETA0,
                       anchors=anchors, amplitudes=amplitudes, gamma=gamma)


@pytest.fixture
def params():
    return golden_params()


@pytest.fixture
def params_uncoupled():
    return golden_params(eps=0.0, delta=0.0)
