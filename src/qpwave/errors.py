"""Exception types, and the cast and range check of config fields, shared
across the package.

Every named failure mode gets its own class so callers (and the CLI exit-code
mapping) can discriminate without string matching.
"""

import numbers


def cast_number(name: str, value, typ):
    """``value`` as ``typ`` (int or float), or ValueError naming ``name``: an
    int field takes an integral number, a float field any real number, and
    neither takes a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or typ is int and value % 1 != 0:
        kind = "an integer" if typ is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return typ(value)


def check_ranges(prefix: str, obj, rules) -> None:
    """Raise ValueError on the first (field, ok, rule) in ``rules`` whose
    ``ok`` is false, naming ``prefix + field``, its rule and its value."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{prefix}{name} must be {rule}, "
                             f"got {getattr(obj, name)!r}")


class QPWaveError(Exception):
    """Base class for all package-specific errors."""


class EmptyRegion(QPWaveError):
    """A region specification has no member sites."""


class OutOfRegion(QPWaveError):
    """A site was looked up in an index map that does not contain it."""


class InvalidAnchors(QPWaveError):
    """Anchor sites are duplicated or otherwise unusable."""


class PreconditionFailed(QPWaveError):
    """A required certificate or precondition does not hold."""


class NotApplicable(QPWaveError):
    """The requested check is not defined for these inputs (excluded case)."""


class InsufficientResolution(QPWaveError):
    """A sampling grid is too coarse for the requested tolerance."""


class Singular(QPWaveError):
    """A matrix is numerically singular.

    Carries ``smallest_singular_value`` when known.
    """

    def __init__(self, message: str, smallest_singular_value: float = float("nan")):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class FrequencyCollapse(QPWaveError):
    """A frequency update produced a nonpositive squared frequency."""


class ResonantBox(QPWaveError):
    """A restricted linearized operator is singular or too ill-conditioned.

    Carries the ``stage``, the condition estimate (inf when none was made)
    and a lattice site: where the inverse column found by the estimate is
    largest, or the resonant site outside the box; None when the box is
    exactly singular.
    """

    def __init__(self, message: str, stage: int = -1,
                 condition: float = float("inf"), site=None):
        super().__init__(message)
        self.stage = stage
        self.condition = condition
        self.site = site


class NonConvergence(QPWaveError):
    """The staged iteration stagnated before reaching the residual floor."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class OracleDiverged(QPWaveError):
    """The dense validation Newton iteration failed to converge."""


class OracleTooLarge(QPWaveError, ValueError):
    """The dense validation oracle refuses a truncated system this large."""


class RegionTooLarge(QPWaveError, MemoryError):
    """A region's bounding box holds too many candidate sites to build."""


class InsufficientData(QPWaveError):
    """Not enough support points for a requested fit."""
