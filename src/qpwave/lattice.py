"""Geometry of the index set Z^b x Z^d.

Sites pair a frequency multi-index k (length b) with a space site n
(length d).  Regions are rectangles minus a translated copy of themselves
(the box shape used in multiscale analysis), optionally with the resonant
set removed.  This module owns the lattice geometry the other modules use:
box enumeration as integer arrays (``box_vectors``), region membership
(``RegionSpec.members``) and the l1 neighbour offsets of the discrete
Laplacian (``neighbor_offsets``).  Region values are immutable; members come
in lexicographic order, so downstream matrix assembly is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyRegion, InvalidAnchors, OutOfRegion

# Regions whose bounding box holds more candidate sites than this are
# refused: members() materializes every candidate as an array row first.
MATERIALIZE_LIMIT = 10**7


def box_vectors(center: Sequence[int], half_widths: Sequence[int]) -> np.ndarray:
    """Every integer vector v with |v_i - center_i| <= half_widths_i, as rows
    of an int array in lexicographic order."""
    shape = tuple(2 * w + 1 for w in half_widths)
    # row-major like the meshgrid stacks it replaces, so that products with
    # the rows see the same memory layout
    grid = np.ascontiguousarray(np.indices(shape).reshape(len(shape), -1).T)
    return grid + (np.asarray(center) - np.asarray(half_widths))


def neighbor_offsets(d: int) -> list:
    """The 2d unit vectors +-e_j of Z^d, axis by axis, minus before plus."""
    out = []
    for j in range(d):
        for s in (-1, 1):
            out.append(tuple(s if i == j else 0 for i in range(d)))
    return out


class Site(NamedTuple):
    """A lattice point (k, n) in Z^b x Z^d.

    Norms are sup-norms: ``norm`` over all b+d entries, ``norm_k`` /
    ``norm_n`` over the parts.
    """

    k: tuple
    n: tuple

    @property
    def norm_k(self) -> int:
        return max((abs(x) for x in self.k), default=0)

    @property
    def norm_n(self) -> int:
        return max((abs(x) for x in self.n), default=0)

    @property
    def norm(self) -> int:
        return max(self.norm_k, self.norm_n)

    @property
    def order(self) -> int:
        """|k| + |n|, the weight used in decay estimates."""
        return self.norm_k + self.norm_n

    @property
    def vector(self) -> tuple:
        return self.k + self.n

    def negated_k(self) -> "Site":
        return Site(tuple(-x for x in self.k), self.n)


def canonical_k(k: tuple) -> tuple:
    """Representative of {k, -k}: the lexicographically larger one."""
    nk = tuple(-x for x in k)
    return k if k >= nk else nk


def unit_k(l: int, b: int) -> tuple:
    """Standard basis vector e_l (1-based l) of Z^b."""
    if not 1 <= l <= b:
        raise ValueError(f"frequency index l={l} out of range 1..{b}")
    return tuple(1 if i == l - 1 else 0 for i in range(b))


@dataclass(frozen=True)
class ResonantSet:
    """The 2b anchored sites {(+-e_l, n^(l))}, closed under k -> -k."""

    anchors: tuple  # tuple of b space sites (each a tuple of d ints)
    b: int
    d: int
    members: frozenset = field(init=False)

    def __post_init__(self):
        if self.b < 1 or len(self.anchors) != self.b:
            raise InvalidAnchors(
                f"need exactly b={self.b} anchors, got {len(self.anchors)}")
        if len(set(self.anchors)) != self.b:
            raise InvalidAnchors(f"anchors must be distinct: {self.anchors}")
        for n in self.anchors:
            if len(n) != self.d:
                raise InvalidAnchors(f"anchor {n} has length != d={self.d}")
        mem = set()
        for l, n in enumerate(self.anchors, start=1):
            e = unit_k(l, self.b)
            mem.add(Site(e, tuple(n)))
            mem.add(Site(tuple(-x for x in e), tuple(n)))
        object.__setattr__(self, "members", frozenset(mem))

    def __contains__(self, site: Site) -> bool:
        return Site(tuple(site[0]), tuple(site[1])) in self.members


@dataclass(frozen=True)
class RegionSpec:
    """R_w(center) \\ (R_w(center)+z), minus an optional excluded set.

    An all-zero shift means the full rectangle (no copy is removed).
    """

    base_center: Site
    half_widths: tuple  # length b+d, nonnegative ints
    shift: tuple        # length b+d; all zeros = full rectangle
    b: int
    d: int
    excluded: Optional[ResonantSet] = None

    def __post_init__(self):
        dim = self.b + self.d
        if len(self.base_center.k) != self.b or len(self.base_center.n) != self.d:
            raise ValueError("base_center does not match (b, d)")
        if len(self.half_widths) != dim or len(self.shift) != dim:
            raise ValueError("half_widths and shift must have length b+d")
        if any(w < 0 for w in self.half_widths):
            raise ValueError("half_widths must be nonnegative")

    def members(self) -> tuple:
        """Member sites, lexicographic on the concatenated vector."""
        cached = getattr(self, "_members_cache", None)
        if cached is None:
            bound = 1
            for w in self.half_widths:
                bound *= 2 * w + 1
            if bound > MATERIALIZE_LIMIT:
                raise MemoryError(
                    f"region with {bound} candidate sites exceeds the "
                    f"materialization limit {MATERIALIZE_LIMIT}")
            center = np.asarray(self.base_center.vector)
            widths = np.asarray(self.half_widths)
            vecs = box_vectors(center, widths)
            if any(self.shift):
                back = vecs - np.asarray(self.shift) - center
                vecs = vecs[(np.abs(back) > widths).any(axis=1)]
            sites = [Site(tuple(v[:self.b]), tuple(v[self.b:]))
                     for v in vecs.tolist()]
            if self.excluded is not None:
                sites = [s for s in sites if s not in self.excluded.members]
            cached = tuple(sites)
            object.__setattr__(self, "_members_cache", cached)
        return cached

    def size(self) -> int:
        return len(self.members())

    def diameter(self) -> int:
        """Sup-norm diameter of the member set (coordinatewise span max)."""
        mem = self.members()
        if not mem:
            raise EmptyRegion("cannot take the diameter of an empty region")
        vecs = [s.vector for s in mem]
        dim = len(vecs[0])
        return max(max(v[i] for v in vecs) - min(v[i] for v in vecs)
                   for i in range(dim))


def cube(L: int, b: int, d: int, excluded: Optional[ResonantSet] = None) -> RegionSpec:
    """Full rectangle of half-width L in every coordinate, centered at 0."""
    if L < 1:
        raise ValueError(f"cube radius must be >= 1, got {L}")
    dim = b + d
    center = Site((0,) * b, (0,) * d)
    return RegionSpec(center, (L,) * dim, (0,) * dim, b, d, excluded)


def region_members(spec: RegionSpec) -> tuple:
    """Deterministic lexicographic enumeration of the member sites."""
    mem = spec.members()
    if not mem:
        raise EmptyRegion(f"region {spec} has no member sites")
    return mem


class RegionIndex:
    """Bijection between a region's sites and 0..N-1, stable per spec."""

    def __init__(self, spec: RegionSpec):
        self.spec = spec
        self.sites = region_members(spec)
        self._index = {s: i for i, s in enumerate(self.sites)}

    @property
    def size(self) -> int:
        return len(self.sites)

    def index_of(self, site) -> int:
        key = Site(tuple(site[0]), tuple(site[1]))
        try:
            return self._index[key]
        except KeyError:
            raise OutOfRegion(f"site {key} not in region") from None

    def site_of(self, i: int) -> Site:
        if not 0 <= i < len(self.sites):
            raise OutOfRegion(f"index {i} out of range 0..{len(self.sites)-1}")
        return self.sites[i]

    def get(self, site) -> Optional[int]:
        return self._index.get(Site(tuple(site[0]), tuple(site[1])))


def index_map(spec: RegionSpec) -> RegionIndex:
    return RegionIndex(spec)


def sup_distance(a: Site, b: Site) -> int:
    """Sup-norm distance |j - j'| between two sites."""
    va, vb = a.vector, b.vector
    return max(abs(x - y) for x, y in zip(va, vb))
