"""Geometry of the index set Z^b x Z^d.

Sites pair a frequency multi-index k (length b) with a space site n
(length d).  Regions are rectangles minus a translated copy of themselves
(the box shape used in multiscale analysis), optionally with the resonant
set removed.  This module owns the lattice geometry and the one map from
sites to matrix rows: boxes and region members as int arrays of vectors
(k | n) in lexicographic order (``box_vectors``, ``RegionSpec.vectors``), the
row index of a region (``index_map``: a ``RegionIndex`` looks whole arrays of
vectors up at once) and the l1 neighbour offsets (``neighbor_offsets``).

Geometry is computed once and kept with what it describes: a region keeps
its member vectors and its ``RegionIndex`` (``index_map`` builds it on the
first call), and an index keeps the assembly pattern of an operator on its
rows, which depends on the vectors alone (``RegionIndex.distinct``, the
distinct k and n parts, and ``RegionIndex.pairs``, the (row, col) pairs of
an offset stencil).  The values placed on the pattern (k.omega, mu_n^2 and
the couplings) are recomputed by every call in ``linop``.  Every kept array
is read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyRegion, InvalidAnchors, OutOfRegion, RegionTooLarge

# Regions whose bounding box holds more candidate sites than this are
# refused: vectors() materializes every candidate as an array row first.
# The solver's stage cubes fall under it too; at b = d = 1 it admits the
# default ladder M = 3, r <= 6 (1459^2 sites).
MATERIALIZE_LIMIT = 3_000_000
# stencil patterns one RegionIndex keeps; past it the oldest is dropped
PATTERN_LIMIT = 64


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
    return [tuple(s if i == j else 0 for i in range(d))
            for j in range(d) for s in (-1, 1)]


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


def sites_of(vectors: np.ndarray, b: int) -> tuple:
    """The rows (k | n) of an int array as Sites."""
    return tuple(Site(tuple(v[:b]), tuple(v[b:])) for v in vectors.tolist())


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

    def vectors(self) -> np.ndarray:
        """Member vectors (k | n) as rows of a read-only int array, in
        lexicographic order: the base box, minus the rows of its shifted copy,
        minus the excluded sites."""
        cached = getattr(self, "_vectors", None)
        if cached is None:
            bound = math.prod(2 * w + 1 for w in self.half_widths)
            if bound > MATERIALIZE_LIMIT:
                raise RegionTooLarge(
                    f"region with {bound} candidate sites exceeds the "
                    f"materialization limit {MATERIALIZE_LIMIT}")
            center = np.asarray(self.base_center.vector)
            widths = np.asarray(self.half_widths)
            vecs = box_vectors(center, widths)
            keep = np.ones(len(vecs), dtype=bool)
            if any(self.shift):
                back = vecs - np.asarray(self.shift) - center
                keep = (np.abs(back) > widths).any(axis=1)
            if self.excluded is not None:
                for site in self.excluded.members:
                    keep &= (vecs != site.vector).any(axis=1)
            cached = vecs[keep]
            cached.flags.writeable = False
            object.__setattr__(self, "_vectors", cached)
        return cached

    def members(self) -> tuple:
        """Member sites, in the order of :meth:`vectors`."""
        return sites_of(self.vectors(), self.b)

    def size(self) -> int:
        return len(self.vectors())

    def diameter(self) -> int:
        """Sup-norm diameter of the member set (coordinatewise span max)."""
        vecs = self.vectors()
        if not len(vecs):
            raise EmptyRegion("cannot take the diameter of an empty region")
        return int((vecs.max(axis=0) - vecs.min(axis=0)).max())


def cube(L: int, b: int, d: int, excluded: Optional[ResonantSet] = None) -> RegionSpec:
    """Full rectangle of half-width L in every coordinate, centered at 0."""
    if L < 1:
        raise ValueError(f"cube radius must be >= 1, got {L}")
    dim = b + d
    center = Site((0,) * b, (0,) * d)
    return RegionSpec(center, (L,) * dim, (0,) * dim, b, d, excluded)


def distinct_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of an int array, in lexicographic order as lists of
    Python ints, and each row's place among them (an int array)."""
    lo = rows.min(axis=0)
    code = np.ravel_multi_index((rows - lo).T, rows.max(axis=0) - lo + 1)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return rows[first].tolist(), inverse


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class RegionIndex:
    """Row numbers 0..N-1 of N distinct vectors (k | n), in the order given,
    kept in an int array over their bounding box so that whole arrays of
    vectors are looked up at once; ``b`` splits a vector into k and n.  The
    index keeps the parts of an assembly that depend on its vectors alone
    (``distinct``, ``pairs``)."""

    def __init__(self, vectors, b: int):
        vectors = np.asarray(vectors, dtype=int)
        # the caller's array is copied rather than made read-only
        self.vectors = vectors.copy() if vectors.flags.writeable else vectors
        self.b = b
        self._lo = self.vectors.min(axis=0)
        self._shape = self.vectors.max(axis=0) - self._lo + 1
        self._table = np.full(tuple(self._shape), -1, dtype=np.intp)
        self._table[tuple((self.vectors - self._lo).T)] = \
            np.arange(len(self.vectors))
        _read_only(self.vectors, self._lo, self._shape, self._table)
        self._distinct = {}
        self._pairs = {}

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def sites(self) -> tuple:
        return sites_of(self.vectors, self.b)

    def lookup(self, rows) -> np.ndarray:
        """The row number of each vector along the last axis of ``rows``, or
        -1 where the vector is not indexed."""
        rel = np.asarray(rows) - self._lo
        inside = ((rel >= 0) & (rel < self._shape)).all(axis=-1)
        out = np.full(inside.shape, -1, dtype=np.intp)
        out[inside] = self._table[tuple(rel[inside].T)]
        return out

    def distinct(self, part: str) -> tuple:
        """The distinct k (``part`` "k") or n ("n") parts of the vectors, in
        lexicographic order as lists of Python ints, and each vector's place
        among them (an int array); computed once per part."""
        hit = self._distinct.get(part)
        if hit is None:
            cols = slice(0, self.b) if part == "k" else slice(self.b, None)
            firsts, inverse = distinct_rows(self.vectors[:, cols])
            inverse.flags.writeable = False
            hit = self._distinct[part] = (firsts, inverse)
        return hit

    def pairs(self, n, offsets: np.ndarray) -> tuple:
        """The stencil ``offsets`` (int rows (k | n)) on the rows whose n part
        is ``n`` (every row for None): (i, j, e) for each row i and offset
        e with row j at vector i + offsets[e], e-major.  Computed once per
        (n, offsets); at most PATTERN_LIMIT are kept."""
        key = (n, offsets.shape, offsets.tobytes())
        hit = self._pairs.get(key)
        if hit is None:
            i = np.arange(self.size) if n is None else np.flatnonzero(
                (self.vectors[:, self.b:] == n).all(axis=1))
            j = self.lookup(self.vectors[i][None, :, :] + offsets[:, None, :])
            e, at = np.nonzero(j >= 0)
            if len(self._pairs) >= PATTERN_LIMIT:
                del self._pairs[next(iter(self._pairs))]
            hit = self._pairs[key] = _read_only(i[at], j[e, at], e)
        return hit

    def get(self, site) -> Optional[int]:
        i = int(self.lookup([tuple(site[0]) + tuple(site[1])])[0])
        return i if i >= 0 else None

    def index_of(self, site) -> int:
        i = self.get(site)
        if i is None:
            raise OutOfRegion(f"site {Site(*map(tuple, site))} not in region")
        return i

    def site_of(self, i: int) -> Site:
        if not 0 <= i < self.size:
            raise OutOfRegion(f"index {i} out of range 0..{self.size - 1}")
        return sites_of(self.vectors[i:i + 1], self.b)[0]


def index_map(spec: RegionSpec) -> RegionIndex:
    """The row index of a region's members, built on the first call and kept
    on the region; raises EmptyRegion when empty."""
    cached = getattr(spec, "_index", None)
    if cached is None:
        if not spec.size():
            raise EmptyRegion(f"region {spec} has no member sites")
        cached = RegionIndex(spec.vectors(), spec.b)
        object.__setattr__(spec, "_index", cached)
    return cached
