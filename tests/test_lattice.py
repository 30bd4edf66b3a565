import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpwave import (EmptyRegion, InvalidAnchors, OutOfRegion, RegionSpec,
                    ResonantSet, Site, cube, index_map)
from qpwave.lattice import box_vectors, canonical_k, neighbor_offsets


def brute_force_members(center, w, z, b, d, excluded=None):
    """Independent enumeration: base rectangle minus shifted copy minus S."""
    dim = b + d
    c = center.k + center.n
    base = set()

    def rec(i, vec):
        if i == dim:
            base.add(vec)
            return
        for v in range(c[i] - w[i], c[i] + w[i] + 1):
            rec(i + 1, vec + (v,))

    rec(0, ())
    if any(z):
        shifted = {tuple(x + dz for x, dz in zip(vec, z)) for vec in base}
        base -= shifted
    sites = {Site(vec[:b], vec[b:]) for vec in base}
    if excluded is not None:
        sites -= set(excluded.members)
    return sorted(sites, key=lambda s: s.vector)


class TestSite:
    def test_norms_are_sup_norms(self):
        s = Site((2, -3), (1, 0, -4))
        assert s.norm_k == 3
        assert s.norm_n == 4
        assert s.norm == 4
        assert s.order == 7

    def test_canonical_k(self):
        assert canonical_k((1, -2)) == (1, -2)
        assert canonical_k((-1, 2)) == (1, -2)
        assert canonical_k((0, 0)) == (0, 0)
        assert canonical_k((0, -1)) == (0, 1)

    def test_neighbor_offsets_axis_then_sign(self):
        assert neighbor_offsets(1) == [(-1,), (1,)]
        assert neighbor_offsets(2) == [(-1, 0), (1, 0), (0, -1), (0, 1)]


class TestResonantSet:
    def test_two_b_members_closed_under_negation(self):
        s = ResonantSet(anchors=((0,), (3,)), b=2, d=1)
        assert len(s.members) == 4
        for site in s.members:
            assert site.negated_k() in s.members

    def test_duplicate_anchor_rejected(self):
        with pytest.raises(InvalidAnchors):
            ResonantSet(anchors=((0,), (0,)), b=2, d=1)

    def test_membership(self):
        s = ResonantSet(anchors=((5,),), b=1, d=1)
        assert Site((1,), (5,)) in s
        assert Site((-1,), (5,)) in s
        assert Site((1,), (4,)) not in s
        assert Site((2,), (5,)) not in s


class TestCube:
    def test_count_b1_d1(self):
        assert cube(1, 1, 1).size() == 9  # (2*1+1)^2

    def test_count_b1_d2(self):
        assert cube(2, 1, 2).size() == 125  # 5^3

    def test_count_with_excluded_resonant_set(self):
        s = ResonantSet(anchors=((0,),), b=1, d=1)
        assert cube(1, 1, 1, excluded=s).size() == 7  # 9 - 2

    def test_count_formula_various(self):
        for L, b, d in [(1, 2, 1), (2, 1, 1), (3, 1, 1)]:
            assert cube(L, b, d).size() == (2 * L + 1) ** (b + d)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            cube(0, 1, 1)


class TestRegionMembers:
    def test_full_rectangle_lexicographic(self):
        spec = RegionSpec(Site((0,), (0,)), (1, 1), (0, 0), 1, 1)
        mem = spec.members()
        assert len(mem) == 9
        assert list(mem) == sorted(mem, key=lambda s: s.vector)
        assert mem[0] == Site((-1,), (-1,))
        assert mem[-1] == Site((1,), (1,))

    def test_shifted_copy_removed(self):
        # rectangle minus its right-shifted copy leaves one k-column
        spec = RegionSpec(Site((0,), (0,)), (1, 1), (1, 0), 1, 1)
        mem = spec.members()
        expected = brute_force_members(Site((0,), (0,)), (1, 1), (1, 0), 1, 1)
        assert list(mem) == expected
        assert len(mem) == 3
        assert all(s.k == (-1,) for s in mem)

    def test_disjoint_shift_keeps_all(self):
        spec = RegionSpec(Site((0,), (0,)), (0, 0), (1, 1), 1, 1)
        mem = spec.members()
        assert mem == (Site((0,), (0,)),)

    def test_empty_region_signals(self):
        s = ResonantSet(anchors=((0,),), b=1, d=1)
        spec = RegionSpec(Site((1,), (0,)), (0, 0), (0, 0), 1, 1, excluded=s)
        assert spec.members() == ()
        with pytest.raises(EmptyRegion):
            index_map(spec)

    def test_diameter(self):
        assert cube(2, 1, 1).diameter() == 4
        spec = RegionSpec(Site((0,), (0,)), (1, 1), (1, 0), 1, 1)
        assert spec.diameter() == 2  # the k=-1 column spans n in [-1, 1]


class TestIndexMap:
    def test_round_trip(self):
        idx = index_map(cube(1, 1, 1))
        i = idx.index_of(Site((0,), (0,)))
        assert idx.site_of(i) == Site((0,), (0,))

    def test_excluded_site_raises(self):
        s = ResonantSet(anchors=((0,),), b=1, d=1)
        idx = index_map(cube(1, 1, 1, excluded=s))
        with pytest.raises(OutOfRegion):
            idx.index_of(Site((1,), (0,)))

    def test_bijection(self):
        idx = index_map(cube(2, 1, 1))
        sites = {idx.site_of(i) for i in range(idx.size)}
        assert len(sites) == idx.size
        for i in range(idx.size):
            assert idx.index_of(idx.site_of(i)) == i

    def test_identity_permutation_against_members(self):
        spec = cube(1, 1, 2)
        idx = index_map(spec)
        assert list(spec.members()) == [idx.site_of(i)
                                       for i in range(idx.size)]

    def test_stability_across_calls(self):
        spec = RegionSpec(Site((0,), (0,)), (2, 1), (1, 1), 1, 1)
        a, b = index_map(spec), index_map(spec)
        assert a.sites == b.sites


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 2), d=st.integers(1, 2),
    w=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    z=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    use_excluded=st.booleans(),
    ck=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    cn=st.lists(st.integers(-20, 20), min_size=2, max_size=2),
)
def test_region_invariants(b, d, w, z, use_excluded, ck, cn):
    # centres reach the +-M, +-2M space translations of the LDE families
    dim = b + d
    w, z = tuple(w[:dim]), tuple(z[:dim])
    excluded = ResonantSet(anchors=tuple((l,) * d for l in range(b)), b=b, d=d) \
        if use_excluded else None
    center = Site(tuple(ck[:b]), tuple(cn[:d]))
    spec = RegionSpec(center, w, z, b, d, excluded)
    mem = spec.members()
    expected = brute_force_members(center, w, z, b, d, excluded)
    assert list(mem) == expected
    for site in mem:
        rel = tuple(v - c for v, c in zip(site.vector, center.vector))
        assert all(abs(v) <= wi for v, wi in zip(rel, w))
        if any(z):
            back = tuple(v - zi for v, zi in zip(rel, z))
            assert not all(abs(v) <= wi for v, wi in zip(back, w))
        if excluded is not None:
            assert site not in excluded
    if mem:
        idx = index_map(spec)
        for i in range(idx.size):
            assert idx.index_of(idx.site_of(i)) == i
        # the base box and a margin of one around it: the points the shift
        # or the excluded set removed, and points outside the bounding box
        row = {s.vector: i for i, s in enumerate(mem)}
        probe = box_vectors(center.vector, tuple(wi + 1 for wi in w))
        got = idx.lookup(probe)
        assert got.tolist() == [row.get(tuple(v), -1) for v in probe.tolist()]
