import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qpwave import lattice, linop
from qpwave import (CoefficientField, OperatorSpec, PreconditionFailed,
                    RegionTooLarge, Singular, Thresholds, assemble,
                    assemble_sparse, cube, green, green_matrix, lde_scan,
                    linearize, mu, omega0)
from qpwave.linop import (default_sigma_window, diagonal_bad_intervals,
                          elementary_region_family)
from qpwave.lattice import (RegionIndex, RegionSpec, Site, box_vectors,
                            canonical_k, index_map)
from qpwave.solver import initial_field

from assembly_reference import reference_assemble, reference_assemble_sparse
from conftest import golden_params
from lde_reference import (pair_distances, reference_block_scan,
                           reference_lde_scan)


def op_spec(params, region=None, sigma=0.37, kernel=None, omega=None):
    if region is None:
        region = cube(1, params.b, params.d)
    if omega is None:
        omega = tuple(float(w) for w in omega0(params))
    return OperatorSpec(region, sigma, omega, params, kernel)


def random_symmetric_kernel(rng, b, d, k_max=2, n_range=2, scale=1.0, gamma=1.0):
    entries = {}
    for k in range(0, k_max + 1):
        for n in range(-n_range, n_range + 1):
            v = scale * math.exp(-gamma * (k + abs(n))) * rng.normal()
            entries[((k,), (n,))] = v
    return CoefficientField.from_entries(entries, b, d)


class TestAssemble:
    def test_uncoupled_is_diagonal(self, params_uncoupled):
        spec = op_spec(params_uncoupled)
        a = assemble(spec)
        assert np.allclose(a, np.diag(np.diag(a)))
        sites = spec.region.members()
        om = np.array(spec.omega)
        for i, s in enumerate(sites):
            expected = mu(s.n, params_uncoupled) ** 2 \
                - (spec.sigma + float(np.dot(s.k, om))) ** 2
            assert a[i, i] == pytest.approx(expected, rel=1e-15)

    def test_laplacian_entry_count(self):
        p = golden_params(eps=0.1, delta=0.0)
        spec = op_spec(p)
        a = assemble(spec)
        off = a - np.diag(np.diag(a))
        # cube(1), b=d=1: for each of 3 k-values the n-pairs (-1,0) and (0,1)
        n_pairs = 3 * 2
        assert np.count_nonzero(off) == 2 * n_pairs
        assert np.allclose(off[off != 0], 0.1)

    def test_exact_symmetry(self, params):
        q0 = initial_field(params)
        spec = op_spec(params, region=cube(2, 1, 1),
                       kernel=linearize(q0, params.p))
        a = assemble(spec)
        assert (a == a.T).all()

    def test_sparse_matches_dense(self, params):
        q0 = initial_field(params)
        spec = op_spec(params, region=cube(2, 1, 1),
                       kernel=linearize(q0, params.p))
        assert np.allclose(assemble_sparse(spec).toarray(), assemble(spec))

    def test_kernel_contributes_diagonal_and_toeplitz(self, params):
        q0 = initial_field(params)
        phi = linearize(q0, params.p)        # phi(0,0)=3/2, phi(+-2,0)=3/4
        spec = op_spec(params, region=cube(2, 1, 1), kernel=phi, sigma=0.0)
        a = assemble(spec)
        idx = {s: i for i, s in enumerate(spec.region.members())}
        from qpwave.lattice import Site
        i00 = idx[Site((0,), (0,))]
        diag_expected = mu((0,), params) ** 2 + params.delta * 1.5
        assert a[i00, i00] == pytest.approx(diag_expected, rel=1e-14)
        i20 = idx[Site((2,), (0,))]
        assert a[i00, i20] == pytest.approx(params.delta * 0.75, rel=1e-14)


def random_lattice_kernel(seed, b, d):
    """A random symmetric kernel field on |k| <= 2, |n| <= 3; some n carry
    no k = 0 entry."""
    rng = np.random.default_rng(seed)
    entries = {}
    for k in box_vectors((0,) * b, (2,) * b).tolist():
        if tuple(k) != canonical_k(tuple(k)):
            continue
        for n in box_vectors((0,) * d, (3,) * d).tolist():
            if rng.random() < 0.3:
                entries[(tuple(k), tuple(n))] = float(rng.normal())
    return CoefficientField.from_entries(entries, b, d)


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 2), d=st.integers(1, 2),
       ck=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
       cn=st.lists(st.integers(-3, 3), min_size=2, max_size=2),
       w=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       z=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       use_excluded=st.booleans(),
       eps=st.sampled_from([0.0, 0.05]), delta=st.sampled_from([0.0, 0.03]),
       form=st.sampled_from(["none", "field"]),
       seed=st.integers(0, 2**32 - 1),
       sigma=st.floats(-3.0, 3.0))
def test_array_assembly_is_bitwise_the_site_loop(b, d, ck, cn, w, z,
                                                 use_excluded, eps, delta,
                                                 form, seed, sigma):
    dim = b + d
    p = golden_params(b=b, d=d, eps=eps, delta=delta)
    region = RegionSpec(Site(tuple(ck[:b]), tuple(cn[:d])), tuple(w[:dim]),
                        tuple(z[:dim]), b, d,
                        p.resonant_set() if use_excluded else None)
    assume(region.size() > 0)
    kernel = None if form == "none" else random_lattice_kernel(seed, b, d)
    spec = op_spec(p, region=region, sigma=sigma, kernel=kernel)
    assert assemble(spec).tobytes() == reference_assemble(spec).tobytes()
    assert assemble_sparse(spec).toarray().tobytes() == \
        reference_assemble_sparse(spec).toarray().tobytes()


class TestGreen:
    def test_diagonal_closed_form(self, params_uncoupled):
        spec = op_spec(params_uncoupled, region=cube(2, 1, 1), sigma=0.41)
        g = green_matrix(spec)
        sites = spec.region.members()
        om = np.array(spec.omega)
        for i, s in enumerate(sites):
            expected = 1.0 / (mu(s.n, params_uncoupled) ** 2
                              - (0.41 + float(np.dot(s.k, om))) ** 2)
            assert g[i, i] == pytest.approx(expected, rel=1e-12)
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() == 0.0

    def test_inverse_residual_on_coupled_instance(self, params):
        from qpwave.lattice import RegionSpec, Site
        rng = np.random.default_rng(11)
        kernel = random_symmetric_kernel(rng, 1, 1)
        region = RegionSpec(Site((0,), (0,)), (4, 5), (0, 0), 1, 1)  # 99 sites
        spec = op_spec(params, region=region, kernel=kernel, sigma=0.37)
        residual = assemble(spec) @ green_matrix(spec) - np.eye(99)
        assert np.abs(residual).max() <= 1e-10

    def test_singular_raises_with_smallest_value(self, params_uncoupled):
        # sigma placed exactly on a diagonal resonance
        om = float(omega0(params_uncoupled)[0])
        sigma = mu((1,), params_uncoupled) - om  # zeroes D at (k,n) = (1,1)
        spec = op_spec(params_uncoupled, region=cube(1, 1, 1), sigma=sigma)
        with pytest.raises(Singular) as err:
            green(spec)
        assert err.value.smallest_singular_value < 1e-12

    def test_small_coupling_norm_bound_off_resonance(self, params):
        # Neumann regime: away from the explicit diagonal resonances the
        # norm obeys |G| <= 2 exp(2 N^rho1)
        N = 4
        rho1 = 0.1
        thr = math.exp(-2.0 * N ** rho1)
        q0 = initial_field(params)
        kernel = linearize(q0, params.p)
        om = omega0(params)
        region = cube(N // 2, 1, 1)
        rng = np.random.default_rng(5)
        checked = 0
        prefactor = 2.0 * math.exp(2.0 * N ** rho1)
        for sigma in rng.uniform(-6, 6, size=200):
            sites = region.members()
            dmin = min(abs(abs(sigma + k[0] * om[0]) - mu(n, params))
                       for (k, n) in [(s.k, s.n) for s in sites])
            if dmin * 2.0 < thr:   # inside the excluded set
                continue
            spec = op_spec(params, region=region, kernel=kernel,
                           sigma=float(sigma))
            rep = green(spec, scale=N)
            assert rep.operator_norm <= prefactor
            g = green_matrix(spec)
            vecs = np.array([s.vector for s in sites])
            dists = np.abs(vecs[:, None, :] - vecs[None, :, :]).max(-1)
            off = dists > 0
            assert (np.abs(g[off]) <=
                    prefactor * np.exp(-params.gamma * dists[off])).all()
            checked += 1
        assert checked > 50

    def test_decay_fit_on_synthetic_instance(self, params):
        q0 = initial_field(params)
        region = cube(6, 1, 1)
        spec = op_spec(params, region=region, kernel=linearize(q0, params.p),
                       sigma=0.37)
        rep = green(spec, Thresholds(rho3=0.5), scale=float(region.diameter()))
        assert rep.n_far_pairs > 0
        assert np.isfinite(rep.decay_rate_fit)
        assert rep.decay_rate_fit > 0.5  # strong decay at couplings 1e-3


class TestToeplitzCovariance:
    def test_translation_equals_shift(self, params):
        rng = np.random.default_rng(23)
        kernel = random_symmetric_kernel(rng, 1, 1)
        om = tuple(float(w) for w in omega0(params))
        k0 = 2
        base = cube(2, 1, 1)    # 25 sites
        from qpwave.lattice import RegionSpec, Site
        translated = RegionSpec(Site((k0,), (0,)), base.half_widths,
                                base.shift, 1, 1)
        sigma = 0.29
        g_shift = green_matrix(op_spec(params, region=base,
                                       sigma=sigma + k0 * om[0], kernel=kernel))
        g_trans = green_matrix(op_spec(params, region=translated, sigma=sigma,
                                       kernel=kernel))
        assert np.abs(g_shift - g_trans).max() <= 1e-12 * max(
            1.0, np.abs(g_shift).max())


class TestLdeScan:
    def test_uncoupled_scan_matches_explicit_intervals(self):
        p = golden_params(eps=0.0, delta=0.0)
        om = tuple(float(w) for w in omega0(p))
        report = lde_scan(6, p, om, kernel=None, num_sigma=901)
        intervals = diagonal_bad_intervals(6, p, om)

        def in_intervals(x):
            return any(lo <= x <= hi for lo, hi in intervals)

        mismatches = sum(1 for s, flag in zip(report.sigma_grid,
                                              report.bad_flags)
                         if bool(flag) != in_intervals(float(s)))
        assert mismatches == 0

    def test_small_coupling_bad_fraction(self, params):
        q0 = initial_field(params)
        om = tuple(float(w) for w in omega0(params))
        report = lde_scan(8, params, om, kernel=linearize(q0, params.p),
                          num_sigma=801)
        assert report.bad_fraction <= report.comparison_value
        assert report.bad_measure == pytest.approx(
            report.bad_fraction * (report.window[1] - report.window[0]))
        assert report.n_regions > 1

    def test_bad_set_shrinks_with_coupling(self):
        fractions = []
        for c in (1e-3, 1e-4, 1e-5):
            p = golden_params(eps=c, delta=c)
            q0 = initial_field(p)
            om = tuple(float(w) for w in omega0(p))
            rep = lde_scan(6, p, om, kernel=linearize(q0, p.p), num_sigma=601)
            fractions.append(rep.bad_fraction)
        slack = 2.0 / 601
        assert fractions[1] <= fractions[0] + slack
        assert fractions[2] <= fractions[1] + slack

    @settings(max_examples=12, deadline=None)
    @given(theta0=st.floats(0.0, 1.0), m=st.floats(2.0, 3.0),
           shape=st.sampled_from([(1, 1, 4), (1, 1, 6), (1, 2, 4),
                                  (2, 1, 4)]),
           # (0.3, 0): every block is rigid, and its far-pair Green's
           # entries are large enough to set the decay margin
           couplings=st.sampled_from([(0.0, 0.0), (1e-3, 1e-3), (0.3, 0.0)]))
    def test_block_scan_matches_full_matrix_reference(self, theta0, m, shape,
                                                      couplings):
        b, d, M = shape
        eps, delta = couplings
        p = dataclasses.replace(golden_params(b=b, d=d, eps=eps, delta=delta),
                                theta0=theta0, m=m)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p) if delta else None
        report = lde_scan(M, p, om, kernel=kernel, num_sigma=21)
        bad, worst_norm, worst_decay = reference_lde_scan(
            M, p, om, kernel, report.sigma_grid)
        np.testing.assert_array_equal(report.bad_flags, bad)
        got = report.worst_norm
        np.testing.assert_array_equal(np.isinf(got), np.isinf(worst_norm))
        finite = np.isfinite(worst_norm)
        # 1e-9 relative on the norm; past norm 1e4 (far above the norm
        # bound) the min |eig| is compared to 1e-13 absolute instead, the
        # rounding level of a symmetric eigensolver at these matrix norms
        np.testing.assert_allclose(1.0 / got[finite], 1.0 / worst_norm[finite],
                                   rtol=1e-9, atol=1e-13)
        np.testing.assert_array_equal(np.isinf(report.worst_decay_margin),
                                      np.isinf(worst_decay))
        np.testing.assert_allclose(report.worst_decay_margin, worst_decay,
                                   rtol=0.0, atol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(theta0=st.floats(0.0, 1.0), m=st.floats(2.0, 3.0),
           shape=st.sampled_from([(1, 1, 4), (1, 1, 6), (1, 1, 8), (1, 2, 4),
                                  (1, 2, 6), (1, 2, 8), (2, 1, 4), (2, 1, 6),
                                  (2, 1, 8), (2, 2, 4)]),
           couplings=st.sampled_from([(0.0, 0.0), (1e-3, 1e-3), (0.3, 0.0),
                                      (0.05, 0.05)]),
           max_regions=st.sampled_from([linop.MAX_FAMILY_REGIONS, 5]),
           # rho3 = 1: far pairs start exactly at the integer distance M
           thresholds=st.sampled_from([Thresholds(), Thresholds(rho3=1.0)]),
           # gamma = 0.3 < M^-0.2: the derived gamma' < 0 is refused
           gamma=st.sampled_from([1.0, 0.3]))
    # gamma' < 0 at M = 8 with single-site blocks, where a cross bound
    # exp(-gamma' D) would set the margin: refused before any scan work
    @example(theta0=0.5, m=2.5, shape=(1, 1, 8), couplings=(0.0, 0.0),
             max_regions=linop.MAX_FAMILY_REGIONS, thresholds=Thresholds(),
             gamma=0.3)
    def test_family_scan_is_bitwise_the_region_by_region_scan(
            self, theta0, m, shape, couplings, max_regions, thresholds, gamma):
        b, d, M = shape
        eps, delta = couplings
        p = dataclasses.replace(golden_params(b=b, d=d, eps=eps, delta=delta,
                                              gamma=gamma),
                                theta0=theta0, m=m)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p) if delta else None
        if thresholds.bounds(gamma, float(M))[1] <= 0.0:
            with pytest.raises(PreconditionFailed, match="gamma_prime"):
                lde_scan(M, p, om, kernel=kernel, num_sigma=11,
                         thresholds=thresholds, max_regions=max_regions)
            return
        report = lde_scan(M, p, om, kernel=kernel, num_sigma=11,
                          thresholds=thresholds, max_regions=max_regions)
        want = reference_block_scan(M, p, om, kernel, report.sigma_grid,
                                    thresholds, max_regions)
        for name, ref in zip(("bad_flags", "worst_norm",
                              "worst_decay_margin"), want):
            assert getattr(report, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("b, d, M", [(1, 1, 8), (2, 1, 4), (1, 2, 4)])
    def test_one_sigma_chunks_are_bitwise_the_default(self, monkeypatch,
                                                      b, d, M):
        p = golden_params(b=b, d=d)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p)
        calls = {"eigvalsh": [], "eigh": []}
        for name, fn in [(n, getattr(np.linalg, n)) for n in calls]:
            def counted(a, fn=fn, name=name):
                calls[name].append(len(a))
                return fn(a)
            monkeypatch.setattr(np.linalg, name, counted)
        default = lde_scan(M, p, om, kernel=kernel, num_sigma=101)
        n_default = {name: len(c) for name, c in calls.items()}
        monkeypatch.setattr(linop, "BATCH_BYTES", 1)
        single = lde_scan(M, p, om, kernel=kernel, num_sigma=101)
        # the scan has coupled and rigid blocks, and one matrix per chunk
        # splits the coupled blocks' sigmas and the stacked rigid blocks
        for name, c in calls.items():
            assert 0 < n_default[name] < len(c) - n_default[name]
            assert set(c[n_default[name]:]) == {1}
        assert sum(calls["eigh"][n_default["eigh"]:]) == \
            sum(calls["eigh"][:n_default["eigh"]])
        for name in ("bad_flags", "worst_norm", "worst_decay_margin"):
            assert getattr(single, name).tobytes() == \
                getattr(default, name).tobytes()

    @pytest.mark.parametrize("b, d, M, eps, delta", [
        (1, 1, 8, 1e-3, 1e-3), (1, 1, 8, 0.0, 0.0), (1, 2, 4, 0.3, 0.0),
        (2, 1, 6, 0.05, 0.05)])
    def test_one_eigh_per_rigid_block_size(self, monkeypatch, b, d, M, eps,
                                           delta):
        p = golden_params(b=b, d=d, eps=eps, delta=delta)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p) if delta else None
        eigh = np.linalg.eigh
        stacks = []

        def counted(a):
            stacks.append(a.shape[:-1])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = lde_scan(M, p, om, kernel=kernel, num_sigma=21)
        family_stacks = stacks[:]
        reference_block_scan(M, p, om, kernel, report.sigma_grid)
        region_stacks = stacks[len(family_stacks):]
        # one call per rigid block size over the whole family (each fits
        # one chunk here), holding the blocks every region's calls hold
        sizes = [s for _, s in family_stacks]
        assert len(sizes) == len(set(sizes)) < report.n_regions
        assert len(region_stacks) >= report.n_regions
        for s in sizes:
            assert sum(n for n, t in family_stacks if t == s) == \
                sum(n for n, t in region_stacks if t == s)

    @pytest.mark.parametrize("b, d, M", [(1, 1, 8), (2, 1, 4), (1, 2, 4)])
    def test_union_restriction_is_the_region_assembly(self, b, d, M):
        p = golden_params(b=b, d=d)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p)
        family = elementary_region_family(M, b, d, p.resonant_set())
        union = linop._entries_on(
            RegionIndex(linop._family_vectors(family), b), 0.0, om, p, kernel)
        edge = union.vals != 0.0
        at, region, rows, cols, e = linop._restrict_family(
            union.index, union.rows[edge], union.cols[edge], family)
        vals = union.vals[edge][e]
        assert (np.diff(region) >= 0).all() and \
            (region[rows] == region[cols]).all()
        offset = 0
        for r, spec in enumerate(family):
            want = linop._assemble_entries(
                OperatorSpec(spec, 0.0, om, p, kernel))
            n = want.index.size
            assert np.count_nonzero(region == r) == n
            assert (union.index.vectors[at[offset:offset + n]] ==
                    want.index.vectors).all()
            for name in ("mu2", "kw", "diag"):
                assert getattr(union, name)[at[offset:offset + n]].tobytes() \
                    == getattr(want, name).tobytes()
            dense = [np.zeros((n, n)), np.zeros((n, n))]
            mine = region[rows] == r
            dense[0][rows[mine] - offset, cols[mine] - offset] = vals[mine]
            dense[1][want.rows, want.cols] += want.vals
            assert dense[0].tobytes() == dense[1].tobytes()
            offset += n

    @pytest.mark.parametrize("max_regions", [linop.MAX_FAMILY_REGIONS, 6, 3])
    def test_regions_without_rigid_eigenvalues_or_far_pairs(self,
                                                            max_regions):
        # b = 2, d = 1, M = 4: regions 2 and 5 hold coupled blocks only, so
        # their runs of rigid eigenvalues are empty, in the middle of the
        # family or (3 regions) at its end; many others have no rigid far pair
        p = golden_params(b=2, d=1, eps=0.05, delta=0.05)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p)
        report = lde_scan(4, p, om, kernel, num_sigma=41,
                          max_regions=max_regions)
        family = linop._region_family(4, 2, 1, p.resonant_set(), max_regions)
        (plan,) = family.plans.values()
        n_zeta, n_pair = np.diff(plan.zeta_cut), np.diff(plan.pair_cut)
        assert np.flatnonzero(n_zeta == 0).tolist() == \
            [r for r in (2, 5) if r < max_regions]
        assert ((n_pair == 0) & (n_zeta > 0)).any()
        want = reference_block_scan(4, p, om, kernel, report.sigma_grid,
                                    max_regions=max_regions)
        for name, ref in zip(("bad_flags", "worst_norm",
                              "worst_decay_margin"), want):
            assert getattr(report, name).tobytes() == ref.tobytes(), name

    def test_nonpositive_derived_gamma_prime_is_refused(self, monkeypatch):
        # gamma - M^-0.2 = 0.3 - 8^-0.2 < 0: refused before the family is
        # built; an explicit positive gamma_prime scans the same point
        p = golden_params(eps=1e-3, delta=1e-3, gamma=0.3)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p)
        with monkeypatch.context() as patch:
            patch.setattr(linop, "_region_family", None)
            with pytest.raises(PreconditionFailed, match="gamma_prime"):
                lde_scan(8, p, om, kernel, num_sigma=21)
        thresholds = Thresholds(gamma_prime=0.2)
        report = lde_scan(8, p, om, kernel, num_sigma=21,
                          thresholds=thresholds)
        want = reference_block_scan(8, p, om, kernel, report.sigma_grid,
                                    thresholds)
        for name, ref in zip(("bad_flags", "worst_norm",
                              "worst_decay_margin"), want):
            assert getattr(report, name).tobytes() == ref.tobytes(), name

    def test_family_is_subsampled_and_deduplicated(self):
        fam = elementary_region_family(6, 1, 1, None, max_regions=64)
        assert 1 < len(fam) <= 64
        keys = {f.members() for f in fam}
        assert len(keys) == len(fam)

    def test_default_window_covers_resonances(self, params):
        om = omega0(params)
        lo, hi = default_sigma_window(8, params, om)
        worst = 4 * abs(om[0]) + mu((0,), params)
        assert lo < -worst and hi > worst


class TestGeometryMemo:
    """The family is kept per key, the index per region and the assembly
    pattern per index; what is computed from them must not change."""

    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 2), d=st.integers(1, 2),
           use_excluded=st.booleans(),
           draws=st.lists(st.tuples(
               st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(2.0, 3.0),
               st.sampled_from([0.0, 0.05]), st.sampled_from([0.0, 0.03]),
               st.one_of(st.none(), st.integers(0, 2**32 - 1))),
               min_size=2, max_size=6))
    def test_entries_on_a_reused_index_are_those_of_a_fresh_one(
            self, b, d, use_excluded, draws):
        # one index through every draw; kernels of different support meet
        # the patterns that the kernels before them left on it
        p0 = golden_params(b=b, d=d)
        region = cube(2, b, d, p0.resonant_set() if use_excluded else None)
        reused = index_map(region)
        for sigma, theta0, m, eps, delta, seed in draws:
            p = dataclasses.replace(p0, theta0=theta0, m=m, eps=eps,
                                    delta=delta)
            om = tuple(float(w) for w in omega0(p))
            kernel = None if seed is None else random_lattice_kernel(seed, b, d)
            got = linop._entries_on(reused, sigma, om, p, kernel)
            want = linop._entries_on(RegionIndex(region.vectors(), b), sigma,
                                     om, p, kernel)
            for name, a, z in zip(got._fields[1:], got[1:], want[1:]):
                assert a.tobytes() == z.tobytes(), name
        assert index_map(region) is reused

    def test_patterns_past_the_limit_are_rebuilt(self, monkeypatch):
        monkeypatch.setattr(lattice, "PATTERN_LIMIT", 1)
        p = golden_params(b=2, d=1, eps=0.05, delta=0.03)
        om = tuple(float(w) for w in omega0(p))
        region = cube(2, 2, 1)
        reused = index_map(region)
        for seed in (1, 2, 1, 3, 2):
            kernel = random_lattice_kernel(seed, 2, 1)
            got = linop._entries_on(reused, 0.3, om, p, kernel)
            want = linop._entries_on(RegionIndex(region.vectors(), 2), 0.3,
                                     om, p, kernel)
            assert len(reused._pairs) == 1
            for a, z in zip(got[1:], want[1:]):
                assert a.tobytes() == z.tobytes()

    def test_kept_arrays_are_read_only(self):
        p = golden_params(eps=0.05, delta=0.03)
        om = tuple(float(w) for w in omega0(p))
        lde_scan(6, p, om, linearize(initial_field(p), p.p), num_sigma=5)
        for region in elementary_region_family(6, 1, 1, p.resonant_set()):
            green(OperatorSpec(region, 0.3, om, p, None), scale=6.0)
            idx = index_map(region)
            kept = [idx.vectors, idx._table, *(v[1] for v in
                                                 idx._distinct.values())]
            kept += [a for pattern in idx._pairs.values() for a in pattern]
            assert len(kept) > 2 and not any(a.flags.writeable for a in kept)
        plans = linop._region_family(6, 1, 1, p.resonant_set(),
                                     linop.MAX_FAMILY_REGIONS).plans
        kept = [a for plan in plans.values()
                for part in (plan, *plan.stacks, *plan.coupled)
                for a in part if isinstance(a, np.ndarray)]
        assert len(plans) == 1 and len(kept) > 20
        assert not any(a.flags.writeable for a in kept)

    @pytest.mark.parametrize("b, d, M", [(1, 1, 8), (2, 1, 4), (1, 2, 4)])
    def test_scan_is_bitwise_the_same_with_a_cold_and_a_warm_memo(self, b, d,
                                                                  M):
        def scan(theta0, m):
            p = dataclasses.replace(golden_params(b=b, d=d), theta0=theta0,
                                    m=m)
            om = tuple(float(w) for w in omega0(p))
            return lde_scan(M, p, om, linearize(initial_field(p), p.p),
                            num_sigma=21)

        linop._region_family.cache_clear()
        cold = scan(0.6, 2.7)
        scan(0.2, 2.2)
        hits = linop._region_family.cache_info().hits
        warm = scan(0.6, 2.7)
        assert linop._region_family.cache_info().hits == hits + 1
        for name in ("bad_flags", "worst_norm", "worst_decay_margin"):
            assert getattr(warm, name).tobytes() == \
                getattr(cold, name).tobytes(), name

    @pytest.mark.parametrize("b, d, M", [(1, 1, 8), (2, 1, 4), (1, 2, 4)])
    def test_plans_are_kept_per_pattern_and_bitwise_those_of_a_cold_memo(
            self, b, d, M):
        # (theta0, m, amplitude, eps, delta, thresholds): the second draw
        # changes only values and reuses the first's plan; the uncoupled,
        # Laplacian-only (every block rigid) and rho3 = 1 scans each need
        # their own, and the coupled scans between them take no stale one
        draws = [(0.6, 2.7, 1.0, 0.05, 0.05, Thresholds()),
                 (0.2, 2.2, 1.7, 0.05, 0.05, Thresholds()),
                 (0.6, 2.7, 1.0, 0.0, 0.0, Thresholds()),
                 (0.4, 2.4, 1.3, 0.05, 0.05, Thresholds()),
                 (0.6, 2.7, 1.0, 0.3, 0.0, Thresholds()),
                 (0.2, 2.2, 1.7, 0.05, 0.05, Thresholds()),
                 (0.6, 2.7, 1.0, 0.05, 0.05, Thresholds(rho3=1.0))]

        def scan(theta0, m, amplitude, eps, delta, thresholds):
            p = dataclasses.replace(
                golden_params(b=b, d=d, eps=eps, delta=delta,
                              amplitudes=(amplitude,) * b),
                theta0=theta0, m=m)
            om = tuple(float(w) for w in omega0(p))
            kernel = linearize(initial_field(p), p.p) if delta else None
            return lde_scan(M, p, om, kernel, num_sigma=21,
                            thresholds=thresholds)

        family = linop._region_family(M, b, d, golden_params(
            b=b, d=d).resonant_set(), linop.MAX_FAMILY_REGIONS)
        warm, kept = [], []
        for draw in draws:
            warm.append(scan(*draw))
            kept.append(list(family.plans.values()))
        # (at b = 2 the kernel's support, and so the plan, may move with the
        # values of the later coupled draws)
        ids = [{id(plan) for plan in k} for k in kept]
        assert len(ids[0]) == 1 and ids[1] == ids[0] and len(ids[2]) == 2
        assert len(ids[4]) > len(ids[3]) and len(ids[6]) > len(ids[5])
        for draw, got in zip(draws, warm):
            linop._region_family.cache_clear()
            cold = scan(*draw)
            for name in ("bad_flags", "worst_norm", "worst_decay_margin"):
                assert getattr(got, name).tobytes() == \
                    getattr(cold, name).tobytes(), name

    def test_a_new_partition_by_k_omega_gets_its_own_plan(self):
        # the same pattern at omega = 0: every site has k.omega = 0, so the
        # coupled blocks turn rigid
        p = golden_params(eps=0.05, delta=0.05)
        kernel = linearize(initial_field(p), p.p)
        lde_scan(6, p, tuple(float(w) for w in omega0(p)), kernel,
                 num_sigma=21)
        warm = lde_scan(6, p, (0.0,), kernel, num_sigma=21)
        plans = linop._region_family(6, 1, 1, p.resonant_set(),
                                     linop.MAX_FAMILY_REGIONS).plans
        assert sorted(len(plan.coupled) for plan in plans.values()) == [0, 1]
        linop._region_family.cache_clear()
        cold = lde_scan(6, p, (0.0,), kernel, num_sigma=21)
        for name in ("bad_flags", "worst_norm", "worst_decay_margin"):
            assert getattr(warm, name).tobytes() == \
                getattr(cold, name).tobytes(), name

    def test_plans_past_the_limit_are_rebuilt(self, monkeypatch):
        monkeypatch.setattr(linop, "FAMILY_MEMO", 1)
        reports = []
        for coupling in (0.05, 0.0, 0.05, 0.0):
            p = golden_params(eps=coupling, delta=coupling)
            om = tuple(float(w) for w in omega0(p))
            kernel = linearize(initial_field(p), p.p) if coupling else None
            reports.append(lde_scan(6, p, om, kernel, num_sigma=21))
            family = linop._region_family(6, 1, 1, p.resonant_set(),
                                          linop.MAX_FAMILY_REGIONS)
            assert len(family.plans) == 1
        for a, z in zip(reports[:2], reports[2:]):
            assert a.worst_norm.tobytes() == z.worst_norm.tobytes()
            assert a.worst_decay_margin.tobytes() == \
                z.worst_decay_margin.tobytes()

    def test_four_and_five_argument_calls_share_the_family(self):
        p = golden_params()
        family = elementary_region_family(6, 1, 1, p.resonant_set())
        assert elementary_region_family(
            6, 1, 1, p.resonant_set(), linop.MAX_FAMILY_REGIONS) is family
        assert elementary_region_family(
            6, 1, 1, excluded=p.resonant_set()) is family
        assert linop._region_family.cache_info().currsize == 1

    def test_failing_family_raises_on_every_call(self):
        maxsize = linop._region_family.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 100
        # 61^4 candidate sites per region: above MATERIALIZE_LIMIT
        for _ in range(2):
            with pytest.raises(RegionTooLarge):
                elementary_region_family(60, 2, 2)
            with pytest.raises(ValueError):
                elementary_region_family(1, 1, 1)
        assert linop._region_family.cache_info().currsize == 0

    def test_each_coupled_block_is_inverted_once_per_sigma(self, monkeypatch):
        p = golden_params(eps=0.05, delta=0.05)
        om = tuple(float(w) for w in omega0(p))
        kernel = linearize(initial_field(p), p.p)
        seen = []
        # the scan solves for the far-pair columns; the reference inverts
        for name in ("inv", "solve"):
            def recorded(a, *args, fn=getattr(np.linalg, name)):
                seen.extend(m.tobytes() for m in a)
                return fn(a, *args)

            monkeypatch.setattr(np.linalg, name, recorded)
        report = lde_scan(8, p, om, kernel, num_sigma=41)
        ours = len(seen)
        reference_block_scan(8, p, om, kernel, report.sigma_grid)
        # regions share coupled blocks: inverted once, each block and sigma
        assert 0 < ours == len(set(seen[:ours])) < len(seen) - ours


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 4), stack=st.lists(st.integers(1, 3), max_size=2),
       n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_pair_distances_is_the_broadcast_reference(dim, stack, n, seed):
    vecs = np.random.default_rng(seed).integers(-9, 10, size=(*stack, n, dim))
    got, want = linop._pair_distances(vecs), pair_distances(vecs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                 st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=25),
       dim=st.integers(1, 2))
def test_cross_reach_is_the_farthest_cross_pair(points, dim):
    # rows (group, block within the group, vector); lo and hi bound each
    # block's points, against every pair of points in two blocks
    rows = np.array(points)
    group, vecs = rows[:, 0], rows[:, 2:2 + dim]
    block = rows[:, 1] + 4 * group
    ids, block_of = np.unique(block, return_inverse=True)
    lo = np.array([vecs[block_of == i].min(axis=0) for i in range(len(ids))])
    hi = np.array([vecs[block_of == i].max(axis=0) for i in range(len(ids))])
    want = np.zeros(3, dtype=int)
    for x in range(len(rows)):
        for y in range(len(rows)):
            if group[x] == group[y] and block[x] != block[y]:
                want[group[x]] = max(want[group[x]],
                                     np.abs(vecs[x] - vecs[y]).max())
    got = linop._cross_reach(lo, hi, ids // 4, 3)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30),
       pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                      max_size=40))
def test_components_match_csgraph(n, pairs):
    # isolated nodes, no edges at all and self-loops all occur
    edges = np.array([(i, j) for i, j in pairs if i < n and j < n],
                     dtype=int).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, want = connected_components(graph, directed=False)
    np.testing.assert_array_equal(linop._components(n, rows, cols), want)


class TestThresholds:
    @pytest.mark.parametrize("field, value", [
        ("rho1", math.nan), ("rho2", 0.0), ("rho3", math.inf),
        ("gamma_prime", -1.0),
    ])
    def test_out_of_range_field_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            Thresholds(**{field: value})
