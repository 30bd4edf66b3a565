import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpwave import (Certificate, FrequencyCombination, InvalidAnchors,
                    ModelParams, NotApplicable, InsufficientResolution,
                    PreconditionFailed, admissible_m_scan, check_alpha_dc,
                    check_theta_dc, cluster_count, cluster_scan, d_mu_dm, mu,
                    omega0, separation_certificate, sublevel_measure,
                    transversality_margin, wronskian_det, wronskian_matrix)
from qpwave.spectrum import (SURVIVOR_SLACK, _mu_array, _survivors,
                             derivative_prefactor, diophantine_certificates)

from certify_reference import (reference_admissible_m_scan,
                               reference_cluster_scan,
                               reference_separation_certificate)
from conftest import GOLDEN_ALPHA, GOLDEN_MEAN, PRESET_THETA0, golden_params

TWO_PI = 2.0 * math.pi


def simple_params(alpha, theta0, m=2.5, d=1, **kw):
    alpha = (alpha,) * d if np.isscalar(alpha) else tuple(alpha)
    defaults = dict(b=1, d=d, p=2, eps=1e-3, delta=1e-3,
                    anchors=((0,) * d,), amplitudes=(1.0,))
    defaults.update(kw)
    return ModelParams(m=m, alpha=alpha, theta0=theta0, **defaults)


class TestMu:
    def test_zero_phase_m3(self):
        p = simple_params(alpha=0.0, theta0=0.0, m=3.0)
        assert mu((0,), p) == pytest.approx(2.0, abs=1e-15)

    def test_pi_phase_m2(self):
        p = simple_params(alpha=0.0, theta0=0.5, m=2.0)
        assert mu((0,), p) == pytest.approx(1.0, abs=1e-15)

    def test_range_for_m_in_2_3(self):
        p = golden_params()
        for m in np.linspace(2.0, 3.0, 21):
            for n in range(-10, 11):
                v = mu((n,), p, m=m)
                assert 1.0 <= v <= 2.0

    def test_monotone_in_m(self):
        p = golden_params()
        values = [mu((3,), p, m=m) for m in np.linspace(2.0, 3.0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_periodic_in_phase(self):
        # alpha = 1/2 makes the phase of n and n+4 differ by 4*pi
        p = simple_params(alpha=0.5, theta0=0.3)
        assert mu((1,), p) == pytest.approx(mu((5,), p), abs=1e-15)


class TestOmega0:
    def test_single_anchor(self):
        p = simple_params(alpha=0.0, theta0=0.0, m=3.0)
        assert omega0(p) == pytest.approx([2.0])

    def test_two_anchors_phases_zero_and_pi(self):
        # anchors at phases 0 and pi: alpha = 1/2, theta0 = 0, anchors 0 and 1
        p = ModelParams(b=2, d=1, p=2, m=2.0, eps=0.0, delta=1e-3,
                        alpha=(0.5,), theta0=0.0, anchors=((0,), (1,)),
                        amplitudes=(1.0, 1.0))
        assert omega0(p) == pytest.approx([math.sqrt(3.0), 1.0])

    def test_permuting_anchors_permutes_components(self):
        p1 = golden_params(b=2, anchors=((0,), (1,)), amplitudes=(1.0, 1.5))
        p2 = golden_params(b=2, anchors=((1,), (0,)), amplitudes=(1.5, 1.0))
        assert omega0(p1)[::-1] == pytest.approx(omega0(p2))

    def test_duplicate_anchor_rejected(self):
        with pytest.raises(InvalidAnchors):
            golden_params(b=2, anchors=((0,), (0,)), amplitudes=(1.0, 1.0))


class TestDiophantine:
    def test_golden_mean_passes_L50(self):
        cert = check_alpha_dc((GOLDEN_MEAN,), L=50, c_star=1e-4)
        assert cert.passed
        # oracle: plain python exhaustive re-scan
        worst = min(abs((((n / 2.0) * GOLDEN_MEAN * TWO_PI + math.pi) % TWO_PI)
                        - math.pi)
                    for n in range(-100, 101) if n != 0)
        assert cert.margin == pytest.approx(worst - 1e-4, abs=1e-12)

    def test_rational_alpha_fails(self):
        # alpha = 1/3: n = 6 puts (n/2) alpha on the torus zero exactly
        cert = check_alpha_dc((1.0 / 3.0,), L=3, c_star=1e-4)
        assert not cert.passed
        assert cert.margin < 0

    def test_small_L_tight_threshold_fails(self):
        # with the 2*pi scaling the attained minimum at alpha = 1/4 is pi/4
        cert = check_alpha_dc((0.25,), L=1, c_star=0.9)
        assert not cert.passed
        assert cert.margin == pytest.approx(math.pi / 4 - 0.9, abs=1e-12)

    def test_power_mode_golden(self):
        cert = check_alpha_dc((GOLDEN_MEAN,), L=20, c_star=1e-3, mode="power")
        assert cert.passed

    def test_theta_dc_preset_passes(self):
        cert = check_theta_dc(PRESET_THETA0, (GOLDEN_MEAN,), L=10, c_star=1e-2)
        assert cert.passed

    def test_theta_zero_fails_at_n0(self):
        cert = check_theta_dc(0.0, (GOLDEN_MEAN,), L=5, c_star=1e-2)
        assert not cert.passed
        worst_index, worst_value = cert.witnesses[0]
        assert tuple(worst_index) == (0,)
        assert worst_value == 0.0

    def test_tightening_shrinks_pass_set(self):
        for theta in (0.11, 0.237, 0.41, PRESET_THETA0):
            loose = check_theta_dc(theta, (GOLDEN_MEAN,), L=5, c_star=1e-3)
            tight = check_theta_dc(theta, (GOLDEN_MEAN,), L=5, c_star=1e-1)
            if tight.passed:
                assert loose.passed

    def test_theta_power_mode_uses_scale_threshold(self):
        cert = check_theta_dc(PRESET_THETA0, (GOLDEN_MEAN,), L=5,
                              c_star=0.5, mode="power")
        # threshold is L^(-3d) = 0.008, not the (failing) c_star = 0.5
        assert cert.passed
        fixed = check_theta_dc(PRESET_THETA0, (GOLDEN_MEAN,), L=5,
                               c_star=0.5, mode="fixed")
        assert not fixed.passed


    def test_equal_components_refused_fixture_alpha_certified(self):
        # n = (1, -1) annihilates (g, g); the d = 2 fixture pairs g with
        # sqrt(2) - 1 and passes at the scales the d = 2 tests use
        bad = check_alpha_dc((GOLDEN_MEAN, GOLDEN_MEAN), L=1, c_star=1e-4)
        assert not bad.passed
        assert bad.witnesses[0][1] == 0.0
        assert abs(sum(bad.witnesses[0][0])) == 0
        alpha = golden_params(d=2).alpha
        for L in (2, 4, 5):
            assert check_alpha_dc(alpha, L=L, c_star=0.008).passed
            assert check_alpha_dc(alpha, L=L, c_star=float(L) ** -6).passed


class TestSeparation:
    def test_alpha_zero_precondition_fails(self):
        p = simple_params(alpha=0.0, theta0=0.3)
        with pytest.raises(PreconditionFailed):
            separation_certificate(p, L=5, c_star=1e-2)

    def test_refused_again_with_its_certificates_kept(self):
        p = simple_params(alpha=0.0, theta0=0.3)
        alpha_cert, _ = diophantine_certificates(p, 5, 1e-2)
        assert not alpha_cert.passed
        for _ in range(2):
            with pytest.raises(PreconditionFailed):
                separation_certificate(p, L=5, c_star=1e-2)
            with pytest.raises(PreconditionFailed):
                admissible_m_scan(p, L=5, eta=1e-3,
                                  m_grid=np.linspace(2, 3, 11))

    def test_certified_point_beats_thresholds(self):
        p = golden_params()
        cert = separation_certificate(p, L=10, c_star=1e-2)
        assert cert.passed
        # brute-force oracle over all ordered pairs
        mus = [mu((n,), p) for n in range(-10, 11)]
        best = min(abs(a - b) for i, a in enumerate(mus)
                   for j, b in enumerate(mus) if i != j)
        best2 = min(abs(a * a - b * b) for i, a in enumerate(mus)
                    for j, b in enumerate(mus) if i != j)
        assert best >= (2.0 / math.pi**2) * 1e-4
        assert best2 >= (8.0 / math.pi**2) * 1e-4

    def test_square_difference_bounded_by_four_times_difference(self):
        p = golden_params()
        mus = [mu((n,), p) for n in range(-8, 9)]
        for a in mus:
            for b in mus:
                assert abs(a * a - b * b) <= 4.0 * abs(a - b) + 1e-15

    def test_degenerate_half_theta_reported_honestly(self):
        # theta0 = 1/2 makes mu_n = mu_{-n} exactly (the separation identity
        # involves the doubled phase 2*theta0 + (n+n').alpha, which the plain
        # theta certificate does not control): the Diophantine certificates
        # pass but the separation certificate reports a negative margin.
        p = golden_params().__class__(
            b=1, d=1, p=2, m=2.5, eps=1e-3, delta=1e-3,
            alpha=(GOLDEN_MEAN,), theta0=0.5, anchors=((0,),),
            amplitudes=(1.0,))
        assert check_theta_dc(0.5, (GOLDEN_MEAN,), L=5, c_star=1e-2).passed
        assert mu((3,), p) == mu((-3,), p)
        cert = separation_certificate(p, L=5, c_star=1e-2)
        assert not cert.passed
        assert cert.margin < 0


class TestMuDerivatives:
    def test_prefactors(self):
        assert derivative_prefactor(1) == 0.5
        assert derivative_prefactor(2) == -0.25
        assert derivative_prefactor(3) == 0.375

    def test_first_derivative_at_mu2(self):
        p = simple_params(alpha=0.0, theta0=0.0, m=3.0)  # mu = 2
        assert d_mu_dm((0,), 1, p) == pytest.approx(0.25, abs=1e-15)

    def test_second_derivative_at_mu1(self):
        p = simple_params(alpha=0.0, theta0=0.5, m=2.0)  # mu = 1
        assert d_mu_dm((0,), 2, p) == pytest.approx(-0.25, abs=1e-15)

    def test_matches_central_finite_differences(self):
        # Central-difference oracle with Richardson extrapolation; the step
        # is chosen per order to balance truncation against roundoff (a fixed
        # step of 1e-5 drowns orders >= 3 in f64 roundoff).
        p = golden_params()
        steps = {1: 1e-5, 2: 1e-4, 3: 1e-2, 4: 2.5e-2}

        def stencil(n, order, h):
            out = 0.0
            for j in range(order + 1):
                out += ((-1) ** j * math.comb(order, j)
                        * mu(n, p, m=p.m + (order / 2.0 - j) * h))
            return out / h ** order

        for n in [(0,), (3,), (-7,)]:
            for order in (1, 2, 3, 4):
                h = steps[order]
                fd = (4.0 * stencil(n, order, h / 2)
                      - stencil(n, order, h)) / 3.0
                closed = d_mu_dm(n, order, p)
                assert abs(closed - fd) <= 1e-6 * max(1.0, abs(closed))


class TestWronskian:
    def test_beta1(self):
        p = simple_params(alpha=0.0, theta0=0.0, m=3.0)  # v = 2
        value, degenerate = wronskian_det([(0,)], p.m, p)
        assert not degenerate
        assert value == pytest.approx(0.25, abs=1e-15)  # lambda_1 * v^-1

    def test_beta2_against_direct_determinant(self):
        # phases pi and 0 at m = 2 give v = (1, sqrt(3))
        p = ModelParams(b=2, d=1, p=2, m=2.0, eps=0.0, delta=1e-3,
                        alpha=(0.5,), theta0=0.0, anchors=((1,), (0,)),
                        amplitudes=(1.0, 1.0))
        sites = [(1,), (0,)]
        value, degenerate = wronskian_det(sites, p.m, p)
        direct = float(np.linalg.det(wronskian_matrix(sites, p.m, p)))
        assert not degenerate
        assert value == pytest.approx(direct, rel=1e-12)

    def test_beta2_hand_value(self):
        # the 2x2 derivative matrix at v = (1, 2) is
        # [[1/2, 1/4], [-1/4, -1/32]] with determinant 3/64
        hand = np.array([[0.5 * 1.0, 0.5 * 0.5],
                         [-0.25 * 1.0, -0.25 * 2.0 ** -3]])
        assert np.linalg.det(hand) == pytest.approx(3.0 / 64.0, rel=1e-12)

    def test_repeated_site_degenerate(self):
        p = golden_params()
        value, degenerate = wronskian_det([(0,), (0,)], p.m, p)
        assert degenerate
        assert value == 0.0


class TestTransversality:
    def test_harmonic_single_frequency_lower_bound(self):
        p = golden_params()
        cert = transversality_margin("harmonic", (1,), p,
                                     np.linspace(2.0, 3.0, 101))
        # d(k.w0)/dm = 1/(2 mu) >= 1/4 on m in [2,3]
        assert cert.passed
        assert cert.margin >= 0.25 - 1e-12

    def test_harmonic_zero_k_not_applicable(self):
        with pytest.raises(NotApplicable):
            transversality_margin("harmonic", (0,), golden_params(), [2.5])

    def test_shifted_site_in_resonant_set_not_applicable(self):
        p = golden_params()
        with pytest.raises(NotApplicable):
            transversality_margin("shifted", (1,), p, [2.5], n=(0,))

    def test_shifted_anchored_reduces_to_harmonic(self):
        p = golden_params()
        m_grid = np.linspace(2.0, 3.0, 51)
        shifted = FrequencyCombination.build("shifted", (2,), p, n=(0,))
        harmonic = FrequencyCombination.build("harmonic", (3,), p)
        assert shifted.ktilde == harmonic.ktilde
        assert np.allclose(shifted.values(m_grid), harmonic.values(m_grid))

    def test_difference_anchor_pair_excluded_k(self):
        p = golden_params(b=2, anchors=((0,), (1,)), amplitudes=(1.0, 1.0))
        with pytest.raises(NotApplicable):
            transversality_margin("difference", (-1, 1), p, [2.5],
                                  n=(0,), n_prime=(1,))

    def test_difference_free_pair_uses_b_plus_2_orders(self):
        p = golden_params()
        combo = FrequencyCombination.build("difference", (1,), p,
                                           n=(2,), n_prime=(3,))
        assert combo.r == p.b + 2
        assert combo.ktilde == (1, 1, -1)


class TestSublevelMeasure:
    def test_linear_function(self):
        res = sublevel_measure(lambda m: m - 2.5, eta=0.01, r=1, tau=0.5,
                               derivative_bound=1.0, grid_points=200_000)
        assert res.empirical == pytest.approx(0.02, abs=2e-5)
        assert res.empirical <= res.bound

    def test_harmonic_empirical_below_bound(self):
        p = golden_params()
        combo = FrequencyCombination.build("harmonic", (1,), p)
        tau_cert = transversality_margin("harmonic", (1,), p,
                                         np.linspace(2.0, 3.0, 201))
        res = sublevel_measure(combo, eta=1e-3, r=1, tau=min(tau_cert.margin, 0.9),
                               derivative_bound=combo.derivative_sup_bound(2))
        assert res.empirical <= res.bound

    def test_monotone_in_eta(self):
        p = golden_params()
        combo = FrequencyCombination.build("harmonic", (1,), p)
        A = combo.derivative_sup_bound(2)
        values = [sublevel_measure(combo, eta, 1, 0.2, A).empirical
                  for eta in (1e-2, 1e-3, 1e-4)]
        assert values[0] >= values[1] >= values[2]

    def test_grid_too_coarse_raises(self):
        with pytest.raises(InsufficientResolution):
            sublevel_measure(lambda m: m - 2.5, eta=1e-4, r=1, tau=0.5,
                             derivative_bound=1.0, grid_points=100)

    def test_bad_tau_raises(self):
        with pytest.raises(InsufficientResolution):
            sublevel_measure(lambda m: m - 2.5, eta=1e-2, r=1, tau=0.0,
                             derivative_bound=1.0)


class TestAdmissibleMScan:
    def test_uncertified_pair_raises(self):
        p = simple_params(alpha=0.0, theta0=0.3)
        with pytest.raises(PreconditionFailed):
            admissible_m_scan(p, L=5, eta=1e-3, m_grid=np.linspace(2, 3, 11))

    @pytest.mark.parametrize("L", [1, 0, -2])
    def test_scale_below_two_names_L(self, L):
        with pytest.raises(PreconditionFailed, match=f"L = {L}"):
            admissible_m_scan(golden_params(), L=L, eta=0.01,
                              m_grid=np.linspace(2.0, 3.0, 11))

    def test_certified_list_nonempty(self):
        p = golden_params()
        scan = admissible_m_scan(p, L=5, eta=1e-3,
                                 m_grid=np.linspace(2.0, 3.0, 2001))
        assert len(scan.certified_m) > 0
        # spot-check one certified m with an independent python loop
        m = float(scan.certified_m[len(scan.certified_m) // 2])
        pm = p.with_m(m)
        om = omega0(pm)[0]
        mus = [mu((n,), pm) for n in range(-5, 6)]
        assert all(abs(k * om) > 1e-3 for k in range(1, 11))
        for k in range(-5, 6):
            for i, n in enumerate(range(-5, 6)):
                if abs(k) == 1 and n == 0:
                    continue
                assert abs(k * om + mus[i]) > 1e-3

    def test_eta_zero_passes_almost_everywhere(self):
        p = golden_params()
        scan = admissible_m_scan(p, L=3, eta=0.0,
                                 m_grid=np.linspace(2.0, 3.0, 101))
        assert scan.failing_fraction == 0.0

    def test_shrinking_eta_enlarges_certified_set(self):
        p = golden_params()
        grid = np.linspace(2.0, 3.0, 301)
        wide = admissible_m_scan(p, L=4, eta=1e-2, m_grid=grid)
        narrow = admissible_m_scan(p, L=4, eta=1e-4, m_grid=grid)
        assert set(wide.certified_m).issubset(set(narrow.certified_m))

    def test_difference_condition_walks_pairs_row_by_row(self):
        # peak memory stays well below one (Ns^2, nm) array of the pair
        # differences (Ns = 81 space sites at d = 2, L = 4)
        p = golden_params(d=2)
        n_sites, nm = 9 ** 2, 201
        tracemalloc.start()
        try:
            scan = admissible_m_scan(p, L=4, eta=1e-3,
                                     m_grid=np.linspace(2.0, 3.0, nm))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "difference" in scan.condition_fail_fractions
        assert peak < n_sites**2 * nm * 8 / 4

    def test_theoretical_bound_vacuous_at_desk_scale(self):
        p = golden_params()
        scan = admissible_m_scan(p, L=5, eta=1e-3,
                                 m_grid=np.linspace(2.0, 3.0, 51))
        assert scan.theoretical_bound > 1.0
        assert not scan.theoretical_bound_feasible

    def test_anchor_outside_box_refused(self):
        p = golden_params(b=2, anchors=((0,), (7,)))
        with pytest.raises(PreconditionFailed, match=r"\(7,\).*L = 5"):
            admissible_m_scan(p, L=5, eta=1e-3, m_grid=[2.5])

    def test_theoretical_bound_past_float_range_is_infinite(self):
        # L^(50 d b^2) = 5^450 alone overflows a float
        scan = admissible_m_scan(golden_params(b=3), L=5, eta=1e-3,
                                 m_grid=np.linspace(2.0, 3.0, 5))
        assert scan.theoretical_bound == math.inf
        assert not scan.theoretical_bound_feasible


# largest (2L+1)^d (4L+1)^b, box sites times the k of the difference
# condition, that a drawn case reaches: the reference stays fast
CERTIFY_WORK = 20_000


@st.composite
def certify_cases(draw):
    """(params, L, eta, m grid, c_star) with b <= 3, L <= 5 at d = 1 and
    L <= 3 at d = 2, anchors inside the box and theta0 = 1/2 among the
    phases (there mu_n = mu_-n, so the separation gaps tie at 0).

    Ties fail the difference condition at every m, and so does a large eta;
    a 1-point grid or b = 1 seldom tells pair orderings apart.  Such draws
    stay a minority, so that most cases can catch a dropped pair or k."""
    b, d = draw(st.sampled_from([2, 3, 1])), draw(st.integers(1, 2))
    top = max(L for L in range(2, 6 if d == 1 else 4)
              if (2 * L + 1) ** d * (4 * L + 1) ** b <= CERTIFY_WORK)
    L = draw(st.integers(2, top))    # L = 1 makes c_star = L^(-3d) = 1
    anchors = draw(st.lists(st.tuples(*[st.integers(-L, L)] * d),
                            min_size=b, max_size=b, unique=True))
    theta0 = draw(st.one_of(st.floats(0.05, 0.95), st.just(PRESET_THETA0),
                            st.just(0.5)))
    params = ModelParams(b=b, d=d, p=2, m=draw(st.floats(2.0, 3.0)),
                         eps=1e-3, delta=1e-3, alpha=GOLDEN_ALPHA[:d],
                         theta0=theta0, anchors=anchors, amplitudes=(1.0,) * b)
    eta = draw(st.sampled_from([1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 0.0, 0.1]))
    m_grid = np.linspace(draw(st.floats(2.0, 2.5)), draw(st.floats(2.5, 3.0)),
                         draw(st.one_of(st.integers(100, 200),
                                        st.integers(1, 200))))
    return params, L, eta, m_grid, draw(st.sampled_from([1e-2, 1e-3]))


def _outcome(fn, *args):
    """The fields of fn's result as exact text (the array as bytes), or the
    PreconditionFailed it raises."""
    try:
        result = fn(*args)
    except PreconditionFailed as exc:
        return "PreconditionFailed", str(exc)
    if isinstance(result, Certificate):
        return repr(result)
    return (result.certified_m.dtype.str, result.certified_m.tobytes(),
            repr(result.certificate), repr(result.condition_fail_fractions),
            repr(result.failing_fraction), repr(result.theoretical_bound),
            result.theoretical_bound_feasible)


def _certify_default(b, anchors):
    """The certify scan's defaults (L = 5, eta = 1e-3, 2001 m points)."""
    params = ModelParams(b=b, d=1, p=2, m=2.5, eps=1e-3, delta=1e-3,
                         alpha=GOLDEN_ALPHA[:1], theta0=PRESET_THETA0,
                         anchors=anchors, amplitudes=(1.0,) * b)
    return params, 5, 1e-3, np.linspace(2.0, 3.0, 2001), 1e-2


class TestCertifyReference:
    @settings(max_examples=60, deadline=None)
    @given(case=certify_cases())
    @example(case=_certify_default(1, ((0,),)))
    # k = e_2 - e_1 gives |k.omega0| <= hi - lo, so the bound never clears
    # it, and the both-anchored exclusion sits on a surviving cell
    @example(case=_certify_default(2, ((0,), (1,))))
    def test_sorted_gaps_and_unordered_pairs_match_pair_matrices(self, case):
        params, L, eta, m_grid, c_star = case
        assert _outcome(separation_certificate, params, L, c_star) == \
            _outcome(reference_separation_certificate, params, L, c_star)
        assert _outcome(admissible_m_scan, params, L, eta, m_grid) == \
            _outcome(reference_admissible_m_scan, params, L, eta, m_grid)

    def test_ties_at_eta_fail_as_in_the_reference(self):
        # eta equal to (1)'s gap or to the smallest mu ties k = 0 of (4) or
        # (3), which the scan reads from those minima: a tie fails
        params, L, _, _, _ = _certify_default(1, ((0,),))
        grid = np.array([2.5])
        mus = _mu_array(np.arange(-L, L + 1.0)[:, None], params, grid)[:, 0]
        for eta, kind in ((np.diff(np.sort(mus)).min(), "difference"),
                          (mus.min(), "shifted")):
            assert _outcome(admissible_m_scan, params, L, eta, grid) == \
                _outcome(reference_admissible_m_scan, params, L, eta, grid)
            scan = admissible_m_scan(params, L, eta, grid)
            assert scan.condition_fail_fractions[kind] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(case=certify_cases(),
           points=st.one_of(st.just(4001), st.integers(1, 4001)))
    def test_sorted_centres_match_direct_count(self, case, points):
        params, L, eta, _, _ = case
        reach = L * float(np.abs(omega0(params)).sum()) \
            + math.sqrt(params.m + 1.0) + 1.0     # the certify window
        # the xi = -1 centres mirror the xi = +1 ones, so only the half
        # window can tell a dropped sign
        for grid in (np.linspace(-reach, reach, points),
                     np.linspace(0.0, reach, points)):
            worst, at = cluster_scan(params, L, eta, grid)
            assert (worst, at) == reference_cluster_scan(params, L, eta, grid)
            if eta == 0.0:    # no centre lies inside an empty interval
                assert (worst, at) == (0, grid[0])


def _nudge(x: float, ulps: int) -> float:
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def survivor_cells(draw):
    """(kw, mus, eta, clear) for ``_survivors``: k.omega0 rows (K, nc) over
    columns of mu (Ns, nc).  Each kw sits within 4 ulps of the edge of one
    bound, at eta (``level`` 0), at the slack edge (1) or past it by a
    second slack (2: ``clear`` names the mask that must skip the cell).
    Column values include lo and hi themselves and values a few ulps from
    them, so pair differences reach down to 0 and 1 ulp."""
    eta = draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.1, 0.3]))
    K, nc, Ns = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                 draw(st.integers(2, 6)))
    mus, kw = np.empty((Ns, nc)), np.empty((K, nc))
    clear = np.full((K, nc), "", dtype=object)
    for c in range(nc):
        lo = draw(st.floats(0.5, 2.0))
        hi = draw(st.one_of(st.just(lo), st.floats(lo, lo + 0.75),
                            st.integers(1, 4).map(lambda j: _nudge(lo, j))))
        inner = [min(max(draw(st.one_of(
            st.floats(lo, hi), st.integers(0, 3).map(lambda j: _nudge(lo, j)),
            st.integers(0, 3).map(lambda j: _nudge(hi, -j)))), lo), hi)
            for _ in range(Ns - 2)]
        mus[:, c] = draw(st.permutations([lo, hi] + inner))
        for r in range(K):
            kind = draw(st.sampled_from(["shift+", "shift-", "diff+", "diff-"]))
            level = draw(st.sampled_from([0, 1, 2]))
            S = level * SURVIVOR_SLACK
            if kind == "shift+":      # kw + lo = eta + S (1 + |kw| + hi)
                top = eta + S * (1.0 + hi) - lo
                x = top / (1.0 - S) if top >= 0.0 else top / (1.0 + S)
            elif kind == "shift-":    # kw + hi = -(eta + S (1 + |kw| + hi))
                x = -(eta + S * (1.0 + hi) + hi) / (1.0 - S)
            else:                     # |kw| - (hi - lo) = eta + S (...)
                x = (eta + S * (1.0 + hi) + (hi - lo)) / (1.0 - S)
                x = x if kind == "diff+" else -x
            kw[r, c] = _nudge(x, draw(st.integers(-4, 4)))
            if level == 2:
                clear[r, c] = "shifted" if kind[0] == "s" else "difference"
    return kw, mus, eta, clear


class TestSurvivors:
    @settings(max_examples=300, deadline=None)
    @given(case=survivor_cells())
    def test_every_skipped_cell_clears_eta(self, case):
        # a skipped cell passes the scan's exact expressions for every n
        # and every pair n != n', also at a k.omega0 a few ulps away (the
        # scan's own product may round differently from condition (2)'s)
        kw, mus, eta, clear = case
        shifted, difference = _survivors(kw, mus.min(axis=0),
                                         mus.max(axis=0), eta)
        off = ~np.eye(len(mus), dtype=bool)
        for r, c in np.ndindex(kw.shape):
            pairs = (mus[:, None, c] - mus[None, :, c])[off]
            for w in (_nudge(kw[r, c], j) for j in range(-4, 5)):
                if not shifted[r, c]:
                    assert (np.abs(w + mus[:, c]) > eta).all()
                if not difference[r, c]:
                    assert (np.abs(w + pairs) > eta).all()
        # and the bound does skip what clears it by a margin
        assert not shifted[clear == "shifted"].any()
        assert not difference[clear == "difference"].any()

    def test_nan_keeps_its_cells(self):
        mus = np.array([[1.0, 1.0, np.nan], [1.5, np.nan, 1.2]])
        kw = np.array([[5.0, 5.0, 5.0], [-9.0, -9.0, -9.0], [np.nan] * 3])
        shifted, difference = _survivors(kw, mus.min(axis=0), mus.max(axis=0),
                                         1e-3)
        assert (shifted[:, 1:] & difference[:, 1:]).all()
        assert (shifted[2] & difference[2]).all()
        assert not (shifted[:2, 0] | difference[:2, 0]).any()


class TestClusterCount:
    def test_far_sigma_empty(self):
        assert cluster_count(1e6, golden_params(), L=3, eta=1e-3) == 0

    def test_constructed_resonance_counts(self):
        p = golden_params()
        om = omega0(p)[0]
        sigma = -2.0 * om - mu((3,), p)  # xi=+1 resonance at (k,n) = (2,3)
        assert cluster_count(sigma, p, L=5, eta=1e-3) >= 1

    def test_scan_matches_pointwise_count(self):
        p = golden_params()
        grid = np.linspace(-12.0, 12.0, 2001)
        worst, at = cluster_scan(p, L=4, eta=1e-3, sigma_grid=grid)
        assert worst == max(cluster_count(s, p, L=4, eta=1e-3)
                            for s in grid[::100]) or \
            worst >= cluster_count(at, p, L=4, eta=1e-3)
        assert cluster_count(at, p, L=4, eta=1e-3) == worst
