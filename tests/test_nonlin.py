import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpwave import (CoefficientField, convolve, convolve_power,
                    evaluate_solution, linearize, omega0, pde_residual,
                    residual, weighted_tail_norm)
from qpwave.nonlin import DROP
from qpwave.solver import initial_field

from conftest import golden_params


def field_from(entries, b=1, d=1):
    return CoefficientField.from_entries(entries, b, d)


@st.composite
def sparse_fields(draw, b=1, d=1, max_entries=5):
    from qpwave.lattice import canonical_k
    n_entries = draw(st.integers(1, max_entries))
    entries = {}
    for _ in range(n_entries):
        k = tuple(draw(st.integers(-3, 3)) for _ in range(b))
        n = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        v = draw(st.floats(min_value=-2.0, max_value=2.0,
                           allow_nan=False, allow_infinity=False))
        entries[(canonical_k(k), n)] = v  # dedupe mirror keys
    return CoefficientField.from_entries(entries, b, d)


@st.composite
def graded_entries(draw, b, d, max_entries=8):
    """Canonical entries whose magnitudes span 1e-30 .. 2, zeros included."""
    from qpwave.lattice import canonical_k
    entries = {}
    for _ in range(draw(st.integers(0, max_entries))):
        k = tuple(draw(st.integers(-3, 3)) for _ in range(b))
        n = tuple(draw(st.integers(-2, 2)) for _ in range(d))
        sign = draw(st.sampled_from((-1.0, 0.0, 1.0)))
        entries[(canonical_k(k), n)] = sign * 10.0 ** draw(
            st.floats(min_value=-30.0, max_value=0.3))
    return entries


def assert_drop_rule(field):
    cut = DROP * field.sup_norm()
    for _k, _n, v in field.canonical_items():
        assert v != 0.0 and abs(v) >= cut


class TestDropRule:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (2, 1), (1, 2)]), data=st.data())
    def test_every_field_holds_no_zero_and_nothing_below_the_cut(self, shape,
                                                                 data):
        b, d = shape
        ea = data.draw(graded_entries(b, d))
        qa = CoefficientField.from_entries(ea, b, d)
        qb = CoefficientField.from_entries(data.draw(graded_entries(b, d)), b, d)
        factor = data.draw(st.sampled_from((0.0, -1.0, 1e-200, 3.0)))
        params = golden_params(b=b, d=d)
        fields = [qa, qb, qa.add(qb), qa.add(qb, -1.0), qa.add(qa, -1.0),
                  qa.scaled(factor), convolve(qa, qb), convolve_power(qa, 2),
                  convolve_power(qa, 3),
                  residual(qa, omega0(params), params)]
        for field in fields:
            assert_drop_rule(field)
        # the constructor drops exactly what the rule names, nothing more
        cut = DROP * max(map(abs, ea.values()), default=0.0)
        assert {(k, n): v for k, n, v in qa.canonical_items()} == \
            {key: v for key, v in ea.items() if v != 0.0 and abs(v) >= cut}

    def test_overflow_to_nan_is_not_dropped(self):
        q = field_from({((1,), (0,)): 1e300, ((0,), (0,)): -1e300})
        infinite = q.add(q, 1e10)
        assert sorted(v for _k, _n, v in infinite.canonical_items()) == \
            [-math.inf, math.inf]
        nan = infinite.add(infinite, -1.0)
        assert len(nan) == 2
        assert all(math.isnan(v) for _k, _n, v in nan.canonical_items())

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 1, 0)])
    def test_cut_comes_from_the_finite_values(self, order):
        entries = [(((0,), (0,)), math.nan), (((1,), (0,)), 1.0),
                   (((2,), (0,)), 1e-20), (((3,), (0,)), math.inf)]
        data = dict(entries[i] for i in order + (3,))
        kept = {(k, n): v for k, n, v in
                CoefficientField(data, 1, 1, _trusted=True).canonical_items()}
        # 1e-20 lies below DROP * 1 and goes; NaN and inf stay, in order
        assert list(kept) == [key for key in data if key != ((2,), (0,))]
        assert math.isnan(kept[((0,), (0,))]) and kept[((1,), (0,))] == 1.0
        assert kept[((3,), (0,))] == math.inf


class TestCoefficientField:
    def test_canonical_storage_and_mirror_lookup(self):
        q = field_from({((-2,), (1,)): 0.7})
        assert q.get((2,), (1,)) == 0.7
        assert q.get((-2,), (1,)) == 0.7
        assert len(q) == 1

    def test_conflicting_mirror_values_rejected(self):
        with pytest.raises(ValueError):
            field_from([(((1,), (0,)), 1.0), (((-1,), (0,)), 2.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            field_from({((0,), (0,)): float("nan")})

    def test_norms_count_lattice_multiplicity(self):
        q = field_from({((1,), (0,)): 3.0, ((0,), (2,)): 4.0})
        assert q.sup_norm() == 4.0
        assert q.l1_norm() == pytest.approx(2 * 3.0 + 4.0)
        assert q.l2_norm() == pytest.approx(math.sqrt(2 * 9.0 + 16.0))
        assert q.num_lattice_entries == 3

    def test_support_bounds(self):
        q = field_from({((2,), (-3,)): 1.0})
        assert q.support_bound() == 3
        assert q.support_k_bound() == 2
        assert q.support_n_bound() == 3


class TestConvolvePower:
    def test_order_one_identity(self):
        q = field_from({((1,), (0,)): 0.5, ((0,), (1,)): -0.25})
        assert convolve_power(q, 1) is q

    def test_sign_triples_example(self):
        # q(+-1, n0) = 1/2; cube: 1/8 at k = +-3 and 3/8 at k = +-1
        q = field_from({((1,), (5,)): 0.5})
        cubed = convolve_power(q, 3)
        # oracle: enumerate the 8 sign triples
        expected = {}
        for signs in itertools.product((1, -1), repeat=3):
            k = sum(signs)
            expected[k] = expected.get(k, 0.0) + 0.125
        assert cubed.get((3,), (5,)) == pytest.approx(expected[3])
        assert cubed.get((-3,), (5,)) == pytest.approx(expected[-3])
        assert cubed.get((1,), (5,)) == pytest.approx(expected[1])
        assert cubed.get((1,), (5,)) == pytest.approx(0.375)
        assert cubed.get((3,), (5,)) == pytest.approx(0.125)
        assert cubed.get((1,), (0,)) == 0.0

    def test_zero_field(self):
        z = CoefficientField.zero(1, 1)
        assert len(convolve_power(z, 4)) == 0

    def test_power_is_stored_on_the_field(self):
        q = field_from({((1,), (0,)): 0.5, ((2,), (1,)): -0.25})
        assert convolve_power(q, 3) is convolve_power(q, 3)
        assert convolve_power(q, 2) is not convolve_power(q, 3)

    @settings(max_examples=40, deadline=None)
    @given(q=sparse_fields(b=2, d=1),
           orders=st.lists(st.integers(2, 4), min_size=1, max_size=6))
    def test_stored_power_matches_fresh_computation(self, q, orders):
        for order in orders:
            stored = convolve_power(q, order)
            fresh = convolve_power(CoefficientField.from_entries(
                {(k, n): v for k, n, v in q.canonical_items()}, q.b, q.d),
                order)
            assert dict(((k, n), v) for k, n, v in stored.canonical_items()) \
                == dict(((k, n), v) for k, n, v in fresh.canonical_items())

    @settings(max_examples=40, deadline=None)
    @given(q=sparse_fields(), a=st.integers(1, 3), b=st.integers(1, 2))
    def test_power_additivity(self, q, a, b):
        lhs = convolve_power(q, a + b)
        rhs = convolve(convolve_power(q, a), convolve_power(q, b))
        scale = max(lhs.sup_norm(), rhs.sup_norm(), 1.0)
        keys = {(k, n) for k, n, _ in lhs.canonical_items()}
        keys |= {(k, n) for k, n, _ in rhs.canonical_items()}
        for k, n in keys:
            assert abs(lhs.get(k, n) - rhs.get(k, n)) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(q=sparse_fields(b=2, d=1), order=st.integers(1, 3))
    def test_symmetry_preserved(self, q, order):
        out = convolve_power(q, order)
        for k, n, v in out.canonical_items():
            assert out.get(tuple(-x for x in k), n) == v


class TestResidual:
    def test_zero_field(self, params):
        f = residual(CoefficientField.zero(1, 1), omega0(params), params)
        assert f.l2_norm() == 0.0
        assert len(f) == 0

    def test_unperturbed_solution_exact(self, params_uncoupled):
        q0 = initial_field(params_uncoupled)
        f = residual(q0, omega0(params_uncoupled), params_uncoupled)
        assert f.sup_norm() == 0.0

    def test_seed_residual_order_eps_plus_delta(self, params):
        q0 = initial_field(params)
        f = residual(q0, omega0(params), params)
        total = params.eps + params.delta
        assert 0.0 < f.sup_norm() <= 2.0 * total
        # support stays inside a coupling-independent cube
        assert f.support_bound() <= params.p + 1

    def test_support_closure_bounds(self, params):
        q = field_from({((2,), (1,)): 0.3, ((0,), (-1,)): 0.2})
        f = residual(q, omega0(params), params)
        lk = q.support_k_bound()
        ln = q.support_n_bound()
        assert f.support_k_bound() <= (params.p + 1) * lk
        assert f.support_n_bound() <= ln + 1

    def test_symmetric_output(self, params):
        q = field_from({((1,), (0,)): 0.5, ((2,), (1,)): -0.3})
        f = residual(q, omega0(params), params)
        for k, n, v in f.canonical_items():
            assert f.get(tuple(-x for x in k), n) == v


class TestLinearize:
    def test_zero_kernel(self):
        assert len(linearize(CoefficientField.zero(1, 1), 2)) == 0

    def test_p2_kernel_value(self):
        # phi(0, n0) = 3 * (q_*^2)(0, n0) = 3 * 2 * (1/2)^2 = 3/2
        q = field_from({((1,), (0,)): 0.5})
        phi = linearize(q, 2)
        assert phi.get((0,), (0,)) == pytest.approx(1.5)
        assert phi.get((2,), (0,)) == pytest.approx(0.75)

    def test_directional_derivative(self, params):
        rng = np.random.default_rng(7)
        q = field_from({((1,), (0,)): 0.5, ((2,), (1,)): 0.1,
                        ((0,), (-1,)): -0.2})
        v = field_from({((1,), (1,)): float(rng.normal()),
                        ((3,), (0,)): float(rng.normal()),
                        ((0,), (0,)): float(rng.normal())})
        om = omega0(params)
        h = 1e-6
        f0 = residual(q, om, params)
        f1 = residual(q.add(v, h), om, params)
        phi = linearize(q, params.p)
        # H v = D v + eps Delta v + delta T_phi v, evaluated fieldwise
        hv = residual(v, om, params.with_couplings(params.eps, 0.0))
        tv = convolve(phi, v).scaled(params.delta)
        hv = hv.add(tv)
        keys = {(k, n) for k, n, _ in f1.canonical_items()}
        keys |= {(k, n) for k, n, _ in f0.canonical_items()}
        keys |= {(k, n) for k, n, _ in hv.canonical_items()}
        worst = max(abs((f1.get(k, n) - f0.get(k, n)) / h - hv.get(k, n))
                    for k, n in keys)
        assert worst <= 1e-4  # O(h) with second-derivative scale delta


class TestEvaluateSolution:
    def test_t_zero_sums_coefficients(self):
        q = field_from({((1,), (0,)): 0.5, ((0,), (0,)): 0.2})
        # k = +-1 each contribute 0.5, plus 0.2
        assert evaluate_solution(q, (1.3,), 0.0, (0,)) == pytest.approx(1.2)

    def test_seed_is_anchored_cosine(self, params):
        q0 = initial_field(params)
        om = omega0(params)
        for t in (0.0, 0.4, 1.7):
            assert evaluate_solution(q0, om, t, (0,)) == \
                pytest.approx(1.0 * math.cos(om[0] * t), abs=1e-15)

    def test_even_in_time(self, params):
        q = field_from({((1,), (0,)): 0.5, ((2,), (0,)): 0.1})
        om = omega0(params)
        for t in (0.3, 1.1, 2.9):
            assert evaluate_solution(q, om, t, (0,)) == \
                pytest.approx(evaluate_solution(q, om, -t, (0,)), abs=1e-15)


class TestPdeResidual:
    def test_unperturbed_exact(self, params_uncoupled):
        q0 = initial_field(params_uncoupled)
        val = pde_residual(q0, omega0(params_uncoupled), params_uncoupled,
                           np.linspace(0.0, 5.0, 17))
        assert val <= 1e-12

    def test_matches_time_domain_image_of_lattice_residual(self, params):
        rng = np.random.default_rng(3)
        q = field_from({((1,), (0,)): 0.5,
                        ((2,), (1,)): float(0.1 * rng.normal()),
                        ((0,), (-1,)): float(0.1 * rng.normal())})
        om = omega0(params)
        f = residual(q, om, params)
        ts = np.linspace(0.0, 3.0, 11)
        direct = pde_residual(q, om, params, ts)
        # oracle: max_t max_n |sum_k F(k,n) cos(k.w t)|
        oracle = 0.0
        for t in ts:
            per_site = {}
            for k, n, v in f.full_items():
                per_site[n] = per_site.get(n, 0.0) + \
                    v * math.cos(float(np.dot(k, om)) * t)
            oracle = max(oracle, max(abs(x) for x in per_site.values()))
        assert direct == pytest.approx(oracle, abs=1e-10)


class TestWeightedTail:
    def test_seed_tail_is_zero(self, params):
        q0 = initial_field(params)
        assert weighted_tail_norm(q0, 0.1, params.resonant_set()) == 0.0

    def test_single_off_resonant_entry(self, params):
        S = params.resonant_set()
        q = field_from({((2,), (3,)): 0.25})
        # both (2,3) and (-2,3) contribute
        expected = 2 * 0.25 * math.exp(0.1 * (2 + 3))
        assert weighted_tail_norm(q, 0.1, S) == pytest.approx(expected)

    def test_rho_must_be_positive(self, params):
        with pytest.raises(ValueError):
            weighted_tail_norm(initial_field(params), 0.0,
                               params.resonant_set())
