import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpwave import (CoefficientField, FrequencyCollapse, InsufficientData,
                    ModelParams, NonConvergence, OracleDiverged,
                    PreconditionFailed, RegionTooLarge, ResonantBox,
                    SolverConfig, brute_force_oracle, compare_with_oracle,
                    decay_fit, evaluate_solution, initial_field, omega0,
                    p_step, q_step, residual, solve, solver,
                    weighted_tail_norm)
from qpwave.lattice import box_vectors, canonical_k

from conftest import golden_params
from oracle_reference import reference_jacobian
from pstep_reference import all_rows_increment, reference_increment


class TestInitialField:
    def test_anchored_amplitudes(self, params):
        q0 = initial_field(params)
        assert q0.get((1,), (0,)) == 0.5
        assert q0.get((-1,), (0,)) == 0.5
        assert q0.num_lattice_entries == 2

    def test_two_anchor_support(self):
        p = golden_params(b=2, anchors=((0,), (3,)), amplitudes=(1.0, 1.6))
        q0 = initial_field(p)
        assert q0.get((1, 0), (0,)) == 0.5
        assert q0.get((0, 1), (3,)) == 0.8
        assert q0.num_lattice_entries == 4

    def test_time_evaluation_at_zero(self, params):
        q0 = initial_field(params)
        assert evaluate_solution(q0, omega0(params), 0.0, (0,)) == \
            pytest.approx(1.0)

    def test_tail_is_zero(self, params):
        q0 = initial_field(params)
        assert weighted_tail_norm(q0, 0.1, params.resonant_set()) == 0.0


class TestQStep:
    def test_uncoupled_fixed_point(self, params_uncoupled):
        q0 = initial_field(params_uncoupled)
        om = q_step(q0, params_uncoupled)
        assert om == pytest.approx(omega0(params_uncoupled), abs=1e-15)

    def test_first_step_closed_form(self):
        # eps=0, p=2, b=1, a=1, delta=0.01, phase pi/2 so omega0^2 = 3:
        # omega^2 = 3 + binom(3,1) * 2^-2 * 0.01 = 3.0075
        p = ModelParams(b=1, d=1, p=2, m=3.0, eps=0.0, delta=0.01,
                        alpha=(0.0,), theta0=0.25, anchors=((0,),),
                        amplitudes=(1.0,))
        q0 = initial_field(p)
        om = q_step(q0, p)
        assert om[0] ** 2 == pytest.approx(3.0075, abs=1e-14)

    def test_anchor_values_required(self, params):
        bad = CoefficientField.from_entries({((1,), (0,)): 0.4}, 1, 1)
        with pytest.raises(PreconditionFailed):
            q_step(bad, params)

    def test_frequency_collapse(self):
        p = golden_params(eps=0.9, delta=0.0)
        entries = {((1,), (0,)): 0.5, ((1,), (1,)): -1000.0}
        q = CoefficientField.from_entries(entries, 1, 1)
        with pytest.raises(FrequencyCollapse):
            q_step(q, p)

    def test_frequency_amplitude_jacobian_scales_like_delta(self):
        # det(d omega / d a) ~ delta for b = 1, via finite differences of the
        # closed-form first step (centered inside the [1,2] amplitude box)
        for delta in (1e-3, 1e-4):
            p = golden_params(eps=0.0, delta=delta)
            h = 1e-6

            def omega_of(a):
                pa = ModelParams(b=1, d=1, p=2, m=p.m, eps=0.0, delta=delta,
                                 alpha=p.alpha, theta0=p.theta0,
                                 anchors=p.anchors, amplitudes=(a,))
                return q_step(initial_field(pa), pa)[0]

            deriv = (omega_of(1.5 + h) - omega_of(1.5 - h)) / (2 * h)
            assert 0.05 * delta <= abs(deriv) <= 20.0 * delta


class TestPStep:
    def test_zero_residual_gives_zero_increment(self, params_uncoupled):
        q0 = initial_field(params_uncoupled)
        om = omega0(params_uncoupled)
        res = p_step(q0, om, residual(q0, om, params_uncoupled),
                     params_uncoupled, 1, SolverConfig(M=3))
        assert res.increment.num_lattice_entries == 0

    def test_increment_vanishes_on_resonant_set(self, params):
        q0 = initial_field(params)
        om = q_step(q0, params)
        res = p_step(q0, om, residual(q0, om, params), params, 1,
                     SolverConfig(M=3))
        assert res.increment.get((1,), (0,)) == 0.0
        assert res.increment.get((-1,), (0,)) == 0.0
        assert res.increment.num_lattice_entries > 0

    def test_first_increment_order_of_couplings(self, params):
        q0 = initial_field(params)
        om = q_step(q0, params)
        res = p_step(q0, om, residual(q0, om, params), params, 1,
                     SolverConfig(M=3))
        total = params.eps + params.delta
        assert res.increment.l2_norm() <= 50.0 * total

    def test_increment_symmetric(self, params):
        q0 = initial_field(params)
        om = q_step(q0, params)
        res = p_step(q0, om, residual(q0, om, params), params, 2,
                     SolverConfig(M=3))
        for k, n, v in res.increment.canonical_items():
            assert res.increment.get(tuple(-x for x in k), n) == v

    def test_resonant_box_detected(self):
        # alpha = 1/4, theta0 = 1/4: phases pi/2 and 3pi/2 at n = 0 and 2
        # give mu_2 = mu_0 exactly, so D(+-1, +-2) = 0 in the stage box.
        p = ModelParams(b=1, d=1, p=2, m=2.5, eps=0.0, delta=0.0,
                        alpha=(0.25,), theta0=0.25, anchors=((0,),),
                        amplitudes=(1.0,))
        q0, om = initial_field(p), omega0(p)
        with pytest.raises(ResonantBox) as err:
            p_step(q0, om, residual(q0, om, p), p, 1, SolverConfig(M=3))
        assert err.value.stage == 1
        assert err.value.condition == math.inf
        assert err.value.site is None

    @pytest.mark.parametrize("coupling", [0.0, 1e-3])
    def test_near_resonant_box_reports_condition_and_site(self, coupling):
        # alpha 1e-15 off 1/4: D(+-1, +-2) is of order 1e-15, not zero, so
        # the LU succeeds and the 1-norm condition estimate trips the gate
        p = ModelParams(b=1, d=1, p=2, m=2.5, eps=coupling, delta=coupling,
                        alpha=(0.25 + 1e-15,), theta0=0.25, anchors=((0,),),
                        amplitudes=(1.0,))
        q0, om = initial_field(p), omega0(p)
        with pytest.raises(ResonantBox) as err:
            p_step(q0, om, residual(q0, om, p), p, 1, SolverConfig(M=3))
        assert 1e14 < err.value.condition < math.inf
        assert err.value.site is not None
        assert tuple(map(abs, err.value.site.k)) == (1,)
        assert tuple(map(abs, err.value.site.n)) == (2,)

    def test_overflowing_condition_estimate_is_a_resonant_box(self):
        # theta0 = 0 gives mu_n = mu_-n: the sites (0, +-1), n = -1 have an
        # exactly zero diagonal, coupled only through the subnormal eps.  The
        # LU keeps a 1e-308 pivot, the estimate overflows on its way and
        # would still return a finite 35.7 without the overflow rule.
        p = dataclasses.replace(
            golden_params(b=2, d=1, eps=1.1e-308, delta=3.3e-284), theta0=0.0)
        q = initial_field(p)
        om = q_step(q, p)
        with pytest.raises(ResonantBox) as err:
            p_step(q, om, residual(q, om, p), p, 1, SolverConfig(M=3))
        assert err.value.stage == 1
        assert err.value.condition == math.inf
        assert err.value.site is None

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1),
                                  (2, 2, 1)]),
           eps=st.floats(0.0, 5e-3), delta=st.floats(0.0, 5e-3),
           theta0=st.floats(0.0, 1.0),
           amplitudes=st.lists(st.floats(1.0, 2.0), min_size=2, max_size=2))
    # the dense reference meets an exactly zero pivot here (see the test
    # above): the draw is a ResonantBox, never a comparison against NaN
    @example(shape=(2, 1, 1), eps=1.1e-308, delta=3.3e-284, theta0=0.0,
             amplitudes=[1.0, 1.0])
    def test_folded_increment_matches_full_box_reference(
            self, shape, eps, delta, theta0, amplitudes):
        b, d, stage = shape
        p = dataclasses.replace(
            golden_params(b=b, d=d, eps=eps, delta=delta,
                          amplitudes=tuple(amplitudes[:b])), theta0=theta0)
        config = SolverConfig(M=3)
        q = initial_field(p)
        om = q_step(q, p)
        try:
            if stage == 2:
                step = p_step(q, om, residual(q, om, p), p, 1, config)
                q = q.add(step.increment)
                om = q_step(q, p)
            res = p_step(q, om, residual(q, om, p), p, stage, config)
        except ResonantBox:
            assume(False)
        ref = reference_increment(q, om, p, stage, config)
        got = {(k, n): v for k, n, v in res.increment.canonical_items()}
        sup = max(map(abs, ref.values()), default=0.0)
        for site in set(ref) | set(got):
            assert abs(got.get(site, 0.0) - ref.get(site, 0.0)) <= 1e-12 * sup
        for k, n, v in res.increment.canonical_items():
            assert res.increment.get(tuple(-x for x in k), n) == v

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 2), d=st.integers(1, 2),
           values=st.lists(st.one_of(
               st.just(0.0), st.floats(-1e3, 1e3),
               st.builds(lambda m, e: m * 10.0 ** -e, st.floats(-1.0, 1.0),
                         st.integers(12, 30)),
               st.sampled_from([math.nan, math.inf, -math.inf])),
               max_size=60))
    def test_increment_from_survivors_is_the_all_rows_field(self, b, d,
                                                            values):
        # p_step applies the drop rule to the solved array before it builds
        # a site: the field, its order included, is the one the constructor
        # makes from every row, and a non-finite value is refused alike
        vecs = np.array([v for v in box_vectors((0,) * (b + d),
                                                (3,) * (b + d)).tolist()
                         if tuple(v[:b]) == canonical_k(tuple(v[:b]))])
        vecs = vecs[:len(values)]
        x = np.array(values[:len(vecs)], dtype=float)

        def outcome(build):
            try:
                return list(build(vecs, x, b, d).canonical_items())
            except ValueError as exc:
                return str(exc)

        assert outcome(solver._increment) == outcome(all_rows_increment)

    def test_box_must_contain_resonant_set(self):
        p = golden_params(anchors=((30,),))
        q0, om = initial_field(p), omega0(p)
        with pytest.raises(ResonantBox):
            p_step(q0, om, residual(q0, om, p), p, 1, SolverConfig(M=3))

    def test_oversized_box_is_refused_before_it_is_built(self, monkeypatch):
        # stage 4 at M = 3, b = 2, d = 1: a cube of 163^3 = 4 330 747
        # candidate sites, above lattice.MATERIALIZE_LIMIT
        from qpwave import lattice

        def unbuilt(*args):
            raise AssertionError("a candidate site was built")

        p = golden_params(b=2, anchors=((0,), (1,)), amplitudes=(1.0, 1.0))
        q0, om = initial_field(p), omega0(p)
        f = residual(q0, om, p)
        monkeypatch.setattr(lattice, "box_vectors", unbuilt)
        with pytest.raises(RegionTooLarge, match="materialization limit"):
            p_step(q0, om, f, p, 4, SolverConfig(M=3))


class TestSolve:
    def test_uncoupled_returns_seed_at_stage_zero(self, params_uncoupled):
        sol = solve(params_uncoupled)
        assert sol.converged
        assert len(sol.trace) == 1
        assert sol.omega == pytest.approx(tuple(omega0(params_uncoupled)))
        assert sol.q.num_lattice_entries == 2

    def test_small_coupling_converges(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        assert sol.converged
        assert sol.quality["final_residual_l2"] <= 1e-12
        assert sol.quality["anchors_exact"]

    def test_symmetry_exact_on_output(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        for k, n, v in sol.q.canonical_items():
            assert sol.q.get(tuple(-x for x in k), n) == v

    def test_q_step_fixed_point_after_convergence(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        om_again = q_step(sol.q, params)
        assert np.abs(om_again - np.array(sol.omega)).max() <= 1e-13

    def test_coupling_limit_enforced(self):
        p = golden_params(eps=0.2, delta=0.2)
        with pytest.raises(PreconditionFailed):
            solve(p)

    def test_each_power_computed_once_per_field(self, params, monkeypatch):
        # q^3 is q^2 convolved with q, so building q^3 on a field builds its
        # q^2 too: stage 0 builds q0^2 and q0^3 for the residual, each stage
        # builds q^2 and q^3 on its output field, and every other use
        # (linearize on the next stage's input included) reads the power
        # stored on the field
        from qpwave import nonlin
        computed = []
        real_power = nonlin._power

        def counting_power(q, order):
            computed.append(order)
            return real_power(q, order)

        monkeypatch.setattr(nonlin, "_power", counting_power)
        sol = solve(params, SolverConfig(M=3, r_max=2))
        assert len(sol.trace) == 3
        assert sorted(computed) == [2, 2, 2, 3, 3, 3]

    def test_one_q_step_and_one_residual_per_stage(self, params, monkeypatch):
        # one Q-step and F(q) at its omega before stage 1, then each stage
        # adds one Q-step and one residual; F(q0) at omega0 is stage 0's
        from qpwave import solver
        calls = {"q_step": 0, "residual": 0}
        for name in calls:
            real = getattr(solver, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counting)
        sol = solve(params, SolverConfig(M=3, r_max=2))
        assert len(sol.trace) == 3
        assert calls == {"q_step": 3, "residual": 4}

    def test_stagnation_raises_non_convergence(self, params):
        # at residual_floor 1e-30 the residual settles at the round-off
        # floor, so the ratio test must end the solve
        config = SolverConfig(M=2, r_max=8, residual_floor=1e-30)
        with pytest.raises(NonConvergence) as err:
            solve(params, config)
        assert err.value.trace is not None
        assert len(err.value.trace) >= 4


class TestBruteForceOracle:
    def test_uncoupled_exact_immediately(self, params_uncoupled):
        res = brute_force_oracle(params_uncoupled, 4)
        assert res.iterations == 0
        assert res.final_residual == 0.0
        assert res.omega == pytest.approx(tuple(omega0(params_uncoupled)))

    def test_quadratic_convergence_small_coupling(self, params):
        res = brute_force_oracle(params, 6)
        assert res.final_residual <= 1e-13
        hist = res.residual_history
        assert len(hist) >= 3
        # quadratic: each step roughly squares the residual
        for a, b in zip(hist[:-1], hist[1:]):
            if a < 1e-3 and b > 1e-15:
                assert b <= 10.0 * a ** 1.5

    def test_first_order_frequency_shift(self):
        # omega^2 - omega0^2 - 3 a^2 delta / 4 = O(delta^2) at p=2, eps=0
        for delta in (1e-3, 1e-4):
            p = golden_params(eps=0.0, delta=delta)
            res = brute_force_oracle(p, 5)
            lhs = abs(res.omega[0] ** 2 - omega0(p)[0] ** 2 - 0.75 * delta)
            assert lhs <= 50.0 * delta ** 2

    def test_residual_evaluated_once_per_accepted_point(self, params,
                                                        monkeypatch):
        # F at each accepted point is the vector its line search accepted,
        # so with every full step accepted there is one F per Newton point
        from qpwave import solver
        calls = []
        real_residual = solver.residual

        def counting_residual(*args, **kwargs):
            calls.append(1)
            return real_residual(*args, **kwargs)

        monkeypatch.setattr(solver, "residual", counting_residual)
        res = brute_force_oracle(params, 8)
        assert res.iterations >= 2
        assert len(calls) == len(res.residual_history) == res.iterations + 1

    def test_jacobian_reuses_the_field_of_its_residual(self, params,
                                                       monkeypatch):
        # F and the Jacobian at an iterate share one field: every field the
        # Jacobian linearizes was given to the residual first, so none is
        # built for the Jacobian alone, and F stays one per accepted point
        given_to = {"residual": [], "linearize": []}
        for name in given_to:
            real = getattr(solver, name)

            def recording(q, *args, _name=name, _real=real, **kwargs):
                if _name == "linearize":
                    assert any(q is seen for seen in given_to["residual"])
                given_to[_name].append(q)
                return _real(q, *args, **kwargs)

            monkeypatch.setattr(solver, name, recording)
        res = brute_force_oracle(params, 8)
        assert res.iterations >= 2
        assert len(given_to["residual"]) == res.iterations + 1
        assert len(given_to["linearize"]) == res.iterations

    @pytest.mark.parametrize("value, what", [(math.nan, "Newton step"),
                                             (math.inf, "Newton step"),
                                             (1e300, "F")])
    def test_non_finite_step_or_residual_is_oracle_diverged(
            self, params, monkeypatch, value, what):
        # a NaN or infinite step, or one so large that F overflows, ends the
        # iteration as a divergence, before any field holds the value
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full_like(b, value))
        with pytest.raises(OracleDiverged, match=f"non-finite {what} at "
                                                 "iteration 0"):
            brute_force_oracle(params, 4)

    def test_independent_of_the_solver_assembly(self, monkeypatch):
        # the oracle builds its own column table and Jacobian: it runs with
        # every operator assembly and region index of the solver disabled
        from qpwave import lattice, linop

        def disabled(*args, **kwargs):
            raise AssertionError("the oracle reached solver assembly")

        for owner, name in ((linop, "assemble"), (linop, "assemble_sparse"),
                            (linop, "_entries_on"), (solver, "assemble_sparse"),
                            (solver, "index_map"), (lattice, "index_map"),
                            (lattice.RegionIndex, "pairs"),
                            (lattice.RegionIndex, "lookup")):
            monkeypatch.setattr(owner, name, disabled)
        res = brute_force_oracle(golden_params(b=2, anchors=((0,), (1,))), 3)
        assert res.final_residual < 1e-13

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_oracle(golden_params(), 70)


class TestOracleJacobian:
    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from([(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2),
                                  (1, 2, 3), (1, 2, 4), (2, 1, 2), (2, 1, 3),
                                  (2, 1, 4), (2, 2, 2)]),
           p=st.sampled_from([2, 4]), eps=st.sampled_from([0.0, 1e-3, 0.02]),
           delta=st.sampled_from([0.0, 1e-3, 0.02]),
           second_anchor=st.sampled_from([1, 3]),
           size=st.floats(1e-4, 0.1), rate=st.floats(1e-3, 0.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_is_the_row_by_row_jacobian(
            self, shape, p, eps, delta, second_anchor, size, rate, seed):
        # x near the Newton start: frequencies near omega0, q small and
        # decaying in |k| + |n|, with exact zeros and entries under the drop
        # rule.  At b = 2 the second anchor may lie outside box 2.  The
        # kernel terms of each entry are summed in the kernel's own order
        # and k.omega as F forms it, so the two agree bitwise.
        b, d, box = shape
        anchors = ((0,) * d, (second_anchor,) + (0,) * (d - 1))[:b]
        params = golden_params(b=b, d=d, p=p, eps=eps, delta=delta,
                               anchors=anchors)
        system = solver._OracleSystem(params, box)
        n = system.n_unknowns
        rng = np.random.default_rng(seed)
        order = np.array([sum(map(abs, k + m)) for k, m in system.keys[:n]])
        x = np.empty(n + b)
        x[:n] = (size * rng.uniform(-1.0, 1.0, n) * rate ** order
                 * (rng.random(n) < 0.8))
        x[n:] = omega0(params) * (1.0 + size * rng.uniform(-1.0, 1.0, b))
        q = system.field(x)
        got = system.jacobian(x, q)
        want = reference_jacobian(params, box, x)
        assert got.tobytes() == want.tobytes()
        # the field skips from_entries: its keys must be canonical and
        # distinct, and it must hold what from_entries would, in order
        assert len(set(system.keys)) == len(system.keys)
        assert all(canonical_k(k) == k for k, _n in system.keys)
        entries = dict(system.frozen)
        entries.update(zip(system.keys[:n], x[:n].tolist()))
        checked = CoefficientField.from_entries(entries, b, d)
        assert list(q.canonical_items()) == list(checked.canonical_items())


class TestOracleEquivalence:
    def test_staged_matches_oracle(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        oracle = brute_force_oracle(params, 8)
        comp = compare_with_oracle(sol, oracle, 8)
        assert comp["sup_discrepancy"] <= 1e-9
        assert comp["omega_discrepancy"] <= 1e-9


class TestGeneralDimensions:
    def test_two_frequencies(self):
        p = golden_params(b=2, anchors=((0,), (1,)), amplitudes=(1.0, 1.3))
        sol = solve(p, SolverConfig(M=3, r_max=4))
        assert sol.converged
        oracle = brute_force_oracle(p, 5)
        comp = compare_with_oracle(sol, oracle, 5)
        assert comp["sup_discrepancy"] <= 1e-9
        assert comp["omega_discrepancy"] <= 1e-9
        # both frequencies modulated away from their linear values
        om0 = omega0(p)
        assert all(abs(w - w0) > 0 for w, w0 in zip(sol.omega, om0))
        assert sol.quality["weighted_tail"] < math.sqrt(p.eps + p.delta)

    def test_two_space_dimensions(self):
        import numpy as np
        p = ModelParams(b=1, d=2, p=2, m=2.5, eps=1e-3, delta=1e-3,
                        alpha=((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1),
                        theta0=0.3455, anchors=((0, 0),), amplitudes=(1.0,))
        sol = solve(p, SolverConfig(M=3, r_max=3))
        assert sol.converged
        assert sol.quality["final_residual_l2"] <= 1e-12
        assert sol.quality["weighted_tail"] < math.sqrt(p.eps + p.delta)
        assert sol.quality["anchors_exact"]

    def test_two_frequencies_two_space_dimensions(self):
        p = golden_params(b=2, d=2)
        sol = solve(p, SolverConfig(M=3, r_max=2))
        assert sol.converged
        oracle = brute_force_oracle(p, 3)
        comp = compare_with_oracle(sol, oracle, 3)
        assert comp["sup_discrepancy"] <= 1e-9
        assert comp["omega_discrepancy"] <= 1e-9
        assert sol.quality["anchors_exact"]


class TestDecayFit:
    def test_synthetic_exponential(self):
        entries = {}
        for k in range(0, 6):
            for n in range(-5, 6):
                entries[((k,), (n,))] = math.exp(-0.7 * (k + abs(n)))
        q = CoefficientField.from_entries(entries, 1, 1)
        assert decay_fit(q) == pytest.approx(0.7, abs=1e-8)

    def test_seed_has_insufficient_data(self, params):
        q0 = initial_field(params)
        with pytest.raises(InsufficientData):
            decay_fit(q0, params.resonant_set())

    def test_converged_solution_rate_positive(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        assert decay_fit(sol.q, params.resonant_set()) > 0.5

    def test_stage_rates_stay_bounded_away_from_zero(self, params):
        sol = solve(params, SolverConfig(M=3, r_max=6))
        rates = [r.decay_rate for r in sol.trace if r.decay_rate is not None]
        assert rates
        assert min(rates) > 0.5
