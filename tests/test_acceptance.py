"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] ... PASS`` line (visible with -s and on
failure).  The staged-solver run shared by criteria 1, 2 and 4 is computed
once and reused.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp, matrix as mp_matrix, det as mp_det

from qpwave import (FrequencyCombination, SolverConfig,
                    admissible_m_scan, brute_force_oracle, cluster_count,
                    cluster_scan, compare_with_oracle, convolve,
                    green_matrix, lde_scan, linearize, mu, omega0,
                    pde_residual, residual, solve, sublevel_measure,
                    transversality_margin, weighted_tail_norm, wronskian_det)
from qpwave import cli
from qpwave.lattice import RegionSpec, Site
from qpwave.linop import OperatorSpec, diagonal_bad_intervals
from qpwave.nonlin import CoefficientField
from qpwave.solver import initial_field
from qpwave.spectrum import derivative_prefactor

from conftest import golden_params


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number, description, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {description}: {marker}" \
        + (f" ({detail})" if detail else "")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():   # one visible line per criterion in any mode
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, f"criterion {number}: {description} ({detail})"


@pytest.fixture(scope="module")
def reference_run():
    """b=d=1, p=2, eps=delta=1e-3: staged solve + dense oracle at box 8."""
    params = golden_params()
    t0 = time.perf_counter()
    sol = solve(params, SolverConfig(M=3, r_max=6, residual_floor=1e-12))
    oracle = brute_force_oracle(params, 8)
    elapsed = time.perf_counter() - t0
    return params, sol, oracle, elapsed


def test_criterion_1_oracle_equivalence(reference_run):
    params, sol, oracle, elapsed = reference_run
    comp = compare_with_oracle(sol, oracle, 8)
    ok = (sol.converged and oracle.final_residual <= 1e-13
          and comp["sup_discrepancy"] <= 1e-9 and elapsed <= 60.0)
    report(1, "staged solve matches dense oracle on box 8", ok,
           f"sup diff {comp['sup_discrepancy']:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_2_residual_contraction(reference_run):
    _params, sol, _oracle, _ = reference_run
    residuals = [r.residual_norm for r in sol.trace]
    # stages until the floor is reached
    gains = []
    for prev, cur in zip(residuals[:-1], residuals[1:]):
        gains.append(math.log(math.log(1.0 / cur))
                     - math.log(math.log(1.0 / prev)))
        if cur <= 1e-12:
            break
    ok = (residuals[-1] <= 1e-12 and len(gains) >= 1
          and all(g >= 0.2 for g in gains))
    report(2, "log log(1/residual) gains >= 0.2 per stage down to 1e-12", ok,
           "gains " + ", ".join(f"{g:.2f}" for g in gains))


def test_criterion_3_frequency_modulation():
    # eps=0, p=2, a=1: omega^2 - omega0^2 = 3 * 2^-2 * delta + O(delta^2)
    remainders = {}
    ok = True
    for delta in (1e-3, 1e-4):
        params = golden_params(eps=0.0, delta=delta)
        sol = solve(params, SolverConfig(M=3, r_max=6))
        lhs = abs(sol.omega[0] ** 2 - omega0(params)[0] ** 2
                  - 3.0 * 0.25 * delta)
        remainders[delta] = lhs
        ok = ok and sol.converged and lhs <= 50.0 * delta ** 2
    ratio = remainders[1e-3] / remainders[1e-4]
    ok = ok and 20.0 <= ratio <= 500.0   # O(delta^2): two-point ratio ~ 100
    report(3, "first-order frequency shift 3*delta/4 with O(delta^2) rest",
           ok, f"remainders {remainders[1e-3]:.2e}, {remainders[1e-4]:.2e}; "
               f"ratio {ratio:.1f}")


def test_criterion_4_solution_contract(reference_run):
    params, sol, _oracle, _ = reference_run
    q = sol.q
    anchors_exact = (q.get((1,), (0,)) == 0.5 and q.get((-1,), (0,)) == 0.5)
    symmetric = all(q.get(tuple(-x for x in k), n) == v
                    for k, n, v in q.canonical_items())
    tail = weighted_tail_norm(q, 0.1, params.resonant_set())
    tail_ok = tail < math.sqrt(params.eps + params.delta)
    omega_ok = abs(sol.omega[0] - omega0(params)[0]) <= 10.0 * params.delta
    rng = np.random.default_rng(20240601)
    t_samples = rng.uniform(0.0, 20.0, size=100)
    pde = pde_residual(q, sol.omega, params, t_samples)
    f_l1 = residual(q, sol.omega, params).l1_norm()
    pde_ok = pde <= 10.0 * f_l1
    ok = anchors_exact and symmetric and tail_ok and omega_ok and pde_ok
    report(4, "anchors a/2 exact, symmetry, tail, omega shift, pde residual",
           ok, f"tail {tail:.3e} < {math.sqrt(params.eps + params.delta):.3e}, "
               f"pde {pde:.2e} <= {10 * f_l1:.2e}")


def test_criterion_5_cluster_bound():
    params = golden_params()
    t0 = time.perf_counter()
    scan = admissible_m_scan(params, L=5, eta=1e-3,
                             m_grid=np.linspace(2.0, 3.0, 2001))
    assert len(scan.certified_m) > 0
    m_cert = float(scan.certified_m[len(scan.certified_m) // 2])
    pm = params.with_m(m_cert)
    om = omega0(pm)[0]
    reach = 5 * abs(om) + math.sqrt(pm.m + 1.0) + 1.0
    sigma_grid = np.linspace(-reach, reach, 10_000)
    worst, at = cluster_scan(pm, L=5, eta=1e-3, sigma_grid=sigma_grid)
    elapsed = time.perf_counter() - t0
    # pointwise cross-check at the worst shift
    assert cluster_count(at, pm, L=5, eta=1e-3) == worst
    ok = worst <= pm.b and elapsed <= 30.0
    report(5, "cluster count <= b over a 10^4-point sigma grid", ok,
           f"max count {worst} at certified m {m_cert:.4f}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_6_separation():
    params = golden_params()
    from qpwave import check_alpha_dc, check_theta_dc
    ca = check_alpha_dc(params.alpha, 10, 1e-2)
    ct = check_theta_dc(params.theta0, params.alpha, 10, 1e-2)
    assert ca.passed and ct.passed
    mus = [mu((n,), params) for n in range(-10, 11)]
    sep = min(abs(a - b) for i, a in enumerate(mus)
              for j, b in enumerate(mus) if i != j)
    sep_sq = min(abs(a * a - b * b) for i, a in enumerate(mus)
                 for j, b in enumerate(mus) if i != j)
    thr = (2.0 / math.pi ** 2) * 1e-4
    thr_sq = (8.0 / math.pi ** 2) * 1e-4
    ok = sep >= thr and sep_sq >= thr_sq
    report(6, "pair separation beats (2/pi^2) c*^2 and (8/pi^2) c*^2", ok,
           f"min |mu-mu'| {sep:.3e} >= {thr:.3e}; "
           f"min |mu^2-mu'^2| {sep_sq:.3e} >= {thr_sq:.3e}")


def test_criterion_7_vandermonde_cross_check():
    params = golden_params()
    rng = np.random.default_rng(7)
    mp.dps = 40
    worst = 0.0
    draws = 0
    alt_normalization_differs = False
    while draws < 100:
        beta = int(rng.integers(1, 5))
        m_val = float(rng.uniform(2.0, 3.0))
        sites = rng.choice(np.arange(-8, 9), size=beta, replace=False)
        sites = [(int(n),) for n in sites]
        value, degenerate = wronskian_det(sites, m_val, params)
        assert not degenerate
        # direct determinant at 40 digits
        vs = [mp.sqrt(mp.cos(2 * mp.pi * (n[0] * mp.mpf(params.alpha[0])
                                          + mp.mpf(params.theta0))) + m_val)
              for n in sites]
        rows = []
        for l in range(1, beta + 1):
            lam = mp.mpf(1)
            for j in range(l):
                lam *= mp.mpf(1) / 2 - j
            rows.append([lam * v ** (-(2 * l - 1)) for v in vs])
        direct = mp_det(mp_matrix(rows))
        rel = abs(value - float(direct)) / max(abs(float(direct)), 1e-300)
        worst = max(worst, rel)
        if beta >= 2:
            # the rejected normalization (row prefactors raised to the
            # matrix size) does not reproduce the determinant
            lam_prod = 1.0
            vinv_prod = 1.0
            for l in range(1, beta + 1):
                lam_prod *= abs(derivative_prefactor(l)
                                * float(vs[l - 1]) ** -1.0) ** beta
            vand = 1.0
            xs = [float(v) ** -2.0 for v in vs]
            for s2 in range(beta):
                for s1 in range(s2):
                    vand *= abs(xs[s2] - xs[s1])
            alt = lam_prod * vand
            if not math.isclose(alt, abs(float(direct)), rel_tol=1e-6):
                alt_normalization_differs = True
        draws += 1
    ok = worst <= 1e-10 and alt_normalization_differs
    report(7, "factorized determinant matches 40-digit direct determinant",
           ok, f"worst relative error {worst:.2e}; "
               f"one-factor-per-row normalization confirmed")


def test_criterion_8_sublevel_measure():
    params = golden_params(b=2, anchors=((0,), (1,)), amplitudes=(1.0, 1.0))
    rng = np.random.default_rng(20240601)
    ks = []
    while len(ks) < 50:
        k = tuple(int(x) for x in rng.integers(-5, 6, size=2))
        if any(k):
            ks.append(k)
    m_grid = np.linspace(2.0, 3.0, 201)
    etas = (1e-2, 1e-3, 1e-4)
    r = params.b
    totals = {eta: 0.0 for eta in etas}
    bound_ok = True
    for k in ks:
        combo = FrequencyCombination.build("harmonic", k, params)
        cert = transversality_margin("harmonic", k, params, m_grid)
        tau = min(cert.margin, 0.9)
        bound_a = combo.derivative_sup_bound(r + 1)
        for eta in etas:
            res = sublevel_measure(combo, eta, r, tau, bound_a)
            bound_ok = bound_ok and res.empirical <= res.bound
            totals[eta] += res.empirical
    # aggregate sampling measure scales like eta^(1/r) within a factor 10
    # on each decade
    scale_ok = totals[1e-2] > 0.0
    factors = []
    for eta_hi, eta_lo in ((1e-2, 1e-3), (1e-3, 1e-4)):
        actual = totals[eta_lo] / totals[eta_hi]
        predicted = (eta_lo / eta_hi) ** (1.0 / r)
        factor = max(actual / predicted, predicted / actual)
        factors.append(factor)
        scale_ok = scale_ok and factor <= 10.0
    report(8, "sampled sublevel measure <= analytic bound, eta^(1/r) shape",
           bound_ok and scale_ok,
           f"decade factors {factors[0]:.2f}, {factors[1]:.2f} (limit 10)")


def test_criterion_9_lde_small_scales():
    params = golden_params()
    q0 = initial_field(params)
    kernel = linearize(q0, params.p)
    om = tuple(float(w) for w in omega0(params))
    details = []
    ok = True
    for M in (6, 8, 10):
        rep = lde_scan(M, params, om, kernel=kernel, num_sigma=1201)
        ok = ok and rep.bad_fraction <= rep.comparison_value
        details.append(f"M={M}: {rep.bad_fraction:.3f} <= "
                       f"{rep.comparison_value:.3f}")
    # diagonal case: the scanned bad set is exactly the explicit resonance
    # intervals at every grid point
    p0 = golden_params(eps=0.0, delta=0.0)
    om0_ = tuple(float(w) for w in omega0(p0))
    rep0 = lde_scan(6, p0, om0_, kernel=None, num_sigma=1201)
    intervals = diagonal_bad_intervals(6, p0, om0_)
    mism = sum(1 for s, f in zip(rep0.sigma_grid, rep0.bad_flags)
               if bool(f) != any(lo <= s <= hi for lo, hi in intervals))
    ok = ok and mism == 0
    report(9, "bad-sigma fraction <= exp(-M^0.1) at M=6,8,10; diagonal "
              "case exact", ok, "; ".join(details) + f"; mismatches {mism}")


def test_criterion_10_linearization_slope():
    params = golden_params()
    rng = np.random.default_rng(101)
    ok = True
    ratios = []
    for _ in range(20):
        entries = {((1,), (0,)): 0.5}
        for _e in range(int(rng.integers(2, 6))):
            k = (int(rng.integers(-3, 4)),)
            n = (int(rng.integers(-2, 3)),)
            entries[(k, n)] = float(rng.uniform(-0.5, 0.5))
        from qpwave.lattice import canonical_k
        q = CoefficientField.from_entries(
            {(canonical_k(k), n): v for (k, n), v in entries.items()}, 1, 1)
        v_entries = {}
        for _e in range(3):
            k = (int(rng.integers(-3, 4)),)
            n = (int(rng.integers(-2, 3)),)
            v_entries[(canonical_k(k), n)] = float(rng.uniform(-1.0, 1.0))
        v = CoefficientField.from_entries(v_entries, 1, 1)
        om = omega0(params)
        f0 = residual(q, om, params)
        phi = linearize(q, params.p)
        hv_lin = residual(v, om, params.with_couplings(params.eps, 0.0))
        hv = hv_lin.add(convolve(phi, v).scaled(params.delta))

        def fd_error(h):
            f1 = residual(q.add(v, h), om, params)
            keys = {(k, n) for k, n, _ in f1.canonical_items()}
            keys |= {(k, n) for k, n, _ in f0.canonical_items()}
            keys |= {(k, n) for k, n, _ in hv.canonical_items()}
            return max(abs((f1.get(k, n) - f0.get(k, n)) / h - hv.get(k, n))
                       for k, n in keys)

        ratio = fd_error(1e-4) / fd_error(1e-5)
        ratios.append(ratio)
        ok = ok and 8.0 <= ratio <= 12.0
    report(10, "finite-difference Jacobian error is O(h) (ratio in [8,12])",
           ok, f"ratios {min(ratios):.2f}..{max(ratios):.2f}")


def test_criterion_11_toeplitz_covariance():
    params = golden_params()
    rng = np.random.default_rng(23)
    ok = True
    worst = 0.0
    instances = 0
    while instances < 10:
        entries = {}
        for k in range(0, 3):
            for n in range(-2, 3):
                entries[((k,), (n,))] = float(
                    math.exp(-(k + abs(n))) * rng.normal())
        kernel = CoefficientField.from_entries(entries, 1, 1)
        om = tuple(float(w) for w in omega0(params))
        base = RegionSpec(Site((0,), (0,)), (4, 5), (0, 0), 1, 1)  # 99 sites
        k0 = int(rng.integers(1, 4))
        translated = RegionSpec(Site((k0,), (0,)), (4, 5), (0, 0), 1, 1)
        sigma = float(rng.uniform(0.1, 0.6))
        try:
            g_shift = green_matrix(OperatorSpec(
                base, sigma + k0 * om[0], om, params, kernel))
            g_trans = green_matrix(OperatorSpec(
                translated, sigma, om, params, kernel))
        except Exception:
            continue  # resonant draw: retry with the next stream values
        diff = np.abs(g_shift - g_trans).max() / max(1.0,
                                                     np.abs(g_shift).max())
        worst = max(worst, diff)
        ok = ok and diff <= 1e-12
        instances += 1
    report(11, "Green translation covariance (k-shift vs sigma-shift)", ok,
           f"worst scaled deviation {worst:.2e} over {instances} instances")


def test_criterion_12_determinism(tmp_path):
    cfg = cli.preset_config("small-coupling")
    cfg_path = tmp_path / "config.txt"
    cli.write_file(cfg_path, cfg)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        code = cli.main(["--threads", "1", "solve", "--config", str(cfg_path),
                         "--out", str(out), "--force"])
        assert code == cli.EXIT_OK
    b1 = (out1 / "solution.txt").read_bytes()
    b2 = (out2 / "solution.txt").read_bytes()
    ok = b1 == b2
    report(12, "repeated solve produces byte-identical solution files", ok,
           f"{len(b1)} bytes")
