"""The three benchmark workloads: seeded inputs, the timed op, and its checks.

Input ``i`` of a run is a pure function of (seed, i), so a fresh process can
rebuild any op.  ``run`` is the only timed code; it calls qpwave's public entry
points through their module attributes, so the span wrappers see every call.
``check`` raises :class:`CheckFailed` when an output is wrong and otherwise
returns the op's output digest and counts of correct-but-notable outcomes.

sweep-b1
    The README user flow (``qpwave certify``, then ``solve`` and
    ``oracle-compare``) run in-process through ``qpwave.cli.main`` on a b=1,
    d=1 small-coupling config with amplitude in [1,2], m in [2,3] and theta0
    in [0,1] away from the first-harmonic resonances (see FIRST_HARMONIC_GAP),
    drawn evenly from a seeded Kronecker sequence (see ``_spread``).  A gate
    refusal (exit 1, about a tenth of the draws) is a correct outcome and ends
    the op: the construction, and the oracle agreement, are promised only for
    certified parameters.  ``spectrum``, the dense-LU P-step and the box-8
    oracle share the time; convolution is only about a tenth of each solve, so
    a convolution change must show no effect here.
solve-b2
    Library ``solve`` at M=3, r_max=4, then the box-5 oracle, on b=2, d=1 with
    anchors (0,) and (j,), j in {1, 2} alternating from a seeded start, and
    seeded amplitudes in [1,2]^2.  ``nonlin.convolve_power`` takes about 90 % of
    the solve.  Anchors 3 apart are left out: the second anchor then sits on
    the edge of the stage-1 box, stage 2 stalls near 1e-7 and stage 3 runs for
    over ten minutes.  b=2 d=2 solves (one to two minutes each) are left out
    too; both return once the convolution engine and the P-step are cheaper.
    BENCHMARK.json does not list this workload yet: an op takes 6-11 s, so a
    run holds two to four of them, and on a shared 2-vCPU host its throughput
    varied by up to 37 % (quartile spread over median) between ten runs.  It
    still runs by name.
lde-scan
    ``linop.lde_scan`` on the linearized kernel of the anchored seed (what
    ``qpwave lde-scan`` builds), cycling M over 6, 8, 10 (the acceptance
    scales) with theta0 and m drawn like sweep-b1's, plus one uncoupled
    (eps = delta = 0) M=6 scan per cycle.  LAPACK ``eigvalsh`` and ``inv`` take most of the time;
    mixing M shows per-call overhead (small M) against flops (large M).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil

import numpy as np

from qpwave import cli, linop, nonlin, solver, spectrum
from qpwave.errors import Singular

ORACLE_FLOOR = 1e-9          # sup and omega discrepancy against the oracle
# sweep-b1 keeps ||2 theta0 +- alpha|| (distance to Z) at least this large:
# nearer, mu_{+-1} approaches mu_0 and solves need stage-3..5 boxes (1-17 s).
FIRST_HARMONIC_GAP = 0.04
SCAN_SIGMA_POINTS = 51      # a cycle takes about 1.5 s, so a run holds many
SCAN_CYCLE = ((6, True), (8, True), (10, True), (6, False))  # (M, coupled)


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# Steps of the three-dimensional golden (Kronecker) sequence: 1/g^k with
# g^4 = g + 1.  Its points cover [0,1)^3 evenly from the first few on.
_KRONECKER_STEP = 1.0 / 1.2207440846057594753 ** np.arange(1, 4)


def _spread(seed: int, i: int) -> np.ndarray:
    """Point ``i`` of the Kronecker sequence, shifted by a seeded offset.

    Draws made this way give every run the same even mix of inputs (how many
    of them certify, how costly they are) where independent uniform draws
    would vary it by several percent from seed to seed.
    """
    offset = np.random.default_rng([seed]).random(3)
    return (offset + i * _KRONECKER_STEP) % 1.0


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _solution_digest(omega, records) -> str:
    return _digest(cli.dumps({"omega": list(omega),
                              "records": records}).encode())


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Interface of a workload.  ``group`` ops make one whole unit of work and
    a run ends on a multiple of it.  ``setup_children`` fresh processes time
    set-up (and rerun op 0) besides the main one."""

    name = ""
    group = 1
    setup_children = 4

    def __init__(self, workdir):
        pass

    def make_input(self, seed: int, i: int):
        raise NotImplementedError

    def prepare(self, inp) -> None:
        """Untimed per-op preparation."""

    def run(self, inp, phase):
        raise NotImplementedError

    def check(self, inp, outputs) -> tuple:
        raise NotImplementedError


class SweepB1(Workload):
    """certify -> solve -> oracle-compare through ``qpwave.cli.main``."""

    name = "sweep-b1"

    def __init__(self, workdir):
        self.config_path = workdir / "config.json"
        self.out = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(seed, i)
        u_theta0, u_m, u_amp = _spread(seed, i)
        cfg = cli.preset_config("small-coupling")
        cfg["model"]["amplitudes"] = [1.0 + float(u_amp)]
        cfg["model"]["m"] = 2.0 + float(u_m)
        alpha = cfg["model"]["alpha"][0]
        theta0 = float(u_theta0)
        while True:
            gap = min(abs(x - round(x)) for x in (2 * theta0 + alpha,
                                                  2 * theta0 - alpha))
            if gap >= FIRST_HARMONIC_GAP:
                break
            theta0 = float(rng.uniform(0.0, 1.0))
        cfg["model"]["theta0"] = theta0
        return cfg

    def prepare(self, cfg: dict) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.config_path.write_text(cli.dumps(cfg))

    def _cli(self, *args) -> int:
        argv = [args[0], "--config", str(self.config_path),
                "--out", str(self.out), *args[1:]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def run(self, cfg: dict, phase) -> dict:
        codes = {}
        with phase("certify"):
            codes["certify"] = self._cli("certify")
        if codes["certify"] != cli.EXIT_OK:
            return codes
        with phase("solve"):
            codes["solve"] = self._cli("solve")
        with phase("oracle"):
            codes["oracle"] = self._cli("oracle-compare",
                                        str(self.out / "solution.txt"))
        return codes

    def check(self, cfg: dict, codes: dict) -> tuple:
        _require(codes["certify"] in (cli.EXIT_OK, cli.EXIT_GATE_FAILED),
                 f"certify exit {codes['certify']}")
        bundle = (self.out / "certificates.txt").read_text()
        _require(cli.loads(bundle)["all_pass"] == (codes["certify"] == cli.EXIT_OK),
                 "certify exit code disagrees with the bundle's all_pass")
        if codes["certify"] == cli.EXIT_GATE_FAILED:
            return _digest(bundle.encode()), {"gate_refusals": 1}
        _require(codes["solve"] == cli.EXIT_OK, f"solve exit {codes['solve']}")
        sol = cli.read_file(self.out / "solution.txt")
        floor = cfg["solver"]["residual_floor"]
        q = sol["quality"]
        _require(sol["converged"], "solve did not converge")
        _require(q["final_residual_l2"] <= floor,
                 f"final residual {q['final_residual_l2']:.3e} > {floor:g}")
        _require(q["anchors_exact"], "anchors not exact")
        _require(codes["oracle"] == cli.EXIT_OK,
                 f"oracle-compare exit {codes['oracle']}")
        comp = cli.read_file(self.out / "oracle_compare.txt")
        _require(comp["sup_discrepancy"] <= ORACLE_FLOOR
                 and comp["omega_discrepancy"] <= ORACLE_FLOOR,
                 f"oracle discrepancy {comp['sup_discrepancy']:.3e} / "
                 f"{comp['omega_discrepancy']:.3e}")
        return (_solution_digest(sol["omega"], sol["records"]),
                {"gate_refusals": 0})


class SolveB2(Workload):
    """Library staged solve at b=2, d=1, then the dense oracle at box 5."""

    name = "solve-b2"
    group = 2                 # as many ops with j = 1 as with j = 2
    setup_children = 2        # each set-up includes a whole warm-up op
    config = solver.SolverConfig(M=3, r_max=4)
    oracle_box = 5

    def make_input(self, seed: int, i: int):
        rng = _rng(seed, i)
        cfg = cli.preset_config("small-coupling")
        cfg["model"].update(
            b=2, anchors=[[0], [1 + (seed + i) % 2]],
            amplitudes=[float(a) for a in rng.uniform(1.0, 2.0, size=2)])
        return cli.model_params(cfg)

    def run(self, params, phase) -> tuple:
        with phase("solve"):
            sol = solver.solve(params, self.config)
        with phase("oracle"):
            oracle = solver.brute_force_oracle(params, self.oracle_box)
            comp = solver.compare_with_oracle(sol, oracle, self.oracle_box)
        return sol, comp

    def check(self, params, outputs) -> tuple:
        sol, comp = outputs
        q = sol.quality
        _require(sol.converged, "solve did not converge")
        _require(q["final_residual_l2"] <= self.config.residual_floor,
                 f"final residual {q['final_residual_l2']:.3e}")
        _require(q["anchors_exact"], "anchors not exact")
        _require(comp["sup_discrepancy"] <= ORACLE_FLOOR
                 and comp["omega_discrepancy"] <= ORACLE_FLOOR,
                 f"oracle discrepancy {comp['sup_discrepancy']:.3e} / "
                 f"{comp['omega_discrepancy']:.3e}")
        return _solution_digest(sol.omega, cli.field_records(sol.q)), {}


class LdeScan(Workload):
    """One LDE scan per op; ops cycle through ``SCAN_CYCLE``."""

    name = "lde-scan"
    group = len(SCAN_CYCLE)   # runs end on whole cycles

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(seed, i)
        u_theta0, u_m, _u = _spread(seed, i)
        M, coupled = SCAN_CYCLE[i % len(SCAN_CYCLE)]
        cfg = cli.preset_config("scan-demo")
        cfg["model"]["theta0"] = float(u_theta0)
        cfg["model"]["m"] = 2.0 + float(u_m)
        params = cli.model_params(cfg)
        if not coupled:
            params = params.with_couplings(0.0, 0.0)
        return {"M": M, "params": params,
                "probe": int(rng.integers(SCAN_SIGMA_POINTS))}

    def run(self, inp: dict, phase) -> tuple:
        params = inp["params"]
        coupled = params.delta != 0.0
        with phase("scan" if coupled else "uncoupled_scan"):
            kernel = nonlin.linearize(solver.initial_field(params), params.p) \
                if coupled else None
            omega = tuple(float(w) for w in spectrum.omega0(params))
            report = linop.lde_scan(inp["M"], params, omega, kernel,
                                    num_sigma=SCAN_SIGMA_POINTS)
        return report, omega, kernel

    def check(self, inp: dict, outputs) -> tuple:
        report, omega, kernel = outputs
        M, params = inp["M"], inp["params"]
        sigma, flags = report.sigma_grid, np.asarray(report.bad_flags)
        _require(len(sigma) == SCAN_SIGMA_POINTS == len(flags),
                 "sigma grid size")
        if kernel is None:
            # criterion 9: the uncoupled bad set is exactly the explicit
            # resonance intervals
            iv = np.array(linop.diagonal_bad_intervals(M, params, omega))
            inside = ((sigma[:, None] >= iv[:, 0]) &
                      (sigma[:, None] <= iv[:, 1])).any(axis=1)
            mism = int(np.count_nonzero(inside != flags))
            _require(mism == 0, f"{mism} sigma flags disagree with "
                                "diagonal_bad_intervals")
        else:
            # one seeded sigma, recomputed region by region through green()
            j = inp["probe"]
            at = float(sigma[j])
            worst, bad = 0.0, False
            for region in linop.elementary_region_family(
                    M, params.b, params.d, params.resonant_set()):
                spec = linop.OperatorSpec(region, at, omega, params, kernel)
                try:
                    g = linop.green(spec, scale=float(M))
                except Singular:
                    worst, bad = np.inf, True
                    continue
                worst = max(worst, g.operator_norm)
                bad = bad or not (g.norm_ok and g.decay_ok)
            got = float(report.worst_norm[j])
            _require(bool(flags[j]) == bad, f"bad flag at sigma={at!r}: "
                                            f"scan {bool(flags[j])}, green {bad}")
            _require(got == worst or abs(got - worst) <= 1e-6 * worst,
                     f"worst norm at sigma={at!r}: {got} vs {worst}")
        return _digest(flags.astype(bool).tobytes(),
                       np.asarray(report.worst_norm, dtype=float).tobytes()), {}


WORKLOADS = {w.name: w for w in (SweepB1, SolveB2, LdeScan)}
