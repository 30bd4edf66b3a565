"""Command-line interface: configuration, dispatch and persistence.

Commands
--------
certify        write the non-resonance certificate bundle (exit 0 iff all
               hard gates pass)
solve          run the staged solver; writes solution + trace files.  It
               needs the output directory's certificate bundle to pass
               and to certify the same model block (--force skips this)
lde-scan       scan a sigma grid against the large-deviation inequalities;
               writes a report and plot-ready columns
report         human-readable summary of a solution file
oracle-compare rerun the dense oracle and report the discrepancy against a
               solution file

File formats (format_version 1)
-------------------------------
Configs and all structured outputs are JSON text with sorted keys and every
finite float printed with 17 significant digits (round-trip exact); NaN and
+-inf are written as null.  Files carry the full config echo for provenance.
Solution records are rows [k-vector, n-vector, value] sorted by (|k|+|n|,
lexicographic).  Plot data is column text: sigma, worst region norm, worst
decay margin, good/bad flag.

Exit codes: 0 success, 1 certification gate failure (certify, or solve on a
failed or stale bundle), 2 invalid config or malformed file (a missing
bundle included), 3 resonant box, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import linop, solver, spectrum
from .errors import (NonConvergence, QPWaveError, ResonantBox, cast_number,
                     check_ranges)
from .lattice import Site
from .nonlin import CoefficientField, linearize
from .spectrum import Certificate, ModelParams
from .solver import SolverConfig

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_RESONANT_BOX = 3
EXIT_NON_CONVERGENCE = 4

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
PRESET_THETA0 = 0.3455

# what reading a malformed config or solution file raises (a
# json.JSONDecodeError is a ValueError)
MALFORMED = (OSError, LookupError, ValueError, TypeError, AttributeError)


# ---------------------------------------------------------------------------
# deterministic structured-text serialization (JSON syntax, 17 significant
# digits on floats, sorted keys)
# ---------------------------------------------------------------------------

def _format_value(value, indent: int) -> str:
    # the exact built-in types first; strings are escaped as json.dumps of a
    # str escapes them (ensure_ascii), without its per-call encoder set-up
    kind = type(value)
    if kind is float:
        return format(value, ".17g") if math.isfinite(value) else "null"
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key in sorted(value.keys(), key=str):
            rows.append(f'{pad}  {encode_basestring_ascii(str(key))}: '
                        f'{_format_value(value[key], indent + 2)}')
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple, np.ndarray))
                   for x in items)
        if flat:
            return "[" + ", ".join(_format_value(x, indent) for x in items) + "]"
        rows = [f"{pad}  {_format_value(x, indent + 2)}" for x in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    return _format_value(obj, 0) + "\n"


def loads(text: str):
    return json.loads(text)


def write_file(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(obj))


def read_file(path: Path):
    return loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CertConfig:
    """The ``cert`` block: Diophantine scale L and constant c*, the
    non-resonance margin eta, and the grid sizes of the certify scans."""

    L: int = 5
    c_star: float = 0.008
    eta: float = 1e-3
    m_grid_points: int = 2001
    sigma_grid_points: int = 4001
    transversality_m_points: int = 201

    def __post_init__(self):
        check_ranges("cert.", self, (
            ("L", self.L >= 2, ">= 2"),  # L = 1 makes c* = L^(-3d) = 1
            ("c_star", 0.0 < self.c_star < 1.0, "in (0, 1)"),
            ("eta", self.eta > 0.0, "> 0"),
            ("m_grid_points", self.m_grid_points >= 1, ">= 1"),
            ("sigma_grid_points", self.sigma_grid_points >= 1, ">= 1"),
            ("transversality_m_points", self.transversality_m_points >= 1,
             ">= 1")))


@dataclasses.dataclass(frozen=True)
class ScanConfig:
    """The ``scan`` block's sizes: region scale M, sigma grid points, region
    cap and an optional sigma window [lo, hi].  The same block's exponents
    rho1-rho3 and gamma_prime are read into ``linop.Thresholds``."""

    M: int = 8
    num_sigma: int = 1601
    max_regions: int = 64
    window: Optional[tuple] = None

    def __post_init__(self):
        if self.window is not None:
            object.__setattr__(self, "window", tuple(
                cast_number("scan.window", x, float) for x in self.window))
        check_ranges("scan.", self, (
            ("M", self.M >= 2, ">= 2"),
            ("num_sigma", self.num_sigma >= 2, ">= 2"),
            ("max_regions", self.max_regions >= 1, ">= 1"),
            ("window", self.window is None or (
                len(self.window) == 2
                and -math.inf < self.window[0] < self.window[1] < math.inf),
             "null or finite [lo, hi] with lo < hi")))


# the config block each dataclass reads; it owns the block's defaults and
# range rules
SCHEMA = {SolverConfig: "solver", CertConfig: "cert", ScanConfig: "scan",
          linop.Thresholds: "scan"}
PRESETS = ("trivial", "small-coupling", "scan-demo")


def default_config() -> dict:
    cfg = {
        "format_version": FORMAT_VERSION,
        "model": {
            "b": 1, "d": 1, "p": 2, "m": 2.5,
            "eps": 1e-3, "delta": 1e-3,
            "alpha": [GOLDEN_MEAN], "theta0": PRESET_THETA0,
            "anchors": [[0]], "amplitudes": [1.0],
            "gamma": ModelParams.gamma,
        },
        "output": {"out_dir": "qpwave-out"},
    }
    for cls, block in SCHEMA.items():
        cfg.setdefault(block, {}).update(dataclasses.asdict(cls()))
    return cfg


def preset_config(name: str) -> dict:
    """small-coupling and scan-demo are the defaults; trivial is uncoupled."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    cfg = default_config()
    if name == "trivial":
        cfg["model"]["eps"] = cfg["model"]["delta"] = 0.0
    return cfg


def model_params(cfg: dict) -> ModelParams:
    m = cfg["model"]

    def cast(key, value, typ):
        return cast_number(f"model.{key}", value, typ)

    return ModelParams(
        **{key: cast(key, m[key], typ) for key, typ in (
            ("b", int), ("d", int), ("p", int), ("m", float), ("eps", float),
            ("delta", float), ("theta0", float))},
        alpha=tuple(cast("alpha", a, float) for a in m["alpha"]),
        anchors=tuple(tuple(cast("anchors", x, int) for x in n)
                      for n in m["anchors"]),
        amplitudes=tuple(cast("amplitudes", a, float) for a in m["amplitudes"]),
        gamma=cast("gamma", m.get("gamma", ModelParams.gamma), float),
    )


def config_block(cfg: dict, cls):
    """``cls`` built from its config block (``SCHEMA``): the fields the block
    names over the defaults, cast by ``errors.cast_number`` to the defaults'
    types; a field whose default is None takes the value (``null``
    included) as it is.  ``cls`` range-checks them; keys it does not name
    are ignored."""
    block = cfg.get(SCHEMA[cls], {})
    return cls(**{f.name: block[f.name] if f.default is None
                  else cast_number(f"{SCHEMA[cls]}.{f.name}", block[f.name],
                                   type(f.default))
                  for f in dataclasses.fields(cls) if f.name in block})


def load_config(path=None, preset=None) -> dict:
    if (path is None) == (preset is None):
        raise ValueError("exactly one of --config and --preset is required")
    cfg = preset_config(preset) if preset else read_file(Path(path))
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ValueError("config must be an object with a 'model' block")
    for block in ("model", "solver", "cert", "scan", "output"):
        if block in cfg and not isinstance(cfg[block], dict):
            raise ValueError(f"config block '{block}' must be an object, "
                             f"got {cfg[block]!r}")
    out_dir = cfg.get("output", {}).get("out_dir", "qpwave-out")
    if not isinstance(out_dir, str):
        raise ValueError(f"output.out_dir must be a string, got {out_dir!r}")
    if cast_number("format_version", cfg.get("format_version", FORMAT_VERSION),
                   int) != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {cfg.get('format_version')}")
    model_params(cfg)   # range checks happen at load time
    for cls in SCHEMA:
        config_block(cfg, cls)
    return cfg


# ---------------------------------------------------------------------------
# serialization of domain objects
# ---------------------------------------------------------------------------

def certificate_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "inputs": cert.inputs,
        "margin": cert.margin,
        "passed": cert.passed,
        "witnesses": [[list(w[0]) if isinstance(w[0], (tuple, list)) else [w[0]],
                       w[1]] for w in cert.witnesses],
        "notes": cert.notes,
    }


def field_records(field: CoefficientField) -> list:
    rows = []
    for k, n, v in field.full_items():
        rows.append((Site(k, n).order, k + n, list(k), list(n), float(v)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [[r[2], r[3], r[4]] for r in rows]


def field_from_records(records, b: int, d: int) -> CoefficientField:
    """The field of rows [k, n, value]; a repeated site must repeat its value
    and every index must be an integral number (ValueError otherwise)."""
    def index(vector):
        return tuple(cast_number("records index", x, int) for x in vector)

    return CoefficientField.from_entries(
        (((index(k), index(n)), v) for k, n, v in records), b, d)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_certify(cfg: dict, out_dir: Path) -> int:
    params = model_params(cfg)
    cert = config_block(cfg, CertConfig)
    L, c_star, eta = cert.L, cert.c_star, cert.eta

    bundle = {"format_version": FORMAT_VERSION, "config": cfg,
              "certificates": {}, "gates": {}}
    certs = bundle["certificates"]

    alpha_cert, theta_cert = spectrum.diophantine_certificates(params, L,
                                                               c_star)
    certs["alpha_dc"] = certificate_dict(alpha_cert)
    certs["theta_dc"] = certificate_dict(theta_cert)
    gates = {"alpha_dc": alpha_cert.passed, "theta_dc": theta_cert.passed}

    if alpha_cert.passed and theta_cert.passed:
        sep = spectrum.separation_certificate(params, L, c_star)
        certs["separation"] = certificate_dict(sep)
        gates["separation"] = sep.passed

        m_grid = np.linspace(2.0, 3.0, cert.transversality_m_points)
        trans = []
        k_one = tuple(1 if i == 0 else 0 for i in range(params.b))
        trans.append(spectrum.transversality_margin("harmonic", k_one, params, m_grid))
        probe = [0] * params.d
        while tuple(probe) in {tuple(a) for a in params.anchors}:
            probe[0] += 1
        off_anchor = tuple(probe)
        trans.append(spectrum.transversality_margin(
            "shifted", k_one, params, m_grid, n=off_anchor))
        trans.append(spectrum.transversality_margin(
            "difference", k_one, params, m_grid, n=off_anchor,
            n_prime=tuple(params.anchors[0])))
        certs["transversality"] = [certificate_dict(c) for c in trans]
        gates["transversality"] = all(c.passed for c in trans)

        scan = spectrum.admissible_m_scan(
            params, L, eta, np.linspace(2.0, 3.0, cert.m_grid_points))
        certs["admissible_m"] = certificate_dict(scan.certificate)
        certs["admissible_m"]["failing_fraction"] = scan.failing_fraction
        certs["admissible_m"]["theoretical_bound"] = scan.theoretical_bound
        certs["admissible_m"]["theoretical_bound_feasible"] = scan.theoretical_bound_feasible
        certs["admissible_m"]["condition_fail_fractions"] = \
            scan.condition_fail_fractions
        gates["admissible_m"] = scan.certificate.passed

        om = spectrum.omega0(params)
        reach = L * float(np.abs(om).sum()) + math.sqrt(params.m + 1.0) + 1.0
        sigma_grid = np.linspace(-reach, reach, cert.sigma_grid_points)
        worst, at = spectrum.cluster_scan(params, L, eta, sigma_grid)
        cluster_cert = Certificate(
            kind="cluster",
            inputs={"L": L, "eta": eta, "sigma_points": cert.sigma_grid_points,
                    "window": [-reach, reach], "m": params.m},
            margin=float(params.b - worst) + 0.5,  # pass iff worst <= b
            witnesses=(((("worst_count",)), float(worst)),
                       ((("at_sigma",)), float(at))),
            notes=f"max cluster count {worst} (bound b = {params.b})",
        )
        certs["cluster"] = certificate_dict(cluster_cert)
        gates["cluster"] = cluster_cert.passed
    else:
        gates["separation"] = False

    bundle["gates"] = gates
    bundle["all_pass"] = all(gates.values())
    write_file(out_dir / "certificates.txt", bundle)
    print(f"certificates -> {out_dir / 'certificates.txt'}")
    for name, ok in sorted(gates.items()):
        print(f"  gate {name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if bundle["all_pass"] else EXIT_GATE_FAILED


def run_solve(cfg: dict, out_dir: Path, force: bool = False,
              with_oracle: bool = False) -> int:
    if not force:
        try:
            bundle = read_file(out_dir / "certificates.txt")
            certified = bundle["all_pass"] is True \
                and bundle["config"]["model"] == cfg["model"]
        except MALFORMED as exc:
            print(f"error: no readable certificate bundle in the output "
                  f"directory ({exc}); run certify first or pass --force",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
        if not certified:
            print("error: the certificate bundle failed or certifies another "
                  "model; run certify on this config or pass --force",
                  file=sys.stderr)
            return EXIT_GATE_FAILED
    params = model_params(cfg)
    config = config_block(cfg, SolverConfig)
    sol = solver.solve(params, config)

    solution_obj = {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "omega": list(sol.omega),
        "omega0": [float(w) for w in spectrum.omega0(params)],
        "converged": sol.converged,
        "quality": sol.quality,
        "records": field_records(sol.q),
    }
    write_file(out_dir / "solution.txt", solution_obj)
    trace_obj = {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "stages": [{
            "stage": r.stage, "box_radius": r.box_radius,
            "delta_q_norm": r.delta_q_norm, "residual_norm": r.residual_norm,
            "omega": list(r.omega), "decay_rate": r.decay_rate,
            "wall_time": r.wall_time,
        } for r in sol.trace],
    }
    write_file(out_dir / "trace.txt", trace_obj)
    print(f"solution -> {out_dir / 'solution.txt'}")
    print(f"trace    -> {out_dir / 'trace.txt'}")
    print(f"converged: {sol.converged}; final residual "
          f"{sol.quality['final_residual_l2']:.3e}; "
          f"tail {sol.quality['weighted_tail']:.3e}")
    if not sol.converged:
        print(f"error: non-convergence: residual floor not reached in "
              f"r_max = {config.r_max} stages", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    if with_oracle:
        box = min(8, config.M ** min(2, config.r_max))
        comp = _write_oracle_compare(cfg, out_dir, params, sol, box)
        print(f"oracle discrepancy {comp['sup_discrepancy']:.3e} "
              f"-> {out_dir / 'oracle_compare.txt'}")
    return EXIT_OK


def _write_oracle_compare(cfg: dict, out_dir: Path, params: ModelParams,
                          solution, box: int) -> dict:
    """Run the dense oracle on the cube of radius ``box``, compare it with
    ``solution`` (anything with ``.q`` and ``.omega``) and write
    oracle_compare.txt; returns the comparison."""
    oracle = solver.brute_force_oracle(params, box)
    comp = solver.compare_with_oracle(solution, oracle, box)
    write_file(out_dir / "oracle_compare.txt", {
        "format_version": FORMAT_VERSION, "config": cfg, "box": box,
        "sup_discrepancy": comp["sup_discrepancy"],
        "omega_discrepancy": comp["omega_discrepancy"],
        "oracle_final_residual": oracle.final_residual,
    })
    return comp


def run_lde_scan(cfg: dict, out_dir: Path) -> int:
    params = model_params(cfg)
    scan = config_block(cfg, ScanConfig)
    omega = spectrum.omega0(params)
    kernel = linearize(solver.initial_field(params), params.p) \
        if params.delta != 0.0 else None
    sigma_grid = np.linspace(*scan.window, scan.num_sigma) \
        if scan.window is not None else None
    report = linop.lde_scan(
        scan.M, params, tuple(float(w) for w in omega), kernel,
        sigma_grid=sigma_grid,
        thresholds=config_block(cfg, linop.Thresholds),
        max_regions=scan.max_regions, num_sigma=scan.num_sigma)

    summary = {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "scale": report.scale,
        "window": list(report.window),
        "sigma_points": len(report.sigma_grid),
        "n_regions": report.n_regions,
        "subsampled": report.subsampled,
        "bad_fraction": report.bad_fraction,
        "bad_measure": report.bad_measure,
        "comparison_value": report.comparison_value,
        "passes_fraction_bound": report.passes,
        "bad_intervals": [list(iv) for iv in report.bad_intervals],
    }
    write_file(out_dir / "lde_scan.txt", summary)
    plot_path = out_dir / "lde_scan_plot.dat"
    with plot_path.open("w") as fh:
        fh.write("# sigma worst_norm worst_decay_margin bad\n")
        for s, wn, wd, bd in zip(report.sigma_grid, report.worst_norm,
                                 report.worst_decay_margin, report.bad_flags):
            fh.write(f"{format(float(s), '.17g')} {format(float(wn), '.17g')} "
                     f"{format(float(wd), '.17g')} {int(bd)}\n")
    print(f"lde scan -> {out_dir / 'lde_scan.txt'} (+ plot data)")
    print(f"bad fraction {report.bad_fraction:.4f} vs exp(-M^rho1) = "
          f"{report.comparison_value:.4f}; bad measure {report.bad_measure:.3f}")
    return EXIT_OK


def run_report(solution_path: Path) -> int:
    try:
        obj = read_file(solution_path)
        quality = obj["quality"]
        omega = obj["omega"]
        dev = max(abs(w - w0) for w, w0 in zip(omega, obj["omega0"]))
        cert = obj.get("config", {}).get("cert", {}).items()
        lines = [
            f"omega            : {', '.join(format(w, '.12g') for w in omega)}",
            f"|omega - omega0| : {dev:.6e}",
            f"residual (l2)    : {quality['final_residual_l2']:.6e}",
            f"residual (sup)   : {quality['final_residual_sup']:.6e}",
            f"pde residual     : {quality['pde_residual_max']:.6e}",
            f"weighted tail    : {quality['weighted_tail']:.6e} "
            f"(rho = {quality['weighted_tail_rho']})"]
        tail_thr = quality.get("tail_threshold", 0.0)
        if tail_thr and quality["weighted_tail"] >= tail_thr:
            lines.append(f"WARN: tail >= sqrt(eps+delta) = {tail_thr:.6e}")
        lines += [f"anchors exact    : {quality['anchors_exact']}",
                  f"support bound    : {quality['support_bound']}",
                  f"lattice entries  : {quality['lattice_entries']}",
                  "cert scales      : "
                  + ", ".join(f"{k}={v}" for k, v in sorted(cert))]
    except MALFORMED as exc:
        print(f"error: malformed solution file: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print("\n".join(lines))
    return EXIT_OK


def run_oracle_compare(cfg: dict, out_dir: Path, solution_path: Path,
                       box: int = 8) -> int:
    try:
        obj = read_file(solution_path)
        params = model_params(cfg)
        solution = SimpleNamespace(
            q=field_from_records(obj["records"], params.b, params.d),
            omega=tuple(float(w) for w in obj["omega"]))
        if len(solution.omega) != params.b:
            raise ValueError(f"omega must have b = {params.b} entries, "
                             f"got {len(solution.omega)}")
    except MALFORMED as exc:
        print(f"error: malformed solution file: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    comp = _write_oracle_compare(cfg, out_dir, params, solution, box)
    print(f"sup discrepancy {comp['sup_discrepancy']:.3e}, "
          f"omega discrepancy {comp['omega_discrepancy']:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _box_radius(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"box radius must be >= 1, got {text}")
    return int(text)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each call of ``main`` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qpwave",
        description="Anderson-localized quasi-periodic lattice wave solutions: "
                    "certification, staged solver and diagnostics.")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count (results are thread-count "
                             "independent; computation is single-process)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--preset", choices=PRESETS, default=None)
        p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("certify", help="write the certificate bundle")
    common(p)
    p = sub.add_parser("solve", help="run the staged solver")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="solve without a passing certificate bundle")
    p.add_argument("--oracle", action="store_true",
                   help="also run the dense oracle and record the discrepancy")
    p = sub.add_parser("lde-scan", help="scan sigma against the LDE bounds")
    common(p)
    p = sub.add_parser("report", help="summarize a solution file")
    p.add_argument("solution", type=Path)
    p = sub.add_parser("oracle-compare",
                       help="compare a solution file against the dense oracle")
    common(p)
    p.add_argument("solution", type=Path)
    p.add_argument("--box", type=_box_radius, default=8)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return run_report(args.solution)
    try:
        cfg = load_config(args.config, args.preset)
    except MALFORMED + (QPWaveError,) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out_dir = args.out if args.out is not None \
        else Path(cfg.get("output", {}).get("out_dir", "qpwave-out"))
    try:
        if args.command == "certify":
            return run_certify(cfg, out_dir)
        if args.command == "solve":
            return run_solve(cfg, out_dir, force=args.force,
                             with_oracle=args.oracle)
        if args.command == "lde-scan":
            return run_lde_scan(cfg, out_dir)
        if args.command == "oracle-compare":
            return run_oracle_compare(cfg, out_dir, args.solution, args.box)
    except ResonantBox as exc:
        print(f"error: resonant box: {exc}", file=sys.stderr)
        return EXIT_RESONANT_BOX
    except NonConvergence as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except QPWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
