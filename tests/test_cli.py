import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpwave import cli, spectrum


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def reference_format_value(value, indent: int) -> str:
    """The writer before its exact-type fast path: an isinstance ladder with
    json.dumps for every key and string."""
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
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key in sorted(value.keys(), key=str):
            rows.append(f'{pad}  {json.dumps(str(key))}: '
                        f'{reference_format_value(value[key], indent + 2)}')
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        flat = all(not isinstance(x, (dict, list, tuple, np.ndarray))
                   for x in items)
        if flat:
            return "[" + ", ".join(reference_format_value(x, indent)
                                   for x in items) + "]"
        rows = [f"{pad}  {reference_format_value(x, indent + 2)}" for x in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


# keys and strings with quotes, backslashes, control and non-ASCII characters
_texts = st.one_of(st.text(max_size=8),
                   st.sampled_from(['"', '\\', 'a"b', "\n\t", "\x00\x1f",
                                    "é", "θ₀", "\u2028", "😀", "'"]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1, 1e-320]),
    _texts,
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.int32, st.integers(-2**31, 2**31 - 1)))
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.lists(st.floats(), max_size=4).map(np.array),
        st.dictionaries(st.one_of(_texts, st.integers(-5, 5)), inner,
                        max_size=4)),
    max_leaves=20)


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(doc=_documents)
    def test_dumps_matches_the_isinstance_ladder(self, doc):
        assert cli.dumps(doc) == reference_format_value(doc, 0) + "\n"

    def test_dumps_matches_on_edge_values(self):
        doc = {"é\"k": ["θ", 'q"', True, 1, False, 0],
               '"': {"\\": np.float64(0.1), "i": np.int64(-3),
                     "f32": np.float32(1.5), "nan": np.float64(np.nan)},
               "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-320],
               3: (None, "😀"), "arr": np.array([1.0, np.inf])}
        text = cli.dumps(doc)
        assert text == reference_format_value(doc, 0) + "\n"
        assert text.isascii()
        assert '"\\u00e9\\"k": ["\\u03b8", "q\\"", true, 1, false, 0]' in text
        parsed = json.loads(text)
        assert parsed["floats"] == [None, None, None, -0.0, 1e-320]
        assert parsed['"']["nan"] is None and parsed["arr"] == [1.0, None]

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError):
            cli.dumps({"x": {1, 2}})


class TestConfig:
    def test_round_trip_identity(self, workdir):
        cfg = cli.default_config()
        path = workdir / "config.txt"
        cli.write_file(path, cfg)
        again = cli.read_file(path)
        assert again == cfg
        cli.write_file(workdir / "config2.txt", again)
        assert (workdir / "config2.txt").read_text() == path.read_text()

    def test_float_format_17_digits(self):
        text = cli.dumps({"x": 0.1, "y": 1.0 / 3.0})
        assert "0.10000000000000001" in text
        assert "0.33333333333333331" in text
        parsed = cli.loads(text)
        assert parsed["x"] == 0.1
        assert parsed["y"] == 1.0 / 3.0

    def test_non_finite_floats_are_strict_json_null(self):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        values = [math.inf, -math.inf, math.nan]
        text = cli.dumps({"list": values, "inf": math.inf,
                          "-inf": -math.inf, "nan": math.nan})
        parsed = json.loads(text, parse_constant=refuse)
        assert parsed == {"list": [None] * 3, "inf": None, "-inf": None,
                          "nan": None}

    def test_presets_validate(self):
        for name in ("trivial", "small-coupling", "scan-demo"):
            cfg = cli.preset_config(name)
            cli.model_params(cfg)
            for cls in cli.SCHEMA:
                cli.config_block(cfg, cls)

    def test_config_with_legacy_seed_loads(self, workdir):
        # fields earlier versions wrote: a top-level seed, the solver's
        # dense/sparse switch, Q-step damping, condition gate and coupling
        # limit, the Diophantine scale exponent and the theta-scan exponent
        default = cli.default_config()
        for block, field, value in ((None, "seed", 20240601),
                                    ("solver", "dense_size_limit", 5000),
                                    ("solver", "q_update_damping", 1e-9),
                                    ("solver", "max_condition", 0.5),
                                    ("solver", "coupling_limit", 0.0),
                                    ("model", "k_exponent", 5.0),
                                    ("scan", "rho4", 0.05)):
            cfg = cli.default_config()
            target = cfg if block is None else cfg[block]
            assert field not in target
            target[field] = value
            path = workdir / "legacy.txt"
            cli.write_file(path, cfg)
            assert cli.load_config(path) == cfg
            assert cli.model_params(cfg) == cli.model_params(default)
            for cls in cli.SCHEMA:
                assert cli.config_block(cfg, cls) == cls()

    @pytest.mark.parametrize("field, value", [
        ("M", 1), ("r_max", 0), ("r_max", -3), ("residual_floor", 0.0),
        ("residual_floor", -1.0), ("M", 3.7), ("M", "3"), ("r_max", True),
    ])
    def test_out_of_range_solver_block_is_bad_config(self, workdir, field,
                                                     value):
        cfg = cli.default_config()
        cfg["solver"][field] = value
        path = workdir / "solver.txt"
        cli.write_file(path, cfg)
        assert run(["solve", "--config", path, "--out", workdir,
                    "--force"]) == cli.EXIT_BAD_CONFIG
        assert not (workdir / "solution.txt").exists()

    @pytest.mark.parametrize("field, value", [
        ("b", 1.9), ("d", True), ("anchors", [[0.5]]), ("m", "2.5"),
        ("gamma", math.nan), ("gamma", math.inf),
    ])
    def test_mistyped_model_field_is_bad_config(self, workdir, field, value):
        cfg = cli.default_config()
        cfg["model"][field] = value
        path = workdir / "model.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert not (workdir / "certificates.txt").exists()

    def test_invalid_config_exit_code(self, workdir):
        bad = cli.default_config()
        bad["model"]["m"] = 7.0  # outside [2,3]
        path = workdir / "bad.txt"
        cli.write_file(path, bad)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("block",
                             ["model", "solver", "cert", "scan", "output"])
    def test_block_that_is_not_an_object_is_bad_config(self, workdir,
                                                       monkeypatch, block):
        cfg = cli.default_config()
        cfg[block] = None
        path = workdir / "null-block.txt"
        cli.write_file(path, cfg)
        monkeypatch.chdir(workdir)   # no --out: "output" names the directory
        assert run(["certify", "--config", path]) == cli.EXIT_BAD_CONFIG
        assert not (workdir / "qpwave-out").exists()

    @pytest.mark.parametrize("out_dir", [5, None, ["a"]],
                             ids=["int", "null", "list"])
    def test_non_string_out_dir_is_bad_config(self, workdir, monkeypatch,
                                              out_dir):
        cfg = cli.default_config()
        cfg["output"]["out_dir"] = out_dir
        path = workdir / "out-dir.txt"
        cli.write_file(path, cfg)
        monkeypatch.chdir(workdir)
        assert run(["certify", "--config", path]) == cli.EXIT_BAD_CONFIG
        assert not list(workdir.rglob("certificates.txt"))

    @pytest.mark.parametrize("version", [1.5, True, "1", 2])
    def test_bad_format_version_is_bad_config(self, workdir, version):
        cfg = cli.default_config()
        cfg["format_version"] = version
        path = workdir / "version.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG

    def test_malformed_config_exit_code(self, workdir):
        path = workdir / "broken.txt"
        path.write_text("{not valid json]")
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG


class TestCertify:
    @pytest.mark.parametrize("field, value", [
        ("L", 0), ("L", 1), ("c_star", 1.0), ("eta", 0.0), ("m_grid_points", 0),
        ("sigma_grid_points", 0), ("transversality_m_points", 0),
        ("L", True), ("m_grid_points", 20.5), ("eta", True),
    ])
    def test_out_of_range_cert_block_is_bad_config(self, workdir, field,
                                                   value):
        cfg = cli.default_config()
        cfg["cert"][field] = value
        path = workdir / "cert.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert not (workdir / "certificates.txt").exists()

    def test_golden_preset_passes(self, workdir, capsys):
        code = run(["certify", "--preset", "small-coupling", "--out", workdir])
        assert code == cli.EXIT_OK
        bundle = cli.read_file(workdir / "certificates.txt")
        assert bundle["all_pass"]
        assert bundle["certificates"]["alpha_dc"]["passed"]
        assert bundle["certificates"]["separation"]["passed"]
        assert bundle["gates"]["cluster"]

    def test_degenerate_alpha_fails(self, workdir):
        cfg = cli.default_config()
        cfg["model"]["alpha"] = [0.0]
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        code = run(["certify", "--config", path, "--out", workdir])
        assert code == cli.EXIT_GATE_FAILED
        bundle = cli.read_file(workdir / "certificates.txt")
        assert not bundle["all_pass"]

    def test_anchor_outside_scan_box_is_bad_config(self, workdir, capsys):
        cfg = cli.default_config()
        cfg["model"].update(b=2, anchors=[[0], [7]], amplitudes=[1.0, 1.0])
        cfg["cert"]["L"] = 5
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "(7,)" in err and "L = 5" in err
        assert not (workdir / "certificates.txt").exists()

    @pytest.mark.parametrize("c_star, distinct", [(0.008, 1), (1e-3, 2)])
    def test_each_diophantine_check_runs_once(self, workdir, monkeypatch,
                                              c_star, distinct):
        # c* = 0.008 = 5^-3 is also the admissible-m scan's c* = L^(-3d);
        # c* = 1e-3 gives the scan a second (L, c*)
        calls = []
        for name in ("check_alpha_dc", "check_theta_dc"):
            def counted(*args, fn=getattr(spectrum, name), name=name):
                calls.append((name, *args[-2:]))
                return fn(*args)

            monkeypatch.setattr(spectrum, name, counted)
        spectrum._diophantine.cache_clear()
        cfg = cli.default_config()
        cfg["cert"]["c_star"] = c_star
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_OK
        assert len(calls) == len(set(calls)) == 2 * distinct

    def test_rerun_byte_identical(self, workdir):
        run(["certify", "--preset", "small-coupling", "--out", workdir])
        first = (workdir / "certificates.txt").read_bytes()
        run(["certify", "--preset", "small-coupling", "--out", workdir])
        assert (workdir / "certificates.txt").read_bytes() == first


class TestSolve:
    def test_requires_bundle_or_force(self, workdir):
        assert run(["solve", "--preset", "trivial", "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG

    def test_certified_preset_solves(self, workdir):
        assert run(["certify", "--preset", "small-coupling", "--out",
                    workdir]) == cli.EXIT_OK
        assert run(["solve", "--preset", "small-coupling", "--out",
                    workdir]) == cli.EXIT_OK
        assert (workdir / "solution.txt").exists()

    def test_failed_bundle_blocks_solve(self, workdir, capsys):
        cfg = cli.default_config()
        cfg["model"]["alpha"] = [0.5]
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_GATE_FAILED
        capsys.readouterr()
        assert run(["solve", "--config", path, "--out", workdir]) == \
            cli.EXIT_GATE_FAILED
        assert "--force" in capsys.readouterr().err
        assert not (workdir / "solution.txt").exists()
        assert run(["solve", "--config", path, "--out", workdir,
                    "--force"]) == cli.EXIT_OK

    def test_parser_is_built_once_and_keeps_no_state(self, workdir):
        # one parser serves every call: --force on one call must not carry
        # over to the next, which still meets the gate
        assert cli.build_parser() is cli.build_parser()
        cfg = cli.default_config()
        cfg["model"]["alpha"] = [0.5]
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        assert run(["certify", "--config", path, "--out", workdir]) == \
            cli.EXIT_GATE_FAILED
        assert run(["solve", "--config", path, "--out", workdir,
                    "--force"]) == cli.EXIT_OK
        (workdir / "solution.txt").unlink()
        assert run(["solve", "--config", path, "--out", workdir]) == \
            cli.EXIT_GATE_FAILED
        assert not (workdir / "solution.txt").exists()

    def test_bundle_for_another_model_blocks_solve(self, workdir, capsys):
        assert run(["certify", "--preset", "small-coupling", "--out",
                    workdir]) == cli.EXIT_OK
        cfg = cli.preset_config("small-coupling")
        cfg["model"]["theta0"] = 0.36
        path = workdir / "cfg.txt"
        cli.write_file(path, cfg)
        capsys.readouterr()
        assert run(["solve", "--config", path, "--out", workdir]) == \
            cli.EXIT_GATE_FAILED
        assert "--force" in capsys.readouterr().err
        assert not (workdir / "solution.txt").exists()
        assert run(["solve", "--config", path, "--out", workdir,
                    "--force"]) == cli.EXIT_OK

    @pytest.mark.parametrize("bundle", ["{not json", "{}", "[]",
                                        '{"all_pass": true}'],
                             ids=["syntax", "no-keys", "list", "no-config"])
    def test_malformed_bundle_is_bad_config(self, workdir, bundle):
        (workdir / "certificates.txt").write_text(bundle)
        assert run(["solve", "--preset", "small-coupling", "--out",
                    workdir]) == cli.EXIT_BAD_CONFIG
        assert not (workdir / "solution.txt").exists()

    def test_trivial_preset_returns_seed(self, workdir):
        code = run(["solve", "--preset", "trivial", "--out", workdir,
                    "--force"])
        assert code == cli.EXIT_OK
        sol = cli.read_file(workdir / "solution.txt")
        assert sol["converged"]
        assert sol["omega"] == sol["omega0"]
        records = sol["records"]
        assert len(records) == 2
        assert {tuple(r[0]) for r in records} == {(1,), (-1,)}
        assert all(r[2] == 0.5 for r in records)
        assert sol["quality"]["weighted_tail"] == 0.0

    def test_small_coupling_quality(self, workdir):
        code = run(["solve", "--preset", "small-coupling", "--out", workdir,
                    "--force"])
        assert code == cli.EXIT_OK
        sol = cli.read_file(workdir / "solution.txt")
        total = sol["config"]["model"]["eps"] + sol["config"]["model"]["delta"]
        assert sol["quality"]["weighted_tail"] < math.sqrt(total)
        trace = cli.read_file(workdir / "trace.txt")
        assert trace["stages"][0]["stage"] == 0
        assert trace["stages"][-1]["residual_norm"] <= 1e-12

    def test_records_sorted_by_order_then_lex(self, workdir):
        run(["solve", "--preset", "small-coupling", "--out", workdir,
             "--force"])
        sol = cli.read_file(workdir / "solution.txt")
        keys = [(sum(abs(x) for x in r[0]) + sum(abs(x) for x in r[1]),
                 tuple(r[0]) + tuple(r[1])) for r in sol["records"]]
        assert keys == sorted(keys)

    def test_oracle_flag_writes_discrepancy(self, workdir):
        code = run(["solve", "--preset", "small-coupling", "--out", workdir,
                    "--force", "--oracle"])
        assert code == cli.EXIT_OK
        comp = cli.read_file(workdir / "oracle_compare.txt")
        assert comp["sup_discrepancy"] <= 1e-9

    def test_resonant_box_exit_code(self, workdir):
        # alpha = theta0 = 1/4 puts mu_{+-2} exactly on omega0; delta = 0
        # keeps the first frequency update from detuning the resonance
        cfg = cli.default_config()
        cfg["model"].update(alpha=[0.25], theta0=0.25, eps=1e-6, delta=0.0)
        path = workdir / "resonant.txt"
        cli.write_file(path, cfg)
        code = run(["solve", "--config", path, "--out", workdir, "--force"])
        assert code == cli.EXIT_RESONANT_BOX

    def test_out_of_stages_exit_code(self, workdir):
        cfg = cli.preset_config("small-coupling")
        cfg["solver"]["r_max"] = 1
        path = workdir / "short.txt"
        cli.write_file(path, cfg)
        code = run(["solve", "--config", path, "--out", workdir, "--force",
                    "--oracle"])
        assert code == cli.EXIT_NON_CONVERGENCE
        assert (workdir / "trace.txt").exists()
        assert cli.read_file(workdir / "solution.txt")["converged"] is False
        assert not (workdir / "oracle_compare.txt").exists()

    def test_non_convergence_exit_code(self, workdir):
        cfg = cli.default_config()
        cfg["solver"].update(residual_floor=1e-30, M=2, r_max=8)
        path = workdir / "stall.txt"
        cli.write_file(path, cfg)
        code = run(["solve", "--config", path, "--out", workdir, "--force"])
        assert code == cli.EXIT_NON_CONVERGENCE


class TestReport:
    def test_trivial_solution_report(self, workdir, capsys):
        run(["solve", "--preset", "trivial", "--out", workdir, "--force"])
        code = run(["report", workdir / "solution.txt"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "weighted tail    : 0" in out
        assert "WARN" not in out

    def test_malformed_file(self, workdir):
        path = workdir / "junk.txt"
        path.write_text("{\"no\": \"quality\"}")
        assert run(["report", path]) == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("null", ["cert", "config"])
    def test_null_config_echo_is_malformed(self, workdir, null):
        run(["solve", "--preset", "trivial", "--out", workdir, "--force"])
        sol = cli.read_file(workdir / "solution.txt")
        if null == "config":
            sol["config"] = None
        else:
            sol["config"]["cert"] = None
        cli.write_file(workdir / "null.txt", sol)
        assert run(["report", workdir / "null.txt"]) == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("quality", [
        {}, None, [], "drop lattice_entries", "weighted_tail not a number"])
    def test_incomplete_quality_block_is_malformed(self, workdir, capsys,
                                                   quality):
        run(["solve", "--preset", "trivial", "--out", workdir, "--force"])
        sol = cli.read_file(workdir / "solution.txt")
        if quality == "drop lattice_entries":
            del sol["quality"]["lattice_entries"]
        elif quality == "weighted_tail not a number":
            sol["quality"]["weighted_tail"] = "small"
        else:
            sol["quality"] = quality
        cli.write_file(workdir / "incomplete.txt", sol)
        capsys.readouterr()
        assert run(["report", workdir / "incomplete.txt"]) == \
            cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().out == ""

    def test_warn_on_large_tail(self, workdir, capsys):
        run(["solve", "--preset", "small-coupling", "--out", workdir,
             "--force"])
        sol = cli.read_file(workdir / "solution.txt")
        sol["quality"]["weighted_tail"] = 1.0
        cli.write_file(workdir / "tampered.txt", sol)
        run(["report", workdir / "tampered.txt"])
        assert "WARN" in capsys.readouterr().out


class TestLdeScan:
    def test_scan_demo(self, workdir):
        cfg = cli.preset_config("scan-demo")
        cfg["scan"]["M"] = 6
        cfg["scan"]["num_sigma"] = 301
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        code = run(["lde-scan", "--config", path, "--out", workdir])
        assert code == cli.EXIT_OK
        report = cli.read_file(workdir / "lde_scan.txt")
        assert 0.0 <= report["bad_fraction"] <= 1.0
        assert report["sigma_points"] == 301
        lines = (workdir / "lde_scan_plot.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 302
        cols = lines[5].split()
        assert len(cols) == 4
        float(cols[0]); float(cols[1]); float(cols[2]); int(cols[3])

    def test_explicit_window(self, workdir):
        cfg = cli.preset_config("scan-demo")
        cfg["scan"].update(M=6, num_sigma=101, window=[-2.0, 2.0])
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_OK
        report = cli.read_file(workdir / "lde_scan.txt")
        assert report["window"] == [-2.0, 2.0]
        assert report["sigma_points"] == 101

    @pytest.mark.parametrize("field, value", [
        ("M", 1), ("num_sigma", 0), ("max_regions", 0),
        ("window", [2.0, -2.0]), ("gamma_prime", "abc"),
        ("gamma_prime", -2.0), ("rho1", 0.0), ("rho2", 0.0), ("rho3", 0.0),
        ("rho1", True), ("gamma_prime", True), ("num_sigma", 101.5),
        ("window", [-math.inf, 2.0]), ("window", [True, 2.0]),
    ])
    def test_out_of_range_scan_block_is_bad_config(self, workdir, field,
                                                    value):
        cfg = cli.preset_config("scan-demo")
        cfg["scan"][field] = value
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert not (workdir / "lde_scan.txt").exists()

    def test_region_too_large_is_bad_config(self, workdir, capsys):
        # M = 10000: a region's bounding box holds about 10^8 candidate
        # sites, above lattice.MATERIALIZE_LIMIT, refused before any is built
        cfg = cli.preset_config("scan-demo")
        cfg["scan"]["M"] = 10000
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert "materialization limit" in capsys.readouterr().err
        assert not (workdir / "lde_scan.txt").exists()

    def test_region_over_byte_budget_is_bad_config(self, workdir, capsys):
        # M = 100: the largest region holds 10201 sites, above the
        # 1448-site cap; refused before the scan starts
        cfg = cli.preset_config("scan-demo")
        cfg["scan"]["M"] = 100
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert "REGION_BYTES" in capsys.readouterr().err
        assert not (workdir / "lde_scan.txt").exists()

    def test_nonpositive_derived_gamma_prime_is_bad_config(self, workdir,
                                                           capsys):
        # gamma = 0.3 < 8^-0.2: the derived gamma' is negative and refused;
        # an explicit positive scan.gamma_prime scans the same point
        cfg = cli.preset_config("scan-demo")
        cfg["model"]["gamma"] = 0.3
        cfg["scan"].update(M=8, num_sigma=21)
        path = workdir / "scan.txt"
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_BAD_CONFIG
        assert "scan.gamma_prime" in capsys.readouterr().err
        assert not (workdir / "lde_scan.txt").exists()
        cfg["scan"]["gamma_prime"] = 0.2
        cli.write_file(path, cfg)
        assert run(["lde-scan", "--config", path, "--out", workdir]) == \
            cli.EXIT_OK
        assert (workdir / "lde_scan.txt").exists()


class TestOracleCompare:
    def test_compare_command(self, workdir):
        run(["solve", "--preset", "small-coupling", "--out", workdir,
             "--force"])
        code = run(["oracle-compare", "--preset", "small-coupling",
                    "--out", workdir, workdir / "solution.txt", "--box", "6"])
        assert code == cli.EXIT_OK
        comp = cli.read_file(workdir / "oracle_compare.txt")
        assert comp["sup_discrepancy"] <= 1e-9

    def test_box_below_one_rejected_at_parse_time(self, workdir, capsys):
        with pytest.raises(SystemExit) as err:
            run(["oracle-compare", "--preset", "small-coupling",
                 "--out", workdir, workdir / "solution.txt", "--box", "0"])
        assert err.value.code == cli.EXIT_BAD_CONFIG
        assert "box radius must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("solution", [
        {"records": None, "omega": [2.0]},
        {"records": [[0, [0], 1.0]], "omega": [2.0]},
        {"records": [], "omega": None},
        {"records": [], "omega": [2.0, 2.0]},
        [],
        {"records": [[[1], [0], 0.5], [[1], [0], 0.7]], "omega": [2.0]},
        {"records": [[[2.9], [0], 0.5]], "omega": [2.0]},
    ], ids=["null-records", "scalar-k", "null-omega", "omega-length",
            "top-level-list", "conflicting-repeat", "fractional-index"])
    def test_malformed_solution_file_is_bad_config(self, workdir, capsys,
                                                   solution):
        path = workdir / "solution.txt"
        cli.write_file(path, solution)
        code = run(["oracle-compare", "--preset", "small-coupling",
                    "--out", workdir, path, "--box", "2"])
        assert code == cli.EXIT_BAD_CONFIG
        assert "malformed solution file" in capsys.readouterr().err
        assert not (workdir / "oracle_compare.txt").exists()

    def test_non_finite_oracle_step_is_exit_2(self, workdir, capsys,
                                              monkeypatch):
        # a NaN Newton step is an OracleDiverged (exit 2), not a traceback
        run(["solve", "--preset", "small-coupling", "--out", workdir,
             "--force"])
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full_like(b, np.nan))
        code = run(["oracle-compare", "--preset", "small-coupling",
                    "--out", workdir, workdir / "solution.txt", "--box", "4"])
        assert code == cli.EXIT_BAD_CONFIG
        assert "non-finite Newton step" in capsys.readouterr().err
        assert not (workdir / "oracle_compare.txt").exists()

    def test_oversized_box_is_bad_config(self, workdir, capsys):
        # box 3000 (36M sites) is refused before any site is built
        run(["solve", "--preset", "small-coupling", "--out", workdir,
             "--force"])
        for box in ("80", "3000"):
            code = run(["oracle-compare", "--preset", "small-coupling",
                        "--out", workdir, workdir / "solution.txt",
                        "--box", box])
            assert code == cli.EXIT_BAD_CONFIG
            assert "unknowns (> 10^4)" in capsys.readouterr().err
            assert not (workdir / "oracle_compare.txt").exists()
