import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import persistx
from persistx import cli, harness, operator, oracle
from persistx.model import INNOVATIONS, initial_from_json, innovation_from_json

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_missing_flag_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--coeffs"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_model_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--coeffs", "0.5"])
        assert exc.value.code == 2

    def test_innovation_grammar(self):
        assert cli.parse_innovation("uniform:-1,1").lo == -1.0
        assert cli.parse_innovation("gaussian:2").sd == 2.0
        assert cli.parse_innovation("exponential").kind == "exponential"
        assert cli.parse_innovation("rademacher").kind == "rademacher"
        for bad in ("uniform:1", "gaussian:1,2", "exponential:3", "cauchy:1"):
            with pytest.raises(ValueError):
                cli.parse_innovation(bad)

    @pytest.mark.parametrize("kind", sorted(INNOVATIONS))
    def test_flag_and_json_build_the_same_law(self, kind):
        names = [f.name for f in fields(INNOVATIONS[kind])]
        values = [0.5 + i for i in range(len(names))]
        flag = kind + (":" + ",".join(map(str, values)) if names else "")
        law = cli.parse_innovation(flag)
        assert law == innovation_from_json({"kind": kind, **dict(zip(names, values))})
        assert law.to_json() == {"kind": kind, **dict(zip(names, values))}
        assert cli.parse_innovation(kind) == innovation_from_json({"kind": kind})

    @pytest.mark.parametrize("flag, obj", [
        ("iid", {"kind": "iid"}),
        ("point:0.5,-1", {"kind": "point_mass", "values": [0.5, -1.0]}),
        ("stationary:0.3", {"kind": "stationary_ar1_gaussian", "a1": 0.3}),
    ])
    def test_init_flag_and_json_build_the_same_law(self, flag, obj):
        innovation = cli.parse_innovation("gaussian:2")
        law = cli.parse_initial(flag, innovation)
        assert law == initial_from_json(obj, innovation)

    @pytest.mark.parametrize("flag", ["iid:0.5", "iid:3,4", "iid: 1"])
    def test_iid_init_takes_no_parameters(self, flag):
        with pytest.raises(ValueError, match="iid initial law takes no parameters"):
            cli.parse_initial(flag, cli.parse_innovation("gaussian:1"))

    @pytest.mark.parametrize("flag, message", [
        ("point:", "point initial law needs values, e.g. point:0.0"),
        ("stationary:1,2", "stationary initial law takes one parameter, a1"),
        ("uniform:0,1", "unknown initial law 'uniform'"),
    ], ids=["point_without_values", "stationary_two_values", "unknown_kind"])
    def test_malformed_init_flag_named(self, flag, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli.parse_initial(flag, cli.parse_innovation("gaussian:1"))

    @pytest.mark.parametrize("argv", [
        ["compare", "--coeffs", "0.5"],
        ["compare", "--process", "ar"],
        ["sweep", "--kind", "convergence", "--coeffs", "0.5", "--Ms", "4", "--Ns", "50"],
        ["sweep", "--kind", "monotonicity", "--process", "ar", "--coeff-grid", "0;0.2"],
    ], ids=["compare_process", "compare_coeffs", "sweep_process", "sweep_coeffs"])
    def test_model_flags_required_without_a_config(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"{argv[0]} requires --process and --coeffs" in capsys.readouterr().err

    def test_iid_init_parameter_fails_the_command(self, capsys):
        code, out, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.5", "--innovation", "gaussian:1",
            "--init", "iid:0.5", "--n", "2", "--reps", "100"])
        assert code == 1
        assert "iid initial law takes no parameters" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["operator", "--scheme", "midpoint"],
        ["operator", "--no-cut-cell"],
        ["operator", "--tol", "1e-8"],
        ["operator", "--max-iter", "10"],
        ["sweep", "--kind", "convergence", "--Ms", "4", "--Ns", "50", "--scheme", "gauss"],
    ])
    def test_removed_solver_flags_are_usage_errors(self, capsys, argv):
        model = ["--process", "ar", "--coeffs", "0.4", "--innovation", "gaussian:1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + model)
        assert exc.value.code == 2

    def test_bad_innovation_is_computation_failure(self, capsys):
        code, out, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.5",
            "--innovation", "cauchy:1", "--n", "2", "--reps", "100"])
        assert code == 1
        assert "cauchy" in err

    @pytest.mark.parametrize("innovation, field", [("gaussian:inf", "sd"),
                                                   ("uniform:-1,inf", "hi")])
    def test_nonfinite_innovation_flag_is_named(self, capsys, innovation, field):
        code, out, err = run(capsys, [
            "operator", "--process", "ma", "--coeffs", "0.5",
            "--innovation", innovation, "--N", "40"])
        assert code == 1
        assert err.startswith("error: ") and f"'{field}'" in err
        assert out == ""


class TestOracleCommand:
    def test_ma1_exponential_value(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "ma1-exponential", "--a1", "-0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exponent"] == 0.5

    def test_ar1_uniform(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "ar1-uniform", "--a", "1", "--b", "1"])
        payload = json.loads(out)
        assert payload["exponent"] == pytest.approx(1.0 / math.pi)

    def test_rademacher_table(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "rademacher",
                                    "--convention", "gt", "--n", "3"])
        payload = json.loads(out)
        assert payload["exponent"] == 0.5
        assert payload["pn"][1]["p"] == pytest.approx(0.125)

    def test_supercritical_root(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "supercritical-ar",
                                    "--coeffs", "1.2"])
        payload = json.loads(out)
        assert payload["characteristic_root"] == 1.2
        assert payload["exponent"] == 1.0

    @pytest.mark.parametrize("coeffs, regime", [
        ("0.5", "contractive"), ("0.5,-0.8", "unclassified"), ("-2", "nonpositive"),
    ])
    def test_supercritical_refuses_other_regimes(self, capsys, coeffs, regime):
        code, out, err = run(capsys, ["oracle", "--case", "supercritical-ar",
                                      f"--coeffs={coeffs}"])
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError: supercritical-ar needs a >= 0")
        assert f"are in the {regime} regime" in err

    def test_ar1_exponential_pn_table(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "ar1-exponential",
                                    "--a1", "-1.0", "--initial", "point:0", "--n", "3"])
        payload = json.loads(out)
        assert payload["pn"][0] == {"n": 1, "p": 1.0}
        assert payload["pn"][1]["p"] == pytest.approx(0.5)

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run(capsys, ["oracle", "--case", "ma1-exponential", "--a1", "0.5"])
        assert code == 1 and "a1" in err

    @pytest.mark.parametrize("argv, shown", [
        (["--case", "ar1-exponential", "--n", "3"], "p_n needs --initial as well"),
        (["--case", "ar1-exponential", "--initial", "point:0"], "p_n needs --n as well"),
        (["--case", "rademacher", "--n", "-1"], "--n must be a nonnegative horizon, got -1"),
        (["--case", "degenerate-ma", "--n", "-2"], "--n must be a nonnegative horizon, got -2"),
        (["--case", "ar1-uniform", "--n", "5"],
         "oracle case 'ar1-uniform' does not read --n; "
         "it is read by ar1-exponential, rademacher, degenerate-ma"),
        (["--case", "ma1-exponential", "--initial", "point:0"],
         "oracle case 'ma1-exponential' does not read --initial; it is read by ar1-exponential"),
    ], ids=["n_without_initial", "initial_without_n", "negative_n_rademacher",
            "negative_n_degenerate", "n_on_ar1_uniform", "initial_on_ma1_exponential"])
    def test_dropped_flag_exits_one(self, capsys, argv, shown):
        # each printed no pn, an empty one or one that ignored the flag, and exited 0
        code, out, err = run(capsys, ["oracle", *argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError: ") and shown in err

    @pytest.mark.parametrize("argv, expected", [
        (["--case", "ma1-symmetric", "--c", "2", "--terms", "50"],
         '{\n  "case": "ma1-symmetric",\n  "exponent": 0.63661977236758138,\n'
         '  "parameters": {\n    "c": 2,\n    "terms": 50\n  },\n'
         '  "series_value": 0.3333333266909515\n}\n'),
        (["--case", "degenerate-ma", "--n", "2"],
         '{\n  "case": "degenerate-ma",\n  "parameters": {},\n  "pn": [\n'
         '    {\n      "n": 0,\n      "p": 0.5\n    },\n'
         '    {\n      "n": 1,\n      "p": 0.16666666666666666\n    },\n'
         '    {\n      "n": 2,\n      "p": 0.041666666666666664\n    }\n  ]\n}\n'),
        (["--case", "iid", "--innovation", "uniform:-1,2"],
         '{\n  "case": "iid",\n  "exponent": 0.66666666666666674,\n'
         '  "parameters": {\n    "innovation": {\n      "hi": 2,\n'
         '      "kind": "uniform",\n      "lo": -1\n    }\n  }\n}\n'),
    ])
    def test_pinned_stdout(self, capsys, argv, expected):
        code, out, _ = run(capsys, ["oracle", *argv])
        assert code == 0
        assert out == expected


class TestSimulateCommand:
    def test_small_run_payload(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.0",
            "--innovation", "uniform:-1,1", "--n", "4", "--reps", "20000", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["estimate"]["table"]) == 5
        assert payload["estimate"]["lambda_hat"] == pytest.approx(0.5, abs=0.05)
        assert payload["model"]["process"] == "ar"

    def test_stdout_deterministic_in_seed_and_threads(self, capsys):
        # two full crude blocks and a one-path block, so the threads split the work
        argv = ["simulate", "--process", "ma", "--coeffs", "0.5",
                "--innovation", "gaussian:1", "--n", "5", "--reps", "131073",
                "--seed", "9"]
        _, out1, _ = run(capsys, argv + ["--threads", "1"])
        _, out2, _ = run(capsys, argv + ["--threads", "4"])
        assert out1 == out2

    def test_different_seed_changes_output(self, capsys):
        argv = ["simulate", "--process", "ma", "--coeffs", "0.5",
                "--innovation", "gaussian:1", "--n", "5", "--reps", "30000"]
        _, out1, _ = run(capsys, argv + ["--seed", "1"])
        _, out2, _ = run(capsys, argv + ["--seed", "2"])
        assert out1 != out2

    def test_window_and_files(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        code, out, _ = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "-1.0",
            "--innovation", "exponential", "--init", "iid",
            "--method", "splitting", "--n", "30", "--particles", "5000",
            "--seed", "3", "--window", "10:30",
            "--out", str(out_json), "--csv", str(out_csv)])
        assert code == 0
        payload = json.loads(out)
        assert json.loads(out_json.read_text()) == payload
        assert payload["estimate"]["window"] == [10, 30]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "n,p_hat,se" and len(lines) == 32

    @pytest.mark.parametrize("window, shown", [
        ("-6:-1", "(-6, -1)"),
        ("3:40", "(3, 40)"),
        ("5:5", "(5, 5)"),
        ("50", "(50,)"),
        ("a:b", "'a:b'"),
    ])
    def test_window_outside_the_horizons_exits_one(self, capsys, window, shown):
        code, out, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.3", "--n", "16",
            "--reps", "2000", f"--window={window}"])
        assert code == 1 and out == ""
        assert f"fit window {shown}" in err

    def test_explicit_horizons(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.3",
            "--horizons", "0,2,5", "--reps", "2000"])
        assert code == 0
        assert [row["n"] for row in json.loads(out)["estimate"]["table"]] == [0, 2, 5]

    def test_horizons_are_counts(self, capsys):
        # as in a config: 1e1 reads as 10, and a fraction is named
        argv = ["simulate", "--process", "ar", "--coeffs", "0.3", "--reps", "2000"]
        _, out_int, _ = run(capsys, argv + ["--horizons", "0,10"])
        code, out, _ = run(capsys, argv + ["--horizons", "0,1e1"])
        assert code == 0 and out == out_int
        code, out, err = run(capsys, argv + ["--horizons", "0,1,2.5"])
        assert code == 1 and out == ""
        assert "horizon must be an integer, got 2.5" in err

    def test_ar_default_initial_law_is_iid(self, capsys):
        argv = ["simulate", "--process", "ar", "--coeffs", "0.3", "--n", "3",
                "--reps", "2000"]
        _, out_default, _ = run(capsys, argv)
        _, out_iid, _ = run(capsys, argv + ["--init", "iid"])
        assert out_default == out_iid

    @pytest.mark.parametrize("init", ["stationary:5", "point:0,0,0", "iid"])
    def test_initial_law_on_ma_exits_one(self, capsys, init):
        code, out, err = run(capsys, [
            "simulate", "--process", "ma", "--coeffs", "1", "--init", init,
            "--n", "3", "--reps", "1000"])
        assert code == 1 and out == ""
        assert "MA models take no initial law" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_exit_one(self, capsys, threads):
        # both ran serial and exited 0
        code, out, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.5", "--n", "3", "--reps", "1000",
            "--threads", threads])
        assert code == 1 and out == ""
        assert err == f"error: ValueError: threads must be a positive count, got {threads}\n"

    def test_non_positive_threads_exit_one_for_splitting(self, capsys):
        # splitting reads no thread count, and ran and exited 0
        code, out, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.5", "--n", "3", "--method",
            "splitting", "--particles", "1000", "--threads", "0"])
        assert code == 1 and out == ""
        assert err == "error: ValueError: threads must be a positive count, got 0\n"

    def test_all_paths_died_exits_one(self, capsys):
        code, _, err = run(capsys, [
            "simulate", "--process", "ar", "--coeffs", "0.0",
            "--innovation", "uniform:-2,-1", "--n", "2", "--reps", "500"])
        assert code == 1 and "AllPathsDied" in err


class TestOperatorCommand:
    def test_reference_value_and_fields(self, capsys):
        code, out, _ = run(capsys, [
            "operator", "--process", "ar", "--coeffs", "-1.0",
            "--innovation", "uniform:-1,1", "--N", "200"])
        payload = json.loads(out)
        assert payload["result"]["lambda"] == pytest.approx(1.0 / math.pi, abs=1e-4)
        assert payload["result"]["converged"] is True
        assert payload["result"]["grid"]["n"] == 200

    def test_eigenfunction_csv(self, capsys, tmp_path):
        path = tmp_path / "psi.csv"
        code, out, _ = run(capsys, [
            "operator", "--process", "ma", "--coeffs", "-0.5",
            "--innovation", "exponential", "--M", "8", "--N", "100",
            "--eigenfunction", str(path)])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,psi" and len(lines) == 101

    def test_eigenfunction_of_order_two_refused_before_the_solve(self, capsys, monkeypatch,
                                                                 tmp_path):
        def solve(*args, **kwargs):
            raise AssertionError("solve_operator ran")

        monkeypatch.setattr(operator, "solve_operator", solve)
        code, out, err = run(capsys, [
            "operator", "--process", "ar", "--coeffs", "0.3,0.2", "--N", "20",
            "--eigenfunction", str(tmp_path / "psi.csv")])
        assert code == 1 and out == ""
        assert "--eigenfunction output requires a one-dimensional grid" in err
        assert not (tmp_path / "psi.csv").exists()

    def test_auto_delta(self, capsys):
        code, out, _ = run(capsys, [
            "operator", "--process", "ar", "--coeffs", "0.5",
            "--innovation", "gaussian:1", "--N", "150", "--delta", "auto"])
        payload = json.loads(out)
        assert payload["result"]["delta"] == 0.5

    @pytest.mark.parametrize("process, m", [("ma", "inf"), ("ma", "nan"), ("ar", "inf")])
    def test_non_finite_truncation_exits_one(self, capsys, process, m):
        # MA printed lambda 0 on a grid [-inf, inf]; AR died in an AssertionError
        code, out, err = run(capsys, [
            "operator", "--process", process, "--coeffs", "1", "--N", "50", "--M", m])
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError: need a finite truncation M > 0")

    # a BLAS product's sums depend on its thread count: at these sizes a BLAS
    # matrix-vector product (AR(1)) and a GEMM (AR(3)) print other bytes at 1
    # and 2 OpenBLAS threads, so no AR apply may call BLAS, in either form;
    # nor may the warm start's interpolation (AR(1) at N = 682, AR(2) at 96)
    @pytest.mark.parametrize("coeffs, innovation, n", [
        ("0.9", "gaussian:1", "682"),
        ("0.3,0.2,0.1", "gaussian:1", "38"),
        ("0.3,0.2", "gaussian:1", "96"),
        ("0.5,-0.3", "exponential", "200"),
        ("-1", "uniform:-1,1", "682"),
    ], ids=["ar1", "ar3", "ar2_warm", "ar2_exp", "ar1_unif"])
    def test_bytes_do_not_depend_on_the_blas_threads(self, coeffs, innovation, n):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            outs.append(subprocess.run(
                [sys.executable, "-m", "persistx.cli", "operator", "--process", "ar",
                 "--coeffs", coeffs, "--innovation", innovation, "--N", n, "--delta", "auto"],
                env=env, capture_output=True, text=True, check=True, timeout=120).stdout)
        assert outs[0] == outs[1]

    def test_grid_past_max_states_exits_one(self, capsys):
        # AR(3) at the default N = 400 is 6.4e7 states, gigabytes of solve;
        # it ended in a MemoryError traceback or was killed
        code, out, err = run(capsys, [
            "operator", "--process", "ar", "--coeffs", "0.3,0.2,0.1"])
        assert code == 1 and out == ""
        assert err == ("error: ValueError: a grid of N = 400 nodes per axis in d = 3 dimensions "
                       "has N^d = 64000000 states, more than MAX_STATES = 8388608\n")

    def test_empty_ar_state_axis_exits_one(self, capsys):
        # coefficients <= 0 and y <= -1 leave S at the first step; the axis
        # [0, -1] was refused as invalid bounds, without the reason
        code, out, err = run(capsys, [
            "operator", "--process", "ar", "--coeffs=-0.5", "--innovation", "uniform:-2,-1"])
        assert code == 1 and out == ""
        assert err == ("error: ValueError: the AR state axis is empty: coefficients <= 0 and a "
                       "law bounded above by hi = -1.0 <= 0 leave S at the first step\n")

    def test_ma_tilt_exits_one(self, capsys):
        code, out, err = run(capsys, [
            "operator", "--process", "ma", "--coeffs", "1", "--N", "50", "--delta", "0.7"])
        assert code == 1 and out == ""
        assert "MA operator takes no tilt" in err


class TestCompareCommand:
    def test_inline_flags(self, capsys):
        code, out, _ = run(capsys, [
            "compare", "--process", "ar", "--coeffs", "-1.0",
            "--innovation", "uniform:-1,1", "--method", "crude",
            "--reps", "60000", "--N", "200", "--seed", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["lambda_oracle"] == pytest.approx(1.0 / math.pi)
        assert "delta" not in payload["case"]["operator"]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ma", "coeffs": [-0.5],
            "innovation": {"kind": "exponential"},
            "mc": {"method": "none"}, "operator": {"N": 200, "M": 8.0},
        }))
        code, out, _ = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["operator"]["lambda"] == pytest.approx(0.5, abs=1e-3)
        assert payload["mc"] is None

    def test_config_with_unknown_operator_key(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"N": 80, "cut_cell": False},
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1
        assert "ConfigError" in err and "cut_cell" in err
        assert out == ""

    def test_config_with_ma_tilt(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ma", "coeffs": [1.0], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"N": 50, "delta": 0.7},
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert "MA operator takes no tilt" in err

    @pytest.mark.parametrize("window", [5, [3, 40], [-6, -1], [2.0, 5], "0:5", [1, 2, 3]])
    def test_config_with_bad_window(self, capsys, tmp_path, window):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"replicates": 2000, "window": window}, "operator": {"skip": True},
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert f"ValueError: fit window {window!r}" in err

    def test_config_with_window_on_unsorted_horizons(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"replicates": 2000, "horizons": [8, 0, 4], "window": [0, 2]},
            "operator": {"skip": True},
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert "horizon list [8, 0, 4] is unsorted" in err

    @pytest.mark.parametrize("section, typo, key", [
        ("mc", {"method": "crude", "replicate": 1000}, "replicate"),
        ("tolerances", {"oracle_operater": 1.0}, "unknown case key(s) tolerances"),
        ("operater", {"N": 50}, "operater"),
    ])
    def test_config_with_unknown_section_key(self, capsys, tmp_path, section, typo, key):
        case = {"process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
                "mc": {"method": "none"}, "operator": {"skip": True}}
        case[section] = typo
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(case))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1
        assert "ConfigError" in err and key in err
        assert out == ""

    @pytest.mark.parametrize("initial, field", [
        ({"kind": "point_mass"}, "values"),
        ({"kind": "stationary_ar1_gaussian"}, "a1"),
        ({"kind": "point_mass", "values": 3}, "values"),
    ], ids=["point_mass_without_values", "stationary_without_a1", "point_mass_scalar_values"])
    def test_config_with_malformed_initial(self, capsys, tmp_path, initial, field):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "initial": initial, "mc": {"method": "none"}, "operator": {"skip": True},
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1
        assert err.startswith("error: ") and f"'{field}'" in err
        assert out == ""

    @pytest.mark.parametrize("change, field", [
        ({"innovation": {"kind": "gaussian", "sd": [1]}}, "sd"),
        ({"innovation": {"kind": "gaussian", "sd": None}}, "sd"),
        ({"coeffs": [[1]]}, "coeffs"),
        ({"coeffs": [math.nan]}, "coeffs"),
        ({"coeffs": [math.inf]}, "coeffs"),
        ({"innovation": {"kind": "gaussian", "sd": math.inf}}, "sd"),
        ({"innovation": {"kind": "uniform", "lo": -1.0, "hi": math.inf}}, "hi"),
        ({"innovation": {"kind": "gaussian", "sdd": 2.0}}, "sdd"),
        ({"innovation": {"kind": "exponential", "rate": 2.0}}, "rate"),
    ], ids=["sd_list", "sd_null", "coeffs_nested", "coeffs_nan", "coeffs_inf", "sd_inf",
            "uniform_hi_inf", "sd_typo", "exponential_rate"])
    def test_config_with_malformed_number(self, capsys, tmp_path, change, field):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"skip": True}, **change,
        }))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1
        assert err.startswith("error: ") and f"'{field}'" in err
        assert out == ""

    @pytest.mark.parametrize("change, shown", [
        ({"operator": {"N": 60.9}}, "N must be an integer, got 60.9"),
        ({"mc": {"method": "crude", "replicates": 5000.7}}, "replicates must be an integer"),
        ({"mc": {"method": "splitting", "particles": 300.5}}, "particles must be an integer"),
        ({"mc": {"method": "crude", "replicates": True}}, "replicates must be an integer"),
        ({"seed": 1.9}, "seed must be an integer, got 1.9"),
        ({"mc": {"method": "crude", "replicates": 2000, "horizons": [0, 2.7, 5.2]}},
         "horizon must be an integer, got 2.7"),
        ({"mc": {"method": "crude", "replicates": 2000, "horizons": [0, True, 2]}},
         "horizon must be an integer, got True"),
    ], ids=["N", "replicates", "particles", "bool_replicates", "seed", "horizons",
            "bool_horizon"])
    def test_config_with_fractional_count(self, capsys, tmp_path, change, shown):
        # counts were cut down to an integer silently; now each is named
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"skip": True}, **change}))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1
        assert err.startswith("error: ValueError: ") and shown in err
        assert out == ""

    @pytest.mark.parametrize("change, shown", [
        ({"Ms": [], "threads": [2.5], "mc": {"method": "splitting", "threads": 2.5}},
         "ConfigError: Ms must be a nonempty list, got []"),
        ({"threads": [2.5]}, "ValueError: threads must be an integer, got 2.5"),
        ({"mc": {"method": "splitting", "threads": 2.5}},
         "ValueError: threads must be an integer, got 2.5"),
        ({"threads": [1, 0]}, "ValueError: threads must be a positive count, got 0"),
        ({"mc": {"method": "crude", "threads": -3}},
         "ValueError: threads must be a positive count, got -3"),
        ({"mc": {"method": "crud"}}, "ConfigError: unknown mc method 'crud'"),
    ], ids=["suite_example", "listed_threads", "mc_threads", "zero_listed_threads",
            "negative_mc_threads", "mc_method"])
    def test_config_gets_the_suite_case_checks(self, capsys, tmp_path, change, shown):
        # a compare case is refused as a suite case is, before any route runs,
        # though compare reads neither Ms nor threads
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"N": 60}, **change}))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err == f"error: {shown}\n"

    def test_config_key_compare_does_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps({
            "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
            "mc": {"method": "none"}, "operator": {"N": 60}, "check": "truncation",
            "Ms": [2.0]}))
        code, out, err = run(capsys, ["compare", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err == "error: ConfigError: a compare case does not read check, Ms\n"

    def test_config_with_integral_float_counts(self, capsys, tmp_path):
        # JSON's 1e3 and 40.0 are counts
        reports = []
        for n, replicates, horizons in ((40, 1000, [0, 2, 4]), (40.0, 1e3, [0.0, 2.0, 4.0])):
            cfg = tmp_path / "case.json"
            cfg.write_text(json.dumps({
                "process": "ar", "coeffs": [0.3], "innovation": {"kind": "gaussian"},
                "mc": {"replicates": replicates, "horizons": horizons},
                "operator": {"N": n}}))
            _, out, _ = run(capsys, ["compare", "--config", str(cfg)])
            reports.append(json.loads(out))
        for key in ("operator", "mc", "diffs", "checks"):
            assert reports[0][key] == reports[1][key]

    def test_supercritical_case_passes_without_operator(self, capsys):
        code, out, _ = run(capsys, [
            "compare", "--process", "ar", "--coeffs", "1.2",
            "--innovation", "gaussian:1", "--method", "none", "--N", "100"])
        assert code == 0
        payload = json.loads(out)
        assert payload["operator"] is None and payload["passed"] is True


    def test_splitting_truncation_and_tilt_flags(self, capsys):
        code, out, _ = run(capsys, [
            "compare", "--process", "ar", "--coeffs", "-1.0",
            "--innovation", "exponential", "--method", "splitting",
            "--particles", "2000", "--M", "8", "--N", "100", "--delta", "0.2"])
        payload = json.loads(out)
        assert payload["case"]["mc"] == {"method": "splitting", "particles": 2000}
        assert payload["case"]["operator"] == {"N": 100, "M": 8.0, "delta": 0.2}
        assert payload["operator"]["delta"] == 0.2
        assert payload["mc"]["method"] == "splitting"
        assert code == (0 if payload["passed"] else 1)


class TestSweepCommand:
    def test_monotonicity(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--kind", "monotonicity", "--process", "ar", "--coeffs", "0.0",
            "--innovation", "gaussian:1", "--coeff-grid", "0.0;0.2;0.4",
            "--N", "120", "--delta", "auto"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["lambdas"]) == 3

    def test_convergence(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--kind", "convergence", "--process", "ar", "--coeffs", "0.4",
            "--innovation", "gaussian:1", "--Ms", "4,6", "--Ns", "80,160"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["table"]) == 4

    @pytest.mark.parametrize("kind, flags, message", [
        ("suite", [], "sweep --kind suite requires --config"),
        ("convergence", ["--Ms", "4,6"], "sweep --kind convergence requires --Ms and --Ns"),
        ("convergence", ["--Ns", "50"], "sweep --kind convergence requires --Ms and --Ns"),
        ("monotonicity", [], "sweep --kind monotonicity requires --coeff-grid"),
        ("continuity", ["--path", "0.1;0.2"],
         "sweep --kind continuity requires --path and --target"),
        ("continuity", ["--target", "0.3"],
         "sweep --kind continuity requires --path and --target"),
    ], ids=["suite", "convergence_Ns", "convergence_Ms", "monotonicity", "continuity_target",
            "continuity_path"])
    def test_missing_kind_flag_exits_one(self, capsys, kind, flags, message):
        model = [] if kind == "suite" else ["--process", "ar", "--coeffs", "0.4"]
        code, out, err = run(capsys, ["sweep", "--kind", kind, *model, *flags])
        assert code == 1 and out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_convergence_fractional_N_exits_one(self, capsys):
        code, out, err = run(capsys, [
            "sweep", "--kind", "convergence", "--process", "ar", "--coeffs", "0.4",
            "--Ms", "4,6", "--Ns", "20.7,40.2"])
        assert code == 1
        assert "N must be an integer, got 20.7" in err
        assert out == ""

    def test_convergence_auto_delta(self, capsys):
        argv = ["sweep", "--kind", "convergence", "--process", "ar", "--coeffs", "0.4",
                "--innovation", "gaussian:2", "--Ms", "6,8", "--Ns", "40,60"]
        code, out, _ = run(capsys, argv + ["--delta", "auto"])
        assert code == 0
        model = cli.build_model(cli.build_parser().parse_args(argv))
        _, ref, _ = run(capsys, argv + ["--delta", repr(operator.default_delta(model))])
        assert json.loads(out)["table"] == json.loads(ref)["table"]

    def test_continuity(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--kind", "continuity", "--process", "ar", "--coeffs", "0.0",
            "--innovation", "gaussian:1", "--path", "0.24;0.249;0.2499",
            "--target", "0.25", "--N", "120", "--delta", "0.25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("flags, shown", [
        (["--path", "0.3,0.1;0.45", "--target", "0.5"], "(0.3, 0.1)"),
        (["--path", "0.3;0.45", "--target", "0.5,0.1"], "(0.5, 0.1)"),
    ], ids=["path", "target"])
    def test_continuity_wrong_order_exits_one(self, capsys, flags, shown):
        code, out, err = run(capsys, [
            "sweep", "--kind", "continuity", "--process", "ar", "--coeffs", "0.5",
            *flags, "--N", "40"])
        assert code == 1 and out == ""
        assert err == f"error: ValueError: coefficient vector {shown} does not match order 1\n"

    def test_suite_exit_codes(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"seed": 0, "cases": [
            {"name": "ok", "type": "property", "check": "nonnegativity",
             "process": "ar", "coeffs": [0.4],
             "innovation": {"kind": "gaussian", "sd": 1.0}, "operator": {"N": 80}},
        ]}))
        code, out, _ = run(capsys, [
            "sweep", "--kind", "suite", "--config", str(good),
            "--out-dir", str(tmp_path / "rep")])
        assert code == 0
        assert json.loads(out)["any_failed"] is False

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 0, "cases": [
            {"name": "dead", "type": "compare", "process": "ar", "coeffs": [0.0],
             "innovation": {"kind": "uniform", "lo": -2.0, "hi": -1.0},
             "mc": {"method": "crude", "replicates": 1000, "horizons": [0]},
             "operator": {"skip": True}},
        ]}))
        code, out, _ = run(capsys, [
            "sweep", "--kind", "suite", "--config", str(bad),
            "--out-dir", str(tmp_path / "rep2")])
        assert code == 1

    def test_suite_malformed_config(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, [
            "sweep", "--kind", "suite", "--config", str(bad),
            "--out-dir", str(tmp_path / "rep")])
        assert code == 1
        assert "line" in err


class TestRoundTrip:
    def test_seventeen_digit_output_parses_back(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--case", "ma1-uniform",
                                    "--a", "1", "--b", "3"])
        payload = json.loads(out)
        assert payload["exponent"] == 0.8993316389440023


class TestReadme:
    def test_documented_command_lines_parse(self):
        # every `persistx ...` line of README.md, continuations joined
        text = README.read_text().replace("\\\n", " ")
        lines = [line.strip() for line in text.splitlines() if line.strip().startswith("persistx ")]
        assert len(lines) >= 9
        parser = cli.build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            if getattr(args, "process", None):
                cli.build_model(args)

    def test_suite_example_validates(self):
        # the json block under "Suite configs" passes the suite's checks
        section = README.read_text().split("## Suite configs", 1)[1].split("\n## ", 1)[0]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = json.loads(block)
        assert config["cases"]
        for i, case in enumerate(config["cases"]):
            harness._validate_case(case, i)

    def test_documented_flags_exist(self):
        # every --flag named in README's "Command line" section, code or prose
        section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
        flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
        assert {"--process", "--init", "--threads"} <= flags
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        known = {opt for sub in subparsers.choices.values()
                 for opt in sub._option_string_actions}
        assert sorted(flags - known) == []


class TestFileErrors:
    # a file that cannot be read or written is an error line and exit 1
    @pytest.mark.parametrize("argv", [
        ["compare", "--config", "{missing}/case.json"],
        ["operator", "--process", "ar", "--coeffs", "0.5", "--N", "20",
         "--out", "{missing}/x.json"],
    ], ids=["compare_config", "operator_out"])
    def test_missing_path_exits_one_without_traceback(self, tmp_path, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        missing = str(tmp_path / "no_such_dir")
        proc = subprocess.run(
            [sys.executable, "-m", "persistx.cli", *(a.format(missing=missing) for a in argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: FileNotFoundError")
        assert "Traceback" not in proc.stderr

    @pytest.fixture
    def no_compute(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the computation ran")

        monkeypatch.setattr(harness, "run_mc", fail)
        monkeypatch.setattr(operator, "solve_operator", fail)
        monkeypatch.setattr(oracle, "ma1_exponential_exponent", fail)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "ar", "--coeffs=-1", "--innovation", "exponential",
         "--method", "splitting", "--n", "100", "--csv", "{missing}/a.csv"],
        ["operator", "--process", "ma", "--coeffs=-0.5", "--innovation", "exponential",
         "--eigenfunction", "{missing}/psi.csv"],
        ["oracle", "--case", "ma1-exponential", "--out", "{missing}/x.json"],
    ], ids=["simulate_csv", "operator_eigenfunction", "oracle_out"])
    def test_missing_directory_refused_before_the_computation(self, capsys, tmp_path,
                                                             no_compute, argv):
        missing = str(tmp_path / "no_such_dir")
        code, out, err = run(capsys, [a.format(missing=missing) for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: FileNotFoundError") and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_file_as_directory_refused_before_the_computation(self, capsys, tmp_path,
                                                              no_compute):
        (tmp_path / "plain").write_text("")
        code, out, err = run(capsys, ["simulate", "--process", "ar", "--coeffs", "0.5",
                                      "--out", str(tmp_path / "plain" / "a.json")])
        assert code == 1 and out == ""
        assert err.startswith("error: NotADirectoryError")


def fresh_python(code, *args):
    """Stdout of code run in a new interpreter that imports persistx from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


# command lines that once loaded scipy: the Gaussian cdf and quantile
# (scipy.special; the law has no quantile now) and the oracle's root
# finders (scipy.optimize)
GAUSSIAN_AND_ROOT_LINES = [
    ["operator", "--process", "ma", "--coeffs", "1", "--innovation", "gaussian:1",
     "--M", "8", "--N", "200"],
    ["sweep", "--kind", "monotonicity", "--process", "ar", "--coeffs", "0",
     "--innovation", "gaussian:1", "--coeff-grid", "0;0.2", "--N", "100", "--delta", "auto"],
    ["sweep", "--kind", "convergence", "--process", "ar", "--coeffs", "0.4",
     "--innovation", "gaussian:1", "--Ms", "4,6", "--Ns", "50,100"],
    ["compare", "--process", "ar", "--coeffs", "0.4", "--innovation", "gaussian:1",
     "--reps", "2000", "--N", "100", "--seed", "1"],
    ["sweep", "--kind", "suite", "--config", "{config}", "--out-dir", "{out_dir}"],
    ["oracle", "--case", "ma1-uniform", "--a", "1", "--b", "3"],
    ["compare", "--process", "ar", "--coeffs", "0.8,0.8", "--innovation", "gaussian:1",
     "--reps", "2000", "--N", "40", "--seed", "1"],
]
GAUSSIAN_SUITE = {"seed": 0, "cases": [
    {"name": "qbound", "type": "property", "check": "qbound", "process": "ma",
     "coeffs": [0.5, 0.5], "innovation": {"kind": "gaussian", "sd": 1.0},
     "mc": {"replicates": 2000}},
    {"name": "truncation", "type": "property", "check": "truncation", "process": "ar",
     "coeffs": [0.4], "innovation": {"kind": "gaussian", "sd": 1.0}, "operator": {"N": 100}},
    {"name": "conjugation", "type": "property", "check": "conjugation", "process": "ar",
     "coeffs": [0.5], "innovation": {"kind": "gaussian", "sd": 1.0}, "operator": {"N": 100}},
]}
# runs each line of argv[1] (JSON) through cli.main, quietly; prints the
# exit code and the scipy modules loaded after each
RUN_LINES = (
    "import contextlib, io, json, sys\n"
    "from persistx import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")


class TestScipyOnFirstUse:
    """No persistx code path imports scipy: not `import persistx`, not any law."""

    def test_import_loads_no_scipy(self):
        code = "import sys, persistx, persistx.cli\n" + SCIPY_LOADED
        assert fresh_python(code).strip() == "[]"

    def test_scipy_free_commands_load_no_scipy(self):
        code = (
            "import contextlib, io, sys\n"
            "from persistx import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['oracle', '--case', 'rademacher', '--n', '6']) == 0\n"
            "    assert cli.main(['simulate', '--process', 'ar', '--coeffs', '0.5',\n"
            "                     '--innovation', 'uniform:-1,1', '--n', '8',\n"
            "                     '--reps', '5000', '--seed', '1']) == 0\n"
            # a Gauss-Legendre grid is built in numpy; these laws need no scipy
            "    assert cli.main(['compare', '--process', 'ar', '--coeffs=-1',\n"
            "                     '--innovation', 'uniform:-1,1', '--reps', '2000',\n"
            "                     '--N', '50']) == 0\n"
            "    assert cli.main(['operator', '--process', 'ma', '--coeffs=-0.5',\n"
            "                     '--innovation', 'exponential', '--N', '100']) == 0\n"
            + SCIPY_LOADED)
        assert fresh_python(code).strip() == "[]"

    def test_gaussian_monte_carlo_loads_no_scipy(self):
        # Gaussian draws are ziggurat draws, in crude at threads 1 and 2
        # and in splitting
        code = (
            "import sys\n"
            "from persistx import ARModel, Gaussian, IIDInnovation, SurvivalConvention\n"
            "from persistx import estimate_crude, estimate_splitting\n"
            "m = ARModel((0.5,), Gaussian(2.0), IIDInnovation(), SurvivalConvention.NON_NEGATIVE)\n"
            "for threads in (1, 2):\n"
            "    estimate_crude(m, range(9), 10_000, 3, threads=threads)\n"
            "estimate_splitting(m, range(21), 2000, 3)\n"
            + SCIPY_LOADED)
        assert fresh_python(code).strip() == "[]"

    @pytest.fixture
    def lines(self, tmp_path):
        config = tmp_path / "suite.json"
        config.write_text(json.dumps(GAUSSIAN_SUITE))
        fill = {"{config}": str(config), "{out_dir}": str(tmp_path / "out")}
        return json.dumps([[fill.get(tok, tok) for tok in argv]
                           for argv in GAUSSIAN_AND_ROOT_LINES])

    def test_gaussian_laws_and_root_finders_load_no_scipy(self, lines):
        out = fresh_python(RUN_LINES, lines).splitlines()
        assert out == ["0 []"] * len(GAUSSIAN_AND_ROOT_LINES)

    def test_commands_run_where_scipy_cannot_import(self, lines):
        # a None entry makes every `import scipy...` raise ImportError
        code = "import sys\nsys.modules['scipy'] = None\n" + RUN_LINES
        codes = [line.split(" ", 1)[0] for line in fresh_python(code, lines).splitlines()]
        assert codes == ["0"] * len(GAUSSIAN_AND_ROOT_LINES)

    def test_first_gaussian_draw_inside_threads(self):
        # with threads=2 the process draws its first Gaussian inside a worker thread
        code = (
            "import sys\n"
            "from persistx import (ARModel, Gaussian, IIDInnovation, SurvivalConvention,\n"
            "                      canonical_json, estimate_crude)\n"
            "m = ARModel((0.5,), Gaussian(), IIDInnovation(), SurvivalConvention.NON_NEGATIVE)\n"
            "assert 'scipy.special' not in sys.modules\n"
            "est = estimate_crude(m, range(13), 20_000, 3, threads=int(sys.argv[1]))\n"
            "sys.stdout.write(canonical_json(est.to_json()))\n")
        assert fresh_python(code, "2") == fresh_python(code, "1")


PERSISTX_LOADED = "print(sorted(m for m in sys.modules if m.startswith('persistx')))"
# runs cli.main on argv[1:] quietly, then prints the persistx modules loaded
RUN_ONE = (
    "import contextlib, io, sys\n"
    "from persistx import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    assert cli.main(sys.argv[1:]) == 0\n"
    + PERSISTX_LOADED)
CLI_LOADS = ["persistx", "persistx.cli", "persistx.harness", "persistx.model"]


class TestModulesOnFirstUse:
    """`import persistx` loads the model layer only; a route loads when used."""

    def test_model_building_loads_only_the_model_layer(self):
        code = ("import sys, persistx\n"
                "persistx.model_from_json({'process': 'ar', 'coeffs': [0.5],\n"
                "                          'innovation': {'kind': 'gaussian'}})\n"
                + PERSISTX_LOADED)
        assert fresh_python(code).strip() == str(["persistx", "persistx.model"])

    @pytest.mark.parametrize("argv, route", [
        (["oracle", "--case", "iid"], "oracle"),
        (["operator", "--process", "ar", "--coeffs", "0.5", "--innovation", "uniform:-1,1",
          "--N", "50"], "operator"),
        (["simulate", "--process", "ar", "--coeffs", "0.5", "--innovation", "uniform:-1,1",
          "--n", "4", "--reps", "1000"], "simulate"),
    ], ids=["oracle", "operator", "simulate"])
    def test_command_loads_only_its_route(self, argv, route):
        loaded = fresh_python(RUN_ONE, *argv).strip()
        assert loaded == str(sorted(CLI_LOADS + [f"persistx.{route}"]))

    def test_every_public_name_resolves(self):
        code = ("import persistx\n"
                "for name in persistx.__all__:\n"
                "    getattr(persistx, name)\n"
                "    assert name in dir(persistx), name\n"
                "assert persistx.operator.solve_operator is persistx.solve_operator\n"
                "namespace = {}\n"
                "exec('from persistx import *', namespace)\n"
                "print(sorted(set(persistx.__all__) - set(namespace)))\n")
        assert fresh_python(code).strip() == "[]"

    def test_public_names(self):
        assert sorted(persistx.__all__) == [
            "ARModel", "AllPathsDied", "BracketNotFound", "ConfigError", "Exponential",
            "Gaussian", "IIDInnovation", "MAModel", "MaxIterationsExceeded",
            "NonPositiveProbabilityInWindow", "PersistenceEstimate", "PointMass",
            "PopulationExtinct", "QuadratureGrid", "Rademacher", "RequestedDensityOfAtomicLaw",
            "SpectralResult", "StationaryAR1Gaussian", "SurvivalConvention", "Uniform",
            "__version__", "ar1_exponential_pn", "ar1_uniform_exponent", "assemble_ar",
            "assemble_ma", "build_grid", "canonical_json", "characteristic_root",
            "classify_regime", "compare", "continuity_sweep", "convergence_sweep",
            "degenerate_factorial_pn", "estimate_crude", "estimate_splitting", "fit_exponent",
            "ma1_exponential_exponent", "ma1_symmetric_series", "ma1_uniform_exponent",
            "model_from_json", "monotonicity_sweep", "rademacher_pn", "run_suite",
            "solve_operator", "spectral_radius", "substream"]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            persistx.no_such_name

    def test_first_use_from_two_threads(self, tmp_path):
        # two compare cases run at once, each the first to reach oracle,
        # operator and simulate; the reports match a one-thread run
        case = {"type": "compare", "process": "ar", "innovation": {"kind": "uniform"},
                "mc": {"replicates": 4000}, "operator": {"N": 50}}
        config = tmp_path / "suite.json"
        config.write_text(json.dumps({"cases": [
            dict(case, name="a", coeffs=[-1.0]), dict(case, name="b", coeffs=[0.5])]}))
        code = ("import sys\n"
                "from persistx import run_suite\n"
                "result = run_suite(sys.argv[1], sys.argv[2], threads=int(sys.argv[3]))\n"
                "assert not any('error' in r for r in result.records), result.records\n"
                "for name in 'ab':\n"
                "    print(open(f'{sys.argv[2]}/{name}.json').read())\n")
        two = fresh_python(code, str(config), str(tmp_path / "two"), "2")
        assert two == fresh_python(code, str(config), str(tmp_path / "one"), "1")

    @pytest.mark.parametrize("owner, name", [
        ("simulate", "AllPathsDied"), ("simulate", "PopulationExtinct"),
        ("simulate", "NonPositiveProbabilityInWindow"), ("oracle", "BracketNotFound"),
        ("operator", "MaxIterationsExceeded"), ("model", "RequestedDensityOfAtomicLaw"),
        ("harness", "ConfigError"),
    ])
    def test_compute_errors_share_one_base(self, owner, name):
        from persistx.model import PersistxError

        assert issubclass(getattr(getattr(persistx, owner), name), PersistxError)
        assert cli.COMPUTE_ERRORS == (PersistxError, ValueError, OSError)
