import io
import json
import math
import os

import numpy as np
import pytest
from scipy import optimize

from maxent_bayes import cli, ldp
from maxent_bayes import meta as meta_module
from maxent_bayes.errors import MaxentError
from maxent_bayes.jsonio import csv_text, dumps, format_float, sha256_text


def tilt_config(target=0.25):
    return {
        "command": "tilt",
        "inputs": {"q": [0.5, 0.5], "potential": [0, 1], "target": target},
        "seed": 7,
    }


def run_quiet(config, out_dir, **kwargs):
    return cli.run(config, out_dir=out_dir, stdout=io.StringIO(), **kwargs)


class TestValidate:
    def test_valid_config_has_no_diagnostics(self):
        assert cli.validate(tilt_config()) == []

    def test_infeasible_target_is_one_diagnostic(self):
        diags = cli.validate(tilt_config(target=5.0))
        assert len(diags) == 1
        assert diags[0]["family"] == "infeasible"
        assert diags[0]["error"] == "InfeasibleConstraint"

    def test_enumeration_guard_reports_computed_size(self):
        cases = [
            # an irrational potential has no lattice: C(503, 3) type classes
            ([0, 1, math.sqrt(2.0), 3], 500, "type enumeration", math.comb(503, 3)),
            # span 3 on a lattice: 4 * sum_{i <= 2000} (3 i + 1) recursion terms
            ([0, 1, 2, 3], 2000, "lattice recursion", 4 * (3 * 2000 * 2001 // 2 + 2000)),
        ]
        for potential, n, method, terms in cases:
            config = {
                "command": "sanov",
                "inputs": {
                    "P": [0.25, 0.25, 0.25, 0.25],
                    "potential": potential,
                    "target_interval": [2.0, 3.0],
                    "n_grid": [n],
                    "method": "exact",
                },
            }
            diags = cli.validate(config)
            assert len(diags) == 1
            assert diags[0]["family"] == "resource"
            assert method in diags[0]["message"] and str(terms) in diags[0]["message"]

    def test_gibbs_over_the_cap_is_sized_before_any_law_is_computed(self, monkeypatch):
        # the grid's one pass is sized at max(n_grid) - 1 = 1999 before its
        # first step, so no smaller n of the grid is computed first
        for name in ("_tilted_pass", "_lattice_law", "enumerate_types"):
            monkeypatch.setattr(ldp, name, lambda *args, name=name: pytest.fail(f"ran {name}"))
        config = {
            "command": "gibbs",
            "inputs": {"P": [0.25] * 4, "potential": [0, 1, 2, 3], "Xi": [2, 3], "n_grid": [400, 800, 1200, 2000]},
        }
        [diag] = cli.validate(config)
        assert diag["error"] == "TableTooLarge" and "n=1999" in diag["message"]

    def test_unknown_command(self):
        assert cli.validate({"command": "nope", "inputs": {}})[0]["family"] == "validation"

    def test_command_mismatch_flagged(self):
        assert cli.validate(tilt_config(), command="sanov")[0]["family"] == "validation"


class TestRun:
    def test_tilt_writes_json_and_manifest(self, tmp_path):
        out = io.StringIO()
        manifest = cli.run(tilt_config(), out_dir=tmp_path, stdout=out)
        payload = json.loads(out.getvalue())
        assert payload["lambda"] == pytest.approx(1.098612, abs=1e-6)
        result_path = tmp_path / "tilt_result.json"
        assert result_path.exists()
        text = result_path.read_text(encoding="utf-8")
        assert manifest.outputs["tilt_result.json"] == sha256_text(text)
        assert json.loads(text)["lambda"] == payload["lambda"]

    def test_rate_csv_contains_zero_rate_row(self, tmp_path):
        config = {
            "command": "rate",
            "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "xi_grid": [0.25, 0.5, 0.75]},
        }
        run_quiet(config, tmp_path)
        text = (tmp_path / "rate_function.csv").read_bytes().decode("utf-8")
        assert text.startswith("xi,rate,feasible\r\n")
        rows = [line.split(",") for line in text.strip().split("\r\n")[1:]]
        by_xi = {float(r[0]): float(r[1]) for r in rows}
        assert by_xi[0.5] == 0.0
        assert by_xi[0.75] == pytest.approx(0.130812, abs=1e-6)

    def test_format_json_skips_csv(self, tmp_path):
        config = {
            "command": "rate",
            "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "xi_grid": [0.5]},
            "format": "json",
        }
        run_quiet(config, tmp_path)
        assert (tmp_path / "rate_result.json").exists()
        assert not (tmp_path / "rate_function.csv").exists()

    def test_json_floats_round_trip_exactly(self, tmp_path):
        out = io.StringIO()
        cli.run(tilt_config(), out_dir=tmp_path, stdout=out)
        parsed = json.loads(out.getvalue())
        reparsed = json.loads(dumps(parsed))
        assert reparsed["lambda"] == parsed["lambda"]
        assert reparsed["realized"] == parsed["realized"]

    def test_config_output_dir_is_the_fallback(self, tmp_path):
        config = tilt_config()
        config["output_dir"] = str(tmp_path / "from_config")
        cli.run(config, stdout=io.StringIO())
        assert (tmp_path / "from_config" / "tilt_result.json").exists()
        explicit = tmp_path / "explicit"
        cli.run(config, out_dir=explicit, stdout=io.StringIO())
        assert (explicit / "tilt_result.json").exists()

    def test_unwritable_output_dir_is_a_validation_error(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory", encoding="utf-8")
        from maxent_bayes.errors import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            cli.run(tilt_config(), out_dir=blocker / "sub", stdout=io.StringIO())

    def test_bayes_command_reports_decision(self, tmp_path):
        config = {
            "command": "bayes",
            "inputs": {
                "posterior": {"alphabet": [0, 1], "weights": [0.9, 0.1]},
                "loss": {
                    "prediction_alphabet": ["left", "right"],
                    "label_alphabet": [0, 1],
                    "entries": [[0, 1], [1, 0]],
                },
            },
        }
        out = io.StringIO()
        cli.run(config, out_dir=tmp_path, stdout=out)
        payload = json.loads(out.getvalue())
        assert payload["decision_index"] == 0
        assert payload["decision"] == "left"
        assert payload["expected_loss"] == pytest.approx(0.1, abs=1e-12)

    def test_negative_seed_rejected(self):
        config = tilt_config()
        config["seed"] = -3
        assert cli.validate(config)[0]["family"] == "validation"

    def test_bool_seed_rejected(self):
        config = tilt_config()
        config["seed"] = True
        assert cli.validate(config)[0]["error"] == "ConfigInvalid"


class TestMain:
    def test_malformed_json_exits_2_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = cli.main(["tilt", "--config", str(bad), "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_infeasible_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config(target=5.0)), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_resource_guard_exits_5(self, tmp_path, capsys):
        # gibbs reads the law at n - 1 = 499 and 1999: an irrational potential
        # needs C(501, 3) type classes, a lattice of span 3 at 1999 draws
        # 2.4e7 recursion terms; both are over the cap of 1e7
        for potential, n in (([0, 1, math.sqrt(2.0), 3], 500), ([0, 1, 2, 3], 2000)):
            config = {
                "command": "gibbs",
                "inputs": {
                    "P": [0.25, 0.25, 0.25, 0.25],
                    "potential": potential,
                    "Xi": [2.0, 3.0],
                    "n_grid": [n],
                },
            }
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            assert cli.main(["gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
            capsys.readouterr()

    def test_lattice_law_past_the_type_table_cap_runs(self, tmp_path, capsys):
        # C(502, 3) type classes at n - 1 = 499 pass the cap; the lattice
        # recursion needs 1.5e6 terms
        config = {
            "command": "gibbs",
            "inputs": {"P": [0.25, 0.25, 0.25, 0.25], "potential": [0, 1, 2, 3], "Xi": [2.0, 3.0], "n_grid": [500]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["gibbs", "--config", str(cfg), "--validate-only"]) == 0
        capsys.readouterr()
        assert cli.main(["gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["tv_by_n"]["500"] < 0.01

    @pytest.mark.parametrize("k, step", [(4, 0.001), (10, None)])
    def test_meta_model_grid_guard_exits_5(self, tmp_path, capsys, k, step):
        # 1.7e8 grid points at k=4, step 0.001; C(29, 9) > 1e7 at k=10, default step 0.05
        inputs = {"P": [1.0 / k] * k, "loss_row": list(range(k)), "n": 2, "Xi": [0.0, k - 1.0],
                  "U": {"kind": "identity"}, "eta": 1.0}
        if step is not None:
            inputs["model_grid_step"] = step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "meta", "inputs": inputs}), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--validate-only"]) == 5
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "TableTooLarge"
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("center, eta", [(None, 0.03), (0.6, 0.1)])
    def test_meta_centered_square_out_of_reach_exits_3(self, tmp_path, capsys, center, eta):
        # the law restricted to [0.6, 0.9] at n = 12 lives on {8, 9, 10} / 12, so
        # E[(xi - m)^2] is at most (1/12)^2 about its mean and (10/12 - 0.6)^2
        # about m = 0.6; the fit's own gate rejects both
        inputs = {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 12, "Xi": [0.6, 0.9],
                  "U": {"kind": "centered_square"}, "eta": eta}
        if center is not None:
            inputs["U"]["center"] = center
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "meta", "inputs": inputs}), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--validate-only"]) == 3
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "InfeasibleConstraint"
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_meta_out_of_reach_message_prints_plain_floats(self):
        # the fit's own gate: E[xi] under a tilt of the law restricted to
        # [0.6, 0.9] at n = 12 stays strictly inside its support {8, 9, 10} / 12
        config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == "meta")))
        config["inputs"]["eta"] = 0.95
        message = cli.validate(config)[0]["message"]
        assert message == "target 0.95 outside the attainable open interval (0.6666666666666666, 0.8333333333333334)"

    def test_validation_does_not_relabel_a_fault_of_the_computation(self, monkeypatch):
        # validating meta runs its pipeline; a ValueError there is a fault of
        # the computation, not of the config, so it is not ConfigInvalid
        def broken(*args, **kwargs):
            raise ValueError("fault inside the pipeline")

        monkeypatch.setattr(cli, "run_meta_pipeline", broken)
        config = next(c for c in VALID_CONFIGS if c["command"] == "meta")
        with pytest.raises(ValueError, match="fault inside the pipeline"):
            cli.validate(config)

    @pytest.mark.parametrize("sigma_y, epsilon, code", [
        (1e-10, 1e-15, 3),  # 2.8e5 times the envelope 3.6e-21 at r = 0.8
        (1.0, 0.36, 0),  # 2 ulps above the envelope 0.3599999999999999
        (1.0, 0.35999999999999976, 0),  # 2 ulps below it
        (1.0, 0.3599999999999999 + 1e-15, 3),  # 18 ulps above it
    ])
    def test_corr_epsilon_is_held_to_the_envelope_at_its_own_scale(self, tmp_path, capsys, sigma_y, epsilon, code):
        config = {"command": "corr", "inputs": {"loss": {"kind": "quadratic"}, "r_grid": [0.0, 0.2, 0.4, 0.6, 0.8],
                                                "sigma_y": sigma_y, "epsilon": epsilon}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["corr", "--config", str(cfg), "--validate-only"]) == code
        capsys.readouterr()
        assert cli.main(["corr", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("InfeasibleConstraint")
        else:
            assert json.loads(captured.out)["slope"] == pytest.approx(1.0, abs=1e-9)
            losses = [float(row.split(",")[1]) for row in (tmp_path / "o" / "correlation_curve.csv").read_text().split()[1:]]
            assert min(losses) >= 0.0 and losses[-1] <= 2e-16

    def test_meta_far_tail_window_keeps_its_mass(self, tmp_path, capsys):
        # the window holds exp(-794.4) of the law, below the float range;
        # brentq on the tilt of the exact restricted binomial law gives lambda_eta
        inputs = {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 1600, "Xi": [0.95, 1.0], "U": {"kind": "identity"},
                  "eta": 0.97}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "meta", "inputs": inputs}), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["lambda_eta"] == pytest.approx(-5561.750651962271, rel=1e-9)

    @pytest.mark.parametrize("kind, eta", [
        ("identity", 0.97),  # above 0.93875, the last value whose weight is above underflow
        ("centered_square", 0.05),  # above 0.2195^2, the largest variance on [0.5, 0.93875]
        ("centered_square", 0.01),  # the centre search meets tilts whose linear KL overflows
    ])
    def test_meta_fit_keeps_support_values_whose_weight_underflows(self, tmp_path, capsys, kind, eta):
        # the window's log masses span about 1100 nats, so the weights of its far
        # values underflow; the fit must still reach them, and print no warning
        inputs = {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 1600, "Xi": [0.5, 1.0], "U": {"kind": kind},
                  "eta": eta}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "meta", "inputs": inputs}), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        result = json.loads(captured.out)
        # the exact restricted law: a fair coin's successes j in [800, 1600] of 1600
        j = np.arange(800, 1601)
        xi = j / 1600
        log_p = np.array([math.lgamma(1601) - math.lgamma(i + 1) - math.lgamma(1601 - i) for i in j])

        def fitted(lam, u):
            a = log_p - lam * u
            w = np.exp(a - a.max())
            return w / w.sum()

        if kind == "identity":
            lam = optimize.brentq(lambda lam: float(fitted(lam, xi) @ xi) - eta, -1e5, 1e5, xtol=1e-12)
            assert result["lambda_eta"] == pytest.approx(lam, rel=1e-9)
        else:
            u = (xi - result["center"]) ** 2
            w = fitted(result["lambda_eta"], u)
            assert abs(float(w @ u) - eta) <= 1e-8
            assert abs(float(w @ xi) - result["center"]) <= 1e-8

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_fails_validation_as_the_run_does(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config()), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--seed", seed, "--validate-only"]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "ConfigInvalid"
        assert cli.main(["tilt", "--config", str(cfg), "--seed", seed, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target, expected", [
        (0.25, None),  # the README instance
        (0.5, {"bracket": [0, 0], "expansions": 0, "bisections": 0, "newton": 0, "residual": 0}),  # the mean of q
    ])
    def test_tilt_verbose_reports_solver_diagnostics(self, tmp_path, capsys, target, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config(target)), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o"), "--verbose"]) == 0
        result = json.loads(capsys.readouterr().out)
        diagnostics = result["diagnostics"]
        assert list(diagnostics) == ["bracket", "expansions", "bisections", "newton", "residual"]
        if expected is not None:
            assert diagnostics == expected
            return
        lo, hi = diagnostics["bracket"]
        assert lo <= result["lambda"] <= hi
        assert all(isinstance(diagnostics[key], int) for key in ("expansions", "bisections", "newton"))
        assert diagnostics["newton"] + diagnostics["bisections"] >= 1
        assert diagnostics["residual"] <= 4 * math.ulp(1.0)

    def test_validate_only_reports_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config(target=5.0)), encoding="utf-8")
        code = cli.main(["tilt", "--config", str(cfg), "--validate-only"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"][0]["error"] == "InfeasibleConstraint"

    def test_successful_run_exits_0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config()), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    def test_map_polish_overflow_instance_runs_clean(self, tmp_path, capsys):
        # the multiplicative-update polish overflowed in exp on this instance
        config = {
            "command": "meta",
            "inputs": {
                "P": [0.186613, 0.382311, 0.431076],
                "loss_row": [2, 1, 0],
                "n": 30,
                "Xi": [1.822, 2.0],
                "U": {"kind": "identity"},
                "eta": 1.959639259924845,
                "model_grid_step": 0.02,
                "speed": 100,
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["method"] == "tilt"

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "3")
        assert cli._default_threads() == 3
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "zzz")
        assert cli._default_threads() == (os.cpu_count() or 1)


def read_outputs(out_dir):
    payload = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        payload[path.name] = path.read_bytes()
    return payload


class TestDeterminism:
    SANOV_MC = {
        "command": "sanov",
        "inputs": {
            "P": [0.5, 0.5],
            "potential": [0, 1],
            "target_interval": [0.7, 1.0],
            "n_grid": [10, 20],
            "method": "monte-carlo",
            "trials": 5000,
        },
        "seed": 11,
    }

    def test_identical_seeds_are_byte_identical_across_thread_counts(self, tmp_path):
        manifests = []
        outputs = []
        for i, threads in enumerate((1, 1, os.cpu_count() or 2)):
            out = tmp_path / f"run{i}"
            manifests.append(run_quiet(self.SANOV_MC, out, threads=threads))
            outputs.append(read_outputs(out))
        assert outputs[0] == outputs[1] == outputs[2]
        assert manifests[0].outputs == manifests[1].outputs == manifests[2].outputs

    def test_different_seed_changes_monte_carlo(self, tmp_path):
        a = run_quiet(self.SANOV_MC, tmp_path / "a")
        b = run_quiet(self.SANOV_MC, tmp_path / "b", seed=999)
        assert a.outputs != b.outputs

    def test_exact_commands_ignore_seed(self, tmp_path):
        config = {
            "command": "gibbs",
            "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [0.7, 0.8], "n_grid": [20, 40]},
        }
        a = run_quiet(config, tmp_path / "a", seed=1)
        b = run_quiet(config, tmp_path / "b", seed=2)
        assert a.outputs == b.outputs


class TestJsonIo:
    def test_format_float_17_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(0.25) == "0.25"
        assert float(format_float(1 / 3)) == 1 / 3
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"

    def test_nonfinite_floats_become_null_in_json(self):
        assert dumps({"a": float("inf")}) == '{"a": null}\n'

    def test_csv_is_rfc4180(self):
        text = csv_text(("a", "b"), [(1, 0.5), (2, float("-inf"))])
        assert text == "a,b\r\n1,0.5\r\n2,-inf\r\n"


VALID_CONFIGS = [
    tilt_config(),
    {
        "command": "project",
        "inputs": {"P": [0.4, 0.6], "potential": [0, 1], "target_interval": [0.7, 0.9]},
    },
    {
        "command": "necessity",
        "inputs": {
            "generator": "squared_euclidean",
            "q": [1 / 3, 1 / 3, 1 / 3],
            "potential": [0, 1, 2],
            "target": 0.5,
        },
    },
    {
        "command": "bayes",
        "inputs": {
            "posterior": {"alphabet": [0, 1], "weights": [0.9, 0.1]},
            "loss": {
                "prediction_alphabet": [0, 1],
                "label_alphabet": [0, 1],
                "entries": [[0, 1], [1, 0]],
            },
        },
    },
    {
        "command": "sanov",
        "inputs": {
            "P": [0.5, 0.5],
            "potential": [0, 1],
            "target_interval": [0.7, 1.0],
            "n_grid": [10, 15],
            "method": "exact",
        },
    },
    {
        "command": "gibbs",
        "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [0.7, 0.8], "n_grid": [15]},
    },
    {
        "command": "rate",
        "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "xi_grid": [0.25, 0.5, 1.5]},
    },
    {
        "command": "meta",
        "inputs": {
            "P": [0.5, 0.5],
            "loss_row": [0, 1],
            "n": 12,
            "Xi": [0.6, 0.9],
            "U": {"kind": "identity"},
            "eta": 0.7,
            "model_grid_step": 0.01,
        },
    },
    {
        "command": "corr",
        "inputs": {
            "sigma_y": 1.0,
            "epsilon": 0.0,
            "loss": {"kind": "quadratic"},
            "r_grid": [0.0, 0.2, 0.4, 0.6, 0.8],
        },
    },
]


# Scalar inputs per command that must be finite (speed, sigma_y and
# model_grid_step also > 0); list-valued ones have their first entry corrupted.
# tilt no longer reads a tol input: a config that carries one, with any value,
# must still fail validation, now as a key the command does not read.
SCALAR_INPUTS = {
    "tilt": ("target", "tol"),
    "project": ("target_interval",),
    "necessity": ("target",),
    "sanov": ("target_interval",),
    "gibbs": ("Xi",),
    "rate": ("xi_grid",),
    "meta": ("eta", "Xi", "speed", "model_grid_step"),
    "corr": ("sigma_y", "epsilon"),
}


def with_scalar(config, key, value):
    config = json.loads(json.dumps(config))
    inputs = config["inputs"]
    if isinstance(inputs.get(key), list):
        inputs[key][0] = value
    else:
        inputs[key] = value
    return config


def _fuzz_configs(rng):
    """Seeded stream of valid and corrupted configs across all commands."""

    def corrupt(config):
        config = json.loads(json.dumps(config))
        kind = rng.integers(0, 7)
        inputs = config["inputs"]
        if kind == 0 and inputs:
            inputs.pop(sorted(inputs)[rng.integers(0, len(inputs))])
        elif kind == 1:
            if "target" in inputs:
                inputs["target"] = 50.0
            elif "target_interval" in inputs:
                inputs["target_interval"] = [50.0, 60.0]
            elif "Xi" in inputs:
                inputs["Xi"] = [50.0, 60.0]
            else:
                inputs["potential" if "potential" in inputs else "eta"] = "bogus"
        elif kind == 2 and "n_grid" in inputs:
            inputs["n_grid"] = [100_000_000]
        elif kind == 3:
            config["format"] = "xml"
        elif kind == 4:
            config["command"] = "mystery"
        elif kind == 6 and config["command"] in SCALAR_INPUTS:
            keys = SCALAR_INPUTS[config["command"]]
            bad = (math.nan, math.inf, 0.0, -1.0)[rng.integers(0, 4)]
            return with_scalar(config, keys[rng.integers(0, len(keys))], bad)
        else:
            for key in ("q", "P", "posterior"):
                if key in inputs:
                    inputs[key] = [0.9, 0.9]
                    break
            else:
                inputs["eta"] = float("nan") if "eta" in inputs else inputs.get("eta")
                config["seed"] = "not an int"
        return config

    yield from VALID_CONFIGS
    for _ in range(100):
        base = VALID_CONFIGS[rng.integers(0, len(VALID_CONFIGS))]
        yield corrupt(base)
    # windows and etas that only the exact law at n rules out: no type class
    # of n = 3 has mean 0.5; no mass of n = 3 in [0.4, 0.6]; eta 0.61 below
    # the law's support {8, 9, 10} / 12 in [0.6, 0.9]; no grid model of step
    # 0.01 in [0.3001, 0.3009]
    half = {"P": [0.5, 0.5], "potential": [0, 1]}
    meta = {"P": [0.5, 0.5], "loss_row": [0, 1], "U": {"kind": "identity"}}
    yield {"command": "gibbs", "inputs": {**half, "Xi": [0.5, 0.5], "n_grid": [3]}}
    yield {"command": "meta", "inputs": {**meta, "n": 3, "Xi": [0.4, 0.6], "eta": 0.5, "model_grid_step": 0.01}}
    yield {"command": "meta", "inputs": {**meta, "n": 12, "Xi": [0.6, 0.9], "eta": 0.61}}
    yield {"command": "meta", "inputs": {**meta, "n": 10000, "Xi": [0.3001, 0.3009], "eta": 0.3005,
                                         "model_grid_step": 0.01}}


class TestValidationCompleteness:
    STATIC_FAMILIES = {2: "validation", 3: "infeasible", 5: "resource"}

    def test_validate_and_run_agree_on_static_error_families(self, tmp_path, rng):
        for i, config in enumerate(_fuzz_configs(rng)):
            diags = cli.validate(config)
            out = tmp_path / f"case{i}"
            error = None
            try:
                run_quiet(config, out, threads=1)
            except MaxentError as exc:
                error = exc
            if not diags:
                # statically clean configs must not fail with a static family
                assert error is None or error.exit_code == 4, (config, error)
            else:
                assert error is not None, config
                family = self.STATIC_FAMILIES.get(error.exit_code, "numerical")
                assert diags[0]["family"] == family, (config, diags, error)

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("rate", "xi_grid", math.nan),
            ("rate", "xi_grid", math.inf),
            ("corr", "sigma_y", math.nan),
            ("corr", "epsilon", math.nan),
            ("tilt", "target", math.nan),
            ("necessity", "target", math.nan),
            ("meta", "eta", math.nan),
            ("meta", "Xi", math.nan),
            ("meta", "speed", 0.0),
            ("meta", "speed", -1.0),
            ("meta", "speed", math.inf),
            # an unread key, whatever its value
            ("tilt", "tol", math.nan),
            ("tilt", "tol", -1.0),
            ("corr", "x_value", math.nan),
            ("corr", "grid_points", 2),
            ("corr", "grid_points", 3.7),
            # a count that is not an integer
            ("sanov", "trials", 2500.9),
            ("rate", "points", 3.9),
            ("meta", "n", True),
            ("gibbs", "n_grid", True),
        ],
    )
    def test_bad_scalar_is_a_validation_error(self, tmp_path, capsys, command, key, value):
        base = next(c for c in VALID_CONFIGS if c["command"] == command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_scalar(base, key, value)), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "ConfigInvalid"
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [("meta", "speed", 0.0), ("meta", "speed", -1.0), ("meta", "speed", math.nan), ("sanov", "trials", 999)],
    )
    def test_speed_and_trials_are_checked_once_at_validation(self, tmp_path, capsys, monkeypatch, command, key, value):
        # the rules live in meta.check_speed and ldp.check_trials; the run
        # fails at validation, before any computation starts
        base = next(c for c in VALID_CONFIGS if c["command"] == command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(with_scalar(base, key, value)), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "ConfigInvalid"
        monkeypatch.setattr(cli, "run_meta_pipeline", None)
        monkeypatch.setattr(cli, "sanov_exact", None)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_speed_and_trials_rules_are_library_checks(self):
        for speed in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="speed"):
                meta_module.check_speed(speed)
        assert meta_module.check_speed(0.5) == 0.5
        with pytest.raises(ValueError, match="1000 trials"):
            ldp.check_trials(999)
        assert ldp.check_trials(1000) == 1000


def with_input(command, key, value):
    config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == command)))
    config["inputs"][key] = value
    return config


class TestJsonNumbers:
    """A real input is a JSON number: a string or a bool fails validation, in a list or not."""

    @pytest.mark.parametrize(
        "config",
        [
            tilt_config("0.25"),
            with_input("tilt", "potential", ["0", True]),
            with_input("tilt", "q", ["0.5", "0.5"]),
            with_input("project", "P", {"alphabet": [0, 1], "weights": ["0.4", 0.6]}),
            with_input("project", "P", {"alphabet": [0, 1], "weights": [0.4, 0.6], "junk": 1}),
            with_input("meta", "Xi", ["0.6", 0.9]),
            with_input("meta", "eta", "0.7"),
            with_input("meta", "loss_row", [0, True]),
            with_input("bayes", "loss", {"prediction_alphabet": [0, 1], "label_alphabet": [0, 1],
                                         "entries": [["0", True], [1, 0]]}),
            with_input("corr", "loss", {"kind": "huber", "delta": "0.5"}),
        ],
        ids=["target", "potential", "q", "P-weights", "P-junk-key", "Xi", "eta", "loss_row", "loss-entries",
             "huber-delta"],
    )
    def test_non_number_is_a_validation_error(self, tmp_path, capsys, config):
        command = config["command"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "ConfigInvalid"
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestUnreadInputKeys:
    @pytest.mark.parametrize(
        "command, path, key",
        [
            ("tilt", (), "tol"),
            ("sanov", (), "target_intervals"),
            ("meta", ("U",), "scale"),
            ("meta", ("U",), "center"),  # the identity statistic reads no parameter
            ("corr", ("loss",), "delta"),  # quadratic loss takes no parameter
            ("corr", ("loss",), "spread"),
            ("bayes", ("loss",), "weights"),
            ("bayes", ("posterior",), "junk"),  # a measure object reads alphabet and weights
            ("corr", (), "grid_points"),
            ("corr", (), "x_value"),
        ],
    )
    def test_unread_key_is_a_validation_error(self, tmp_path, capsys, command, path, key):
        config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == command)))
        obj = config["inputs"]
        for part in path:
            obj = obj[part]
        obj[key] = 1e-10
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)["diagnostics"][0]
        assert diagnostic["error"] == "ConfigInvalid" and key in diagnostic["message"]
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("u, key", [
        ({"kind": "identity", "table_xi": [0.6, 0.9], "table_u": [0.0, 1.0]}, "table_xi"),
        ({"kind": "user_table", "table_xi": [0.6, 0.9], "table_u": [0.0, 1.0], "center": 0.75}, "center"),
    ])
    def test_meta_u_key_its_kind_does_not_read_is_a_validation_error(self, tmp_path, capsys, u, key):
        config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == "meta")))
        config["inputs"]["U"] = u
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--validate-only"]) == 2
        assert key in json.loads(capsys.readouterr().out)["diagnostics"][0]["message"]
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_every_listed_key_is_read(self):
        # each valid config uses only listed keys, and the huber and quartic
        # parameters pass for their own kind
        for config in VALID_CONFIGS:
            assert cli.validate(config) == []
        for kind, name in (("huber", "delta"), ("quartic", "scale")):
            config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == "corr")))
            config["inputs"]["loss"] = {"kind": kind, name: 0.5}
            assert cli.validate(config) == []


class TestScaleFreeTilt:
    """A loss has no units: the tilt onto (V, c) and onto (s V, s c) agree at any scale s."""

    @pytest.mark.parametrize("scale", (1e-9, 1e-170, 1e-250))
    def test_tilt_at_tiny_potential_scales(self, tmp_path, scale):
        config = {"command": "tilt", "inputs": {"q": [0.5, 0.5], "potential": [0.0, scale], "target": scale / 4}}
        out = io.StringIO()
        cli.run(config, out_dir=tmp_path, stdout=out)
        result = json.loads(out.getvalue())
        assert result["realized"] == pytest.approx([0.75, 0.25], abs=1e-15)
        assert result["lambda"] * scale == pytest.approx(math.log(3.0), rel=1e-12)

    def test_rate_at_a_tiny_potential_scale(self, tmp_path):
        config = {"command": "rate", "inputs": {"P": [0.5, 0.5], "potential": [0.0, 1e-9], "xi_grid": [2.5e-10]}}
        out = io.StringIO()
        cli.run(config, out_dir=tmp_path, stdout=out, fmt="json")
        rate = json.loads(out.getvalue())["rate"][0]
        assert rate == pytest.approx(0.75 * math.log(1.5) + 0.25 * math.log(0.5), rel=1e-12)
