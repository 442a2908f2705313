import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from scipy import optimize

from maxent_bayes import cli, ldp
from maxent_bayes import meta as meta_module
from maxent_bayes.errors import MaxentError, NonConvergence
from maxent_bayes.jsonio import csv_text, dumps, format_float, sha256_text


def tilt_config(target=0.25):
    return {
        "command": "tilt",
        "inputs": {"q": [0.5, 0.5], "potential": [0, 1], "target": target},
        "seed": 7,
    }


def run_quiet(config, out_dir, **kwargs):
    return cli.run(config, out_dir=out_dir, stdout=io.StringIO(), **kwargs)


def exits_with_table_too_large(tmp_path, capsys, config):
    """Assert that the config exits 5 with TableTooLarge, validated or run, and writes nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([config["command"], "--config", str(cfg), "--validate-only"]) == 5
    assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "TableTooLarge"
    assert cli.main([config["command"], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
    assert "TableTooLarge" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestValidate:
    def test_valid_config_has_no_diagnostics(self):
        assert cli.validate(tilt_config()) == []

    def test_infeasible_target_is_one_diagnostic(self):
        diags = cli.validate(tilt_config(target=5.0))
        assert len(diags) == 1
        assert diags[0]["family"] == "infeasible"
        assert diags[0]["error"] == "InfeasibleConstraint"

    def test_enumeration_guard_reports_computed_size(self):
        # off a lattice, and on a lattice of span 3 whose pass (5.4e7 terms at
        # n = 3000) is over the cap, the read takes the type slab, which holds
        # more than the cap at these n; the message gives the slab's own count
        # (tests/test_ldp.py checks it against a built slab)
        cases = [([0, 1, math.sqrt(2.0), 3], 4000), ([0, 1, 2, 3], 3000)]
        for potential, n in cases:
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
            size = re.fullmatch(rf"type slab for k=4 distinct values, n={n} holds (\d+) types at level 3 of 3 "
                                rf"\(cap {ldp.TABLE_CAP}\)", diags[0]["message"])
            assert size and int(size[1]) > ldp.TABLE_CAP

    def test_gibbs_over_the_cap_is_sized_before_any_law_is_computed(self, monkeypatch):
        # the pass at max(n_grid) - 1 = 3000 is over the cap, so the grid reads
        # slabs, largest n first: the slab at 3000 is over the cap too, and is
        # refused before any type's terms are read or a smaller slab is begun
        for name in ("_tilted_pass", "_reachable", "enumerate_types", "_type_means", "_type_log_probs"):
            monkeypatch.setattr(ldp, name, lambda *args, name=name: pytest.fail(f"ran {name}"))
        full, begun = ldp._compositions, []
        monkeypatch.setattr(ldp, "_compositions", lambda *args: begun.append(args[0]) or full(*args))
        config = {
            "command": "gibbs",
            "inputs": {"P": [0.25] * 4, "potential": [0, 1, 2, 3], "Xi": [2, 3], "n_grid": [400, 800, 1200, 3001]},
        }
        [diag] = cli.validate(config)
        assert diag["error"] == "TableTooLarge" and "n=3000 holds" in diag["message"]
        assert begun == [3000]

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

    def test_a_rerun_overwrites_each_output_and_cuts_it_to_length(self, tmp_path):
        rate = {"command": "rate", "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 3], "points": 2000}}
        fewer = {**rate, "inputs": {**rate["inputs"], "points": 50}}
        tilt = {"command": "tilt", "inputs": {"q": [0.2, 0.3, 0.5], "potential": [0, 1, 3], "target": 2.0}}
        out = tmp_path / "out"
        for i, config in enumerate((rate, fewer, tilt)):
            manifest = run_quiet(config, out)
            fresh = tmp_path / f"fresh{i}"
            assert run_quiet(config, fresh).outputs == manifest.outputs
            assert (out / "manifest.json").read_text(encoding="utf-8") == dumps(dataclasses.asdict(manifest))
            assert len(manifest.outputs) == (1 if config is tilt else 2)
            for name, digest in manifest.outputs.items():
                data = (out / name).read_bytes()
                assert data == (fresh / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest

    def test_an_output_path_that_is_a_directory_is_a_validation_error(self, tmp_path):
        (tmp_path / "tilt_result.json").mkdir()
        from maxent_bayes.errors import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            run_quiet(tilt_config(), tmp_path)

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


# a sanov window sampled twice at one n
HALF_WINDOW = {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [0.7, 1.0], "n_grid": [5, 5]}


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
        # gibbs reads the law at n - 1 = 4000 and 3000: off a lattice, and on a
        # lattice of span 3 whose pass (5.4e7 terms) is over the cap, the type
        # slab holds more than the cap of 1e7
        for potential, n in (([0, 1, math.sqrt(2.0), 3], 4001), ([0, 1, 2, 3], 3001)):
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

    def test_the_old_guard_sizes_are_answered(self, tmp_path, capsys):
        # k = 4 off a lattice at n = 500 (C(503, 3) type classes, over the cap)
        # reads a slab of 1e6 types.  The lattice of span 3 at n = 2000 (a pass
        # of 2.4e7 terms) reads one of 8.2e6, too large for this suite
        potential = [0, 1, math.sqrt(2.0), 3]
        sanov = {"command": "sanov", "inputs": {"P": [0.25] * 4, "potential": potential, "target_interval": [2.0, 3.0],
                                                "n_grid": [500], "method": "exact"}}
        assert cli.validate(sanov) == []
        gibbs = {"command": "gibbs", "inputs": {"P": [0.25] * 4, "potential": potential, "Xi": [2.0, 3.0], "n_grid": [500]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(gibbs), encoding="utf-8")
        assert cli.main(["gibbs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["tv_by_n"]["500"] < 0.01

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

    @pytest.mark.parametrize("n", [2 ** 63, 10 ** 400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("P", [[0.5, 0.5], [0.0, 0.5, 0.5]], ids=["drawn", "certain"])
    def test_monte_carlo_n_past_64_bits_exits_5(self, tmp_path, capsys, n, P):
        # a valid JSON integer that no 64-bit count holds, whether the first
        # count is drawn from a table or is certain
        inputs = {"P": P, "potential": list(range(len(P))), "target_interval": [0.6, 2.0], "n_grid": [10, n],
                  "method": "monte-carlo", "trials": 1000}
        exits_with_table_too_large(tmp_path, capsys, {"command": "sanov", "inputs": inputs})

    def test_monte_carlo_with_a_weight_below_the_float_resolution(self, tmp_path, capsys):
        # 1e-17 is below half an ulp of 0.5, so the second symbol takes every
        # draw left and the Monte Carlo rows are those of the two-symbol law
        rows = []
        for P in ([0.5, 0.5, 1e-17], [0.5, 0.5]):
            inputs = {"P": P, "potential": list(range(len(P))), "target_interval": [0.6, 2.0], "n_grid": [10, 20],
                      "method": "monte-carlo", "trials": 1000}
            cfg, out = tmp_path / "cfg.json", tmp_path / f"o{len(P)}"
            cfg.write_text(json.dumps({"command": "sanov", "inputs": inputs}), encoding="utf-8")
            assert cli.main(["sanov", "--config", str(cfg), "--out", str(out)]) == 0
            rows.append((out / "sanov_rates.csv").read_bytes())
        assert capsys.readouterr().err == ""
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("k, grid", [
        (2, {"points": ldp.TABLE_CAP + 1}),
        (2, {"points": 10 ** 20}),
        (100, {"xi_grid": [50.0] * (ldp.TABLE_CAP // 100 + 1)}),  # a row of 100 entries per point
    ], ids=["cap+1", "1e20", "xi_grid"])
    def test_rate_grid_over_the_cap_exits_5_before_it_is_built(self, tmp_path, capsys, monkeypatch, k, grid):
        for module, name in ((np, "linspace"), (ldp, "_project")):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(f"ran {name}"))
        inputs = {"P": [1.0 / k] * k, "potential": list(range(k)), **grid}
        exits_with_table_too_large(tmp_path, capsys, {"command": "rate", "inputs": inputs})

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
        (0.5, {"newton": 0, "bisections": 0, "residual": 0}),  # the mean of q
    ])
    def test_tilt_verbose_reports_solver_diagnostics(self, tmp_path, capsys, target, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config(target)), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o"), "--verbose"]) == 0
        result = json.loads(capsys.readouterr().out)
        diagnostics = result["diagnostics"]
        assert list(diagnostics) == ["newton", "bisections", "residual"]
        if expected is not None:
            assert diagnostics == expected
            return
        assert all(isinstance(diagnostics[key], int) for key in ("bisections", "newton"))
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

    @pytest.mark.parametrize("config, keys", [
        ({"command": "sanov", "inputs": {**HALF_WINDOW, "method": "monte-carlo", "trials": 1000}},
         ("fitted_slope", "r2", "slope_stderr")),
        ({"command": "sanov", "inputs": {**HALF_WINDOW, "method": "exact"}}, ("fitted_slope", "r2", "slope_stderr")),
        ({"command": "corr", "inputs": {"loss": {"kind": "quadratic"}, "r_grid": [0.5] * 5}},
         ("slope", "intercept", "r2")),
    ])
    def test_a_grid_of_one_distinct_value_fits_no_line(self, tmp_path, capsys, config, keys):
        # no line passes through a single x: the fit is all nulls, with no
        # division by zero and no r2 of 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([config["command"], "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert [result[key] for key in keys] == [None] * len(keys)


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

    FLOATS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1)
    TEXTS = ("", "plain", "a,b", 'say "hi"', '"', ",", "cr\r", "lf\n", "crlf\r\n", " spaced ", "x,\"y\"\r\n")

    @staticmethod
    def value(rng, kind):
        if kind == "float":
            pool = TestJsonIo.FLOATS
            return pool[rng.integers(len(pool))] if rng.random() < 0.5 else float(rng.normal() * 10.0 ** rng.integers(-30, 30))
        if kind == "int":
            return int(rng.integers(-10**6, 10**6))
        if kind == "bool":
            return bool(rng.integers(2))
        if kind == "none":
            return None
        return TestJsonIo.TEXTS[rng.integers(len(TestJsonIo.TEXTS))]

    @staticmethod
    def csv_writer_text(header, rows):
        # the oracle: csv.writer, with floats given as 17-digit text as the CLI always wrote them
        def text(x):
            return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf") if math.isinf(x) else format(x, ".17g")

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([text(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    def test_csv_text_is_the_text_of_csv_writer(self):
        rng = np.random.default_rng(34)
        kinds = ("float", "int", "bool", "none", "text", "mixed")
        for _ in range(400):
            width = int(rng.integers(2, 6))
            header = tuple(self.value(rng, "text") for _ in range(width))
            columns = [kinds[rng.integers(len(kinds))] for _ in range(width)]
            rows = [
                tuple(self.value(rng, kinds[rng.integers(5)] if c == "mixed" else c) for c in columns)
                for _ in range(int(rng.integers(0, 12)))
            ]
            assert csv_text(header, rows) == self.csv_writer_text(header, rows), (header, rows)
        rows = [(np.float64(0.1), np.int64(3), np.bool_(True), [1, 2])]
        assert csv_text(("a", "b", "c", "d"), rows) == self.csv_writer_text(("a", "b", "c", "d"), rows)

    def test_csv_rows_of_unequal_width_are_refused(self):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [(1, 2), (3,)])

    @staticmethod
    def recursive_encode(obj):
        # the encoder as it was, one call per element
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, float):
            return format(obj, ".17g") if math.isfinite(obj) else "null"
        if isinstance(obj, str):
            return json.dumps(obj, ensure_ascii=False)
        if isinstance(obj, dict):
            enc = TestJsonIo.recursive_encode
            return "{" + ", ".join(f"{json.dumps(str(k), ensure_ascii=False)}: {enc(v)}" for k, v in obj.items()) + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(TestJsonIo.recursive_encode(v) for v in obj) + "]"
        return TestJsonIo.recursive_encode(obj.item())

    def test_dumps_is_the_text_of_the_recursive_encoder(self):
        rng = np.random.default_rng(35)
        floats = [self.value(rng, "float") for _ in range(300)]
        finite = [x for x in floats if math.isfinite(x)]
        cases = [
            floats,
            finite,
            tuple(finite),
            [1e308, 1e308],  # finite terms whose sum is not
            [math.inf, -math.inf, math.nan],
            [bool(b) for b in rng.integers(2, size=50)],
            [],
            (),
            [np.float64(x) for x in floats[:20]],
            [0.5, 1, True, None, "s"],
            {"a": {"b": (0.25, [math.nan, 2.0]), "c": [[], [True, False]]}, 3: ({"d": -0.0},), "e": np.float64(1 / 3)},
        ]
        for obj in cases:
            assert dumps(obj) == self.recursive_encode(obj) + "\n", obj


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
    FAMILIES = {2: "validation", 3: "infeasible", 4: "numerical", 5: "resource"}

    def test_validate_and_run_agree_on_static_error_families(self, tmp_path, rng):
        # validation runs the run's path without its writes: it is clean
        # exactly when the run succeeds, and otherwise reports the run's family
        for i, config in enumerate(_fuzz_configs(rng)):
            diags = cli.validate(config)
            out = tmp_path / f"case{i}"
            error = None
            try:
                run_quiet(config, out, threads=1)
            except MaxentError as exc:
                error = exc
            if error is None:
                assert diags == [], (config, diags)
            else:
                assert [diag["family"] for diag in diags] == [self.FAMILIES[error.exit_code]], (config, diags, error)

    def test_validate_only_reports_a_fault_of_the_computation(self, tmp_path, capsys, monkeypatch):
        # a fault outside gibbs and meta is found by running, as the run finds it
        def broken(*args, **kwargs):
            raise NonConvergence("the tilt did not converge")

        monkeypatch.setattr(cli, "solve_tilt_with_report", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tilt_config()), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--validate-only"]) == 4
        [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["family"] == "numerical" and diag["error"] == "NonConvergence"
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith("NonConvergence")

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

    @pytest.mark.parametrize("table_xi, table_u", [
        ([], []),  # no pair to interpolate
        ([0.6, 0.9], [0.0]),  # tables of unequal length
        ([0.9, 0.6], [0.0, 1.0]),  # table_xi decreases
    ])
    def test_malformed_user_table_is_a_validation_error(self, tmp_path, capsys, table_xi, table_u):
        config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == "meta")))
        config["inputs"]["U"] = {"kind": "user_table", "table_xi": table_xi, "table_u": table_u}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["meta", "--config", str(cfg), "--validate-only"]) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"][0]["error"] == "ConfigInvalid"
        assert cli.main(["meta", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_listed_key_is_read(self):
        # each valid config uses only listed keys, and the huber and quartic
        # parameters pass for their own kind
        for config in VALID_CONFIGS:
            assert cli.validate(config) == []
        for kind, name in (("huber", "delta"), ("quartic", "scale")):
            config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == "corr")))
            config["inputs"]["loss"] = {"kind": kind, name: 0.5}
            assert cli.validate(config) == []


class TestConfigKeys:
    @pytest.mark.parametrize("key", ("sed", "input", "threads"))
    def test_unread_top_level_key_is_a_validation_error(self, tmp_path, capsys, key):
        # a misspelt seed once ran with seed 0 and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**tilt_config(), key: 7}), encoding="utf-8")
        assert cli.main(["tilt", "--config", str(cfg), "--validate-only"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)["diagnostics"][0]
        assert diagnostic["error"] == "ConfigInvalid" and key in diagnostic["message"]
        assert cli.main(["tilt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("tilt", '{"command": "tilt", "inputs": {"q": [0.5, 0.5], "potential": [0, 1], "target": 0.25,'
         ' "target": 0.75}}', "target"),
        ("tilt", '{"command": "tilt", "seed": 1, "inputs": {"q": [0.5, 0.5], "potential": [0, 1], "target": 0.25},'
         ' "seed": 2}', "seed"),
        ("bayes", '{"command": "bayes", "inputs": {"posterior": {"alphabet": [0, 1], "weights": [0.5, 0.5],'
         ' "weights": [1, 0]}, "loss": [[0, 1], [1, 0]]}}', "weights"),
    ], ids=("inputs", "top-level", "measure"))
    def test_duplicate_key_at_any_depth_is_a_validation_error(self, tmp_path, capsys, command, text, key):
        # json.load keeps the last of two equal keys: the run once solved for 0.75
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 2
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out) == {"diagnostics": [
            {"family": "validation", "error": "ConfigInvalid", "message": f"config repeats the key {key}"}]}
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and key in err
        assert not (tmp_path / "o").exists()


def without_input(command, key):
    config = json.loads(json.dumps(next(c for c in VALID_CONFIGS if c["command"] == command)))
    del config["inputs"][key]
    return config


class TestConfigInvalidMessages:
    """Every ConfigInvalid branch of the cli's parse, with its message."""

    @pytest.mark.parametrize("config, message", [
        pytest.param(with_input("tilt", "potential", "0 1"), "potential must be a list of reals", id="potential"),
        pytest.param(with_input("project", "target", 0.8),
                     "give either target or target_interval, not both", id="target-and-interval"),
        pytest.param(with_input("project", "target_interval", [0.7]),
                     "target_interval must be [lo, hi]", id="interval-length"),
        pytest.param(with_input("sanov", "target_interval", 0.7),
                     "target_interval must be [lo, hi]", id="interval-scalar"),
        pytest.param(with_input("project", "target_interval", [0.9, 0.7]),
                     "target_interval must satisfy lo <= hi", id="interval-order"),
        pytest.param(without_input("project", "target_interval"),
                     "missing target or target_interval", id="no-target"),
        pytest.param(with_input("gibbs", "Xi", [0.7, 0.8, 0.9]), "Xi must be [lo, hi]", id="xi-length"),
        pytest.param(with_input("meta", "Xi", [0.9, 0.6]), "Xi must satisfy lo <= hi", id="xi-order"),
        pytest.param(with_input("gibbs", "n_grid", []),
                     "n_grid must be a non-empty list of positive integers", id="n-grid"),
        pytest.param(with_input("sanov", "method", "mcmc"),
                     "method must be exact or monte-carlo, got 'mcmc'", id="method"),
        pytest.param(with_input("rate", "xi_grid", []), "xi_grid must be non-empty", id="xi-grid"),
        pytest.param(with_input("meta", "U", "identity"),
                     'U must be an object like {"kind": "centered_square"}', id="u-object"),
        pytest.param(with_input("corr", "loss", {"scale": 1.0}),
                     'loss must be an object like {"kind": "quadratic"}', id="loss-object"),
        pytest.param(["tilt"], "config must be a JSON object", id="config-object"),
        pytest.param({"inputs": tilt_config()["inputs"]}, "no command given", id="no-command"),
        pytest.param({"command": "tilt"}, "config must carry an inputs object", id="no-inputs"),
        pytest.param({**tilt_config(), "output_dir": 7}, "output_dir must be a path string", id="output-dir"),
    ])
    def test_validate_reports_the_message(self, config, message):
        assert cli.validate(config) == [{"family": "validation", "error": "ConfigInvalid", "message": message}]

    @pytest.mark.parametrize("name, text, message", [
        ("missing.json", None, "cannot read config: "),
        (".", None, "cannot read config: "),
        ("bad.json", "{not json", "malformed JSON config: "),
        ("repeated.json", '{"command": "tilt", "command": "tilt"}', "config repeats the key command"),
    ], ids=("missing", "directory", "malformed", "repeated-key"))
    def test_validate_only_reports_a_config_file_it_cannot_load(self, tmp_path, capsys, name, text, message):
        # on stdout, as every other error of --validate-only; a run reports it on stderr
        path = tmp_path / name
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert cli.main(["tilt", "--config", str(path), "--validate-only"]) == 2
        out, err = capsys.readouterr()
        [diag] = json.loads(out)["diagnostics"]
        assert err == "" and diag["message"].startswith(message)
        assert (diag["family"], diag["error"]) == ("validation", "ConfigInvalid")
        assert cli.main(["tilt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"ConfigInvalid: {message}")
        assert not (tmp_path / "o").exists()


def read_run(config, out_dir):
    """The stdout and output files of a run, the manifest left out."""
    out = io.StringIO()
    cli.run(config, out_dir=out_dir, stdout=out)
    return out.getvalue(), read_outputs(out_dir)


class TestWindowRule:
    """A point target c is the window [c, c], and a window stands for its dominating point."""

    @pytest.mark.parametrize("command, inputs", [
        ("project", {"P": [0.2, 0.5, 0.3], "potential": [0, 1, 2]}),
        ("sanov", {"P": [0.2, 0.5, 0.3], "potential": [0, 1, 2], "n_grid": [10, 20], "method": "exact"}),
        ("sanov", {"P": [0.2, 0.5, 0.3], "potential": [0, 1, 2 ** 0.5], "n_grid": [6, 12], "method": "exact"}),
        ("sanov", {"P": [0.2, 0.5, 0.3], "potential": [0, 1, 2], "n_grid": [10, 20], "method": "monte-carlo",
                   "trials": 2000}),
    ], ids=("project", "sanov-lattice", "sanov-irrational", "sanov-monte-carlo"))
    @pytest.mark.parametrize("c", (0.5, 1.5, 2.0))
    def test_a_point_and_its_window_give_the_same_bytes(self, tmp_path, command, inputs, c):
        point, window = ({"command": command, "inputs": {**inputs, **target}}
                         for target in ({"target": c}, {"target_interval": [c, c]}))
        if c > max(inputs["potential"]):  # past sqrt 2: no reweighting of P reaches the point
            message = f"target {c!r} outside the attainable range [0.0, {2 ** 0.5!r}]"
            assert cli.validate(point) == cli.validate(window) == [
                {"family": "infeasible", "error": "InfeasibleConstraint", "message": message}]
        else:
            assert read_run(point, tmp_path / "point") == read_run(window, tmp_path / "window")

    @pytest.mark.parametrize("command, inputs, error, message", [
        ("project", {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [1.5, 2.0]},
         "InfeasibleConstraint", "target 1.5 outside the attainable range [0.0, 1.0]"),
        ("project", {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [-2.0, -0.5]},
         "InfeasibleConstraint", "target -0.5 outside the attainable range [0.0, 1.0]"),
        ("gibbs", {"P": [0.5, 0.5], "potential": [0, 1], "Xi": [2.0, 3.0], "n_grid": [10]},
         "InfeasibleConstraint", "target 2.0 outside the attainable range [0.0, 1.0]"),
        ("project", {"P": [0.5, 0.5], "potential": [0.5, 0.5], "target_interval": [1.5, 2.0]},
         "DegeneratePotential", "potential is constant (0.5) on the support but target is 1.5"),
    ], ids=("above", "below", "gibbs", "constant"))
    def test_a_window_out_of_reach_exits_3_naming_its_point(self, tmp_path, capsys, command, inputs, error, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, "inputs": inputs}), encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--validate-only"]) == 3
        assert json.loads(capsys.readouterr().out)["diagnostics"] == [
            {"family": "infeasible", "error": error, "message": message}]
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"{error}: {message}\n"


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


# Configs whose potential, windows and targets scale with the loss: the keys
# scaled by s = 2^j, and eta by s (identity U) or s^2 (centered_square U).
SCALED_CONFIGS = {
    "sanov-lattice": ({"command": "sanov", "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 3],
                                                      "target_interval": [2.2, 3], "n_grid": [20, 40, 60]}},
                      ("potential", "target_interval")),
    "sanov-irrational": ({"command": "sanov", "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 2 ** 0.5],
                                                         "target_interval": [1.1, 2 ** 0.5], "n_grid": [20, 40, 60]}},
                         ("potential", "target_interval")),
    "sanov-monte-carlo": ({"command": "sanov", "seed": 3,
                           "inputs": {"P": [0.5, 0.5], "potential": [0, 1], "target_interval": [0.75, 1],
                                      "n_grid": [20, 40, 60], "method": "monte-carlo", "trials": 20000}},
                          ("potential", "target_interval")),
    "gibbs": ({"command": "gibbs", "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 3], "Xi": [2, 2.5],
                                              "n_grid": [10, 20, 40]}},
              ("potential", "Xi")),
    "gibbs-irrational": ({"command": "gibbs", "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 2 ** 0.5],
                                                         "Xi": [1.1, 2 ** 0.5], "n_grid": [10, 20, 40, 400]}},
                         ("potential", "Xi")),
    "meta-identity": ({"command": "meta", "inputs": {"P": [0.5, 0.5], "loss_row": [0, 1], "n": 12, "Xi": [0.6, 0.9],
                                                     "U": {"kind": "identity"}, "eta": 0.7, "model_grid_step": 0.01}},
                      ("loss_row", "Xi", "eta")),
    "meta-centered-square": ({"command": "meta", "inputs": {"P": [0.2, 0.3, 0.5], "loss_row": [0, 1, 3], "n": 12,
                                                            "Xi": [1.2, 2.4], "U": {"kind": "centered_square"},
                                                            "eta": 0.1}},
                             ("loss_row", "Xi")),
    "sanov-monte-carlo-k3": ({"command": "sanov", "seed": 3,
                              "inputs": {"P": [0.2, 0.3, 0.5], "potential": [0, 1, 3], "target_interval": [2.2, 3],
                                         "n_grid": [20, 40, 80], "method": "monte-carlo", "trials": 20000}},
                             ("potential", "target_interval")),
    "meta-lattice-k3": ({"command": "meta", "inputs": {"P": [0.2, 0.3, 0.5], "loss_row": [0, 1, 3], "n": 40,
                                                       "Xi": [1.5, 2.5], "U": {"kind": "identity"}, "eta": 2.0,
                                                       "model_grid_step": 0.05}},
                        ("loss_row", "Xi", "eta")),
    "bayes": ({"command": "bayes", "inputs": {"posterior": [0.3, 0.7],
                                              "loss": {"prediction_alphabet": [0, 1], "label_alphabet": [0, 1],
                                                       "entries": [[0, 1], [1, 0]]}}},
              ()),
}


def scale_config(config, keys, j):
    config = json.loads(json.dumps(config))
    inputs, s = config["inputs"], 2.0 ** j
    for key in keys:
        inputs[key] = np.multiply(inputs[key], s).tolist()
    if config["command"] == "bayes":
        inputs["loss"]["entries"] = np.multiply(inputs["loss"]["entries"], s).tolist()
    if config["command"] == "meta" and inputs["U"]["kind"] == "centered_square":
        inputs["eta"] *= 4.0 ** j
    return config


def unscaled_payload(config, j):
    """The JSON payload of a run, each output in units of the loss (or of
    its square) scaled back by 2^-j."""
    plan = cli.prepare(config)
    payload = plan.execute(cli.RunContext(seed=plan.seed, threads=1, verbose=False))["json"]
    square = config["inputs"].get("U", {}).get("kind") == "centered_square"
    powers = {"window": 1, "expected_loss": 1, "center": 1, "lambda": -1, "lambda_eta": -2 if square else -1}
    for key, power in powers.items():
        if payload.get(key) is not None:
            payload[key] = np.multiply(payload[key], 2.0 ** (-j * power)).tolist()
    return payload


class TestScaleFreeCommands:
    """Every window, grouping and tie is held to the float resolution of V: a
    loss scaled by 2^j gives bit-identical slopes, r2, TV, MAP models,
    methods, Monte Carlo flags and decisions, and its multipliers, centres
    and risks scale exactly."""

    # j = 1018 wherever the scaled inputs stay finite: near the top of the
    # float range a mean overflows unless each count is divided by n first
    @pytest.mark.parametrize("name, j", [(name, j) for name in SCALED_CONFIGS
                                         for j in (-60, -40, -20, 20, 40, 60, 1018)
                                         if j < 1018 or name != "meta-centered-square"])  # eta scales by 4^j
    def test_outputs_do_not_move_with_the_scale_of_the_loss(self, name, j):
        config, keys = SCALED_CONFIGS[name]
        assert unscaled_payload(scale_config(config, keys, j), j) == unscaled_payload(config, 0)
