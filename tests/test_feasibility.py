"""One feasibility rule: ``tilting.resolve_target`` decides whether a window
of V . mu can be reached, for every command, and a dominating point within
the band of the window readers (``measures.in_window``) of a range end is
that end.  A window out of reach is InfeasibleConstraint or
DegeneratePotential (exit 3) in ``sanov`` as in ``project`` and ``gibbs``."""

import json
import math

import numpy as np
import pytest

from maxent_bayes import (
    ConstraintSpec,
    FiniteDistribution,
    SeededSampler,
    cli,
    error_rate_function,
    gibbs_conditioning,
    i_projection,
    sanov_exact,
    sanov_monte_carlo,
)
from maxent_bayes.errors import InfeasibleConstraint, MaxentError
from maxent_bayes.measures import FLOOR_ULPS, in_window

# P, V and a window: past the range of V; two ulps past max V, inside the
# band; past the one value V takes on the support, inside the band
OUT_OF_REACH = ([0.5, 0.5], [0.0, 1.0], [1.5, 2.0])
PAST_THE_TOP = ([1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 3.0], [3.0 + 2 * math.ulp(3.0), 4.0])
PAST_A_CONSTANT = ([0.5, 0.5, 0.0], [1.0, 1.0, 5.0], [1.0 + 2.0 ** -49, 5.0])


def no_draws(monkeypatch):
    for method in ("window_hits", "multinomial_block"):
        monkeypatch.setattr(SeededSampler, method, lambda *args: pytest.fail("drew a block"))


def library_results(weights, v, window, n_grid):
    """What sanov (exact and Monte Carlo), project, gibbs and rate return on the window."""
    P = FiniteDistribution.from_weights(weights)
    constraint = ConstraintSpec.interval(v, *window)
    return {
        "sanov": sanov_exact(P, constraint, n_grid),
        "sanov-mc": sanov_monte_carlo(SeededSampler(seed=1, base=P), constraint, [10, 20], 2000),
        "project": i_projection(P, constraint),
        "gibbs": gibbs_conditioning(P, constraint, n_grid),
        "rate": error_rate_function(P, v, [window[0]])[0],
    }


def configs(weights, v, window, n_grid):
    """The cli configs of sanov (exact and Monte Carlo), project, gibbs and rate on the window."""
    base = {"P": weights, "potential": v}
    return {
        "sanov": {"command": "sanov", "inputs": {**base, "target_interval": window, "n_grid": n_grid}},
        "sanov-mc": {"command": "sanov", "inputs": {**base, "target_interval": window, "n_grid": [10, 20],
                                                    "method": "monte-carlo", "trials": 2000}},
        "project": {"command": "project", "inputs": {**base, "target_interval": window}},
        "gibbs": {"command": "gibbs", "inputs": {**base, "Xi": window, "n_grid": n_grid}},
        "rate": {"command": "rate", "inputs": {**base, "xi_grid": [window[0]]}},
    }


def main(tmp_path, capsys, config, *flags):
    """(exit code, stdout, stderr) of ``cli.main`` on the config, JSON output to tmp_path / "out"."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main([config["command"], "--config", str(path), "--out", str(tmp_path / "out"),
                     "--format", "json", *flags])
    return (code, *capsys.readouterr())


def answers(tmp_path, capsys, config) -> dict:
    """The JSON a run prints, after ``--validate-only`` found nothing wrong."""
    assert main(tmp_path, capsys, config, "--validate-only") == (0, '{"diagnostics": []}\n', "")
    code, out, err = main(tmp_path, capsys, config)
    assert (code, err) == (0, "")
    return json.loads(out)


class TestAWindowOutOfReach:
    MESSAGE = "target 1.5 outside the attainable range [0.0, 1.0]"

    def test_every_command_raises_naming_its_point(self, monkeypatch):
        no_draws(monkeypatch)
        weights, v, window = OUT_OF_REACH
        P, constraint = FiniteDistribution.from_weights(weights), ConstraintSpec.interval(v, *window)
        for call in (lambda: sanov_exact(P, constraint, [10, 20]),
                     lambda: sanov_monte_carlo(SeededSampler(seed=1, base=P), constraint, [10, 20], 2000),
                     lambda: i_projection(P, constraint),
                     lambda: gibbs_conditioning(P, constraint, [10, 20])):
            with pytest.raises(InfeasibleConstraint) as info:
                call()
            assert str(info.value) == self.MESSAGE
        point = error_rate_function(P, v, [window[0]])[0]
        assert not point.feasible and point.rate == math.inf

    def test_every_command_exits_3(self, tmp_path, capsys, monkeypatch):
        no_draws(monkeypatch)
        diagnostic = {"family": "infeasible", "error": "InfeasibleConstraint", "message": self.MESSAGE}
        for name, config in configs(*OUT_OF_REACH, [10, 20]).items():
            if name == "rate":  # a grid reports its points out of reach
                assert answers(tmp_path, capsys, config) == {"xi": [1.5], "rate": [None], "feasible": [False]}
                continue
            code, out, err = main(tmp_path, capsys, config, "--validate-only")
            assert (code, json.loads(out), err) == (3, {"diagnostics": [diagnostic]}, ""), name
            assert main(tmp_path, capsys, config) == (3, "", f"InfeasibleConstraint: {self.MESSAGE}\n"), name
            assert not (tmp_path / "out").exists()


class TestAWindowInsideTheBandOfTheTop:
    """Two ulps past max V = 3 is max V: every draw is 3, rate log 3."""

    def test_every_command_answers_on_the_top_atom(self):
        results = library_results(*PAST_THE_TOP, [700, 800])
        sanov = results["sanov"]
        assert sanov.analytic_rate == math.log(3) and sanov.empty_event_ns == ()
        for n, log_prob in zip(sanov.n_grid, sanov.log_probs):
            assert abs(log_prob - n * math.log(1 / 3)) <= 1e-12 * n * math.log(3)
        assert sanov.fitted_slope == pytest.approx(-math.log(3), rel=1e-12)
        assert results["sanov-mc"].analytic_rate == math.log(3)
        tilt, rate = results["project"]
        assert tilt.lam == -math.inf and rate == math.log(3)
        assert tilt.realized.weights.tolist() == [0.0, 0.0, 1.0]
        assert [res.tv_distance for res in results["gibbs"]] == [0.0, 0.0]
        assert results["rate"].feasible and results["rate"].rate == math.log(3)

    def test_every_command_answers_through_the_cli(self, tmp_path, capsys):
        runs = {name: answers(tmp_path, capsys, config) for name, config in configs(*PAST_THE_TOP, [700, 800]).items()}
        assert runs["sanov"]["analytic_rate"] == runs["sanov-mc"]["analytic_rate"] == math.log(3)
        assert runs["sanov"]["empty_event_ns"] == []
        assert runs["project"] == {"lambda": None, "realized": [0, 0, 1], "rate": math.log(3)}
        assert runs["gibbs"]["tv_by_n"] == {"700": 0, "800": 0}
        assert runs["rate"]["rate"] == [math.log(3)] and runs["rate"]["feasible"] == [True]


class TestAWindowInsideTheBandOfAConstantPotential:
    """V is 1 on the support of P; 2^-49 past it is 1, which P meets: rate 0."""

    def test_every_command_answers_with_p_itself(self):
        results = library_results(*PAST_A_CONSTANT, [10, 20])
        sanov = results["sanov"]
        assert sanov.log_probs == (0.0, 0.0) and sanov.analytic_rate == 0.0
        assert results["sanov-mc"].log_probs == (0.0, 0.0) and results["sanov-mc"].analytic_rate == 0.0
        tilt, rate = results["project"]
        assert (tilt.lam, rate, tilt.realized.weights.tolist()) == (0.0, 0.0, [0.5, 0.5, 0.0])
        assert [res.tv_distance for res in results["gibbs"]] == [0.0, 0.0]
        assert results["rate"].feasible and results["rate"].rate == 0.0

    def test_every_command_answers_through_the_cli(self, tmp_path, capsys):
        runs = {name: answers(tmp_path, capsys, config) for name, config in configs(*PAST_A_CONSTANT, [10, 20]).items()}
        assert runs["sanov"]["analytic_rate"] == runs["sanov-mc"]["analytic_rate"] == 0
        assert runs["sanov"]["fitted_slope"] == 0
        assert runs["project"] == {"lambda": 0, "realized": [0.5, 0.5, 0], "rate": 0}
        assert runs["gibbs"]["tv_by_n"] == {"10": 0, "20": 0}
        assert runs["rate"]["rate"] == [0] and runs["rate"]["feasible"] == [True]


class TestAWindowInTheLastUlpsOfTheBand:
    """20 ulps of 0.3 past max V = 0.3, the band's last ulp at k = 3: the event
    is every draw on the top atom, P_n = 2^-n, whatever a computed mean of
    that type rounds to, so gibbs and sanov (exact and Monte Carlo) read it
    at every n, rate log 2."""

    P, V, WINDOW = [0.2, 0.3, 0.5], [0.0, 0.1, 0.3], (0.3 + 20 * math.ulp(0.3), 1.3)

    def test_every_reader_holds_the_window_clipped_to_the_range(self):
        P, constraint = FiniteDistribution.from_weights(self.P), ConstraintSpec.interval(self.V, *self.WINDOW)
        ns = [6, 7, 12]
        sanov = sanov_exact(P, constraint, ns)
        assert sanov.empty_event_ns == () and sanov.analytic_rate == math.log(2)
        for n, log_prob in zip(ns, sanov.log_probs):
            assert log_prob == pytest.approx(-n * math.log(2), rel=1e-12)
        for res in gibbs_conditioning(P, constraint, [1, *ns]):
            assert res.conditioned_mean_measure.weights.tolist() == [0.0, 0.0, 1.0] and res.tv_distance == 0.0
            assert res.window == self.WINDOW
        trials = 20_000
        mc = sanov_monte_carlo(SeededSampler(seed=5, base=P), constraint, ns[:2], trials)
        for n, log_prob in zip(ns, mc.log_probs):  # within 5 binomial standard deviations of 2^-n
            p = 2.0 ** -n
            assert abs(math.exp(log_prob) - p) <= 5 * math.sqrt(p * (1 - p) / trials)


def outcome(call):
    """("answer", result) or the type and message of the MaxentError the call raises."""
    try:
        return "answer", call()
    except MaxentError as exc:
        return type(exc).__name__, str(exc)


BAND_ULPS = (3 + 2) * FLOOR_ULPS  # in_window's band at k = 3, in ulps of max |V|


@pytest.mark.parametrize("scale", (1e-12, 1e-6, 1.0, 1e3, 1e6))
@pytest.mark.parametrize("shape", ((0.0, 1.0, 3.0), (0.0, 1.0, math.sqrt(2.0))), ids=("lattice", "irrational"))
def test_one_verdict_just_past_a_range_end(scale, shape):
    # a window whose near end sits j ulps of max |V| past a range end: sanov,
    # project, gibbs and rate all answer, sanov with no empty event (j inside
    # the band, to its last ulp), or all raise the same error
    rng = np.random.default_rng(2024)
    for _ in range(3):
        P = FiniteDistribution.from_weights(rng.dirichlet(np.ones(3)) * 0.97 + 0.01)
        v = scale * (np.array(shape) + rng.uniform(-3.0, 3.0))
        ulp = math.ulp(float(np.abs(v).max()))
        for end, side in ((float(v.max()), 1.0), (float(v.min()), -1.0)):
            for j in (1, BAND_ULPS // 2, BAND_ULPS - 5, BAND_ULPS - 1, BAND_ULPS, BAND_ULPS + 1, 2 * BAND_ULPS,
                      100 * BAND_ULPS):
                near = end + side * j * ulp
                constraint = ConstraintSpec.interval(v, *sorted((near, end + side * scale)))
                results = [outcome(lambda: sanov_exact(P, constraint, [6, 12])),
                           outcome(lambda: i_projection(P, constraint)),
                           outcome(lambda: gibbs_conditioning(P, constraint, [6, 12]))]
                rate = error_rate_function(P, v, [near])[0]
                reached = j <= BAND_ULPS
                assert reached == bool(in_window(near, float(v.min()), float(v.max()), v))
                if reached:
                    assert [kind for kind, _ in results] == ["answer"] * 3 and rate.feasible, (scale, near)
                    assert math.isfinite(results[0][1].analytic_rate) and math.isfinite(rate.rate)
                    assert results[0][1].empty_event_ns == (), (scale, near)
                else:
                    assert results[0][0] == "InfeasibleConstraint" and results == [results[0]] * 3, (scale, near)
                    assert not rate.feasible
