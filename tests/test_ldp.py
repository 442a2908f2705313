import math

import numpy as np
import pytest

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    FiniteDistribution,
    SeededSampler,
    contract_rate,
    enumerate_types,
    error_rate_function,
    gibbs_conditioning,
    sanov_exact,
    sanov_monte_carlo,
)
import maxent_bayes.ldp as ldp_mod
from maxent_bayes.errors import EmptyEvent, EmptyPreimage, NumericalError, TableTooLarge
from maxent_bayes.ldp import table_size
from tests.conftest import random_distribution


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


BERN_HALF = dist(0.5, 0.5)
V01 = [0.0, 1.0]
BINARY_RATE_075 = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)  # KL([.75,.25] || [.5,.5])


class TestEnumerateTypes:
    def test_binomial_two_draws(self):
        table = enumerate_types(BERN_HALF, 2)
        assert table.size == 3
        probs = sorted(np.exp(table.log_probs))
        assert probs == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)

    def test_single_draw_recovers_base(self):
        table = enumerate_types(dist(0.3, 0.7), 1)
        assert table.size == 2
        by_symbol = {tuple(c): math.exp(lp) for c, lp in zip(table.counts, table.log_probs)}
        assert by_symbol[(1, 0)] == pytest.approx(0.3, abs=1e-12)
        assert by_symbol[(0, 1)] == pytest.approx(0.7, abs=1e-12)

    def test_ternary_example(self):
        table = enumerate_types(dist(1 / 3, 1 / 3, 1 / 3), 4)
        assert table.size == 15
        idx = [i for i, c in enumerate(table.counts) if tuple(c) == (4, 0, 0)]
        assert math.exp(table.log_probs[idx[0]]) == pytest.approx(3.0 ** -4, abs=1e-12)
        assert math.exp(table.log_probs[idx[0]]) == pytest.approx(0.012346, abs=1e-6)

    def test_size_guard(self):
        assert table_size(4, 500) == math.comb(503, 3)
        with pytest.raises(TableTooLarge):
            enumerate_types(FiniteDistribution.uniform(Alphabet.of_size(4)), 500)

    def test_total_mass_over_test_grid(self, rng):
        for k in (2, 3, 4):
            for n in (1, 5, 17, 30, 60):
                P = random_distribution(rng, k, min_mass=1e-3)
                table = enumerate_types(P, n)
                assert abs(table.total_log_mass()) <= 1e-9

    def test_zero_atoms_are_handled(self):
        table = enumerate_types(dist(0.5, 0.5, 0.0), 3)
        assert abs(table.total_log_mass()) <= 1e-9

    def test_missing_type_class_is_a_numerical_error(self, monkeypatch):
        # the mass check is a typed error, so it survives python -O
        full = ldp_mod._compositions
        monkeypatch.setattr(ldp_mod, "_compositions", lambda n, k: full(n, k)[:-1])
        with pytest.raises(NumericalError, match="sum to"):
            enumerate_types(BERN_HALF, 4)


class TestSanovExact:
    def test_binary_rate_instance(self):
        est = sanov_exact(
            BERN_HALF, ConstraintSpec.interval(V01, 0.75, 1.0), list(range(100, 401, 20))
        )
        assert est.analytic_rate == pytest.approx(BINARY_RATE_075, abs=1e-9)
        assert abs(est.fitted_slope + 0.130812) <= 0.01
        assert est.regression_r2 >= 0.999
        assert est.method == "exact-enumeration"

    def test_certain_event(self):
        est = sanov_exact(BERN_HALF, ConstraintSpec.interval(V01, 0.0, 1.0), [10, 20, 30])
        assert all(abs(lp) <= 1e-9 for lp in est.log_probs)
        assert abs(est.fitted_slope) <= 1e-12
        assert est.analytic_rate == 0.0

    def test_parity_infeasible_point_target(self):
        est = sanov_exact(BERN_HALF, ConstraintSpec.point(V01, 0.5), [99, 100, 101, 102])
        assert est.empty_event_ns == (99, 101)
        assert math.isinf(est.log_probs[0]) and est.log_probs[0] < 0
        assert math.isfinite(est.log_probs[1])


class TestSanovMonteCarlo:
    def test_cross_check_against_exact_oracle(self):
        grid = [20, 40, 60]
        constraint = ConstraintSpec.interval(V01, 0.75, 1.0)
        exact = sanov_exact(BERN_HALF, constraint, grid)
        sampler = SeededSampler(seed=2026, base=BERN_HALF)
        mc = sanov_monte_carlo(sampler, constraint, grid, trials=1_000_000)
        assert abs(mc.fitted_slope - exact.fitted_slope) <= 3.0 * mc.slope_stderr
        assert mc.analytic_rate == pytest.approx(BINARY_RATE_075, abs=1e-9)
        # per-n Wilson intervals cover the exact log-probabilities
        for lp_exact, lo, hi in zip(exact.log_probs, mc.ci_lo, mc.ci_hi):
            assert lo - 1e-9 <= lp_exact <= hi + 1e-9

    def test_certain_event_all_hits(self):
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        mc = sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 0.0, 1.0), [10, 20], 2000)
        assert mc.log_probs == (0.0, 0.0)
        assert mc.insufficient_ns == ()

    def test_impossible_event_flagged(self):
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        mc = sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 1.5, 2.0), [10, 20], 2000)
        assert all(math.isinf(lp) and lp < 0 for lp in mc.log_probs)
        assert mc.insufficient_ns == (10, 20)
        assert math.isnan(mc.fitted_slope)
        assert math.isinf(mc.analytic_rate)

    def test_minimum_trials_enforced(self):
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        with pytest.raises(ValueError):
            sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 0.0, 1.0), [10], 10)

    def test_bit_identical_across_runs_and_thread_counts(self):
        constraint = ConstraintSpec.interval(V01, 0.7, 1.0)
        runs = []
        for threads in (1, 1, 4):
            sampler = SeededSampler(seed=77, base=BERN_HALF)
            runs.append(
                sanov_monte_carlo(sampler, constraint, [15, 30], 50_000, threads=threads)
            )
        assert runs[0].log_probs == runs[1].log_probs == runs[2].log_probs
        assert runs[0].fitted_slope == runs[1].fitted_slope == runs[2].fitted_slope
        assert runs[0].ci_lo == runs[2].ci_lo and runs[0].ci_hi == runs[2].ci_hi


class TestSeededSampler:
    def test_streams_are_reproducible(self):
        s1 = SeededSampler(seed=9, base=BERN_HALF)
        s2 = SeededSampler(seed=9, base=BERN_HALF)
        assert np.array_equal(s1.multinomial_block(10, 3, 100), s2.multinomial_block(10, 3, 100))
        assert np.array_equal(s1.draw_indices(50), s2.draw_indices(50))

    def test_streams_differ_by_tag(self):
        s = SeededSampler(seed=9, base=BERN_HALF)
        a = s.multinomial_block(10, 0, 100)
        b = s.multinomial_block(10, 1, 100)
        assert not np.array_equal(a, b)


class TestGibbsConditioning:
    def test_sure_event_recovers_base(self):
        res = gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 0.0, 1.0), 25)
        assert res.tv_distance <= 1e-12
        assert res.conditioned_mean_measure.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_window_instance_improves_with_n(self):
        constraint = ConstraintSpec.interval(V01, 0.7, 0.8)
        tv20 = gibbs_conditioning(BERN_HALF, constraint, 20).tv_distance
        tv60 = gibbs_conditioning(BERN_HALF, constraint, 60).tv_distance
        res60 = gibbs_conditioning(BERN_HALF, constraint, 60)
        # dominating point is the endpoint nearer the typical value 0.5
        assert res60.predicted.realized.weights == pytest.approx([0.3, 0.7], abs=1e-9)
        assert tv60 < tv20

    def test_single_draw_point_window(self):
        res = gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 1.0, 1.0), 1)
        assert res.conditioned_mean_measure.weights == pytest.approx([0.0, 1.0], abs=1e-15)
        assert res.tv_distance <= 1e-12

    def test_empty_event(self):
        with pytest.raises(EmptyEvent):
            gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 0.5, 0.5), 3)


class TestErrorRateFunction:
    def test_zero_rate_at_typical_value(self):
        points = error_rate_function(BERN_HALF, V01, [0.5])
        assert points[0].rate == 0.0

    def test_binary_closed_form(self):
        points = error_rate_function(BERN_HALF, V01, [0.75])
        assert points[0].rate == pytest.approx(0.130812, abs=1e-6)

    def test_boundary_is_log_mass_of_extreme_set(self):
        points = error_rate_function(BERN_HALF, V01, [1.0])
        assert points[0].rate == pytest.approx(math.log(2.0), abs=1e-12)

    def test_convexity_on_grid(self):
        grid = np.linspace(0.0, 1.0, 51)
        points = error_rate_function(BERN_HALF, V01, grid)
        rates = np.array([p.rate for p in points])
        assert np.all(np.isfinite(rates))
        second = np.diff(rates, 2)
        assert np.all(second >= -1e-9)

    def test_infeasible_grid_points_reported(self):
        points = error_rate_function(BERN_HALF, V01, [-0.5, 0.5, 1.5])
        assert [p.feasible for p in points] == [False, True, False]
        assert math.isinf(points[0].rate) and math.isinf(points[2].rate)


class TestContractRate:
    def grid_points(self):
        return error_rate_function(BERN_HALF, V01, [0.25, 0.5, 0.75])

    def test_identity_pushforward(self):
        points = self.grid_points()
        contracted = contract_rate(points, lambda xi: xi)
        for p in points:
            assert contracted(p.xi) == p.rate

    def test_constant_pushforward_collapses_to_min(self):
        contracted = contract_rate(self.grid_points(), lambda xi: 7.0)
        assert contracted(7.0) == 0.0

    def test_two_point_preimage_symmetric_binary(self):
        contracted = contract_rate(self.grid_points(), lambda xi: (xi - 0.5) ** 2)
        assert contracted(0.0625) == pytest.approx(0.130812, abs=1e-6)
        assert contracted(0.0) == 0.0

    def test_empty_preimage(self):
        contracted = contract_rate(self.grid_points(), lambda xi: xi)
        with pytest.raises(EmptyPreimage):
            contracted(0.3)
