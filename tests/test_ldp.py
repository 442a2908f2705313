import itertools
import math

import numpy as np
import pytest
from scipy import stats

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    FiniteDistribution,
    SeededSampler,
    contract_rate,
    enumerate_types,
    error_distribution_exact,
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

    def test_size_guard_counts_only_positive_weight_symbols(self):
        # over all four symbols, C(403, 3) = 10,827,401 classes exceed the cap;
        # the table has one column per positive-weight symbol, C(402, 2) rows
        table = enumerate_types(dist(0.3, 0.0, 0.2, 0.5), 400)
        assert table.size == math.comb(402, 2) == 80_601
        assert abs(table.total_log_mass()) <= 1e-9

    def test_missing_type_class_is_a_numerical_error(self, monkeypatch):
        # the mass check is a typed error, so it survives python -O
        full = ldp_mod._compositions
        monkeypatch.setattr(ldp_mod, "_compositions", lambda n, k: full(n, k)[:-1])
        with pytest.raises(NumericalError, match="sum to"):
            enumerate_types(BERN_HALF, 4)


@pytest.mark.parametrize("weights, n", [
    ([0.2, 0.3, 0.5], 800),
    ([0.1, 0.2, 0.3, 0.4], 200),
    ([0.3, 0.0, 0.2, 0.5], 300),  # the zero-weight symbol has no column
], ids=["k3-n800", "k4-n200", "zero-weight-symbol"])
def test_type_log_probs_match_the_multinomial_pmf(weights, n):
    table = enumerate_types(dist(*weights), n)
    counts = np.zeros((table.size, len(weights)), dtype=np.int64)
    counts[:, np.flatnonzero(weights)] = table.counts
    expected = stats.multinomial.logpmf(counts, n, weights)
    assert np.all(np.abs(table.log_probs - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


class TestSanovExact:
    def test_binary_rate_instance(self):
        est = sanov_exact(
            BERN_HALF, ConstraintSpec.interval(V01, 0.75, 1.0), list(range(100, 401, 20))
        )
        assert est.analytic_rate == pytest.approx(BINARY_RATE_075, abs=1e-9)
        assert abs(est.fitted_slope + 0.130812) <= 0.01
        assert est.regression_r2 >= 0.999
        assert est.method == "exact"

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


def every_sequence(weights, v, n):
    """Each of the k^n draw sequences of length n: its probability, its value
    of V . L_n and its empirical measure (no type classes, no factorials)."""
    k = len(weights)
    seqs = list(itertools.product(range(k), repeat=n))
    probs = np.array([math.prod(weights[x] for x in seq) for seq in seqs])
    xi = np.array([math.fsum(v[x] for x in seq) / n for seq in seqs])
    freqs = np.array([np.bincount(seq, minlength=k) for seq in seqs]) / n
    return probs, xi, freqs


ORACLE_NS = range(1, 8)
# P, V and the window [lo, hi]; a point window is a point target
ORACLE_CASES = {
    "zero-weight-symbol": ([0.3, 0.0, 0.7], [0.0, 1.0, 2.0], (0.9, 1.5)),
    "irrational-potential": ([0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (0.3, 0.8)),
    "irrational-point": ([0.25, 0.25, 0.5], [-1.0, 0.5, math.pi], (0.5, 0.5)),
    "parity-empty-point": ([0.5, 0.5], [0.0, 1.0], (0.5, 0.5)),
    "repeated-value": ([0.2, 0.3, 0.5], [0.0, 1.0, 1.0], (0.5, 0.8)),
}
# Cases on a lattice a + h m, read through the lattice recursion
LATTICE_CASES = {
    "offset-tenth-step": ([0.2, 0.3, 0.5], [0.3, 0.4, 0.6], (0.45, 0.5)),  # a = 0.3, h = 0.1, m = 0, 1, 3
    "gcd-2-parity-empty": ([0.25, 0.25, 0.5], [0.0, 2.0, 6.0], (3.0, 3.0)),  # xi = 3 needs n even
    "zero-weight-off-lattice": ([0.3, 0.0, 0.7], [0.0, math.pi, 2.0], (0.9, 1.5)),
    "repeated-value": ([0.2, 0.3, 0.5], [0.0, 1.0, 1.0], (0.5, 0.8)),
}


def oracle_constraint(v, window):
    lo, hi = window
    return ConstraintSpec.point(v, lo) if lo == hi else ConstraintSpec.interval(v, lo, hi)


class ExactLawReaders:
    """The three readers of the exact law of V . L_n against a sum over every
    draw sequence, n = 1..7."""

    def test_sanov_log_probs(self, weights, v, window):
        est = sanov_exact(dist(*weights), oracle_constraint(v, window), ORACLE_NS)
        for n, log_prob in zip(ORACLE_NS, est.log_probs):
            probs, xi, _ = every_sequence(weights, v, n)
            mass = math.fsum(probs[ldp_mod.in_window(xi, *window)])
            if mass == 0.0:
                assert log_prob == -math.inf and n in est.empty_event_ns
            else:
                assert abs(log_prob - math.log(mass)) <= 1e-12
                assert n not in est.empty_event_ns

    def test_gibbs_means(self, weights, v, window):
        for n in ORACLE_NS:
            probs, xi, freqs = every_sequence(weights, v, n)
            inside = ldp_mod.in_window(xi, *window)
            if not np.any(probs[inside] > 0.0):
                with pytest.raises(EmptyEvent):
                    gibbs_conditioning(dist(*weights), oracle_constraint(v, window), n)
                continue
            expected = probs[inside] @ freqs[inside] / math.fsum(probs[inside])
            mean = gibbs_conditioning(dist(*weights), oracle_constraint(v, window), n).conditioned_mean_measure
            assert np.abs(mean.weights - expected).max() <= 1e-12

    def test_error_distribution_masses(self, weights, v, window):
        for n in ORACLE_NS:
            probs, xi, _ = every_sequence(weights, v, n)
            drawn = probs > 0.0
            probs, xi = probs[drawn], xi[drawn]
            order = np.argsort(xi, kind="stable")
            probs, xi = probs[order], xi[order]
            # the values of V . L_n lie far more than 1e-9 apart
            groups = np.split(np.arange(xi.size), np.flatnonzero(np.diff(xi) > 1e-9) + 1)
            law = error_distribution_exact(dist(*weights), v, n)
            assert law.support.size == len(groups)
            assert np.abs(law.support - xi[[g[0] for g in groups]]).max() <= 1e-12
            masses = np.array([math.fsum(probs[g]) for g in groups])
            assert np.abs(np.exp(law.log_mass) - masses).max() <= 1e-12


@pytest.mark.parametrize("weights, v, window", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
class TestBruteForceOracle(ExactLawReaders):
    pass


@pytest.mark.parametrize("weights, v, window", LATTICE_CASES.values(), ids=LATTICE_CASES.keys())
class TestLatticeRecursionOracle(ExactLawReaders):
    @pytest.fixture(autouse=True)
    def recursion_only(self, monkeypatch):
        # a type table at the cap leaves the recursion the cheaper method
        monkeypatch.setattr(ldp_mod, "table_size", lambda k, n: ldp_mod.TABLE_CAP)
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))


def grouped_window_log_mass(P, v, n, lo, hi) -> float:
    """log P(V . L_n in [lo, hi]) read off the grouped law, group by group."""
    law = error_distribution_exact(P, v, n)
    return ldp_mod._logsumexp(law.log_mass[ldp_mod.in_window(law.support, lo, hi)])


# P, V and a tail window strictly inside the range of V, at dyadic endpoints
BENCHMARK_SCALE_CASES = {
    "lattice-upper-tail": ([0.2, 0.3, 0.5], [0.0, 1.0, 3.0], (142 / 64, 3.0)),
    "lattice-lower-tail": ([0.5, 0.3, 0.2], [0.0, 1.0, 3.0], (0.0, 48 / 64)),
    "irrational-upper-tail": ([0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (71 / 64, math.sqrt(2.0))),
    "irrational-lower-tail": ([0.5, 0.3, 0.2], [0.0, 1.0, math.sqrt(2.0)], (0.0, 24 / 64)),
}
BENCHMARK_NS = (200, 400, 800)


@pytest.mark.parametrize("weights, v, window", BENCHMARK_SCALE_CASES.values(), ids=BENCHMARK_SCALE_CASES.keys())
class TestWindowReadsAtBenchmarkScale:
    """sanov_exact and gibbs_conditioning mask the ungrouped terms of the law;
    the grouped law of error_distribution_exact gives the same window masses."""

    def test_sanov_log_probs(self, weights, v, window):
        P = dist(*weights)
        est = sanov_exact(P, ConstraintSpec.interval(v, *window), BENCHMARK_NS)
        expected = [grouped_window_log_mass(P, v, n, *window) for n in BENCHMARK_NS]
        assert all(math.isfinite(x) for x in expected)
        assert np.abs(np.array(est.log_probs) - expected).max() <= 1e-12

    def test_gibbs_means(self, weights, v, window):
        P = dist(*weights)
        lo, hi = window
        for n in BENCHMARK_NS:
            # the grouped law at n - 1, shifted by one more draw of each symbol
            law = error_distribution_exact(P, v, n - 1)
            inside = ldp_mod.in_window(((n - 1) * law.support + np.asarray(v)[:, None]) / n, lo, hi)
            log_joint = np.log(weights) + np.array([ldp_mod._logsumexp(law.log_mass[row]) for row in inside])
            expected = np.exp(log_joint - ldp_mod._logsumexp(log_joint))
            mean = gibbs_conditioning(P, ConstraintSpec.interval(v, lo, hi), n).conditioned_mean_measure
            assert np.abs(mean.weights - expected).max() <= 1e-12


def count_enumerations(monkeypatch) -> list[int]:
    """The size of each type table that enumerate_types builds from now on."""
    sizes = []
    full = ldp_mod.enumerate_types

    def counted(P, n):
        table = full(P, n)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(ldp_mod, "enumerate_types", counted)
    return sizes


class TestLatticeRecursion:
    def test_kernel_against_every_sequence(self):
        weights, m = [0.2, 0.5, 0.3], [0, 3, 1]
        for n in ORACLE_NS:
            probs, mean, _ = every_sequence(weights, m, n)
            expected = np.bincount(np.rint(mean * n).astype(int), weights=probs, minlength=3 * n + 1)
            log_p = ldp_mod._lattice_law(np.log(weights), np.array(m), n)
            assert np.array_equal(np.isneginf(log_p), expected == 0.0)
            assert np.abs(np.exp(log_p) - expected).max() <= 1e-12

    def test_matches_the_enumerated_law(self, rng, monkeypatch):
        # seeded lattice instances, n up to 300 where the type table stays
        # under 1e6 rows (the suite's memory, well inside the cap)
        for k in range(2, 7):
            top = max(n for n in range(1, 301) if table_size(k, n) <= 10 ** 6)
            for n in (top, int(rng.integers(1, top)), int(rng.integers(1, top))):
                P = random_distribution(rng, k, min_mass=1e-3)
                v = rng.uniform(-1.0, 1.0) + rng.choice([0.1, 0.25, 1.0]) * rng.permutation(k + 2)[:k]
                with monkeypatch.context() as patch:
                    patch.setattr(ldp_mod, "table_size", lambda k, n: ldp_mod.TABLE_CAP)
                    recursion = error_distribution_exact(P, v, n)
                with monkeypatch.context() as patch:
                    patch.setattr(ldp_mod, "_lattice", lambda values: None)
                    enumeration = error_distribution_exact(P, v, n)
                assert recursion.support.size == enumeration.support.size
                assert np.abs(recursion.support - enumeration.support).max() <= 1e-12
                assert np.abs(recursion.log_mass - enumeration.log_mass).max() <= 1e-10

    def test_lost_mass_is_a_numerical_error(self, monkeypatch):
        # the mass check is a typed error, so it survives python -O
        full = ldp_mod._logsumexp
        monkeypatch.setattr(ldp_mod, "_logsumexp", lambda a: full(a[:-1]))
        with pytest.raises(NumericalError, match="sum to"):
            ldp_mod._lattice_law(np.log([0.5, 0.5]), np.array([0, 1]), 4)

    def test_integer_multiples(self):
        a, h, m = ldp_mod._lattice(np.array([1.5, 0.0, 4.5]))
        assert (a, h, m.tolist()) == (0.0, 1.5, [1, 0, 3])

    def test_tenths_with_float_noise(self):
        values = np.array([0.0, np.nextafter(0.1, 1.0), 0.1 * 3])  # 0.30000000000000004
        a, h, m = ldp_mod._lattice(values)
        assert a == 0.0 and m.tolist() == [0, 1, 3] and abs(h - 0.1) <= 1e-16

    def test_irrational_values_send_the_law_to_the_enumeration(self, monkeypatch):
        v = np.array([0.0, 1.0, math.sqrt(2.0)])
        lattice = ldp_mod._lattice(v)
        assert lattice is None or lattice[2].max() > 1e12  # a step at round-off
        sizes = count_enumerations(monkeypatch)
        error_distribution_exact(dist(0.2, 0.3, 0.5), v, 200)
        assert sizes == [table_size(3, 200)]

    def test_constant_potential_on_the_support_is_a_point_mass(self):
        assert ldp_mod._lattice(np.array([2.0, 2.0])) is None
        law = error_distribution_exact(dist(0.5, 0.5, 0.0), [2.0, 2.0, 7.0], 30)
        assert law.support.tolist() == [2.0] and law.log_mass.tolist() == [0.0]

    @pytest.mark.parametrize("weights, v, n, enumerations", [
        ([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0], 200, 0),
        ([0.4, 0.6], [0.0, 1.0], 1600, 1),
        ([0.2, 0.3, 0.5], [0.0, 1.0, 3.0], 800, 1),
    ])
    def test_the_method_with_fewer_terms_runs(self, monkeypatch, weights, v, n, enumerations):
        sizes = count_enumerations(monkeypatch)
        error_distribution_exact(dist(*weights), v, n)
        assert len(sizes) == enumerations

    def test_equal_values_merge_before_the_enumeration(self, monkeypatch):
        sizes = count_enumerations(monkeypatch)
        error_distribution_exact(dist(0.2, 0.3, 0.5), [0.0, 1.0, 1.0], 50)
        assert sizes == [51]


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
