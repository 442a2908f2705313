import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from maxent_bayes import (
    Alphabet,
    ConstraintSpec,
    FiniteDistribution,
    SeededSampler,
    enumerate_types,
    error_distribution_exact,
    error_rate_function,
    gibbs_conditioning,
    i_projection,
    sanov_exact,
    sanov_monte_carlo,
)
import maxent_bayes.ldp as ldp_mod
from maxent_bayes.errors import EmptyEvent, InfeasibleConstraint, NumericalError, TableTooLarge
from maxent_bayes.ldp import table_size
from maxent_bayes.measures import _band, _floor, in_window
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
        monkeypatch.setattr(ldp_mod, "_compositions", lambda n, k: [part[:-1] for part in full(n, k)])
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

    @pytest.mark.parametrize("s", (1e-12, 1.0, 1e6 / 3))
    def test_every_edge_window_at_any_scale_of_the_loss(self, s):
        # the type means (c_1 + 3 c_2) s / n of V = s [0, 1, 3] are rounded,
        # by about 1e-10 at s = 1e6 / 3: a type on the window's edge j s / n
        # is inside, and at s = 1e-12 one just below it is not
        n, weights = 20, [0.2, 0.3, 0.5]
        terms = [(c1 + 3 * c2, math.comb(n, c1) * math.comb(n - c1, c2) * 0.2 ** (n - c1 - c2) * 0.3 ** c1 * 0.5 ** c2)
                 for c1 in range(n + 1) for c2 in range(n + 1 - c1)]
        for edge in range(3 * n + 1):
            mass = math.fsum(p for total, p in terms if total >= edge)
            est = sanov_exact(dist(*weights), ConstraintSpec.interval([0.0, s, 3 * s], edge / n * s, 3 * s), [n])
            assert abs(est.log_probs[0] - math.log(mass)) <= 1e-12, edge


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

    def test_impossible_event_flagged(self, monkeypatch):
        # a window no reweighting of P reaches is infeasible before any draw,
        # as it is for the exact method, project and gibbs
        for method in ("window_hits", "multinomial_block"):
            monkeypatch.setattr(SeededSampler, method, lambda *args: pytest.fail("drew a block"))
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        with pytest.raises(InfeasibleConstraint, match=r"^target 1\.5 outside the attainable range \[0\.0, 1\.0\]$"):
            sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 1.5, 2.0), [10, 20], 2000)

    def test_minimum_trials_enforced(self):
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        with pytest.raises(ValueError):
            sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 0.0, 1.0), [10], 10)

    def test_pool_has_no_more_threads_than_blocks(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ldp_mod, "ThreadPoolExecutor", SerialPool)
        sampler = SeededSampler(seed=1, base=BERN_HALF)
        sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 0.0, 1.0), [10], 1000, threads=10**6)
        assert sizes == [1]
        with pytest.raises(ValueError):
            sanov_monte_carlo(sampler, ConstraintSpec.interval(V01, 0.0, 1.0), [10], 1000, threads=0)

    @pytest.mark.parametrize("P, v, window, grid, trials", [
        (BERN_HALF, V01, (0.7, 1.0), [15, 30], 50_000),
        # k = 3, three blocks per n: the later count reads its tables at n = 20
        # and 40 and falls back to Generator.binomial at n = 10^6 and 2 10^6
        (dist(0.2, 0.3, 0.5), [0.0, 1.0, 2.0], (1.4, 2.0), [20, 40], 3 * ldp_mod.MC_BLOCK_SIZE - 1000),
        (dist(0.2, 0.3, 0.5), [0.0, 1.0, 2.0], (1.3, 1.3003), [10**6, 2 * 10**6], 3 * ldp_mod.MC_BLOCK_SIZE - 1000),
        # k = 4: the last count is drawn and its mean tested
        (dist(0.1, 0.2, 0.3, 0.4), [0.0, 1.0, 2.0, 3.0], (2.3, 3.0), [20, 40], 2 * ldp_mod.MC_BLOCK_SIZE - 1000),
        # a last block of one trial
        (dist(0.2, 0.3, 0.5), [0.0, 1.0, 2.0], (1.4, 2.0), [20, 40], ldp_mod.MC_BLOCK_SIZE + 1),
    ], ids=["k2", "k3-tables", "k3-large-n", "k4-drawn", "one-trial-block"])
    def test_bit_identical_across_runs_and_thread_counts(self, P, v, window, grid, trials):
        constraint = ConstraintSpec.interval(v, *window)
        runs = []
        for threads in (1, 1, 4):
            sampler = SeededSampler(seed=77, base=P)
            runs.append(
                sanov_monte_carlo(sampler, constraint, grid, trials, threads=threads)
            )
        assert runs[0].insufficient_ns == ()
        assert runs[0].log_probs == runs[1].log_probs == runs[2].log_probs
        assert runs[0].fitted_slope == runs[1].fitted_slope == runs[2].fitted_slope
        assert runs[0].ci_lo == runs[2].ci_lo and runs[0].ci_hi == runs[2].ci_hi


def recording(monkeypatch, name):
    """Record each call of the ldp function ``name``; returns the list of calls."""
    calls, function = [], getattr(ldp_mod, name)
    monkeypatch.setattr(ldp_mod, name, lambda *args: calls.append(args) or function(*args))
    return calls


def drawn_hits(sampler, n, block, trials, window, v):
    """Hits of a block's count vectors (``multinomial_block``), each mean taken by the
    sampler's rule (``_sample_mean``) and tested by ``in_window``."""
    counts = sampler.multinomial_block(n, block, trials)
    drawn = sampler._prefix(n, block, 1)[1]
    m, c = counts[:, drawn[-2:]].sum(axis=1), counts[:, drawn[-2]] if len(drawn) > 1 else 0
    mean = ldp_mod._sample_mean(n, v, drawn, list(counts[:, drawn[:-2]].T), m, c)
    return int(np.count_nonzero(in_window(mean, *window, v)))


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

    @pytest.mark.parametrize("weights, n", [
        ([0.3, 0.7], 40),
        ([0.2, 0.3, 0.5], 12),
        ([0.1, 0.2, 0.3, 0.4], 7),
        ([0.5, 0.0, 0.5], 9),
        ([1e-3, 0.999], 30),
    ])
    def test_block_types_follow_the_multinomial_law(self, weights, n):
        sampler = SeededSampler(seed=31, base=dist(*weights))
        counts = np.concatenate([sampler.multinomial_block(n, b, ldp_mod.MC_BLOCK_SIZE) for b in range(8)])
        assert counts.dtype == np.int64 and np.all(counts.sum(axis=1) == n)
        types = [t for t in itertools.product(range(n + 1), repeat=len(weights)) if sum(t) == n]
        expected = stats.multinomial.pmf(types, n, weights) * len(counts)
        index = {t: i for i, t in enumerate(types)}
        observed = np.bincount([index[tuple(row)] for row in counts.tolist()], minlength=len(types))
        assert np.all(observed[expected == 0] == 0)
        # pool the cells expected fewer than 5 times into one
        rare = expected < 5
        obs = np.append(observed[~rare], observed[rare].sum())
        exp = np.append(expected[~rare], expected[rare].sum())
        keep = exp > 0
        assert stats.chisquare(obs[keep], exp[keep] * obs.sum() / exp[keep].sum()).pvalue > 1e-3

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [0.0, 1.0, 0.0]])
    def test_a_weight_of_one_takes_every_draw(self, weights):
        counts = SeededSampler(seed=3, base=dist(*weights)).multinomial_block(17, 0, 1000)
        assert np.array_equal(counts, np.tile(np.asarray(weights, dtype=np.int64) * 17, (1000, 1)))

    @pytest.mark.parametrize("weights, n", [
        ([1.0, 1e-20], 12),  # q = [1.0, 1.0]
        ([0.5, 0.5, 1e-17], 12),  # q = [0.5, 1.0, 1.0]
        ([0.25, 0.25, 0.5, 1e-17, 1e-18], 12),  # q = [0.25, 0.333.., 1.0, 1.0, 1.0]
    ])
    def test_a_tail_below_the_float_resolution_is_not_drawn(self, weights, n):
        # past the first symbol whose p_j / sum_{i >= j} p_i rounds to 1.0,
        # the symbols' counts are 0, as no draw reaches them at float resolution
        P = dist(*weights)
        counts = SeededSampler(seed=3, base=P).multinomial_block(n, 0, 1000)
        weights = P.weights.tolist()
        cut = next(j for j in range(len(weights)) if weights[j] / sum(weights[j:]) == 1.0)
        assert np.all(counts.sum(axis=1) == n) and not np.any(counts[:, cut + 1:])
        for j in range(cut):  # the drawn counts are Bin(n, p_j) marginally
            assert abs(counts[:, j].mean() - n * weights[j]) <= 5 * math.sqrt(n * weights[j] * (1 - weights[j]) / 1000)

    @pytest.mark.parametrize("q, n", [(0.37, 60), (1e-3, 30), (0.999, 500)])
    def test_first_count_is_numpys_inversion(self, q, n):
        # the guide-table read equals numpy's own inversion by searchsorted,
        # also where a guide cell holds several cdf steps
        sampler = SeededSampler(seed=12, base=dist(q, 1.0 - q))
        first = sampler.multinomial_block(n, 5, 20_000)[:, 0]
        seq = np.random.SeedSequence(entropy=12, spawn_key=(0, ldp_mod._STREAM_SANOV, n, 5))
        gen = np.random.Generator(np.random.Philox(seq))
        offset, cdf, guide = ldp_mod._inverse_table(n, q)
        assert np.array_equal(first, offset + gen.choice(len(cdf), size=20_000, p=np.diff(cdf, prepend=0.0)))
        u = np.random.Generator(np.random.Philox(seq)).random(20_000)
        assert np.any(np.diff(guide)[(u * (len(guide) - 1)).astype(np.intp)] > 1)
        x = np.arange(offset, offset + len(cdf))
        assert np.abs(cdf - stats.binom.cdf(x, n, q)).max() <= 1e-14

    @pytest.mark.parametrize("weights, n", [
        ([0.2, 0.3, 0.5], 20),
        ([0.2, 0.3, 0.5], 160),
        ([0.05, 0.9, 0.05], 800),
        ([0.1, 0.2, 0.3, 0.4], 40),
        ([0.4, 0.1, 0.3, 0.2], 160),
    ])
    def test_every_count_is_a_table_inversion(self, weights, n):
        # count j of trial i is offset + searchsorted(cdf, u_i) on the table of
        # (draws left, q_j), one uniform per trial and count, also where the
        # uniform falls in a guide cell of several cdf steps
        trials, P = ldp_mod.MC_BLOCK_SIZE, dist(*weights)
        counts = SeededSampler(seed=12, base=P).multinomial_block(n, 5, trials)
        seq = np.random.SeedSequence(entropy=12, spawn_key=(0, ldp_mod._STREAM_SANOV, n, 5))
        gen = np.random.Generator(np.random.Philox(seq))
        left, several = np.full(trials, n), 0
        for j, q in enumerate((P.weights / np.cumsum(P.weights[::-1])[::-1])[:-1].tolist()):
            u, expected = gen.random(trials), np.empty(trials, dtype=np.int64)
            for m in np.unique(left).tolist():
                offset, cdf, guide = ldp_mod._inverse_table(m, q)
                at = left == m
                expected[at] = offset + np.searchsorted(cdf, u[at], side="right")
                several += np.count_nonzero(np.diff(guide)[(u[at] * (len(guide) - 1)).astype(np.intp)] > 1) if j else 0
            assert np.array_equal(counts[:, j], expected), j
            left = left - expected
        assert np.array_equal(counts[:, -1], left)
        assert several > 0

    @pytest.mark.parametrize("weights, v, n, window, read", [
        # window ends on lattice points: 20 / 40 and 32 / 40; 40 / 40 and 60 / 40
        ([0.3, 0.7], [0.0, 1.0], 40, (0.5, 0.8), True),
        ([0.2, 0.3, 0.5], [0.0, 1.0, 2.0], 40, (1.0, 1.5), True),
        ([0.2, 0.3, 0.5], [0.0, 1.0, 2.0], 160, (1.0, 1.5), True),
        # four and five symbols drawn: a row does not fix the counts before the last
        ([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0], 40, (1.5, 2.5), False),
        ([0.1, 0.2, 0.3, 0.2, 0.2], [0.0, 2.0, 1.0, 3.0, 0.5], 30, (1.0, 1.6), False),
        # the later count's tables outweigh the block: Generator.binomial
        ([0.2, 0.3, 0.5], [0.0, 1.0, 2.0], 10**6, (1.3, 1.3003), False),
        # a window between lattice points holds no mass, a window over the range all of it
        ([0.3, 0.7], [0.0, 1.0], 40, (0.51, 0.52), True),
        ([0.2, 0.3, 0.5], [0.0, 1.0, 2.0], 40, (0.0, 2.0), True),
        # tied V values: the mean of a row does not move with the last count
        ([0.2, 0.3, 0.5], [0.0, 1.0, 1.0], 40, (0.5, 1.0), True),
        # V values 2 ulps apart
        ([0.2, 0.3, 0.5], [0.0, 1.0, 1.0 + 2 * math.ulp(1.0)], 40, (0.5, 1.0), True),
        ([0.5, 0.5], [1.0, 1.0 + 2 * math.ulp(1.0)], 40, (1.0, 1.0), True),
        # a zero weight, and a weight below the float resolution: two symbols drawn
        ([0.5, 0.0, 0.5], [0.0, 5.0, 1.0], 40, (0.25, 0.6), True),
        ([0.5, 0.5, 1e-17], [0.0, 1.0, 2.0], 40, (0.25, 0.6), True),
        # one symbol takes every draw: no count is left to read
        ([0.0, 1.0, 0.0], [0.0, 1.0, 2.0], 40, (1.0, 1.0), False),
    ], ids=["k2", "k3-n40", "k3-n160", "k4", "k5", "k3-binomial", "no-mass", "all-mass", "tied",
            "k3-2-ulps", "k2-2-ulps", "zero-weight", "below-resolution", "one-symbol"])
    def test_window_hits_count_the_tested_count_vectors(self, monkeypatch, weights, v, n, window, read):
        # the hits read off the last uniforms are the hits of the drawn count vectors
        v, sampler = np.asarray(v), SeededSampler(seed=21, base=dist(*weights))
        bounds = recording(monkeypatch, "_hit_bounds")
        hits = [sampler.window_hits(n, b, ldp_mod.MC_BLOCK_SIZE, *window, v) for b in range(3)]
        assert bool(bounds) == read
        tested = [drawn_hits(sampler, n, b, ldp_mod.MC_BLOCK_SIZE, window, v) for b in range(3)]
        assert hits == tested
        share = {0: "none", 3 * ldp_mod.MC_BLOCK_SIZE: "all"}.get(sum(tested), "some")
        assert share == {(0.51, 0.52): "none", (0.0, 2.0): "all", (1.0, 1.0): "all"}.get(window, "some")

    def test_tied_values_have_one_mean_and_are_read(self, monkeypatch):
        # V tied at 0.3: the matrix product's rounded mean of (c, 40 - c) takes
        # its lower value only at c = 4 and 9; the mean of every count is one
        # value, so a window ending just below it has no hit, and one at it all
        v, n = np.array([0.3, 0.3]), 40
        product = np.column_stack([np.arange(n + 1), n - np.arange(n + 1)]) @ v / n
        hi = float(product.min()) - 4 * _floor(v)
        assert np.flatnonzero(in_window(product, 0.0, hi, v)).tolist() == [4, 9]
        drawn = np.array([0, 1])
        assert np.unique(ldp_mod._sample_mean(n, v, drawn, [], n, np.arange(n + 1))).tolist() == [0.3]
        sampler = SeededSampler(seed=21, base=BERN_HALF)
        bounds = recording(monkeypatch, "_hit_bounds")
        hits = [sampler.window_hits(n, 0, ldp_mod.MC_BLOCK_SIZE, *window, v) for window in ((0.0, hi), (0.3, 0.3))]
        assert len(bounds) == 2 and hits == [0, ldp_mod.MC_BLOCK_SIZE]

    def test_a_block_of_one_trial_is_read(self, monkeypatch):
        # one trial is read off thresholds as a full block is, by the same mean
        sampler, v = SeededSampler(seed=21, base=BERN_HALF), np.array(V01)
        bounds = recording(monkeypatch, "_hit_bounds")
        hits = [sampler.window_hits(40, b, 1, 0.45, 0.55, v) for b in range(40)]
        assert len(bounds) == 40 and 0 < sum(hits) < 40
        assert hits == [drawn_hits(sampler, 40, b, 1, (0.45, 0.55), v) for b in range(40)]

    def test_generator_binomial_only_where_the_tables_cost_more(self, monkeypatch):
        # at the sizes of the benchmark's k = 3 Monte Carlo every count is a
        # table read; at n = 10^6 the later counts' tables (about 3000 rows
        # of 34,000 entries) outweigh a block's draws and Generator.binomial runs
        calls = []

        class Recording(np.random.Generator):
            def binomial(self, *args, **kwargs):
                calls.append(args)
                return super().binomial(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Recording)
        sampler = SeededSampler(seed=4, base=dist(0.2, 0.3, 0.5))
        for n in (20, 40, 80, 160):
            for b in range(3):
                sampler.multinomial_block(n, b, ldp_mod.MC_BLOCK_SIZE)
        assert calls == []
        sampler.multinomial_block(10**6, 0, ldp_mod.MC_BLOCK_SIZE)
        assert len(calls) == 1 and calls[0][0].shape == (ldp_mod.MC_BLOCK_SIZE,)

    def test_the_table_cache_holds_its_entries(self, monkeypatch):
        monkeypatch.setattr(ldp_mod, "TABLE_CACHE_ENTRIES", 1000)
        cache = ldp_mod._TableCache()
        for m in range(100, 400, 7):
            assert cache(m, 0.3) is cache(m, 0.3)
            assert cache.entries == sum(len(row[1]) for row in cache.rows.values()) <= 1000
        assert list(cache.rows)[-1] == (394, 0.3)
        assert cache(10**6, 0.3) is cache.rows[10**6, 0.3] and len(cache.rows) == 1

    def test_the_table_cache_keeps_its_count_under_threads(self, monkeypatch):
        # more threads than cores read and evict rows at a short switch
        # interval; a lost update would leave the count off the rows it holds
        monkeypatch.setattr(ldp_mod, "TABLE_CACHE_ENTRIES", 2000)
        cache = ldp_mod._TableCache()

        def read(seed):
            for m in np.random.default_rng(seed).integers(50, 400, 300).tolist():
                assert len(cache(m, 0.3)[1]) == m + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(read, seed) for seed in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert cache.entries == sum(len(row[1]) for row in cache.rows.values()) <= 2000

    def test_large_n_table_is_sublinear_and_unbiased(self):
        n, weights = 10**6, np.array([0.2, 0.3, 0.5])
        assert len(ldp_mod._inverse_table(n, 0.2)[1]) <= 2 * math.ceil(math.sqrt(372.5 * n)) + 1
        counts = SeededSampler(seed=8, base=dist(*weights)).multinomial_block(n, 0, ldp_mod.MC_BLOCK_SIZE)
        se = np.sqrt(n * weights * (1 - weights) / len(counts))
        assert np.all(np.abs(counts.mean(axis=0) - n * weights) <= 5 * se)

    def test_a_table_over_the_cap_is_refused_before_it_is_built(self):
        with pytest.raises(TableTooLarge):
            SeededSampler(seed=8, base=BERN_HALF).multinomial_block(10**12, 0, 1000)


class TestGibbsConditioning:
    def test_sure_event_recovers_base(self):
        [res] = gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 0.0, 1.0), [25])
        assert res.tv_distance <= 1e-12
        assert res.conditioned_mean_measure.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_window_instance_improves_with_n(self):
        constraint = ConstraintSpec.interval(V01, 0.7, 0.8)
        res20, res60 = gibbs_conditioning(BERN_HALF, constraint, [20, 60])
        tv20, tv60 = res20.tv_distance, res60.tv_distance
        # dominating point is the endpoint nearer the typical value 0.5
        assert res60.predicted.realized.weights == pytest.approx([0.3, 0.7], abs=1e-9)
        assert tv60 < tv20

    def test_single_draw_point_window(self):
        [res] = gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 1.0, 1.0), [1])
        assert res.conditioned_mean_measure.weights == pytest.approx([0.0, 1.0], abs=1e-15)
        assert res.tv_distance <= 1e-12

    def test_empty_event(self):
        with pytest.raises(EmptyEvent):
            gibbs_conditioning(BERN_HALF, ConstraintSpec.interval(V01, 0.5, 0.5), [3])


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
# Cases on a lattice a + h m, read through the lattice recursion (by the window
# readers only at k >= 4; at k <= 3 they read the type slab)
LATTICE_CASES = {
    "offset-tenth-step": ([0.2, 0.3, 0.5], [0.3, 0.4, 0.6], (0.45, 0.5)),  # a = 0.3, h = 0.1, m = 0, 1, 3
    "gcd-2-parity-empty": ([0.25, 0.25, 0.5], [0.0, 2.0, 6.0], (3.0, 3.0)),  # xi = 3 needs n even
    "zero-weight-off-lattice": ([0.3, 0.0, 0.7], [0.0, math.pi, 2.0], (0.9, 1.5)),
    "repeated-value": ([0.2, 0.3, 0.5], [0.0, 1.0, 1.0], (0.5, 0.8)),
    "k4": ([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0], (2.3, 3.0)),
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
            mass = math.fsum(probs[ldp_mod.in_window(xi, *window, v)])
            if mass == 0.0:
                assert log_prob == -math.inf and n in est.empty_event_ns
            else:
                assert abs(log_prob - math.log(mass)) <= 1e-12
                assert n not in est.empty_event_ns

    def test_gibbs_means(self, weights, v, window):
        for n in ORACLE_NS:
            probs, xi, freqs = every_sequence(weights, v, n)
            inside = ldp_mod.in_window(xi, *window, v)
            if not np.any(probs[inside] > 0.0):
                with pytest.raises(EmptyEvent):
                    gibbs_conditioning(dist(*weights), oracle_constraint(v, window), [n])
                continue
            expected = probs[inside] @ freqs[inside] / math.fsum(probs[inside])
            [result] = gibbs_conditioning(dist(*weights), oracle_constraint(v, window), [n])
            mean = result.conditioned_mean_measure
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
        # a type table at the cap leaves the recursion the meta law's cheaper method
        monkeypatch.setattr(ldp_mod, "table_size", lambda k, n: ldp_mod.TABLE_CAP)
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))


def grouped_window_log_mass(P, v, n, lo, hi) -> float:
    """log P(V . L_n in [lo, hi]) read off the grouped law, group by group."""
    law = error_distribution_exact(P, v, n)
    return ldp_mod._logsumexp(law.log_mass[ldp_mod.in_window(law.support, lo, hi, v)])


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
        results = gibbs_conditioning(P, ConstraintSpec.interval(v, lo, hi), BENCHMARK_NS)
        for n, result in zip(BENCHMARK_NS, results):
            # the grouped law at n - 1, shifted by one more draw of each symbol
            law = error_distribution_exact(P, v, n - 1)
            inside = ldp_mod.in_window(((n - 1) * law.support + np.asarray(v)[:, None]) / n, lo, hi, v)
            log_joint = np.log(weights) + np.array([ldp_mod._logsumexp(law.log_mass[row]) for row in inside])
            expected = np.exp(log_joint - ldp_mod._logsumexp(log_joint))
            mean = result.conditioned_mean_measure
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


def log_domain_lattice_law(log_weights: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """log P(S_n = s) for s = 0..n max(m), S_n the sum of n i.i.d. draws of
    m_j with log-probability log_weights[j]; -inf where s is unreachable.

    The independent oracle of the lattice laws: one log-domain convolution
    per draw, log P_i(s) = logsumexp_j [log p_j + log P_{i-1}(s - m_j)], so
    no mass underflows and no tilt is involved.
    """
    span = int(m.max())
    log_p = np.zeros(1)
    for _ in range(n):
        nxt = np.full(log_p.size + span, -math.inf)
        for lw, shift in zip(log_weights.tolist(), m.tolist()):
            part = nxt[shift:shift + log_p.size]
            np.logaddexp(part, log_p + lw, out=part)
        log_p = nxt
    assert abs(ldp_mod._logsumexp(log_p)) <= 1e-9
    return log_p


class TestLatticeRecursion:
    def test_kernel_against_every_sequence(self):
        weights, m = [0.2, 0.5, 0.3], [0, 3, 1]
        for n in ORACLE_NS:
            probs, mean, _ = every_sequence(weights, m, n)
            expected = np.bincount(np.rint(mean * n).astype(int), weights=probs, minlength=3 * n + 1)
            log_p = log_domain_lattice_law(np.log(weights), np.array(m), n)
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
        # each tilted pass of the meta law checks that it keeps mass 1; the
        # check is a typed error, so it survives python -O.  The kernel's
        # softmax loses half the mass of its last atom.
        full = ldp_mod._softmax

        def losing(a):
            w, log_z = full(a)
            return w * [1.0, 0.5], log_z

        monkeypatch.setattr(ldp_mod, "_softmax", losing)
        with pytest.raises(NumericalError, match="sum to"):
            error_distribution_exact(dist(0.5, 0.5), V01, 4)

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
        # 3.8e6 pass terms against 20 x 321,201 enumeration terms
        ([0.2, 0.3, 0.5], [0.0, 1.0, 3.0], 800, 0),
        # span 10: 2.2e6 pass terms against 20 x 20,301
        ([0.2, 0.3, 0.5], [0.0, 1.0, 10.0], 200, 1),
        # span 1000: np.convolve multiplies the kernel's zeros too, 1.8e9
        # pass terms against 20 x 635,376
        ([0.2] * 5, [0.0, 1.0, 2.0, 3.0, 1000.0], 60, 1),
    ])
    def test_the_method_with_fewer_terms_runs(self, monkeypatch, weights, v, n, enumerations):
        sizes = count_enumerations(monkeypatch)
        error_distribution_exact(dist(*weights), v, n)
        assert len(sizes) == enumerations

    def test_equal_values_merge_before_the_enumeration(self, monkeypatch):
        sizes = count_enumerations(monkeypatch)
        error_distribution_exact(dist(0.2, 0.3, 0.5), [0.0, 1.0, 1.0], 50)
        assert sizes == [51]

    def test_a_sparse_lattice_pass_over_the_cap_is_refused(self):
        # span 50 at n = 200: 51 x (50 x 200 x 199 / 2 + 200) multiply-adds,
        # over the cap, and still fewer than 20 x C(204, 4) enumeration terms
        with pytest.raises(TableTooLarge, match="tilted lattice pass .* sums 50755200 terms"):
            ldp_mod.check_exact_law(dist(*[0.2] * 5), [0.0, 1.0, 2.0, 3.0, 50.0], [200])

    def test_an_irrational_meta_law_over_the_cap_is_refused(self):
        # the meta law keeps the enumeration off a lattice: C(503, 3) type classes
        with pytest.raises(TableTooLarge, match=f"type enumeration for k=4 distinct values, n=500 sums {math.comb(503, 3)} "):
            error_distribution_exact(dist(0.25, 0.25, 0.25, 0.25), [0.0, 1.0, math.sqrt(2.0), 3.0], 500)


def terms_at_the_cap(span: int) -> int:
    """The largest n whose lattice pass sums at most TABLE_CAP terms."""
    n = 1
    while (span + 1) * (span * (n + 1) * n // 2 + n + 1) <= ldp_mod.TABLE_CAP:
        n += 1
    return n


class TestTiltedPass:
    def test_kernel_against_the_log_domain_recursion(self, rng):
        # seeded lattices, k = 3..6, n at the cap of the lattice terms: the
        # linear pass matches the log-domain law to 1e-13 relative wherever
        # its tilted mass is within e^-700 of the peak, keeps an exact zero
        # wherever a sum is unreachable, and drops nothing else
        for k in range(3, 7):
            m = np.sort(rng.choice(np.arange(k + 2), size=k, replace=False))
            m -= m[0]
            if k == 3:
                m = np.array([0, 2, 4])  # gcd 2: every odd sum is unreachable
            n = terms_at_the_cap(int(m.max()))
            weights = random_distribution(rng, k, min_mass=1e-3).weights
            exact = log_domain_lattice_law(np.log(weights), m, n)
            s = np.arange(exact.size)
            for t in (0.0, float(rng.uniform(-3.0, 3.0))):
                [log_p] = ldp_mod._tilted_pass(weights, m, t, [n])
                assert np.isneginf(log_p[np.isneginf(exact)]).all()
                tilted = exact + t * s - n * ldp_mod._logsumexp(np.log(weights) + t * m)
                assert np.isfinite(log_p[tilted > tilted.max() - 700.0]).all()
                kept = np.isfinite(log_p)
                assert np.all(np.abs(log_p[kept] - exact[kept]) <= 1e-13 * np.abs(exact[kept])), (k, n, t)

    def test_an_infinite_multiplier_tilts_onto_the_extreme_atom(self):
        # V . L_n = 3 = max V only when every draw is 3: log P = n log(1/3),
        # below the float range at these n.  An untilted linear pass
        # underflows there and would report a false EmptyEvent.
        # The second window misses [0, 3] by two ulps of 3, inside the float
        # resolution of V . L_n: its dominating point is 3, rate log 3, and
        # the pass is tilted onto it.  A window 1e-13 past 3 holds no type
        # mean, and no reweighting of P reaches it.
        P, v, grid = dist(1 / 3, 1 / 3, 1 / 3), [0.0, 1.0, 3.0], [700, 800]
        for constraint in (ConstraintSpec.point(v, 3.0), ConstraintSpec.interval(v, 3.0 + 2 * math.ulp(3.0), 4.0)):
            est = sanov_exact(P, constraint, grid)
            assert est.empty_event_ns == () and est.analytic_rate == math.log(3)
            for n, log_prob in zip(grid, est.log_probs):
                assert abs(log_prob - n * math.log(1 / 3)) <= 1e-12 * n * math.log(3)
        with pytest.raises(InfeasibleConstraint, match=r"^target 3\.0000000000001 outside the attainable range"):
            sanov_exact(P, ConstraintSpec.interval(v, 3.0 + 1e-13, 4.0), grid)
        [untilted] = ldp_mod._tilted_pass(np.full(3, 1 / 3), np.array([0, 1, 3]), 0.0, [700])
        assert untilted[-1] == -math.inf

    def test_a_subnormal_weight_keeps_its_tilted_mass(self):
        # the window [1.5, 2] needs two draws of the atom of weight 1e-310;
        # its tilt makes q_j / p_j overflow, which once gave log P = +inf
        # (sanov) and a false EmptyEvent (gibbs)
        weights, v, window = [0.5, 1e-310, 0.5], [0.0, 2.0, 1.0], (1.5, 2.0)
        log_w, m = np.log(weights), np.array([0, 2, 1])
        est = sanov_exact(dist(*weights), ConstraintSpec.interval(v, *window), [4, 8])
        for n, log_prob in zip([4, 8], est.log_probs):
            exact = log_domain_lattice_law(log_w, m, n)
            expected = ldp_mod._logsumexp(exact[3 * n // 2:])
            assert abs(log_prob - expected) <= 1e-12 * abs(expected)
        n = 5
        [res] = gibbs_conditioning(dist(*weights), ConstraintSpec.interval(v, *window), [n])
        law = log_domain_lattice_law(log_w, m, n - 1)
        s = np.arange(law.size)
        log_joint = log_w + [ldp_mod._logsumexp(law[ldp_mod.in_window((s + j) / n, *window, v)]) for j in m]
        expected = np.exp(log_joint - ldp_mod._logsumexp(log_joint))
        assert np.abs(res.conditioned_mean_measure.weights - expected).max() <= 1e-12

    def test_gibbs_at_one_draw_reads_the_empty_sum(self, monkeypatch):
        # n = 1 conditions on the point mass at n - 1 = 0; the grid's other n
        # read their slabs, each result in the grid's own order
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))
        weights, v, window, grid = [0.2, 0.3, 0.5], [0.0, 1.0, 3.0], (0.9, 3.0), [3, 1, 6]
        results = gibbs_conditioning(dist(*weights), ConstraintSpec.interval(v, *window), grid)
        assert [res.n for res in results] == grid
        for n, res in zip(grid, results):
            probs, xi, freqs = every_sequence(weights, v, n)
            inside = ldp_mod.in_window(xi, *window, v)
            expected = probs[inside] @ freqs[inside] / math.fsum(probs[inside])
            assert np.abs(res.conditioned_mean_measure.weights - expected).max() <= 1e-12
        assert results[1].conditioned_mean_measure.weights == pytest.approx([0.0, 0.375, 0.625], abs=1e-15)


class TestLatticeWindowLaw:
    """The meta law on a lattice: tilted passes over the window, their
    support decided by a boolean pass."""

    @pytest.mark.parametrize("weights, m", [([0.25, 0.25, 0.5], [0, 2, 4]), ([0.2, 0.5, 0.3], [0, 3, 2])])
    def test_support_against_every_sequence(self, weights, m):
        # gcd 2: every odd sum is unreachable; {0, 2, 3}: 1 is no sum of n draws
        for n in ORACLE_NS:
            probs, mean, _ = every_sequence(weights, m, n)
            expected = np.bincount(np.rint(mean * n).astype(int), weights=probs, minlength=max(m) * n + 1)
            log_p = ldp_mod._lattice_window(np.array(weights), np.array(m), n, np.ones(expected.size, bool))
            assert np.array_equal(np.isneginf(log_p), expected == 0.0), n
            assert np.abs(np.exp(log_p) - expected).max() <= 1e-12

    @pytest.mark.parametrize("v, gap", [([0.0, 3.0, 2.0], lambda n: 1), ([0.0, 1.0, 3.0], lambda n: 3 * n - 1)])
    def test_end_gaps_of_the_law(self, v, gap):
        # the lattice sum next to one end is never reached: {0, 2, 3} never
        # sums to 1, {0, 1, 3} never to 3n - 1
        weights = [0.2, 0.5, 0.3]
        for n in ORACLE_NS:
            probs, xi, _ = every_sequence(weights, v, n)
            values = np.unique(xi)
            law = error_distribution_exact(dist(*weights), v, n)
            assert law.support.size == values.size and np.abs(law.support - values).max() <= 1e-12
            inner = (values[0] + 1e-9, values[-1] - 1e-9)
            assert error_distribution_exact(dist(*weights), v, n, inner).support.size == values.size - 2
            with pytest.raises(EmptyEvent):
                error_distribution_exact(dist(*weights), v, n, (gap(n) / n, gap(n) / n))

    def test_full_range_law_spanning_thousands_of_nats(self, monkeypatch):
        # log P(S_800 = 0) = 800 log 0.05 = -2396.6; the mean's mass is
        # e^-4.2: no single tilt keeps both ends within the float range
        weights, m, n = np.array([0.05, 0.15, 0.8]), np.array([0, 1, 3]), 800
        tilts = []
        run_pass = ldp_mod._tilted_pass
        monkeypatch.setattr(ldp_mod, "_tilted_pass", lambda w, m, t, ns: tilts.append(t) or run_pass(w, m, t, ns))
        law = error_distribution_exact(FiniteDistribution.from_weights(weights.tolist()), m.tolist(), n)
        exact = log_domain_lattice_law(np.log(weights), m, n)
        s = np.flatnonzero(np.isfinite(exact))
        assert exact[s].max() - exact[s].min() > 1000.0 and len(tilts) > 1
        assert np.array_equal(law.support, s / n)
        assert np.all(np.abs(law.log_mass - exact[s]) <= 1e-12 * np.abs(exact[s]))

    @pytest.mark.parametrize("k, n", [(4, 1291), (5, 1000), (6, 816)])
    def test_reach_at_the_cap(self, k, n):
        # V = [0..k-1]: one pass at n sums at most TABLE_CAP terms, at n + 1
        # more; the law of a window symmetric about the mean is symmetric
        P, v = FiniteDistribution.uniform(Alphabet.of_size(k)), list(range(k))
        with pytest.raises(TableTooLarge, match=f"n={n + 1} "):
            ldp_mod.check_exact_law(P, v, [n + 1])
        lo, hi = 0.4 * (k - 1), 0.6 * (k - 1)
        law = error_distribution_exact(P, v, n, (lo, hi))
        assert np.abs(np.diff(law.support) * n - 1.0).max() <= 1e-9  # every sum in the window
        assert ldp_mod.in_window(law.support, lo, hi, v).all()
        assert law.support[0] < lo + 1 / n and law.support[-1] > hi - 1 / n
        assert abs(law.mean() - (k - 1) / 2) <= 1e-12

    def test_an_empty_window_is_an_empty_event(self):
        with pytest.raises(EmptyEvent):
            error_distribution_exact(BERN_HALF, V01, 3, (0.5, 0.5))  # parity
        with pytest.raises(EmptyEvent):
            error_distribution_exact(BERN_HALF, V01, 3, (1.2, 2.0))  # past the range

    def test_an_uncovered_sum_is_a_numerical_error(self, monkeypatch):
        # a reachable sum that no pass keeps must not drop out of the support
        run_pass = ldp_mod._tilted_pass

        def losing(weights, m, t, ns):
            [log_p] = run_pass(weights, m, t, ns)
            log_p[5] = -math.inf
            return [log_p]

        monkeypatch.setattr(ldp_mod, "_tilted_pass", losing)
        with pytest.raises(NumericalError, match="lattice sum 5"):
            error_distribution_exact(dist(0.2, 0.3, 0.5), [0.0, 1.0, 3.0], 40, (0.0, 1.0))


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


def slab_of(weights, v, window, n):
    """The slab of n draws for the window's reads, called as ``_window_laws`` calls it."""
    P = dist(*weights)
    tilt, _ = i_projection(P, ConstraintSpec.interval(v, *window))
    values, w, _ = ldp_mod._distinct_values(P, v, [n])
    return ldp_mod._slab_terms(values, w, n, tilt.lam, _band(v)), (values, w)


def window_masses(xi, log_probs, v, window, n):
    """log P(V . L_n in W) and the n + 1 draw rows of ``gibbs``, log P((n xi + v_j) / (n + 1) in W)."""
    rows = in_window(np.concatenate([[xi], (n * xi + np.asarray(v, float)[:, None]) / (n + 1)]), *window, v)
    return np.array([ldp_mod._logsumexp(log_probs[row]) for row in rows])


# P, V and a window off a lattice: multiplier < 0, > 0, 0, -inf (a range end), k = 4
SLAB_CASES = {
    "upper-tail": ([0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (1.2, math.sqrt(2.0))),
    "lower-tail": ([0.5, 0.3, 0.2], [0.0, 1.0, math.sqrt(2.0)], (0.0, 0.4)),
    "holds-the-mean": ([0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (0.3, 1.2)),
    "range-end": ([0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (math.sqrt(2.0), 2.0)),
    "k4": ([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, math.sqrt(2.0), math.pi], (2.3, math.pi)),
    # V of the undrawn symbol widens in_window's band to 0.09, so types up to
    # 0.09 n |lambda| nats past the dominating point are in the window
    "wide-band": ([0.2, 0.3, 0.5, 0.0], [0.0, 1.0, math.sqrt(2.0), 2.0 ** 44], (1.2, math.sqrt(2.0))),
    **{name: case for name, case in ORACLE_CASES.items() if name != "parity-empty-point"},
}


@pytest.mark.parametrize("weights, v, window", SLAB_CASES.values(), ids=SLAB_CASES.keys())
class TestSlab:
    """The window reads off a lattice keep only the types near the window's
    dominating point (``ldp._slab_terms``), and bound the mass they leave out."""

    def test_window_masses_match_the_enumeration(self, weights, v, window):
        # n = 1..7, and up to n = 1500 for k = 3 (1.1e6 types enumerated)
        top = 1500 if len(weights) == 3 else 120
        for n in [*ORACLE_NS, 40, 300, top]:
            (xi, log_probs, log_bound), (values, w) = slab_of(weights, v, window, n)
            expected = window_masses(*ldp_mod._type_terms(values, w, n), v, window, n)
            got = window_masses(xi, log_probs, v, window, n)
            assert xi.size <= table_size(values.size, n)
            if log_bound > got[0] + math.log(ldp_mod._SLAB_TOLERANCE):
                # a point window off a lattice whose one type lies far from the tilt's
                # (the all-0.5 type of V = [-1, 0.5, pi]): the readers read the box-free slab
                assert window[0] == window[1] and got[0] < expected[0], n
                assert sanov_exact(dist(*weights), oracle_constraint(v, window), [n]).log_probs == (expected[0],)
                continue
            assert np.array_equal(np.isneginf(got), np.isneginf(expected)), n
            finite = np.isfinite(expected)
            assert np.all(np.abs(got[finite] - expected[finite]) <= 1e-12 * np.maximum(1.0, np.abs(expected[finite])))


# The SLAB_CASES whose slab at n = 1..top cuts no type: it is the whole type table
UNCUT_SLABS = {"holds-the-mean": 30, "zero-weight-symbol": 30, "repeated-value": 30, "irrational-potential": 4,
               "lower-tail": 3, "upper-tail": 2, "k4": 2, "wide-band": 2, "irrational-point": 2}


@pytest.mark.parametrize("name, top", UNCUT_SLABS.items(), ids=UNCUT_SLABS.keys())
def test_a_slab_that_cuts_nothing_is_the_enumeration(name, top, monkeypatch):
    # neither the box nor the strip cuts a type (log_bound = -inf): the slab
    # holds the enumeration's types, and its means and log-probabilities are
    # bit-equal to the enumeration's, each read off its one home
    weights, v, window = SLAB_CASES[name]
    read = recording(monkeypatch, "_type_log_probs")
    for n in range(1, top + 1):
        (xi, log_probs, log_bound), (values, w) = slab_of(weights, v, window, n)
        assert log_bound == -math.inf
        counts = np.column_stack(read[-1][0])
        order = np.lexsort(counts.T[::-1])  # the enumeration's lexicographic order
        table = enumerate_types(FiniteDistribution(Alphabet.of_size(values.size), w), n)
        expected_xi, expected_log_probs = ldp_mod._type_terms(values, w, n)
        assert np.array_equal(counts[order], table.counts), (name, n)
        assert xi[order].tolist() == expected_xi.tolist() and log_probs[order].tolist() == expected_log_probs.tolist()


def record_boxes(monkeypatch) -> list[bool]:
    """Whether each type slab that ``_slab_terms`` builds from now on has its box."""
    boxes, slab = [], ldp_mod._slab_terms
    monkeypatch.setattr(ldp_mod, "_slab_terms", lambda *args, box=True: boxes.append(box) or slab(*args, box=box))
    return boxes


def box_free_size(weights, v, window, n) -> int:
    """The types of the box-free slab of n draws for the window's reads."""
    tilt, _ = i_projection(dist(*weights), ConstraintSpec.interval(v, *window))
    values, w, _ = ldp_mod._distinct_values(dist(*weights), v, [n])
    return ldp_mod._slab_terms(values, w, n, tilt.lam, _band(v), box=False)[0].size


class TestSlabReads:
    @pytest.mark.parametrize("name", ["upper-tail", "lower-tail", "holds-the-mean", "k4", "irrational-potential"])
    def test_a_forced_bound_reads_the_box_free_slab_or_is_too_large(self, name, monkeypatch):
        # with T = 1 nat the slab leaves out more than 1e-15 of the mass it
        # reads: the read takes the slab again without its box, which matches
        # the type table, and a box-free slab over the cap is a TableTooLarge
        weights, v, window = SLAB_CASES[name]
        P, constraint, n = dist(*weights), ConstraintSpec.interval(v, *window), 200
        values, w, _ = ldp_mod._distinct_values(P, v, [n])
        expected = window_masses(*ldp_mod._type_terms(values, w, n), v, window, n)
        mean = np.exp(np.log(w) + expected[1:] - ldp_mod._logsumexp(np.log(w) + expected[1:]))
        free = box_free_size(weights, v, window, n)
        monkeypatch.setattr(ldp_mod, "_SLAB_NATS", 1.0)
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))
        boxes = record_boxes(monkeypatch)
        [log_prob] = sanov_exact(P, constraint, [n]).log_probs
        assert abs(log_prob - expected[0]) <= 1e-12 * abs(expected[0])
        [res] = gibbs_conditioning(P, constraint, [n + 1])
        assert np.abs(res.conditioned_mean_measure.weights - mean).max() <= 1e-12
        assert boxes == [True, False] * 2
        monkeypatch.setattr(ldp_mod, "TABLE_CAP", free - 1)
        with pytest.raises(TableTooLarge, match=f"type slab for k={len(weights)} distinct values, n={n} holds "):
            sanov_exact(P, constraint, [n])
        with pytest.raises(TableTooLarge, match=f"type slab for k={len(weights)} distinct values, n={n} holds "):
            gibbs_conditioning(P, constraint, [n + 1])
        assert boxes[4:] == [True, False] * 2

    def test_an_oversized_slab_is_refused_before_any_law_is_built(self, monkeypatch):
        # the message holds the slab's own count; the slabs are built largest
        # n first, so the slab at 800 is the only one begun, and no type's
        # mean or log-probability, no pass and no enumeration is computed
        weights, v, window = [0.2, 0.3, 0.5], [0.0, 1.0, math.sqrt(2.0)], (1.2, math.sqrt(2.0))
        (xi, _, _), _ = slab_of(weights, v, window, 800)
        monkeypatch.setattr(ldp_mod, "TABLE_CAP", xi.size - 1)
        begun = recording(monkeypatch, "_compositions")
        for name in ("_type_means", "_type_log_probs", "_tilted_pass", "enumerate_types"):
            monkeypatch.setattr(ldp_mod, name, lambda *args, name=name: pytest.fail(f"ran {name}"))
        with pytest.raises(TableTooLarge, match=f"type slab for k=3 distinct values, n=800 holds {xi.size} types "):
            sanov_exact(dist(*weights), ConstraintSpec.interval(v, *window), [200, 800, 400])
        with pytest.raises(TableTooLarge, match="n=800 holds"):
            gibbs_conditioning(dist(*weights), ConstraintSpec.interval(v, *window), [1, 201, 801])
        assert [args[0] for args in begun] == [800, 800]

    def test_the_readers_take_the_slab_off_a_lattice(self, monkeypatch):
        # the enumeration stays the meta law's; an n past its cap is read
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))
        P, v = dist(0.2, 0.3, 0.5), [0.0, 1.0, math.sqrt(2.0)]
        assert table_size(3, 10 ** 5) > ldp_mod.TABLE_CAP
        est = sanov_exact(P, ConstraintSpec.interval(v, 1.2, math.sqrt(2.0)), [20000, 40000, 10 ** 5])
        assert all(math.isfinite(x) for x in est.log_probs)
        assert abs(est.fitted_slope + est.analytic_rate) <= 1e-3
        [res] = gibbs_conditioning(P, ConstraintSpec.interval(v, 1.2, math.sqrt(2.0)), [10 ** 5])
        assert res.tv_distance <= 1e-4

    def test_a_lattice_the_pass_refuses_is_read_off_the_slab(self):
        # P = Bin(2, 0.3) on V = [0, 1, 2], so S_n ~ Bin(2n, 0.3): at n = 4471
        # the pass (6e7 terms) and the enumeration (C(4473, 2)) are both over
        # the cap, which refused this read before the slab
        p, n = 0.3, 4471
        P, v = dist((1 - p) ** 2, 2 * p * (1 - p), p * p), [0.0, 1.0, 2.0]
        with pytest.raises(TableTooLarge):
            ldp_mod.check_exact_law(P, v, [n])
        [log_prob] = sanov_exact(P, ConstraintSpec.interval(v, 1.0, 2.0), [n]).log_probs
        expected = stats.binom.logsf(n - 1, 2 * n, p)
        assert abs(log_prob - expected) <= 1e-12 * abs(expected)

    def test_an_infinite_multiplier_reads_the_extreme_type(self):
        # V . L_n = sqrt 2 = max V only when every draw is sqrt 2: log P = n log(1/3)
        P, v, grid = dist(1 / 3, 1 / 3, 1 / 3), [0.0, 1.0, math.sqrt(2.0)], [700, 800]
        est = sanov_exact(P, ConstraintSpec.interval(v, math.sqrt(2.0), 2.0), grid)
        for n, log_prob in zip(grid, est.log_probs):
            assert abs(log_prob - n * math.log(1 / 3)) <= 1e-12 * n * math.log(3)
        [res] = gibbs_conditioning(P, ConstraintSpec.interval(v, math.sqrt(2.0), 2.0), [800])
        assert res.conditioned_mean_measure.weights.tolist() == [0.0, 0.0, 1.0]

    def test_an_infinite_multiplier_next_to_another_value_reads_the_box_free_slab(self, monkeypatch):
        # 1 + 2^-46 is the range end, and 1 lies within 2 n bands of it: the
        # types that mix them are in the window, which the one-type slab says;
        # the read takes the slab again without its box (at lam = 0: the whole
        # type table), or past the cap is a TableTooLarge
        P, v, n = dist(0.2, 0.3, 0.5), [0.0, 1.0, 1.0 + 2.0 ** -46], 30
        constraint = ConstraintSpec.interval(v, 1.0 + 2.0 ** -46, 2.0)
        xi, log_probs = ldp_mod._type_terms(np.array(v), np.array([0.2, 0.3, 0.5]), n)
        expected = ldp_mod._logsumexp(log_probs[in_window(xi, 1.0 + 2.0 ** -46, 1.0 + 2.0 ** -46, v)])
        assert expected > n * math.log(0.5) + 1.0  # more than the one all-(1 + 2^-46) type
        [log_prob] = sanov_exact(P, constraint, [n]).log_probs
        assert abs(log_prob - expected) <= 1e-12 * abs(expected)
        monkeypatch.setattr(ldp_mod, "TABLE_CAP", table_size(3, n) - 1)
        with pytest.raises(TableTooLarge, match=f"n={n} holds {table_size(3, n)} types at level 2 of 2 "):
            sanov_exact(P, constraint, [n])


class TestBoxFreeReadsPastTheEnumerationsCap:
    """Point windows off a lattice whose types lie far from the tilt's slab, at
    an n whose type table is over the cap (lowered to keep the tests cheap):
    the box-free slab reads them against their closed forms."""

    def past_the_cap(self, monkeypatch, P, v, n):
        monkeypatch.setattr(ldp_mod, "TABLE_CAP", table_size(3, n) - 1)
        monkeypatch.setattr(ldp_mod, "enumerate_types", lambda P, n: pytest.fail("enumerated the types"))
        with pytest.raises(TableTooLarge, match="type enumeration for k=3 distinct values"):
            ldp_mod.check_exact_law(P, v, [n])  # the meta law's enumeration refuses n
        return record_boxes(monkeypatch)

    def test_the_one_type_at_the_point(self, monkeypatch):
        # only the all-0.5 type has V . L_n = 0.5: log P = n log(1/3), and
        # given it every draw is 0.5
        P, v, n = FiniteDistribution.uniform(Alphabet.of_size(3)), [-1.0, 0.5, math.pi], 600
        boxes = self.past_the_cap(monkeypatch, P, v, n)
        [log_prob] = sanov_exact(P, ConstraintSpec.point(v, 0.5), [n]).log_probs
        assert abs(log_prob - n * math.log(1 / 3)) <= 1e-12 * n * math.log(3)
        [res] = gibbs_conditioning(P, ConstraintSpec.point(v, 0.5), [n + 1])
        assert res.conditioned_mean_measure.weights.tolist() == [0.0, 1.0, 0.0]
        assert boxes == [True, False] * 2

    def test_no_type_at_the_point(self, monkeypatch):
        # c_1 + c_2 sqrt 2 = 1.2 n needs c_2 = 0 and c_1 = 1.2 n > n: the event is empty
        P, v, n = dist(0.2, 0.3, 0.5), [0.0, 1.0, math.sqrt(2.0)], 600
        boxes = self.past_the_cap(monkeypatch, P, v, n)
        est = sanov_exact(P, ConstraintSpec.point(v, 1.2), [n])
        assert est.empty_event_ns == (n,) and est.log_probs == (-math.inf,)
        with pytest.raises(EmptyEvent, match=f"n={n + 1} "):
            gibbs_conditioning(P, ConstraintSpec.point(v, 1.2), [n + 1])
        assert boxes == [True, False] * 2

    def test_a_box_free_slab_over_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # the message holds the box-free slab's own count, and no mean of its
        # types is formed: only the boxed slab's
        weights, v, window = SLAB_CASES["irrational-point"]
        n = 600
        size = box_free_size(weights, v, window, n)
        monkeypatch.setattr(ldp_mod, "TABLE_CAP", size - 1)
        means = recording(monkeypatch, "_type_means")
        with pytest.raises(TableTooLarge, match=f"type slab for k=3 distinct values, n={n} holds {size} types at level 2 of 2 "):
            sanov_exact(dist(*weights), oracle_constraint(v, window), [n])
        assert len(means) == 1


class TestValuesSharingALatticeIndex:
    """1 and 1 + 2^-50 lie within the band of each other, so both sit at
    lattice index 1, and the meta law's pass's kernel holds the sum of their
    weights."""

    P, v, window, n = dist(0.2, 0.3, 0.5), [0.0, 1.0, 1.0 + 2.0 ** -50], (0.5, 2.0), 30

    def test_the_readers_match_the_enumeration(self, monkeypatch):
        assert ldp_mod._lattice(np.array(self.v))[2].tolist() == [0, 1, 1]
        constraint, n, w = ConstraintSpec.interval(self.v, *self.window), self.n, self.P.weights
        passes = recording(monkeypatch, "_tilted_pass")
        [log_prob] = sanov_exact(self.P, constraint, [n]).log_probs
        [result] = gibbs_conditioning(self.P, constraint, [n])
        law = error_distribution_exact(self.P, self.v, n, self.window)
        assert len(passes) == 1  # the meta law's: at k = 3 the readers take the slab
        expected = window_masses(*ldp_mod._type_terms(np.array(self.v), w, n), self.v, self.window, n)[0]
        assert abs(log_prob - expected) <= 1e-12 * max(1.0, abs(expected))
        rows = window_masses(*ldp_mod._type_terms(np.array(self.v), w, n - 1), self.v, self.window, n - 1)[1:]
        mean = np.exp(np.log(w) + rows - ldp_mod._logsumexp(np.log(w) + rows))
        assert np.abs(result.conditioned_mean_measure.weights - mean).max() <= 1e-12
        monkeypatch.setattr(ldp_mod, "_lattice", lambda values: None)  # the meta law off the type enumeration
        enumerated = error_distribution_exact(self.P, self.v, n, self.window)
        assert np.abs(law.support - enumerated.support).max() <= 1e-12
        assert np.abs(law.log_mass - enumerated.log_mass).max() <= 1e-12


class TestOverflowingRange:
    """V = [-1e308, 1e308]: V - min V overflows, so there is no lattice, and a
    Monte Carlo mean halves V; the window [0.5e308, 1e308] is S_n >= 3n/4 of
    S_n ~ Bin(n, 1/2)."""

    P, V, WINDOW, GRID = dist(0.5, 0.5), [-1e308, 1e308], (0.5e308, 1e308), [20, 40, 60]

    def tail(self, n):
        return stats.binom.logsf(math.ceil(0.75 * n) - 1, n, 0.5)

    def test_exact_reads_the_binomial_tail(self):
        assert ldp_mod._lattice(np.array(self.V)) is None
        est = sanov_exact(self.P, ConstraintSpec.interval(self.V, *self.WINDOW), self.GRID)
        for n, log_prob in zip(self.GRID, est.log_probs):
            assert abs(log_prob - self.tail(n)) <= 1e-12 * abs(self.tail(n))

    def test_gibbs_reads_the_binomial_tail(self):
        # E[L_n | W]_1 = P(S_{n-1} >= 3n/4 - 1) / (2 P(S_n >= 3n/4))
        results = gibbs_conditioning(self.P, ConstraintSpec.interval(self.V, *self.WINDOW), self.GRID)
        for n, res in zip(self.GRID, results):
            top = math.exp(stats.binom.logsf(math.ceil(0.75 * n) - 2, n - 1, 0.5) - self.tail(n)) / 2
            assert abs(res.conditioned_mean_measure.weights[1] - top) <= 1e-12

    def test_monte_carlo_hits_as_at_unit_scale(self):
        sampler = SeededSampler(seed=3, base=self.P)
        est = sanov_monte_carlo(sampler, ConstraintSpec.interval(self.V, *self.WINDOW), self.GRID, 20000)
        unit = sanov_monte_carlo(sampler, ConstraintSpec.interval([-1.0, 1.0], 0.5, 1.0), self.GRID, 20000)
        assert est.log_probs == unit.log_probs and est.insufficient_ns == unit.insufficient_ns
        for n, lo, hi in zip(self.GRID, est.ci_lo, est.ci_hi):
            assert lo <= self.tail(n) <= hi or n in est.insufficient_ns
