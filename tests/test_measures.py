import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxent_bayes import (
    Alphabet,
    FiniteDistribution,
    LossMatrix,
    bayes_classifier,
    expected_loss,
    kl_divergence,
    shannon_entropy,
    total_variation,
)
from maxent_bayes.errors import AbsoluteContinuityViolation, AlphabetMismatch
from tests.conftest import random_distribution


def dist(*weights):
    return FiniteDistribution.from_weights(list(weights))


@st.composite
def distributions(draw, k_min=2, k_max=6):
    k = draw(st.integers(k_min, k_max))
    w = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    w = np.asarray(w)
    return FiniteDistribution(Alphabet.of_size(k), w / w.sum())


class TestAlphabet:
    def test_distinct_symbols_required(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet([])

    def test_indexing_is_total_order(self):
        a = Alphabet(["x", "y", "z"])
        assert a.size == 3


class TestFiniteDistribution:
    def test_renormalizes_near_unit_mass(self):
        p = dist(0.5 + 4e-10, 0.5)
        assert abs(float(p.weights.sum()) - 1.0) <= 1e-12

    def test_rejects_far_from_unit_mass(self):
        with pytest.raises(ValueError):
            dist(0.6, 0.6)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            dist(1.2, -0.2)

    def test_weights_are_immutable(self):
        p = dist(0.25, 0.75)
        with pytest.raises(ValueError):
            p.weights[0] = 0.5

    def test_support(self):
        p = dist(0.0, 1.0)
        assert list(p.support) == [1]


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = dist(0.3, 0.7)
        assert kl_divergence(p, p) == 0.0

    def test_binary_closed_form(self):
        val = kl_divergence(dist(0.75, 0.25), dist(0.5, 0.5))
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.130812, abs=1e-6)

    def test_disjoint_supports_raise(self):
        with pytest.raises(AbsoluteContinuityViolation):
            kl_divergence(dist(1.0, 0.0), dist(0.0, 1.0))

    def test_alphabet_mismatch(self):
        p = FiniteDistribution(Alphabet(["a", "b"]), [0.5, 0.5])
        q = FiniteDistribution(Alphabet(["c", "d"]), [0.5, 0.5])
        with pytest.raises(AlphabetMismatch):
            kl_divergence(p, q)

    def test_nonnegative_on_1000_random_pairs(self, rng):
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            p = random_distribution(rng, k)
            q = random_distribution(rng, k, min_mass=1e-9)
            assert kl_divergence(p, q) >= 0.0

    def test_zero_iff_equal(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 7))
            p = random_distribution(rng, k, min_mass=1e-6)
            q = random_distribution(rng, k, min_mass=1e-6)
            copy = FiniteDistribution(p.alphabet, p.weights)
            assert kl_divergence(p, copy) == 0.0
            if np.abs(p.weights - q.weights).max() > 1e-6:
                assert kl_divergence(p, q) > 0.0

    @given(distributions(), distributions())
    def test_gibbs_inequality_property(self, p, q):
        if p.size != q.size:
            return
        q_full = FiniteDistribution(p.alphabet, q.weights)
        assert kl_divergence(p, q_full) >= 0.0


class TestShannonEntropy:
    def test_uniform_maximizes(self):
        assert shannon_entropy(dist(*[0.25] * 4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert shannon_entropy(dist(0.0, 1.0)) == 0.0

    def test_direct_evaluation(self):
        assert shannon_entropy(dist(0.75, 0.25)) == pytest.approx(0.562335, abs=1e-6)

    @given(distributions())
    def test_bounds(self, p):
        h = shannon_entropy(p)
        assert 0.0 <= h <= math.log(p.size) + 1e-12


def zero_one_loss(k: int) -> LossMatrix:
    a = Alphabet.of_size(k)
    return LossMatrix(a, a, 1.0 - np.eye(k))


class TestBayesClassifier:
    def test_map_under_zero_one_loss(self):
        decision = bayes_classifier(dist(0.9, 0.1), zero_one_loss(2))
        assert decision.decision_index == 0
        assert decision.expected_loss == pytest.approx(0.1, abs=1e-12)

    def test_quadratic_loss_posterior_mean(self):
        labels = Alphabet((0.0, 1.0))
        predictions = Alphabet((0.0, 0.5, 1.0))
        entries = [[(z - y) ** 2 for y in labels.symbols] for z in predictions.symbols]
        loss = LossMatrix(predictions, labels, entries)
        decision = bayes_classifier(FiniteDistribution(labels, [0.5, 0.5]), loss)
        assert predictions.symbols[decision.decision_index] == 0.5
        assert decision.expected_loss == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_posterior(self):
        loss = LossMatrix(Alphabet.of_size(2), Alphabet.of_size(2), [[0.0, 5.0], [2.0, 1.0]])
        decision = bayes_classifier(dist(1.0, 0.0), loss)
        assert decision.decision_index == 0
        assert decision.expected_loss == 0.0

    def test_tie_breaks_to_lowest_index(self):
        loss = LossMatrix(Alphabet.of_size(2), Alphabet.of_size(2), [[1.0, 1.0], [1.0, 1.0]])
        assert bayes_classifier(dist(0.4, 0.6), loss).decision_index == 0

    def test_ties_are_held_to_the_scale_of_the_risks(self):
        # risks five times apart are no tie, however small the loss
        loss = LossMatrix(Alphabet.of_size(2), Alphabet.of_size(1), [[5e-13], [1e-13]])
        assert bayes_classifier(dist(1.0), loss).decision_index == 1

    def test_alphabet_mismatch(self):
        loss = zero_one_loss(3)
        with pytest.raises(AlphabetMismatch):
            bayes_classifier(dist(0.5, 0.5), loss)

    def test_affine_rescaling_invariance(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            posterior = random_distribution(rng, k)
            entries = rng.uniform(0.0, 1.0, size=(m, k))
            loss = LossMatrix(Alphabet.of_size(m), Alphabet.of_size(k), entries)
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(0.0, 3.0))
            rescaled = LossMatrix(loss.prediction_alphabet, loss.label_alphabet, a * entries + b)
            assert (
                bayes_classifier(posterior, loss).decision_index
                == bayes_classifier(posterior, rescaled).decision_index
            )

    def test_zero_one_loss_is_argmax(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            posterior = random_distribution(rng, k)
            decision = bayes_classifier(posterior, zero_one_loss(k))
            assert decision.decision_index == int(np.argmax(posterior.weights))
            assert decision.expected_loss == pytest.approx(
                1.0 - float(posterior.weights.max()), abs=1e-12
            )

    def test_zero_kl_copy_shares_every_bayes_decision(self, rng):
        # distributions at zero relative entropy are pointwise equal, so no
        # loss matrix can distinguish their decisions
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = random_distribution(rng, k)
            f = FiniteDistribution(p.alphabet, p.weights)
            assert kl_divergence(f, p) == 0.0
            for _ in range(5):
                m = int(rng.integers(2, 5))
                loss = LossMatrix(
                    Alphabet.of_size(m), p.alphabet, rng.uniform(0.0, 1.0, size=(m, k))
                )
                assert (
                    bayes_classifier(f, loss).decision_index
                    == bayes_classifier(p, loss).decision_index
                )


class TestExpectedLoss:
    def test_uniform_mean(self):
        assert expected_loss(dist(*[1 / 3] * 3), [0.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert expected_loss(dist(1.0, 0.0, 0.0), [0.0, 1.0, 2.0]) == 0.0

    def test_tilted_solution_satisfies_own_constraint(self):
        # closed-form tilt of the uniform reference onto mean 1/2 for V = (0,1,2)
        x = (math.sqrt(13.0) - 1.0) / 6.0
        z = 1.0 + x + x * x
        p = dist(1.0 / z, x / z, x * x / z)
        assert expected_loss(p, [0.0, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-3)

    def test_linearity(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            mu1 = random_distribution(rng, k)
            mu2 = random_distribution(rng, k)
            v = rng.uniform(0.0, 4.0, size=k)
            alpha = float(rng.uniform(0.0, 1.0))
            mix = FiniteDistribution(
                mu1.alphabet, alpha * mu1.weights + (1 - alpha) * mu2.weights
            )
            assert expected_loss(mix, v) == pytest.approx(
                alpha * expected_loss(mu1, v) + (1 - alpha) * expected_loss(mu2, v),
                abs=1e-12,
            )


class TestSerialization:
    def test_distribution_round_trip_is_value_exact(self):
        d = {"alphabet": ["a", "b", "c"], "weights": [0.123456789012345, 0.4, 0.476543210987655]}
        restored = FiniteDistribution.from_dict(json.loads(json.dumps(d)))
        assert restored.alphabet.symbols == ("a", "b", "c")
        assert restored.weights.tolist() == d["weights"]

    def test_loss_matrix_round_trip(self):
        d = {
            "prediction_alphabet": [0, 0.5, 1],
            "label_alphabet": [0, 1],
            "entries": [[0.0, 1.0], [0.25, 0.25], [1.0, 0.0]],
        }
        restored = LossMatrix.from_dict(json.loads(json.dumps(d)))
        assert restored.prediction_alphabet.symbols == (0, 0.5, 1)
        assert restored.label_alphabet.symbols == (0, 1)
        assert np.array_equal(restored.entries, d["entries"])

    def test_fifteen_digit_decimals_survive(self):
        w = [0.333333333333333, 0.666666666666667]
        restored = FiniteDistribution.from_dict(json.loads(json.dumps({"alphabet": [0, 1], "weights": w})))
        assert restored.weights.tolist() == w


class TestTotalVariation:
    def test_half_l1(self):
        assert total_variation(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0
        assert total_variation(dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    @given(distributions())
    def test_bounds(self, p):
        u = FiniteDistribution.uniform(p.alphabet)
        assert 0.0 <= total_variation(p, u) <= 1.0
