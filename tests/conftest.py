import numpy as np
import pytest
from hypothesis import settings

from maxent_bayes import Alphabet, FiniteDistribution

settings.register_profile("suite", deadline=None, max_examples=100, derandomize=True)
settings.load_profile("suite")


def random_distribution(rng: np.random.Generator, k: int, min_mass: float = 0.0) -> FiniteDistribution:
    """Dirichlet-distributed point of the k-simplex, optionally floored."""
    w = rng.dirichlet(np.ones(k))
    if min_mass > 0.0:
        w = (1.0 - k * min_mass) * w + min_mass
    return FiniteDistribution(Alphabet.of_size(k), w)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
