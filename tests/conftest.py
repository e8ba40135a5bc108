import numpy as np
import pytest

from treextract import GaussianMixture, PolicyConfig, learn_policy


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def gmm_1d_bimodal():
    return GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [[1.0], [1.0]])


@pytest.fixture
def gmm_2d():
    return GaussianMixture([0.6, 0.4], [[-1.0, 0.5], [1.5, -0.5]],
                           [[0.8, 1.2], [1.1, 0.7]])


@pytest.fixture(scope="session")
def cartpole():
    """Shared trained policy; learning it takes about 0.15 s."""
    return learn_policy(PolicyConfig())
