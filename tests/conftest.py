"""Shared test helpers: small batch and parameter builders."""

import numpy as np
import pytest

from xmrt import PairedDataset, init_params


def random_batch(n, d_audio, d_text, seed):
    rng = np.random.default_rng(seed)
    return PairedDataset(rng.standard_normal((n, d_audio)),
                         rng.standard_normal((n, d_text)))


@pytest.fixture
def small_batch():
    return random_batch(4, 6, 5, seed=3)


@pytest.fixture
def small_params():
    return init_params(6, 5, 4, seed=0)


@pytest.fixture
def head_params():
    return init_params(6, 5, 4, n_clusters=3, seed=0)
