import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from dybm.config import ModelConfig, Parameters
from dybm.model import advance

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def configs(draw, max_units=3, max_delay=5, max_rates=2, allow_empty=False):
    """Random desk-scale model configurations."""
    n = draw(st.integers(1, max_units))
    k = draw(st.integers(1, max_rates))
    l = draw(st.integers(1, max_rates))
    rate = st.floats(0.1, 0.85, allow_nan=False)
    lambdas = tuple(draw(st.lists(rate, min_size=k, max_size=k)))
    mus = tuple(draw(st.lists(rate, min_size=l, max_size=l)))
    all_pairs = [(i, j) for i in range(n) for j in range(n)]
    min_pairs = 0 if allow_empty else 1
    chosen = draw(
        st.lists(st.sampled_from(all_pairs), min_size=min_pairs, unique=True)
    )
    delays = {pair: draw(st.integers(1, max_delay)) for pair in chosen}
    temperature = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return ModelConfig(n, lambdas, mus, delays, temperature)


@st.composite
def configs_with_params(draw, scale=1.5, **kwargs):
    config = draw(configs(**kwargs))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    params = Parameters(
        bias=rng.normal(0.0, scale, size=config.n_units),
        u=rng.normal(0.0, scale, size=(config.n_pairs, config.n_lambda)),
        v=rng.normal(0.0, scale, size=(config.n_pairs, config.n_mu)),
    )
    return config, params


@st.composite
def histories(draw, config, min_len=0, max_len=20):
    length = draw(st.integers(min_len, max_len))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random((length, config.n_units)) < 0.5).astype(np.int64)


def add_then_decay_advance(state, config, new_slice):
    """Faulty ``advance`` for fault injection: folds the arriving spike into
    the arrival trace before decaying it, which skews the newest term by
    one decay factor."""
    nxt = advance(state, config, new_slice)
    lam = config.arrays.lam[None, :]
    arrived = nxt.alpha - state.alpha * lam
    nxt.alpha = (state.alpha + arrived) * lam
    return nxt


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
