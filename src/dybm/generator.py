"""Autoregressive generation and prediction scoring.

A trained model defines the distribution of the next slice given the past,
so rolling it forward (sample a slice, feed it back, repeat) is itself a
generative model of the series. Argmax mode thresholds the firing
probabilities instead of sampling; exact ties at one half predict silence,
so argmax rollouts are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, Parameters
from .learning import _normalize_series, _walk
from .model import (
    TraceState,
    _log_prob,
    _scaled_drives,
    _sigmoid,
    advance,
    fire_probs,
    init_state,
)
from .rng import step_stream

__all__ = [
    "RolloutConfig",
    "PredictionMetrics",
    "sample_step",
    "rollout",
    "eval_prediction",
]


@dataclass
class RolloutConfig:
    """How to generate: number of steps, "sample" or "argmax", the run seed
    (ignored by argmax), and an optional non-empty primer series absorbed
    before the first generated step."""

    horizon: int
    mode: str = "sample"
    seed: int = 0
    primer: object = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.mode not in ("sample", "argmax"):
            raise ValueError(f"mode must be 'sample' or 'argmax', got {self.mode!r}")


def sample_step(
    params: Parameters,
    state: TraceState,
    config: ModelConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one slice: each unit fires independently with its own firing
    probability. Consumes one uniform per unit, ascending unit order.
    The caller advances the state."""
    p = fire_probs(params, state, config)
    draws = rng.random(config.n_units)
    return (draws < p).astype(np.int64)


def argmax_step(params: Parameters, state: TraceState, config: ModelConfig) -> np.ndarray:
    """Most likely value per unit; probability exactly one half rounds down."""
    return (fire_probs(params, state, config) > 0.5).astype(np.int64)


def rollout(params: Parameters, config: ModelConfig, rollout_cfg: RolloutConfig) -> np.ndarray:
    """Generate ``horizon`` slices autoregressively; returns (horizon, N).

    The primer, when given, is absorbed first; generated slices are then
    fed back one at a time. Sampling uses one Philox substream per step
    (see ``rng.step_stream``), so runs are reproducible given the seed.
    """
    state = init_state(config)
    if rollout_cfg.primer is not None:
        for x in _normalize_series(rollout_cfg.primer, config.n_units):
            state = advance(state, config, x)
    out = np.empty((rollout_cfg.horizon, config.n_units), dtype=np.int64)
    for t in range(rollout_cfg.horizon):
        if rollout_cfg.mode == "sample":
            x = sample_step(params, state, config, step_stream(rollout_cfg.seed, t))
        else:
            x = argmax_step(params, state, config)
        out[t] = x
        state = advance(state, config, x)
    return out


@dataclass(frozen=True)
class PredictionMetrics:
    """Aggregate one-step-ahead scores over a series."""

    log_likelihood: float
    nll_per_bit: float
    accuracy: float
    steps: int


def eval_prediction(params: Parameters, config: ModelConfig, series) -> PredictionMetrics:
    """Walk a series scoring each observed slice before absorbing it.

    Per-bit accuracy thresholds the firing probabilities at one half (ties
    predict 0); the negative log-likelihood is normalised per bit.
    """
    slices = _normalize_series(series, config.n_units)
    total_ll = 0.0
    correct = 0
    for state, x in _walk(config, slices):
        z = _scaled_drives(params, state, config)
        correct += int(np.sum((_sigmoid(z) > 0.5) == x))
        total_ll += _log_prob(z, x)
    bits = len(slices) * config.n_units
    return PredictionMetrics(
        log_likelihood=total_ll,
        nll_per_bit=-total_ll / bits,
        accuracy=correct / bits,
        steps=len(slices),
    )
