"""Autoregressive rollout and prediction scoring.

A trained model defines the distribution of the next slice given the past,
so rolling it forward (sample a slice, feed it back, repeat) is itself a
generative model of the series. Argmax mode thresholds the firing
probabilities instead of sampling; exact ties at one half predict silence,
so argmax rollouts are fully deterministic. Only generated slices pass
through ``advance``; a primer's and a scored series' traces are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ModelConfig, Parameters, _count
from .learning import _end_state, _normalize_series, _score
from .model import TraceState, advance, fire_probs, init_state
from .rng import _reseater, step_stream

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
        self.horizon = _count("horizon", self.horizon, 1)
        self.seed = _count("seed", self.seed)
        if self.mode not in ("sample", "argmax"):
            raise ConfigError(f"mode must be 'sample' or 'argmax', got {self.mode!r}")


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
    fed back one at a time. Step ``t`` samples from the substream
    ``rng.step_stream(seed, t)``, so runs are reproducible given the seed.
    The rollout builds one Philox, the step-0 stream, and re-seats it at
    each step, which gives the same draws as a fresh jumped stream per step.
    The primer's end state comes from the trace builder; the rollout then
    steps that one state in place.
    """
    state = init_state(config) if rollout_cfg.primer is None else _end_state(config, rollout_cfg.primer)
    if rollout_cfg.mode == "sample":
        stream_at = _reseater(step_stream(rollout_cfg.seed, 0))
    out = np.empty((rollout_cfg.horizon, config.n_units), dtype=np.int64)
    for t in range(rollout_cfg.horizon):
        if rollout_cfg.mode == "sample":
            x = sample_step(params, state, config, stream_at(t))
        else:
            x = argmax_step(params, state, config)
        out[t] = x
        if t + 1 < rollout_cfg.horizon:  # nothing reads the state after the last slice
            advance(state, config, x, state)
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
    total_ll, correct = _score(params, config, slices)
    bits = len(slices) * config.n_units
    return PredictionMetrics(
        log_likelihood=total_ll,
        nll_per_bit=-total_ll / bits,
        accuracy=correct / bits,
        steps=len(slices),
    )
