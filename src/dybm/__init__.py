"""Exact online learning and sampling for multi-dimensional binary
time series.

The model assigns each ordered unit pair a conduction delay and a weight
kernel built from geometric decay terms. That structure collapses the
whole history into a fixed set of eligibility traces plus short FIFO
queues, so log-likelihood gradients are exact and memory stays bounded no
matter how long the series is. The work of one update is constant per
connection and rate except for the near-window trace, which adds up
each source unit's queued lags once per near-window rate (fewer than
twice the distinct (unit, lag, rate) terms, in a few calls per group of
units with similar delays) plus one gather per pair and rate. On a
ring of 256 units with fan-in 8 (2048 pairs) one online step took about
130 us with every delay 1 and 190 us with every delay 16 (2-vCPU Xeon,
Python 3.11, numpy 2.4). A brute-force oracle suite cross-checks every
formula at desk scale.
"""

from .checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig, Parameters, as_time_slice
from .generator import PredictionMetrics, RolloutConfig, eval_prediction, rollout, sample_step
from .learning import (
    Gradient,
    TrainMetrics,
    TrainerConfig,
    TrainingDiverged,
    sequence_gradient,
    sequence_log_likelihood,
    sgd_update,
    step_gradient,
    train,
)
from .model import (
    Footprint,
    TraceState,
    advance,
    beta,
    cond_prob,
    expected_footprint,
    fire_prob,
    fire_probs,
    init_state,
    measured_footprint,
    unit_energy,
)
from .oracle import (
    ExpandedWeights,
    TinyBM,
    bm_exact_gradient,
    bm_prob,
    bm_probs,
    expand_weights,
    fd_gradient,
    naive_fire_prob,
    traces_from_scratch,
    truncation_horizon,
)
from .seriesio import SeriesFormatError, read_series, write_series

__version__ = "0.1.0"
