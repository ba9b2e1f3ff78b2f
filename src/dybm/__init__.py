"""Exact online learning and sampling for multi-dimensional binary
time series.

The model assigns each ordered unit pair a conduction delay and a weight
kernel built from geometric decay terms. That structure collapses the
whole history into a fixed set of eligibility traces plus short FIFO
queues, so log-likelihood gradients are exact, updates run in constant
time per connection, and memory stays bounded no matter how long the
series is. A brute-force oracle suite cross-checks every formula at desk
scale.
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
