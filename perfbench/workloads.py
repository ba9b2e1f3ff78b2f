"""The benchmark's three workloads.

Each workload is one closed-loop client: it issues its next operation only
after the previous one returned. A run calls ``setup`` (repeatedly, to
time it), then ``run_pass`` until the time budget is spent, then ``check``
outside the timed section. One pass is a fixed amount of work, so a pass's
wall time is comparable across runs and commits; the operations inside a
pass (one online update, one epoch, one request) are timed from outside.

After every operation an ``OpClock`` times a fixed reference kernel. On a
shared host the CPU speed drifts by up to 2x over tens of seconds, so raw
latencies from two runs are not comparable; latencies divided by the
reference time measured next to them are (see README.md).

Each pass's outputs are compared with the first pass's as soon as the pass
ends, outside its timing, and then dropped: what a run holds does not grow
with the number of passes that fit in the time budget, so ``peak_rss_mb``
does not count a faster package's extra passes as memory.

The package is driven only through its public functions, called through
their modules (``learning.train``, not a bound name) so that the traced run
can put span shims in front of them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dybm import checkpoint, cli, generator, learning, model, seriesio
from dybm.config import ModelConfig, Parameters
from dybm.generator import RolloutConfig
from dybm.learning import TrainerConfig, TrainingDiverged

LN2 = math.log(2.0)


_REF_ROWS = [[k % 2, 1, (k // 2) % 2] for k in range(24)]
_REF_COEFFS = np.array([0.5, 1.0, 1.5])
_REF_INDEX = np.array([0, 1, 2, 0, 1, 2])
_REF_WEIGHTS = np.linspace(-1.0, 1.0, 6)


def reference_seconds() -> float:
    """Time one run of a fixed kernel with the package's mix of per-step
    work: interpreter loops, list shifts, tiny numpy calls (masked sigmoid,
    bincount, a dot product) and a JSON record. It never calls the package,
    so its cost tracks the host's speed and not the code under test."""
    start = time.perf_counter()
    total = 0.0
    for row in _REF_ROWS:
        z = _REF_COEFFS * np.asarray(row, dtype=np.float64) - 0.5
        p = np.empty_like(z)
        pos = z >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        p[~pos] = ez / (1.0 + ez)
        total += float(np.bincount(_REF_INDEX, weights=_REF_WEIGHTS, minlength=3) @ p)
        shifted = [row[0]] + row[:-1]
    json.dumps({"total": total, "row": shifted})
    return time.perf_counter() - start


class OpClock:
    """Times operations from outside; ``tick`` closes the current operation,
    runs the reference kernel, and opens the next operation."""

    def __init__(self) -> None:
        self.op_seconds = array("d")
        self.ref_seconds = array("d")
        self.start = self._opened = time.perf_counter()

    def tick(self) -> None:
        self.op_seconds.append(time.perf_counter() - self._opened)
        self.ref_seconds.append(reference_seconds())
        self._opened = time.perf_counter()

    def done(self, slices: int) -> "Pass":
        wall = time.perf_counter() - self.start - sum(self.ref_seconds)
        return Pass(wall, self.op_seconds, self.ref_seconds, slices)


@dataclass
class Pass:
    """Timing of one pass: wall seconds (reference runs excluded), seconds
    per operation, the reference time measured after each operation, and
    the number of slices the pass pushed through the model."""

    wall: float
    op_seconds: array
    ref_seconds: array
    slices: int


@dataclass
class Audit:
    """What ``check`` found: operations that failed (non-finite value, an
    exception or a failed check), messages for failed whole-run checks, the
    quality result, and a state/parameter pair for the footprint audit."""

    failed_ops: int
    problems: list[str]
    nll_per_bit: float
    config: ModelConfig
    state: model.TraceState
    params: Parameters


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def wide_config(n_units: int, fan_in: int) -> ModelConfig:
    """Ring network: unit j listens to its ``fan_in`` predecessors, with
    delays cycling over 1..4 so a quarter of the pairs (delay 1) have
    empty queues. Two decay rates on each side."""
    delays = {
        ((j - r) % n_units, j): 1 + (r - 1) % 4
        for j in range(n_units)
        for r in range(1, fan_in + 1)
    }
    return ModelConfig(n_units, (0.5, 0.8), (0.5, 0.8), delays)


def _same_params(a: Parameters | None, b: Parameters | None) -> bool:
    if a is None or b is None:
        return a is b
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("bias", "u", "v"))


def _digest(a: np.ndarray | None) -> str | None:
    return None if a is None else hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _write_in_place(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, over the old bytes when the file exists.
    Repeated set-ups write the same inputs, so they reuse the file's cached
    pages: truncating and allocating them again cost 0.05 to 4 ms a file on
    a shared host, depending on the host's memory pressure."""
    with open(path, "r+" if path.exists() else "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.truncate()


def _absorb(config: ModelConfig, series) -> model.TraceState:
    state = model.init_state(config)
    for x in series:
        state = model.advance(state, config, x)
    return state


class OnlineWide:
    """Online training, one update per slice, on a wide sparse network.

    One pass is one ``train`` call over a seeded Bernoulli(0.2) series from
    zero parameters, so every pass must reproduce the first bit for bit.
    The quality result is the prequential NLL per bit of a pass (each slice
    scored before the model learns from it)."""

    name = "online_wide"
    LEARNING_RATE = 1e-2
    DENSITY = 0.2

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_units, self.fan_in, self.steps = (16, 4, 24) if tiny else (256, 8, 300)

    def setup(self, workdir: Path) -> None:
        self.config = wide_config(self.n_units, self.fan_in)
        self.config.arrays  # derived tables are part of set-up, not of the first update
        self.series = (
            _rng(self.seed).random((self.steps, self.n_units)) < self.DENSITY
        ).astype(np.int64)
        self.trainer = TrainerConfig(self.LEARNING_RATE, epochs=1, mode="online")
        self.first: tuple[Parameters | None, list[float]] | None = None
        self.passes, self.failed, self.problems = 0, 0, []

    @property
    def train_slices(self) -> int:
        return self.steps

    def run_pass(self) -> Pass:
        clock = OpClock()
        try:
            params, metrics = learning.train(
                Parameters.zeros(self.config),
                self.config,
                [self.series],
                self.trainer,
                record_sink=lambda rec: clock.tick(),
            )
            step_nll = metrics.step_nll
        except (ValueError, TrainingDiverged):  # counted as failed steps below
            params, step_nll = None, [math.nan] * self.steps
        timing = clock.done(self.steps)
        bad = sum(not math.isfinite(v) for v in step_nll)
        if self.first is None:
            self.first = (params, step_nll)
        elif step_nll != self.first[1] or not _same_params(params, self.first[0]):
            self.problems.append(f"pass {self.passes} did not reproduce pass 0")
            bad = self.steps
        self.failed += bad
        self.passes += 1
        return timing

    def _params(self) -> Parameters:
        """The first pass's parameters (zeros if it failed, which is counted)."""
        params = self.first[0]
        return Parameters.zeros(self.config) if params is None else params

    def check(self) -> Audit:
        problems = list(self.problems)
        nll_per_bit = sum(self.first[1]) / (self.steps * self.n_units)
        if not nll_per_bit < LN2:
            problems.append(f"nll_per_bit {nll_per_bit} is not below ln 2")
        state = _absorb(self.config, self.series)
        return Audit(self.failed, problems, nll_per_bit, self.config, state, self._params())

    def warm(self):
        """Trained parameters, a state warmed on the series, and the next slice."""
        half = self.steps // 2
        return self._params(), _absorb(self.config, self.series[:half]), self.series[half]


class _ClockedLines(io.TextIOBase):
    """Text sink that keeps each complete line and ticks ``clock`` as it
    is written."""

    def __init__(self, clock: OpClock) -> None:
        self.lines: list[str] = []
        self.clock = clock
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.clock.tick()
            self.lines.append(line)
        return len(text)


class FullbatchSmall:
    """``dybm train`` in full-batch mode, run in-process through
    ``cli.main``, on a few short series over a tiny dense network (the shape
    of the bundled random_n3 fixture).

    One pass is one CLI invocation: it reads the CSVs, trains for ``epochs``
    epochs, printing one JSON record per epoch, and writes a checkpoint. An
    operation is one epoch, timed by clocking each record as it is written.
    """

    name = "fullbatch_small"
    LEARNING_RATE = 1e-3
    DENSITY = 0.4

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_units = 3
        self.n_series, self.steps, self.epochs = (2, 8, 6) if tiny else (4, 48, 150)

    def setup(self, workdir: Path) -> None:
        self.config = ModelConfig.dense(self.n_units, lambdas=(0.5,), mus=(0.25,), delay=2)
        run = {
            "config": {
                "n_units": self.n_units,
                "temperature": 1.0,
                "lambdas": list(self.config.lambdas),
                "mus": list(self.config.mus),
                "connectivity": [[i, j, d] for (i, j), d in sorted(self.config.delays.items())],
            },
            "trainer": {
                "mode": "full_batch",
                "learning_rate": self.LEARNING_RATE,
                "epochs": self.epochs,
            },
        }
        self.run_path = workdir / "fullbatch_run.json"
        _write_in_place(self.run_path, json.dumps(run))
        rng = _rng(self.seed)
        self.dataset = []
        self.csv_paths = []
        for k in range(self.n_series):
            series = (rng.random((self.steps, self.n_units)) < self.DENSITY).astype(np.int64)
            path = workdir / f"fullbatch_{k}.csv"
            _write_in_place(path, seriesio.format_series(series))
            self.dataset.append(series)
            self.csv_paths.append(str(path))
        self.out_path = workdir / "fullbatch_model.json"
        self.first_doc: str | None = None
        self.passes, self.failed, self.problems = 0, 0, []

    @property
    def train_slices(self) -> int:
        return self.epochs * self.n_series * self.steps

    def run_pass(self) -> Pass:
        argv = ["train", str(self.run_path), *self.csv_paths, "--out", str(self.out_path)]
        clock = OpClock()
        lines = _ClockedLines(clock)
        with redirect_stdout(lines), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        timing = clock.done(self.train_slices)
        self._check_pass(code, lines.lines)
        self.passes += 1
        return timing

    def _check_pass(self, code: int, lines: list[str]) -> None:
        k = self.passes
        if code != 0 or len(lines) != self.epochs:
            self.problems.append(f"pass {k}: exit code {code}, {len(lines)} epoch records")
            self.failed += self.epochs
            return
        doc = self.out_path.read_text(encoding="utf-8")
        ll = [json.loads(line)["log_likelihood"] for line in lines]
        # The objective is concave and the rate small, so no epoch may
        # lose likelihood beyond float rounding of the sum.
        self.failed += sum(
            not math.isfinite(b) or (e > 0 and b < ll[e - 1] - 1e-9 * abs(ll[e - 1]))
            for e, b in enumerate(ll)
        )
        if self.first_doc is None:
            self.first_doc = doc
        elif doc != self.first_doc:
            self.problems.append(f"pass {k}: checkpoint differs from pass 0")

    def check(self) -> Audit:
        failed, problems = self.failed, list(self.problems)
        params, config, _ = checkpoint.load_checkpoint(self.first_doc)
        if checkpoint.save_checkpoint(params, config) != self.first_doc:
            problems.append("reloaded checkpoint does not re-save byte for byte")
        ll = sum(learning.sequence_log_likelihood(params, config, s) for s in self.dataset)
        nll_per_bit = -ll / (self.n_series * self.steps * self.n_units)
        if not nll_per_bit < LN2:
            problems.append(f"nll_per_bit {nll_per_bit} is not below ln 2")
        return Audit(failed, problems, nll_per_bit, config, _absorb(config, self.dataset[0]), params)

    def warm(self):
        params, config, _ = checkpoint.load_checkpoint(self.first_doc)
        series = self.dataset[0]
        half = self.steps // 2
        return params, _absorb(config, series[:half]), series[half]


class InferWide:
    """A forecasting service on the online_wide network shape.

    Set-up saves and reloads a seeded teacher checkpoint and samples a
    held-out series from it. Each request scores a window of that series
    with ``eval_prediction`` and continues it with a sample-mode
    ``rollout`` primed on the window. One pass is ``requests`` requests."""

    name = "infer_wide"
    BIAS = -1.4
    WEIGHT_SCALE = 0.03
    train_slices = 0  # serving never trains

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        if tiny:
            self.n_units, self.fan_in, self.heldout, self.window, self.horizon, self.requests = (
                16, 4, 12, 4, 4, 3,
            )
        else:
            self.n_units, self.fan_in, self.heldout, self.window, self.horizon, self.requests = (
                256, 8, 64, 4, 4, 40,
            )

    def setup(self, workdir: Path) -> None:
        config = wide_config(self.n_units, self.fan_in)
        rng = _rng(self.seed)
        teacher = Parameters(
            bias=np.full(config.n_units, self.BIAS),
            u=self.WEIGHT_SCALE * rng.random((config.n_pairs, config.n_lambda)) * 2.0,
            v=self.WEIGHT_SCALE * rng.standard_normal((config.n_pairs, config.n_mu)),
        )
        path = workdir / "teacher.json"
        _write_in_place(path, checkpoint.save_checkpoint(teacher, config))
        self.params, self.config, _ = checkpoint.load_checkpoint(path.read_text(encoding="utf-8"))
        self.series = generator.rollout(
            self.params, self.config, RolloutConfig(self.heldout, "sample", seed=self.seed)
        )
        self.served, self.failed = 0, 0
        self.first_ll: list[float] = []  # the first pass's eval log-likelihoods
        # each pass's first request, with a digest of its rollout, to replay
        self.replays: list[tuple[int, float, str | None]] = []

    def _request(self, r: int):
        offset = (r * 5) % (self.heldout - self.window + 1)
        window = self.series[offset : offset + self.window]
        scores = generator.eval_prediction(self.params, self.config, window)
        cfg = RolloutConfig(self.horizon, "sample", seed=self.seed * 1_000_000 + r, primer=window)
        return window, scores.log_likelihood, generator.rollout(self.params, self.config, cfg)

    def run_pass(self) -> Pass:
        clock = OpClock()
        outcomes = []
        for r in range(self.served, self.served + self.requests):
            try:
                _, ll, out = self._request(r)
            except ValueError:  # counted as a failed request
                ll, out = math.nan, None
            clock.tick()
            outcomes.append((ll, out))
        timing = clock.done(self.requests * (2 * self.window + self.horizon))
        ll, out = outcomes[0]
        self.replays.append((self.served, ll, _digest(out)))
        if not self.served:
            self.first_ll = [ll for ll, _ in outcomes]
        self.failed += sum(not math.isfinite(ll) for ll, _ in outcomes)
        self.served += self.requests
        return timing

    def _replay_fails(self, r: int, ll: float, digest: str | None) -> bool:
        """Rerun request ``r``: it must reproduce bit for bit, and its eval
        log-likelihood must equal the chained sum of ``cond_prob`` logs."""
        window, ll2, out2 = self._request(r)
        state = model.init_state(self.config)
        chained = 0.0
        for x in window:
            chained += model.cond_prob(self.params, state, self.config, x)[1]
            state = model.advance(state, self.config, x)
        return ll2 != ll or _digest(out2) != digest or abs(chained - ll) > 1e-9 * max(1.0, abs(ll))

    def check(self) -> Audit:
        # non-finite requests are already counted; finite replayed ones are checked here
        failed, problems = self.failed, []
        failed += sum(math.isfinite(ll) and self._replay_fails(r, ll, digest) for r, ll, digest in self.replays)
        nll_per_bit = -sum(self.first_ll) / (self.requests * self.window * self.n_units)
        if not nll_per_bit < LN2:
            problems.append(f"nll_per_bit {nll_per_bit} is not below ln 2")
        return Audit(failed, problems, nll_per_bit, self.config, _absorb(self.config, self.series), self.params)

    def warm(self):
        half = self.heldout // 2
        return self.params, _absorb(self.config, self.series[:half]), self.series[half]


WORKLOADS = {w.name: w for w in (OnlineWide, FullbatchSmall, InferWide)}
