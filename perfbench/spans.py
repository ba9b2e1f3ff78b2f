"""Span shims for the traced run.

``installed(tracer)`` replaces the public functions that dybm's modules
call on each other (and that the workloads call) with wrappers that record
a span per call: name, start, end and the enclosing span. The originals are
put back on exit, so an untraced run executes the package unmodified.

A span's self time is its duration minus the durations of its direct
children. Spans are named after the layer (module) that owns the function;
``generator.fire_probs`` is ``model.fire_probs`` as called by the sampler.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import workloads
from dybm import checkpoint, cli, config, generator, learning, rng, seriesio

# The benchmark's own reference kernel runs between operations, sometimes
# inside a package call (from a record sink); its span keeps that time out
# of the enclosing layer's self time.
REFERENCE = "bench.reference"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


class Tracer:
    """Keeps every span in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sizes: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """``fn`` recorded as span ``name``; ``size(args, result)``, when
        given, adds a byte count to the span name's total."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                self.sizes[name] = self.sizes.get(name, 0) + size(args, result)
            return result

        return shim

    def stats(self) -> dict[str, SpanStats]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, SpanStats] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, SpanStats(size=self.sizes.get(name, 0)))
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child[index]
        return out

    def total_without(self, name: str, excluded: set[str]) -> float:
        """Total time of the outermost ``name`` spans, less the time of the
        outermost ``excluded`` spans nested inside them."""
        in_target = [False] * len(self.spans)
        in_excluded = [False] * len(self.spans)
        total = 0.0
        for index, (span, start, end, parent) in enumerate(self.spans):
            target = parent >= 0 and in_target[parent]
            excluded_above = target and in_excluded[parent]
            if span == name and not target:
                total += end - start
            elif span in excluded and target and not excluded_above:
                total -= end - start
            in_target[index] = target or span == name
            in_excluded[index] = target and (excluded_above or span in excluded)
        return total


def _train_with_cli_sink(tracer: Tracer, train):
    """``train`` as the CLI calls it: the CLI's per-epoch record printer is
    CLI work, so it is recorded as a ``cli.train`` span inside the call."""

    @functools.wraps(train)
    def shim(*args, record_sink=None, **kwargs):
        if record_sink is not None:
            record_sink = tracer.wrap("cli.train", record_sink)
        return train(*args, record_sink=record_sink, **kwargs)

    return shim


def _saved_bytes(args, document) -> int:
    return len(document.encode("utf-8"))


def _read_bytes(args, series) -> int:
    return os.path.getsize(args[0])


def _targets(tracer: Tracer):
    """(module, attribute, replacement) for every shimmed call site."""
    wrap = tracer.wrap
    out = []
    for module in (learning, generator):
        out.append((module, "advance", wrap("model.advance", module.advance)))
    out += [
        (learning, "sgd_update", wrap("learning.sgd_update", learning.sgd_update)),
        (learning, "train", wrap("learning.train", learning.train)),
        (cli, "train", wrap("learning.train", _train_with_cli_sink(tracer, cli.train))),
        (generator, "fire_probs", wrap("generator.fire_probs", generator.fire_probs)),
        (generator, "sample_step", wrap("generator.sample_step", generator.sample_step)),
        (generator, "step_stream", wrap("rng.step_stream", rng.step_stream)),
        (generator, "rollout", wrap("generator.rollout", generator.rollout)),
        (generator, "eval_prediction", wrap("generator.eval_prediction", generator.eval_prediction)),
        (cli, "main", wrap("cli.train", cli.main)),
        (workloads, "reference_seconds", wrap(REFERENCE, workloads.reference_seconds)),
    ]
    for module in (checkpoint, cli):
        out.append((module, "save_checkpoint", wrap("checkpoint.save", module.save_checkpoint, _saved_bytes)))
        out.append((module, "load_checkpoint", wrap("checkpoint.load", module.load_checkpoint)))
    for module in (seriesio, cli):
        out.append((module, "read_series", wrap("seriesio.read", module.read_series, _read_bytes)))
    arrays = config.ModelConfig.__dict__["arrays"]
    timed = functools.cached_property(wrap("config.arrays", arrays.func))
    timed.__set_name__(config.ModelConfig, "arrays")
    out.append((config.ModelConfig, "arrays", timed))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route the shimmed call sites through ``tracer`` for the duration."""
    targets = _targets(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
