"""Reproducible sampling streams.

All sampling uses the counter-based Philox generator, which produces the
same stream on every platform. The splitting rule: the stream for
generated time step ``t`` is the base stream for the run seed jumped ``t``
times, and within a step the units consume one double each in ascending
unit order. Two runs with the same seed therefore agree bit for bit, and
a step's draws do not depend on how many steps precede it.

A jump moves the Philox counter by 2**128 from the base state's zero, so
step ``t``'s stream has ``t`` mod 2**128 in the counter's two high words.
``_reseater`` applies the rule that way: a rollout builds one generator
and seats it at each step with one state assignment, which gives the
same draws as a jumped generator per step at a fraction of the cost.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .config import _count

__all__ = ["step_stream"]


def step_stream(seed: int, step: int) -> np.random.Generator:
    """Independent substream for one generated time step."""
    seed, step = _count("seed", seed), _count("step", step)
    return _reseater(np.random.Generator(np.random.Philox(seed)))(step)


def _reseater(stream: np.random.Generator) -> Callable[[int], np.random.Generator]:
    """Re-seat ``stream`` at any step of the seed it was built from.

    ``stream`` must hold the seed's base state (as ``step_stream(seed, 0)``
    returns it). The returned function writes ``step`` into the saved base
    state's counter, ``[0, 0, step mod 2**64, (step >> 64) mod 2**64]``,
    assigns that state and returns ``stream`` itself, which then yields
    exactly the draws of ``step_stream(seed, step)``; a re-seat invalidates
    the stream handed out by the previous one."""
    bit_generator = stream.bit_generator
    base = bit_generator.state
    counter = base["state"]["counter"]

    def at(step: int) -> np.random.Generator:
        counter[3], counter[2] = divmod(operator.index(step) % (1 << 128), 1 << 64)
        bit_generator.state = base
        return stream

    return at
