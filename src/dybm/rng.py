"""Reproducible sampling streams.

All sampling uses the counter-based Philox generator, which produces the
same stream on every platform. The splitting rule: the stream for
generated time step ``t`` is the base stream for the run seed jumped ``t``
times, and within a step the units consume one double each in ascending
unit order. Two runs with the same seed therefore agree bit for bit, and
a step's draws do not depend on how many steps precede it.

A jump is a move of the Philox counter by 2**128, so the stream for step
``t`` is also the base state with its counter advanced by ``t << 128``.
``_reseater`` applies the rule that way: a rollout builds one generator
and re-seats it for every step, which gives the same draws as building a
jumped generator per step at a fraction of the cost.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from .config import _count

__all__ = ["step_stream"]


def step_stream(seed: int, step: int) -> np.random.Generator:
    """Independent substream for one generated time step."""
    step = _count("step", step)
    return _reseater(np.random.Generator(np.random.Philox(seed)))(step)


def _reseater(stream: np.random.Generator) -> Callable[[int], np.random.Generator]:
    """Re-seat ``stream`` at any step of the seed it was built from.

    ``stream`` must hold the seed's base state (as ``step_stream(seed, 0)``
    returns it). The returned function resets the Philox to that state,
    advances its counter by ``step`` jumps and returns ``stream`` itself,
    which then yields exactly the draws of ``step_stream(seed, step)``;
    a re-seat invalidates the stream handed out by the previous one."""
    bit_generator = stream.bit_generator
    base = bit_generator.state

    def at(step: int) -> np.random.Generator:
        bit_generator.state = base
        bit_generator.advance(operator.index(step) << 128)
        return stream

    return at
