#!/usr/bin/env python3
"""Regenerate the committed fixtures under src/dybm/fixtures/.

Deterministic; run it only when the fixture definitions change, then
commit the outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from dybm.fixtures import PERIOD4_CYCLE
from dybm.seriesio import format_series

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "dybm" / "fixtures"

PERIOD4_PERIODS = 8
RANDOM_N3_STEPS = 48
RANDOM_N3_SEED = 71
RANDOM_N3_DENSITY = 0.4


def dense_connectivity(n: int, delay: int) -> list[list[int]]:
    return [[i, j, delay] for i in range(n) for j in range(n)]


def main() -> None:
    period4 = np.tile(PERIOD4_CYCLE, (PERIOD4_PERIODS, 1))
    (FIXTURES / "period4.csv").write_text(format_series(period4), encoding="utf-8")

    rng = np.random.Generator(np.random.Philox(RANDOM_N3_SEED))
    random_n3 = (rng.random((RANDOM_N3_STEPS, 3)) < RANDOM_N3_DENSITY).astype(np.int64)
    (FIXTURES / "random_n3.csv").write_text(format_series(random_n3), encoding="utf-8")

    period4_run = {
        "config": {
            "n_units": 2,
            "temperature": 1.0,
            "lambdas": [0.5],
            "mus": [0.25],
            "connectivity": dense_connectivity(2, 2),
        },
        "trainer": {"mode": "full_batch", "learning_rate": 0.1, "epochs": 500},
    }
    (FIXTURES / "period4_run.json").write_text(
        json.dumps(period4_run, indent=2) + "\n", encoding="utf-8"
    )

    random_n3_run = {
        "config": {
            "n_units": 3,
            "temperature": 1.0,
            "lambdas": [0.5],
            "mus": [0.25],
            "connectivity": dense_connectivity(3, 2),
        },
        "trainer": {"mode": "full_batch", "learning_rate": 0.001, "epochs": 200},
    }
    (FIXTURES / "random_n3_run.json").write_text(
        json.dumps(random_n3_run, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
