"""Regenerate ``reference_profile.json``, the solver check of the cli_small workload.

The reference is the mean student-proposing DA match profile of a few
n = 10^5 markets with the solver workload's parameters.  Run from the
repository root:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = {"n": 100_000, "k": 5, "delta": 2.0, "m_ratio": 1.0, "capacity": 1}
ROOT_SEED = 20161228
MARKETS = 4


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    from admitsim import (
        MarketConfig,
        SignalSpec,
        child_seed,
        rank_profile,
        sample_market,
        student_proposing_da,
    )

    profiles = []
    for i in range(MARKETS):
        config = MarketConfig(
            n=CONFIG["n"], m_ratio=CONFIG["m_ratio"], capacity=CONFIG["capacity"],
            k=CONFIG["k"], signal=SignalSpec.gaussian(CONFIG["delta"]),
            seed=child_seed(ROOT_SEED, i),
        )
        instance = sample_market(config)
        profiles.append(rank_profile(instance, student_proposing_da(instance)).fractions())
    reference = {
        "config": CONFIG,
        "root_seed": ROOT_SEED,
        "markets": MARKETS,
        "side": "student-proposing",
        "match_fractions": [round(float(v), 6) for v in np.mean(profiles, axis=0)],
    }
    (HERE / "reference_profile.json").write_text(
        json.dumps(reference, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
