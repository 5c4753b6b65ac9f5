#!/usr/bin/env python3
"""Rewrite bench/pins.json: output fingerprints of the first scenarios at the
default seed, which every run at that seed must reproduce.

    python3 bench/pin.py

Only a change that alters finite outputs on purpose reruns this, and says why.
Continuous traces are not pinned: their witnesses depend on the solver.
"""

from __future__ import annotations

import json

import run

PINNED = ("finite_run", "explore_finite")
COUNT = 40  # below run.MIN_SAMPLES, so every run at the default seed checks all


def main() -> None:
    run.import_program()
    import workloads

    pins = {"seed": run.DEFAULT_SEED}
    for name in PINNED:
        pins[name] = [
            workloads.fingerprint(
                name, workloads.execute(name, *workloads.scenario_doc(name, run.DEFAULT_SEED, i))[2]
            )
            for i in range(COUNT)
        ]
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
