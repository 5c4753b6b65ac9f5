#!/usr/bin/env python3
"""delibsim benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload finite_run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The loop submits each generated scenario only after the previous
one returns, from a single thread, until ``--seconds`` of timed work and at
least ``MIN_SAMPLES`` scenarios are done.  Output checks run between
scenarios, outside the timed section.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then a traced pass over the first ``TRACED_BLOCKS`` blocks of
scenarios with spans around every layer, and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("finite_run", "continuous_run", "explore_finite")
DEFAULT_SEED = 1
HASH_SEED = "0"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"

MIN_SAMPLES = 100
TAIL_PERCENTILE = 90  # MIN_SAMPLES keeps at least ten scenarios beyond it
SETUP_REPEATS = 5
TRACED_BLOCKS = 2
DEADLINE_S = 150.0  # stop submitting scenarios here, whatever the targets

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import delibsim, delibsim.cli\n"
    "print(time.perf_counter() - start, delibsim.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> None:
    """Import delibsim from this checkout's sources, and nowhere else."""
    if not (SRC / "delibsim" / "__init__.py").is_file():
        raise BenchError(f"no delibsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import delibsim

    if not Path(delibsim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"delibsim imported from {delibsim.__file__}, not from {SRC}")


def measure_setup() -> list[float]:
    """Seconds to import delibsim and its dependencies, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise BenchError(f"child imported delibsim from {where}")
        samples.append(float(seconds))
    return samples


class Loop:
    """Closed loop over the seeded scenario stream of one workload."""

    def __init__(self, workloads, name: str, seed: int, pins: list[str], deadline: float):
        self.w, self.name, self.seed, self.pins, self.deadline = workloads, name, seed, pins, deadline
        self.latencies: list[float] = []
        self.fingerprints: list[str | None] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _fail(self, index: int, what: str) -> None:
        self.failed += 1
        self.problems.append(f"scenario {index}: {what}")

    def _timed(self, index: int):
        doc = self.w.scenario_doc(self.name, self.seed, index)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.w.execute(self.name, *doc)
        except Exception as exc:  # any raise is a failed scenario
            result = None
            self._fail(index, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, result

    def untraced(self, seconds: float, min_samples: int = MIN_SAMPLES) -> None:
        # One untimed scenario first, so one-time lazy set-up is not timed.
        try:
            self.w.execute(self.name, *self.w.scenario_doc(self.name, self.seed, 0))
        except Exception:
            pass  # scenario 0 runs again below, where its failure counts
        index = 0
        while (sum(self.latencies) < seconds or index < min_samples) and time.monotonic() < self.deadline:
            elapsed, result = self._timed(index)
            self.latencies.append(elapsed)
            fingerprint = None
            if result is not None:
                space, initial, outputs = result
                fingerprint = self.w.fingerprint(self.name, outputs)
                try:
                    problems = self.w.check(self.name, space, initial, outputs)
                except Exception as exc:  # a check that cannot run fails the scenario
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if index < len(self.pins) and self.pins[index] != fingerprint:
                    problems.append(f"output {fingerprint} differs from the pinned {self.pins[index]}")
                if problems:
                    self._fail(index, "; ".join(problems[:3]))
            self.fingerprints.append(fingerprint)
            index += 1

    def traced(self, tracer, count: int) -> float:
        """Re-run the first ``count`` scenarios under the tracer; returns the
        traced wall time.  Outputs must match the untraced pass."""
        wall = 0.0
        tracer.install()
        try:
            for index in range(min(count, len(self.fingerprints))):
                if time.monotonic() >= self.deadline:
                    break
                elapsed, result = self._timed(index)
                wall += elapsed
                if result is not None:
                    fingerprint = self.w.fingerprint(self.name, result[2])
                    if fingerprint != self.fingerprints[index]:
                        self._fail(index, "traced output differs from the untraced output")
        finally:
            tracer.uninstall()
        return wall


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    lat_ms = [x * 1000.0 for x in loop.latencies]
    percentiles = statistics.quantiles(lat_ms, n=100)
    return {
        "scenarios_per_s": {"value": len(lat_ms) / (sum(lat_ms) / 1000.0), "unit": "1/s"},
        "scenario_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
        "scenario_ms_tail": {"value": percentiles[TAIL_PERCENTILE - 1], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        import_program()
        setup = [] if args.trace else measure_setup()
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    pins = json.loads(PINS.read_text())
    seed_pins = pins.get(args.workload, []) if args.seed == pins["seed"] else []
    loop = Loop(workloads, args.workload, args.seed, seed_pins, deadline)
    loop.untraced(args.seconds)
    if args.trace:
        count = TRACED_BLOCKS * len(workloads.strata(args.workload))
        tracer = tracing.Tracer()
        traced_wall = loop.traced(tracer, count)
        metrics = tracer.metrics(traced_wall, sum(loop.latencies[:count]))
    else:
        metrics = end_to_end(loop, setup)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(loop.latencies)} scenarios untraced, "
          f"tail = p{TAIL_PERCENTILE}, error_rate {loop.failed / loop.attempted:.4f} "
          f"({loop.failed} of {loop.attempted})")
    for problem in loop.problems[:10]:
        print("FAILED " + problem)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # Pinned before numpy loads, here and in every child process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Set iteration order decides where approval scans short-circuit, so the
    # per-layer counts repeat exactly only under a fixed hash seed.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
