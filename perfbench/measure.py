"""Repetition loop, failure accounting and summary statistics."""

from __future__ import annotations

import contextlib
import gc
import resource
import os
import subprocess
import sys
import time

from speed import scaled

HERE = os.path.dirname(os.path.abspath(__file__))

# Runs in a fresh interpreter: import the package and build the workload's
# config under the machine-speed sampler, then say so with the sampler's
# figures.  argv: src directory, this directory, then the CLI arguments of
# a pipeline run, or nothing for library use (default config).
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import speed
with speed.Sampler() as sampler:
    import quadstage
    import quadstage.cli as cli
    argv = sys.argv[3:]
    cfg = cli.effective_config(cli.build_parser().parse_args(argv)) if argv else quadstage.config.default_config()
samples = sampler.samples or [speed.timed_kernel()]
sys.stdout.write(f"ready {sampler.spent!r} {sum(samples) / len(samples)!r}\\n")
sys.stdout.flush()
"""


class Tally:
    """Attempted and failed repetitions; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return reason is None


def run_reps(workload, tally: Tally, seconds: float, min_reps: int, first_rep: int = 0,
             around=None, sampler=None) -> list[float]:
    """Repeat the workload for at least `seconds` and `min_reps` times.

    Returns the wall time of every passing repetition (of every repetition
    if none passed).  Each repetition is checked after it is timed; around,
    if given, is a context-manager factory taking the repetition number,
    entered outside the timed region.  sampler, if given, is a
    speed.Sampler: each repetition runs under it and its time is returned
    at nominal machine speed.
    """
    passed, every = [], []
    start = time.perf_counter()
    rep = first_rep
    while rep - first_rep < min_reps or time.perf_counter() - start < seconds:
        gc.collect()
        with around(rep) if around else contextlib.nullcontext():
            with sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    outcome, error = workload.run(rep), None
                except Exception as err:  # noqa: BLE001 - a raising repetition is a failure
                    outcome, error = None, f"{type(err).__name__}: {err}"
                elapsed = time.perf_counter() - t0
            if sampler:
                elapsed = sampler.normalise(elapsed)
        reason = error if error else _checked(workload, outcome)
        every.append(elapsed)
        if tally.record(reason):
            passed.append(elapsed)
        rep += 1
    return passed or every


def _checked(workload, outcome) -> str | None:
    try:
        return workload.check(outcome)
    except Exception as err:  # noqa: BLE001 - an unreadable output is a failure
        return f"check raised {type(err).__name__}: {err}"


def warm_up(workload, tally: Tally) -> None:
    """One checked repetition whose time is discarded."""
    run_reps(workload, tally, seconds=0.0, min_reps=1, first_rep=-1)


def setup_seconds(src_dir: str, argv: list, samples: int) -> list[float]:
    """Fresh-interpreter time to an imported package and a built config,
    at nominal machine speed (see speed.py)."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, src_dir, HERE, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-300:]}")
        times.append(scaled(t1 - t0, float(fields[1]), float(fields[2])))
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value), where value is the k-th smallest sample
    with n - k >= 10 samples above it, or None below eleven samples.
    """
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]
