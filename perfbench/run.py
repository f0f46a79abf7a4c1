"""quadstage benchmark: one workload, one seed, traced or untraced.

    python3 perfbench/run.py --workload sine_default --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md in
this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_REPS = 3
MIN_TRACE_REPS = 2

# Reported with --trace 0; BENCHMARK.json lists the same names.
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def cap_blas_threads() -> dict:
    """Cap BLAS thread pools at the CPUs this process may use.  Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc + 1
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_program() -> dict:
    """The quadstage modules, imported from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "quadstage", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/quadstage")
    sys.path.insert(0, SRC)
    import quadstage
    import quadstage.cli

    if os.path.dirname(os.path.abspath(quadstage.__file__)) != os.path.join(SRC, "quadstage"):
        raise SystemExit(f"perfbench: quadstage imported from {quadstage.__file__}, not {SRC}")
    names = ("cli", "config", "kinematics", "geometry", "simenv", "postprocess", "logio")
    return {name: getattr(quadstage, name) for name in names}


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(blas: dict) -> dict:
    import numpy
    import scipy

    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + data)
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "machine": platform.machine(),
    }


def measure_untraced(workload, args, tally) -> tuple[dict, list]:
    from measure import peak_rss_mb, run_reps, setup_seconds, tail_percentile, warm_up
    from speed import NOMINAL_KERNEL_S, Sampler

    setup = setup_seconds(SRC, workload.setup_argv(), SETUP_SAMPLES)
    warm_up(workload, tally)
    sampler = Sampler()
    walls = run_reps(workload, tally, args.seconds, MIN_REPS, sampler=sampler)
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else f"no tail percentile ({len(walls)} samples, needs 11)")
    lines = [
        f"wall_s       median {median(walls):.4f} s over {len(walls)} samples, {tail_text}; "
        f"input {workload.input_size}; at nominal machine speed",
        f"raw wall     median {median(sampler.raw):.4f} s; reference kernel median "
        f"{1e6 * median(sampler.kernel_means):.1f} us per run, nominal {1e6 * NOMINAL_KERNEL_S:.1f} us",
        f"setup_s      median {median(setup):.4f} s over {len(setup)} fresh interpreters, "
        "at nominal machine speed",
        f"peak_rss_mb  {peak_rss_mb():.1f} MB",
        "wall samples " + " ".join(f"{w:.4f}" for w in walls),
        "raw samples  " + " ".join(f"{w:.4f}" for w in sampler.raw),
    ]
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, lines


def measure_traced(workload, args, tally, modules, tracer_out) -> tuple[dict, list]:
    from layers import REPORTED, RepView, layer_metrics, targets
    from measure import run_reps, warm_up
    from spans import Tracer, layer_of, rollup, write_csv

    warm_up(workload, tally)
    untraced = run_reps(workload, tally, args.seconds / 2, MIN_TRACE_REPS)
    tracer = Tracer()

    def traced_rep(rep):
        tracer.rep = rep
        return tracer.span("bench.rep")

    for owner, attr, name, counter in targets(modules):
        tracer.install(owner, attr, name, counter)
    try:
        traced = run_reps(workload, tally, args.seconds / 2, MIN_TRACE_REPS, around=traced_rep)
    finally:
        tracer.uninstall()

    table = rollup(tracer.spans)
    counts = {}
    for (rep, name), value in tracer.counts.items():
        counts.setdefault(rep, {})[name] = value
    views = [RepView(table[rep], counts.get(rep, {})) for rep in sorted(table)]
    every = layer_metrics(views)
    overhead = median(traced) - median(untraced)
    every["trace.overhead_s"] = (overhead, "s")
    metrics = {name: every[name] for name, _, _ in REPORTED}
    metrics["trace.overhead_s"] = every["trace.overhead_s"]

    lines = [f"traced {len(views)} repetitions, untraced {len(untraced)}; "
             f"trace.overhead_s {overhead:.4f} s (traced wall {median(traced):.4f} s, "
             f"untraced {median(untraced):.4f} s)"]
    stages = sum(v.total(f"cli.{s}") for v in views for s in ("gen", "ik", "sim", "post"))
    if stages:
        walls = sum(v.total("bench.rep") for v in views)
        lines.append(f"cli stages cover {100.0 * stages / walls:.1f}% of the traced wall time")
    for name, (value, unit) in every.items():
        lines.append(f"metric {name:45s} {value:.6g} {unit}")
    layer_self = {}
    for view in views:
        for name, row in view.names.items():
            layer_self.setdefault(layer_of(name), []).append(row[2])
    for layer, values in sorted(layer_self.items()):
        lines.append(f"self time {layer:12s} {sum(values) / len(views):.4f} s per repetition")
    for name in sorted({name for view in views for name in view.names}):
        rows = [view.names[name] for view in views if name in view.names]
        calls, incl, own = (sum(r[i] for r in rows) / len(views) for i in range(3))
        lines.append(f"span {name:40s} calls {calls:10.1f} incl {incl:.4f} s self {own:.4f} s "
                     "per repetition")
    os.makedirs(OUT_DIR, exist_ok=True)
    write_csv(tracer_out, tracer.spans, tracer.spans[0][1] if tracer.spans else 0.0)
    lines.append(f"spans written to {os.path.relpath(tracer_out, ROOT)}")
    return metrics, lines


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per phase (a traced run splits it in two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    blas = cap_blas_threads()
    args = parse_args(argv)
    modules = import_program()
    from measure import Tally
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tally = Tally()
    started = time.perf_counter()
    try:
        workload.prepare(modules, work_dir, args.seed)
        if args.trace:
            out = os.path.join(OUT_DIR, f"trace_{workload.name}.csv")
            metrics, lines = measure_traced(workload, args, tally, modules, out)
        else:
            metrics, lines = measure_untraced(workload, args, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    if workload.kind == "scan":
        print(f"recorded outcome counts of this seed's sweep: {workload.counts}")
    for line in lines:
        print(line)
    ratio = tally.failed / tally.attempted
    print(f"fail_ratio   {ratio:.4f} ({tally.failed} of {tally.attempted} repetitions failed)")
    for reason in tally.reasons[:5]:
        print(f"failure: {reason}")
    print(f"elapsed {time.perf_counter() - started:.1f} s")
    print("provenance " + json.dumps(provenance(blas), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
