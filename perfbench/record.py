"""Record the references the benchmark checks outputs against.

    python3 perfbench/record.py

Writes perfbench/scan_labels.txt (the outcome of every workspace_scan pool
pose) and prints each pipeline workload's report.txt pose RMSE, to be
pasted into its definition in workloads.py.  Run it only when a change is
meant to alter the program's results, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    run.cap_blas_threads()
    modules = run.import_program()
    import workloads

    limits = modules["config"].default_config().limits
    pool = workloads.scan_pool(limits)
    kin = modules["kinematics"]
    poses = [kin.PlatformPose(p[:3], p[3:]) for p in pool]
    letters, _ = workloads.sweep(modules, poses)
    workloads.write_labels(workloads.SCAN_LABELS_FILE, workloads.pool_digest(pool), letters)
    print(f"wrote {workloads.SCAN_LABELS_FILE}: {workloads.class_counts(letters)}")

    os.makedirs(run.OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    try:
        for workload in workloads.WORKLOADS.values():
            if workload.kind != "pipeline":
                continue
            workload.prepare(modules, work_dir, seed=0)
            status, runs_root, run_dir, stderr = workload.run(0)
            if status != 0:
                print(f"{workload.name}: exit status {status}\n{stderr}", file=sys.stderr)
                return 1
            with open(os.path.join(run_dir, "report.txt"), encoding="utf-8") as fh:
                rmse = workloads.parse_pose_rmse(fh.read())
            print(f"{workload.name} reference_rmse:")
            for key in workloads.REPORT_POSE_KEYS:
                print(f'    "{key}": {rmse[key]!r},')
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
