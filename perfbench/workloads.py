"""The benchmark's workloads, why each was chosen, and their output checks.

Every workload runs in one process, sequentially, with no other load.
A repetition is one complete use of the program; a repetition fails when
it raises, exits non-zero or fails its output check, and stays counted.

Left out on purpose:

* ``quadstage all --profile sim`` (240 Hz): it fails at ``ik`` today with
  "timestamps must increase in constant steps of dt", because ``logio``
  writes ``t`` with 9 significant digits and the trajectory reader checks
  the steps to 1e-12.  A workload on which the program fails measures
  nothing.
* The continuous-yaw circular run (``rotation_mode = continuous``,
  ``rot_max = 180``, ``radius = 0``): it reports a wrong
  ``rotation_z_deg`` RMSE (22.5 deg while every joint RMSE is below 1 deg)
  because Euler angles are filtered, differentiated and subtracted raw
  across the +/-180 deg wrap.  Its reference RMSE would record the defect.

Both are ROADMAP item 2.  Adding either as a workload is its own change,
after the fix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Artifact names the README documents for runs/<id>/.
EXPECTED_ARTIFACTS = frozenset(
    ["config_snapshot.cfg", "trajectory.csv", "joint_targets.csv", "sim_log.csv", "report.txt"]
    + [
        f"plot_{kind}_{axis}.csv"
        for kind in ("translation", "rotation", "lin_vel", "ang_vel", "lin_acc", "ang_acc")
        for axis in "xyz"
    ]
)

REPORT_POSE_KEYS = (
    "translation_x_mm", "translation_y_mm", "translation_z_mm", "translation_avg_mm",
    "rotation_x_deg", "rotation_y_deg", "rotation_z_deg", "rotation_avg_deg",
)

# Pose RMSE may differ from the reference by this much.  The report prints
# 9 significant digits, and ROADMAP item 3 allows last-bit changes, which
# can move the ninth digit; 1e-6 relative is a thousand times that and
# still far below any real change in tracking.  The absolute term covers
# the rotation RMSE of translation-only runs, which is round-off (~1e-14).
RMSE_RTOL = 1e-6
RMSE_ATOL = 1e-9

# Acceptance criterion 4, full 6-DoF poses with z_offset_mode = platform.
RECON_POS_TOL_MM = 1e-6
RECON_ROT_TOL_DEG = 0.01

README_OVERRIDE = """\
[trajectory]
type = circular
radius = 20.0
rot_angle_deg = 10.0
rounds = 20
circle_frequency = 2.0
direction = cw

[sim]
payload_mass = 1.2
gravity_compensation = true
"""


def file_digests(run_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def parse_pose_rmse(text: str) -> dict:
    """key -> value of the [pose_rmse] block of report.txt."""
    values, inside = {}, False
    for line in text.splitlines():
        if line.startswith("["):
            inside = line == "[pose_rmse]"
        elif inside and "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    return values


def rmse_mismatch(found: dict, reference: dict) -> str | None:
    for key in REPORT_POSE_KEYS:
        if key not in found:
            return f"report.txt has no {key}"
        ref = reference[key]
        if abs(found[key] - ref) > RMSE_RTOL * abs(ref) + RMSE_ATOL:
            return f"report.txt {key} = {found[key]!r}, reference {ref!r}"
    return None


class PipelineWorkload:
    """``quadstage.cli.main(["all", ...])`` into a fresh runs root.

    The inputs are fixed by the workload's definition; the seed only names
    the run directories.
    """

    kind = "pipeline"

    def __init__(self, name, why, override, samples, reference_rmse):
        self.name = name
        self.why = why
        self.override = override
        self.samples = samples
        self.reference_rmse = reference_rmse
        self.input_size = f"{samples} samples at 1 kHz"

    def cli_args(self) -> list:
        return ["all"] + (["--config", self.config_path] if self.config_path else [])

    def prepare(self, modules, work_dir: str, seed: int) -> None:
        self.cli = modules["cli"]
        self.work_dir = work_dir
        self.seed = seed
        self.config_path = None
        if self.override:
            self.config_path = os.path.join(work_dir, f"{self.name}.cfg")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                fh.write(self.override)
        self.reference_digests = None

    def setup_argv(self) -> list:
        """Arguments for the set-up probe: the CLI arguments of the run."""
        return self.cli_args()

    def run(self, rep: int):
        runs_root = tempfile.mkdtemp(prefix="runs-", dir=self.work_dir)
        run_id = f"{self.name}-seed{self.seed}-rep{rep}"
        stderr = io.StringIO()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(stderr):
            status = self.cli.main(
                self.cli_args() + ["--run-id", run_id, "--runs-root", runs_root]
            )
        return status, runs_root, os.path.join(runs_root, run_id), stderr.getvalue()

    def check(self, outcome) -> str | None:
        status, runs_root, run_dir, stderr = outcome
        try:
            return self._check_run_dir(status, run_dir, stderr)
        finally:
            shutil.rmtree(runs_root, ignore_errors=True)

    def _check_run_dir(self, status, run_dir, stderr) -> str | None:
        if status != 0:
            return f"exit status {status}: {stderr.strip()[-300:]}"
        names = set(os.listdir(run_dir))
        if names != EXPECTED_ARTIFACTS:
            return (f"artifact set differs: missing {sorted(EXPECTED_ARTIFACTS - names)}, "
                    f"extra {sorted(names - EXPECTED_ARTIFACTS)}")
        digests = file_digests(run_dir)
        if self.reference_digests is None:
            self.reference_digests = digests
        changed = sorted(n for n in digests if digests[n] != self.reference_digests[n])
        if changed:
            return f"artifacts differ from the first repetition: {changed}"
        with open(os.path.join(run_dir, "report.txt"), encoding="utf-8") as fh:
            return rmse_mismatch(parse_pose_rmse(fh.read()), self.reference_rmse)


# Scan poses come from a fixed pool; the seed picks which of them a run
# sweeps.  The label file records each pool pose's outcome at the commit
# that defined the benchmark, so the per-class counts of any seed's sweep
# are known exactly.  record.py rewrites it when the program's behaviour
# is meant to change.
SCAN_POOL_SEED = 2303_17974
SCAN_POOL_SIZE = 20000
SCAN_POSES = 4000
SCAN_MARGIN = 1.1
SCAN_LABELS_FILE = os.path.join(HERE, "scan_labels.txt")
OUTCOMES = {"b": "box", "p": "pivot", "u": "unreachable", "j": "joint_limit", "v": "valid", "k": "kinematics_error"}


def scan_pool(limits) -> np.ndarray:
    """(SCAN_POOL_SIZE, 6) poses uniform over the workspace box grown by SCAN_MARGIN."""
    half = SCAN_MARGIN * np.array([limits.x_max, limits.y_max, limits.z_max] + [limits.rot_max] * 3)
    return np.random.default_rng(SCAN_POOL_SEED).uniform(-half, half, (SCAN_POOL_SIZE, 6))


def pool_digest(pool: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(pool, dtype="<f8").tobytes()).hexdigest()[:16]


def read_labels(path: str = SCAN_LABELS_FILE) -> tuple[str, str]:
    """(pool digest, one outcome letter per pool pose)."""
    digest, labels = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# pool_sha256="):
                digest = line.split("=", 1)[1]
            elif line and not line.startswith("#"):
                labels.append(line)
    return digest, "".join(labels)


def write_labels(path: str, digest: str, labels: str) -> None:
    lines = [
        "# Outcome of each workspace_scan pool pose, one letter per pose:",
        "# " + ", ".join(f"{k} = {v}" for k, v in OUTCOMES.items()),
        f"# pool_seed={SCAN_POOL_SEED} pool_size={SCAN_POOL_SIZE} margin={SCAN_MARGIN}",
        f"# pool_sha256={digest}",
    ]
    lines += [labels[i:i + 100] for i in range(0, len(labels), 100)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def angle_diff_deg(a, b):
    """a - b wrapped to [-180, 180)."""
    return (np.asarray(a) - np.asarray(b) + 180.0) % 360.0 - 180.0


def sweep(modules, poses) -> tuple[str, dict]:
    """One scan repetition: solve, check and reconstruct every pose.

    Functions are looked up on their modules at call time so that the
    traced run's wrappers see the calls.  Returns the outcome letters and
    the reconstructed pose of every solved pose by index.
    """
    config, kin, post = modules["config"], modules["kinematics"], modules["postprocess"]
    cfg = config.default_config()
    limits, robot, platform = cfg.limits, cfg.robot, cfg.platform
    letters, recs = [], {}
    for index, pose in enumerate(poses):
        try:
            q = kin.solve_platform_ik(pose, robot, platform, limits, check_pivot=True)
        except kin.WorkspaceViolationError:
            letters.append("b")
            continue
        except kin.BallPivotError:
            letters.append("p")
            continue
        except kin.UnreachableError:
            letters.append("u")
            continue
        except kin.KinematicsError:
            letters.append("k")
            continue
        report = kin.workspace_check(pose, q, limits, robot, platform)
        recs[index] = post.reconstruct_pose(q, robot, platform, "platform")
        letters.append("v" if report.valid else "j")
    return "".join(letters), recs


def scan_mismatch(poses, expected: str, found: str, recs: dict) -> str | None:
    if found != expected:
        bad = [i for i, (e, f) in enumerate(zip(expected, found)) if e != f]
        return (f"{len(bad)} pose outcomes differ from the recorded labels, first at pose "
                f"{bad[0]}: expected {OUTCOMES[expected[bad[0]]]}, got {OUTCOMES[found[bad[0]]]}")
    for index, rec in recs.items():
        pose = poses[index]
        pos_err = float(np.max(np.abs(rec.position - pose.position)))
        rot_err = float(np.max(np.abs(angle_diff_deg(rec.orientation_deg, pose.orientation_deg))))
        if pos_err > RECON_POS_TOL_MM or rot_err > RECON_ROT_TOL_DEG:
            return (f"pose {index} reconstructs {pos_err:.3g} mm / {rot_err:.3g} deg off "
                    f"(criterion 4 allows {RECON_POS_TOL_MM} mm / {RECON_ROT_TOL_DEG} deg)")
    return None


def class_counts(letters: str) -> dict:
    return {name: letters.count(letter) for letter, name in OUTCOMES.items()}


class ScanWorkload:
    """Library use of the kinematics: no CLI, no files, no simulation."""

    kind = "scan"

    def __init__(self, name, why):
        self.name = name
        self.why = why
        self.input_size = f"{SCAN_POSES} poses per sweep"

    def prepare(self, modules, work_dir: str, seed: int) -> None:
        self.modules = modules
        kin = modules["kinematics"]
        pool = scan_pool(modules["config"].default_config().limits)
        digest, labels = read_labels()
        if digest != pool_digest(pool) or len(labels) != len(pool):
            raise RuntimeError(
                f"{SCAN_LABELS_FILE} was recorded for another pose pool; run perfbench/record.py"
            )
        pick = np.random.default_rng(seed).permutation(SCAN_POOL_SIZE)[:SCAN_POSES]
        self.poses = [kin.PlatformPose(pool[i, :3], pool[i, 3:]) for i in pick]
        self.expected = "".join(labels[i] for i in pick)
        self.counts = class_counts(self.expected)

    def setup_argv(self) -> list:
        return []

    def run(self, rep: int):
        return sweep(self.modules, self.poses)

    def check(self, outcome) -> str | None:
        letters, recs = outcome
        return scan_mismatch(self.poses, self.expected, letters, recs)


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "sine_default",
            why=(
                "all on the built-in config, a 2 Hz +/-20 mm x-axis sine after a 2 s settle, "
                "5001 samples at 1 kHz. This is the run every user makes first and the one "
                "acceptance criterion 10 times. The motion is translation-only, so the "
                "per-sample loops in reconstruct, logio, ik and sim carry the cost. Per-run "
                "fixed costs, such as 23 file creations, filter design and config hashing, "
                "are a larger share here than in the longer run."
            ),
            override=None,
            samples=5001,
            reference_rmse={
                "translation_x_mm": 2.76012704,
                "translation_y_mm": 0.0,
                "translation_z_mm": 0.911862185,
                "translation_avg_mm": 1.22399641,
                "rotation_x_deg": 0.0,
                "rotation_y_deg": 0.00844903305,
                "rotation_z_deg": 0.0,
                "rotation_avg_deg": 0.00281634435,
            },
        ),
        PipelineWorkload(
            "circular_readme",
            why=(
                "all on the README's example override file: circular, r = 20 mm, +/-10 deg "
                "oscillating yaw, 20 rounds at 2 Hz cw, 1.2 kg payload, gravity_compensation "
                "= true, 10001 samples. It is the longest documented run. The non-zero yaw "
                "makes the Euler and Kabsch (align_vectors) paths do real work in IK and "
                "reconstruct. It also takes the sim's gravity feed-forward branch, which "
                "sine_default skips."
            ),
            override=README_OVERRIDE,
            samples=10001,
            reference_rmse={
                "translation_x_mm": 3.56767496,
                "translation_y_mm": 3.56319453,
                "translation_z_mm": 0.0189053122,
                "translation_avg_mm": 2.38325827,
                "rotation_x_deg": 0.00306525943,
                "rotation_y_deg": 0.00357891582,
                "rotation_z_deg": 1.78173976,
                "rotation_avg_deg": 0.59612798,
            },
        ),
        ScanWorkload(
            "workspace_scan",
            why=(
                "library use with no CLI, no files and no sim. It draws seeded poses uniformly "
                "over a box ~10% larger than the workspace box. For each pose it runs "
                "solve_platform_ik(..., limits, check_pivot=True), then workspace_check(pose, "
                "q, limits, robot, platform), then a reconstruct_pose(q, ..., 'platform') "
                "round trip. Kinematics works alone here, through the scalar N=1 API, on "
                "uncorrelated poses, with the box and pivot-cone error exits taken. "
                "pivot_angles_deg and workspace_check do real work here but are never called "
                "by the pipeline; logio and simenv do no work here. A batch-first rewrite that "
                "speeds the pipelines but slows single-pose calls shows up here. Caching home "
                "IK in pivot_angles_deg should show up here and nowhere else."
            ),
        ),
    )
}
