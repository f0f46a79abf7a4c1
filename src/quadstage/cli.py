"""Pipeline command line.

Four stages mirror the processing chain and can run individually or
chained::

    quadstage gen  --run-id demo          # target trajectory
    quadstage ik   --run-id demo          # joint targets
    quadstage sim  --run-id demo          # tracking simulation log
    quadstage post --run-id demo          # report + plot data
    quadstage all  --run-id demo          # the whole chain

Each run writes into <runs-root>/<run-id>/ (runs root from --runs-root or
a non-empty QUADSTAGE_RUNS_ROOT environment variable, default ./runs).
Every artifact embeds the hash of the effective configuration; a single
stage refuses upstream artifacts produced under a different one.  `all`
hands each stage its upstream data in memory, as read from the file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import logio
from .config import (
    PROFILES,
    Config,
    config_hash,
    default_config,
    dumps_config,
    load_config,
    loads_config,
)
from .kinematics import solve_platform_ik
from .postprocess import (
    differentiate,
    filter_series,
    joint_rmse,
    reconstruct_series,
    rmse_report,
)
from .simenv import run_sim
from .trajectory import TYPES

RUNS_ROOT_ENV = "QUADSTAGE_RUNS_ROOT"

TRAJECTORY_FILE = "trajectory.csv"
JOINT_TARGETS_FILE = "joint_targets.csv"
SIM_LOG_FILE = "sim_log.csv"
REPORT_FILE = "report.txt"
SNAPSHOT_FILE = "config_snapshot.cfg"

PLOT_KINDS = (
    ("translation", "position"),
    ("rotation", "orientation_deg"),
    ("lin_vel", "lin_vel"),
    ("ang_vel", "ang_vel"),
    ("lin_acc", "lin_acc"),
    ("ang_acc", "ang_acc"),
)
PLOT_CHANNELS = tuple(
    (f"{kind}_{axis}", attr, col)
    for kind, attr in PLOT_KINDS
    for col, axis in enumerate("xyz")
)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def _read_tracking(path, dt: float) -> tuple:
    """(q_target, q) of a sim log: all that post reads of it."""
    _, log = logio.read_log(path, dt)
    return log.q_target, log.q


# Upstream artifact -> (its kind, the stage that writes it, what that stage
# hands on from it, read back from its path at sample step dt).
UPSTREAM = {
    TRAJECTORY_FILE: (logio.TRAJECTORY_KIND, "gen", lambda path, dt: logio.read_trajectory(path, dt)[1]),
    JOINT_TARGETS_FILE: (logio.JOINT_TARGETS_KIND, "ik", lambda path, dt: logio.read_joint_targets(path, dt)[1]),
    SIM_LOG_FILE: (logio.SIM_LOG_KIND, "sim", _read_tracking),
}


def _upstream(stage: str, cfg: Config, run_dir: str, name: str, digest: str, handed):
    """Upstream artifact `name` as its reader parses it.  Each stage leaves
    in the dict `handed` what later stages use of its output, as its logio
    writer hands it back; `all` finds it there.  A single stage reads the
    file once it exists and carries config hash `digest`, checked before
    any row is parsed, so a changed config is reported as such."""
    if name in handed:
        return handed[name]
    path = os.path.join(run_dir, name)
    kind, producer, read = UPSTREAM[name]
    if not os.path.exists(path):
        raise StageError(stage, f"missing upstream artifact {path}; run '{producer}' first")
    found = logio.read_config_hash(path, kind)
    if found != digest:
        raise StageError(stage, f"config hash mismatch for {path}: artifact was produced under "
                                f"{found}, current config is {digest}")
    return read(path, cfg.sim.dt)


def stage_gen(cfg: Config, run_dir: str, digest: str, handed) -> list:
    traj = cfg.build_trajectory()
    snapshot = os.path.join(run_dir, SNAPSHOT_FILE)
    logio.atomic_write_text(snapshot, dumps_config(cfg))
    path = os.path.join(run_dir, TRAJECTORY_FILE)
    handed[TRAJECTORY_FILE] = logio.write_trajectory(path, traj, digest)
    return [snapshot, path]


def stage_ik(cfg: Config, run_dir: str, digest: str, handed) -> list:
    traj = _upstream("ik", cfg, run_dir, TRAJECTORY_FILE, digest, handed)
    q = solve_platform_ik(traj, cfg.robot, cfg.platform, cfg.limits)
    path = os.path.join(run_dir, JOINT_TARGETS_FILE)
    handed[JOINT_TARGETS_FILE] = logio.write_joint_targets(path, traj.t, q, digest)
    return [path]


def stage_sim(cfg: Config, run_dir: str, digest: str, handed) -> list:
    q_targets = _upstream("sim", cfg, run_dir, JOINT_TARGETS_FILE, digest, handed)
    log = run_sim(q_targets, cfg.sim, cfg.actuator, cfg.robot)
    path = os.path.join(run_dir, SIM_LOG_FILE)
    # q_target holds the targets as read, which a write leaves as they are.
    handed[SIM_LOG_FILE] = log.q_target, logio.write_log(path, log, digest)
    return [path]


def stage_post(cfg: Config, run_dir: str, digest: str, handed) -> list:
    traj = _upstream("post", cfg, run_dir, TRAJECTORY_FILE, digest, handed)
    q_target, q = _upstream("post", cfg, run_dir, SIM_LOG_FILE, digest, handed)

    target = differentiate(traj)
    recon = reconstruct_series(q, cfg.robot, cfg.platform, cfg.sim.dt,
                               cfg.postprocess.z_offset_mode)
    smoothed = differentiate(filter_series(recon, cfg.filter_params))
    pose_report = rmse_report(target, smoothed)
    joints = joint_rmse(q_target, q)

    written = []
    report_path = os.path.join(run_dir, REPORT_FILE)
    logio.write_report(report_path, pose_report, joints, digest)
    written.append(report_path)
    for name, attr, col in PLOT_CHANNELS:
        path = os.path.join(run_dir, f"plot_{name}.csv")
        logio.write_plot_channel(
            path, traj.t, getattr(target, attr)[:, col], getattr(smoothed, attr)[:, col], digest
        )
        written.append(path)
    return written


STAGES = {
    "gen": stage_gen,
    "ik": stage_ik,
    "sim": stage_sim,
    "post": stage_post,
}


def _run_id(text: str) -> str:
    """--run-id: one directory name, so the run stays inside the runs root."""
    if text in ("", ".", "..") or any(sep and sep in text for sep in (os.sep, os.altsep)):
        raise argparse.ArgumentTypeError(
            f"expected one directory name, not empty, '.', '..' or a path, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadstage",
        description="Trajectory generation, stage IK, tracking simulation, and benchmarking pipeline",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for name, doc in (
        ("gen", "generate the target trajectory"),
        ("ik", "solve joint targets for the trajectory"),
        ("sim", "simulate joint tracking"),
        ("post", "reconstruct pose, filter, and report tracking errors"),
        ("all", "run gen, ik, sim, and post in sequence"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="config file (defaults to the built-in configuration)")
        p.add_argument("--run-id", type=_run_id, default="default",
                       help="run directory name, inside the runs root")
        p.add_argument(
            "--runs-root",
            default=None,
            help=f"root for run directories (default ${RUNS_ROOT_ENV} or ./runs)",
        )
        p.add_argument("--profile", choices=tuple(PROFILES),
                       help="sample/control rate preset: hw=1 kHz, sim=240 Hz")
        p.add_argument("--traj", choices=TYPES,
                       help="override trajectory.type from the config")
        p.add_argument("--dt", type=float, help="override sim.dt, the one sample clock")
    return parser


def effective_config(args) -> Config:
    """The config file (or the built-in config) with the command-line
    overrides applied, checked like a config file."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.traj:
        cfg.trajectory.type = args.traj
    # One sample clock: --dt, else the --profile rate, else the config's.
    dt = args.dt if args.dt is not None else PROFILES.get(args.profile)
    if dt is not None:
        cfg.sim.dt = dt
    return loads_config(dumps_config(cfg))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    runs_root = args.runs_root or os.environ.get(RUNS_ROOT_ENV) or "runs"
    run_dir = os.path.join(runs_root, args.run_id)
    try:
        os.makedirs(run_dir, exist_ok=True)
    except OSError as err:
        print(f"run directory error: cannot create {run_dir}: {err.strerror}", file=sys.stderr)
        return 2
    digest = config_hash(cfg)  # once per command; each stage writes and checks it

    stages, handed = list(STAGES) if args.stage == "all" else [args.stage], {}
    for stage in stages:
        try:
            artifacts = STAGES[stage](cfg, run_dir, digest, handed)
        except StageError as err:
            print(err, file=sys.stderr)
            return 1
        except Exception as err:  # noqa: BLE001 - stage failures become exit status
            print(f"stage {stage}: {type(err).__name__}: {err}", file=sys.stderr)
            return 1
        for path in artifacts:
            print(f"[{stage}] wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
