"""Pipeline command line.

Four stages mirror the processing chain and can run individually or
chained::

    quadstage gen  --run-id demo          # target trajectory
    quadstage ik   --run-id demo          # joint targets
    quadstage sim  --run-id demo          # tracking simulation log
    quadstage post --run-id demo          # report + plot data
    quadstage all  --run-id demo          # the whole chain

Each run writes into <runs-root>/<run-id>/ (runs root from --runs-root or
the QUADSTAGE_RUNS_ROOT environment variable, default ./runs).  Every
artifact embeds the hash of the effective configuration; downstream
stages refuse upstream artifacts produced under a different one.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import logio
from .config import (
    Config,
    apply_profile,
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

RUNS_ROOT_ENV = "QUADSTAGE_RUNS_ROOT"

TRAJECTORY_FILE = "trajectory.csv"
JOINT_TARGETS_FILE = "joint_targets.csv"
SIM_LOG_FILE = "sim_log.csv"
REPORT_FILE = "report.txt"
SNAPSHOT_FILE = "config_snapshot.cfg"

PLOT_KINDS = (
    ("translation", "positions"),
    ("rotation", "orientations_deg"),
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


def _require_artifact(stage: str, path: str, producer: str) -> None:
    if not os.path.exists(path):
        raise StageError(stage, f"missing upstream artifact {path}; run '{producer}' first")


def _check_hash(stage: str, path: str, kind: str, expected: str) -> None:
    """Compare an artifact's config hash before any of its rows is parsed,
    so a changed config is reported as such rather than as a row error."""
    found = logio.read_config_hash(path, kind)
    if found != expected:
        raise StageError(
            stage,
            f"config hash mismatch for {path}: artifact was produced under "
            f"{found}, current config is {expected}",
        )


def stage_gen(cfg: Config, run_dir: str) -> list:
    traj = cfg.build_trajectory()
    digest = config_hash(cfg)
    snapshot = os.path.join(run_dir, SNAPSHOT_FILE)
    logio.atomic_write_text(snapshot, dumps_config(cfg))
    path = os.path.join(run_dir, TRAJECTORY_FILE)
    logio.write_trajectory(path, traj, digest)
    return [snapshot, path]


def stage_ik(cfg: Config, run_dir: str) -> list:
    digest = config_hash(cfg)
    traj_path = os.path.join(run_dir, TRAJECTORY_FILE)
    _require_artifact("ik", traj_path, "gen")
    _check_hash("ik", traj_path, logio.TRAJECTORY_KIND, digest)
    _, traj = logio.read_trajectory(traj_path, dt=cfg.trajectory.dt)
    q = np.empty((len(traj), 12))
    for k in range(len(traj)):
        q[k] = solve_platform_ik(traj.pose(k), cfg.robot, cfg.platform, cfg.limits)
    path = os.path.join(run_dir, JOINT_TARGETS_FILE)
    logio.write_joint_targets(path, traj.t, q, digest)
    return [path]


def stage_sim(cfg: Config, run_dir: str) -> list:
    digest = config_hash(cfg)
    targets_path = os.path.join(run_dir, JOINT_TARGETS_FILE)
    _require_artifact("sim", targets_path, "ik")
    _check_hash("sim", targets_path, logio.JOINT_TARGETS_KIND, digest)
    _, q_targets = logio.read_joint_targets(targets_path, dt=cfg.sim.dt)
    log = run_sim(q_targets, cfg.sim, cfg.actuator, cfg.robot)
    path = os.path.join(run_dir, SIM_LOG_FILE)
    logio.write_log(path, log, digest)
    return [path]


def stage_post(cfg: Config, run_dir: str) -> list:
    digest = config_hash(cfg)
    traj_path = os.path.join(run_dir, TRAJECTORY_FILE)
    log_path = os.path.join(run_dir, SIM_LOG_FILE)
    _require_artifact("post", traj_path, "gen")
    _require_artifact("post", log_path, "sim")
    _check_hash("post", traj_path, logio.TRAJECTORY_KIND, digest)
    _check_hash("post", log_path, logio.SIM_LOG_KIND, digest)
    _, traj = logio.read_trajectory(traj_path, dt=cfg.trajectory.dt)
    _, log = logio.read_log(log_path, dt=cfg.sim.dt)

    target = differentiate(traj)
    recon = reconstruct_series(log.q, cfg.robot, cfg.platform, log.dt,
                               cfg.postprocess.z_offset_mode)
    smoothed = differentiate(filter_series(recon, cfg.filter_params))
    pose_report = rmse_report(target, smoothed)
    joints = joint_rmse(log.q_target, log.q)

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
        p.add_argument("--run-id", default="default", help="run directory name")
        p.add_argument(
            "--runs-root",
            default=None,
            help=f"root for run directories (default ${RUNS_ROOT_ENV} or ./runs)",
        )
        p.add_argument("--profile", choices=("hw", "sim"),
                       help="sample/control rate preset: hw=1 kHz, sim=240 Hz")
        p.add_argument("--traj", choices=("sine", "arbitrary", "step", "circular"),
                       help="override trajectory.type from the config")
        p.add_argument("--dt", type=float, help="override both trajectory and sim timesteps")
    return parser


def effective_config(args) -> Config:
    """The config file (or the built-in config) with the command-line
    overrides applied, checked like a config file."""
    cfg = load_config(args.config) if args.config else default_config()
    if args.profile:
        apply_profile(cfg, args.profile)
    if args.traj:
        cfg.trajectory.type = args.traj
    if args.dt is not None:
        cfg.trajectory.dt = args.dt
        cfg.sim.dt = args.dt
    return loads_config(dumps_config(cfg))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    runs_root = args.runs_root or os.environ.get(RUNS_ROOT_ENV, "runs")
    run_dir = os.path.join(runs_root, args.run_id)
    os.makedirs(run_dir, exist_ok=True)

    stages = list(STAGES) if args.stage == "all" else [args.stage]
    for stage in stages:
        try:
            artifacts = STAGES[stage](cfg, run_dir)
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
