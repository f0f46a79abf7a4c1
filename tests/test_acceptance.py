"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured value (run pytest -s to see them all).
"""

import math
import time

import numpy as np
import pytest

from quadstage.cli import main as cli_main
from quadstage.config import default_config
from quadstage.kinematics import (
    PlatformPose,
    WorkspaceViolationError,
    leg_fk,
    platform_corners,
    solve_platform_ik,
    workspace_check,
)
from quadstage.logio import REPORT_POSE_KEYS
from quadstage.postprocess import (
    FilterParams,
    butterworth_filter,
    differentiate,
    PoseSeries,
    reconstruct_pose,
)
from quadstage.simenv import gravity_torque, run_sim
from quadstage.trajectory import CircularParams, SineParams, gen_circular, gen_sine

G = 9.81


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def solve_trajectory(cfg, traj):
    q = np.empty((len(traj), 12))
    for k in range(len(traj)):
        q[k] = solve_platform_ik(traj.pose(k), cfg.robot, cfg.platform)
    return q


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full default-profile pipeline run, shared by criteria 9 and 10."""
    root = tmp_path_factory.mktemp("acceptance_runs")
    start = time.perf_counter()
    status = cli_main(["all", "--run-id", "base", "--runs-root", str(root)])
    elapsed = time.perf_counter() - start
    assert status == 0
    return root, elapsed


def test_criterion_1_peak_acceleration():
    start = time.perf_counter()
    traj = gen_sine(SineParams(run_time=1.0, wait_time=0.0, frequency=10.0, amplitude=10.0), 1e-3)
    analytic = (2 * math.pi * 10.0) ** 2 * 0.010  # m/s^2
    series = differentiate(PoseSeries.from_trajectory(traj))
    numeric = np.max(np.abs(series.lin_acc[:, 0])) / 1000.0
    elapsed = time.perf_counter() - start
    ok = (
        abs(analytic / (4.0 * G) - 1.0) < 0.01
        and abs(numeric - analytic) / analytic < 2e-3
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"peak acceleration {analytic:.3f} m/s^2 = {analytic / G:.3f} g "
        f"(numeric {numeric:.3f}), within 1% of 4 g, {elapsed:.2f} s",
    )


def test_criterion_2_workspace_enforcement():
    start = time.perf_counter()
    cfg = default_config()
    cases = []
    for axis, bound in (("x", 255.0), ("y", 105.0), ("z", 105.0)):
        idx = "xyz".index(axis)
        for sign in (1.0, -1.0):
            inside = np.zeros(3)
            inside[idx] = sign * bound
            outside = np.zeros(3)
            outside[idx] = sign * (bound + 1.0)
            cases.append((PlatformPose(inside, np.zeros(3)), True))
            cases.append((PlatformPose(outside, np.zeros(3)), False))
    for idx in range(3):
        for sign in (1.0, -1.0):
            inside = np.zeros(3)
            inside[idx] = sign * 30.0
            outside = np.zeros(3)
            outside[idx] = sign * 31.0
            cases.append((PlatformPose(np.zeros(3), inside), True))
            cases.append((PlatformPose(np.zeros(3), outside), False))
    ok = True
    for pose, should_pass in cases:
        valid = workspace_check(pose, None, cfg.limits).valid
        solved = True
        try:
            solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits)
        except WorkspaceViolationError:
            solved = False
        ok = ok and (valid == should_pass) and (solved == should_pass)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"{len(cases)} boundary poses gated at +/-255/105/105 mm and 30 deg, {elapsed:.2f} s")


def test_criterion_3_ik_fk_round_trip():
    start = time.perf_counter()
    cfg = default_config()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        pose = PlatformPose(
            rng.uniform([-255, -105, -105], [255, 105, 105]), rng.uniform(-30, 30, 3)
        )
        q = solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits)
        corners = platform_corners(pose, cfg.platform)
        for i, leg in enumerate(cfg.robot):
            err = float(np.max(np.abs(leg_fk(q[3 * i : 3 * i + 3], leg) - corners[i])))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(3, ok, f"1000 in-workspace poses, max corner error {worst:.2e} mm, {elapsed:.2f} s")


def test_criterion_4_pose_reconstruction():
    start = time.perf_counter()
    cfg = default_config()
    rng = np.random.default_rng(4)
    worst_trans_pos = worst_trans_rot = 0.0
    for _ in range(500):
        pose = PlatformPose(rng.uniform([-255, -105, -105], [255, 105, 105]), np.zeros(3))
        q = solve_platform_ik(pose, cfg.robot, cfg.platform)
        rec = reconstruct_pose(q, cfg.robot, cfg.platform)
        worst_trans_pos = max(worst_trans_pos, float(np.max(np.abs(rec.position - pose.position))))
        worst_trans_rot = max(worst_trans_rot, float(np.max(np.abs(rec.orientation_deg))))
    worst_rot_angle = worst_rot_pos = 0.0
    for _ in range(500):
        pose = PlatformPose(
            rng.uniform([-255, -105, -105], [255, 105, 105]), rng.uniform(-30, 30, 3)
        )
        q = solve_platform_ik(pose, cfg.robot, cfg.platform)
        rec = reconstruct_pose(q, cfg.robot, cfg.platform, z_offset_mode="platform")
        worst_rot_angle = max(
            worst_rot_angle, float(np.max(np.abs(rec.orientation_deg - pose.orientation_deg)))
        )
        worst_rot_pos = max(worst_rot_pos, float(np.max(np.abs(rec.position - pose.position))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_trans_pos < 1e-6
        and worst_trans_rot < 1e-6
        and worst_rot_angle < 0.01
        and worst_rot_pos < 1e-6
        and elapsed < 10.0
    )
    report(
        4,
        ok,
        f"translation {worst_trans_pos:.2e} mm / {worst_trans_rot:.2e} deg; "
        f"full 6-DoF {worst_rot_angle:.2e} deg, center {worst_rot_pos:.2e} mm, {elapsed:.2f} s",
    )


def test_criterion_5_gravity_offset_law():
    start = time.perf_counter()
    cfg = default_config()
    cfg.sim.payload_mass = 1.2
    q0 = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
    targets = np.tile(q0, (5000, 1))
    log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
    q_end = log.q[-1]
    tau_g = gravity_torque(q_end, cfg.sim.total_mass, cfg.robot, cfg.sim.gravity)
    residual = float(np.max(np.abs((q0 - q_end) - tau_g / cfg.sim.kp)))
    offset = float(np.max(np.abs(q0 - q_end)))

    cfg.sim.gravity_compensation = True
    log_c = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
    comp_offset = float(np.max(np.abs(q0 - log_c.q[-1])))
    elapsed = time.perf_counter() - start
    ok = residual < 1e-6 and comp_offset < 1e-9 and offset > 1e-4 and elapsed < 5.0
    report(
        5,
        ok,
        f"1.2 kg payload: offset {offset:.2e} rad matches tau_g/kp to {residual:.2e} rad, "
        f"compensated {comp_offset:.2e} rad, {elapsed:.2f} s",
    )


def test_criterion_6_saturation_invariants():
    start = time.perf_counter()
    cfg = default_config()
    traj = gen_sine(SineParams(run_time=2.0, wait_time=0.5, frequency=10.0, amplitude=10.0), cfg.sim.dt)
    log = run_sim(solve_trajectory(cfg, traj), cfg.sim, cfg.actuator, cfg.robot)
    peak_tau = float(np.max(np.abs(log.tau)))
    peak_current = float(np.max(np.abs(log.current)))
    clamped = int(np.count_nonzero(np.abs(log.tau) >= cfg.actuator.tau_max - 1e-12))
    elapsed = time.perf_counter() - start
    ok = (
        peak_tau <= cfg.actuator.tau_max + 1e-12
        and peak_current <= cfg.actuator.i_max + 1e-12
        and clamped >= 1
        and elapsed < 10.0
    )
    report(
        6,
        ok,
        f"10 Hz +/-10 mm: |tau| <= {peak_tau:.3f} N m, |i| <= {peak_current:.2f} A, "
        f"{clamped} clamped joint-ticks, {elapsed:.2f} s",
    )


def test_criterion_7_filter_response():
    start = time.perf_counter()
    fs = 1000.0
    params = FilterParams(cutoff_hz=50.0, order=4, zero_phase=False)
    t = np.arange(int(fs * 4)) / fs

    def gain_db(freq):
        y = butterworth_filter(np.sin(2 * math.pi * freq * t), fs, params)
        return 20.0 * math.log10(math.sqrt(2.0) * float(np.std(y[len(y) // 2 :])))

    db_fc = gain_db(50.0)
    db_2fc = gain_db(100.0)
    expected_2fc = 20.0 * math.log10(1.0 / math.sqrt(1.0 + 2.0**8))
    dc = butterworth_filter(np.full(1000, 1.0), fs, params)
    dc_dev = float(np.max(np.abs(dc - 1.0)))
    elapsed = time.perf_counter() - start
    ok = (
        abs(db_fc - (-3.0103)) <= 0.02 * 3.0103
        and abs(db_2fc - expected_2fc) <= 0.05 * abs(expected_2fc)
        and dc_dev < 1e-9
        and elapsed < 5.0
    )
    report(
        7,
        ok,
        f"fc {db_fc:.3f} dB (want -3.01 +/-2%), 2fc {db_2fc:.2f} dB (want {expected_2fc:.2f} +/-5%), "
        f"DC dev {dc_dev:.1e}, {elapsed:.2f} s",
    )


def test_criterion_8_circular_closure():
    start = time.perf_counter()
    traj = gen_circular(
        CircularParams(radius=20.0, rot_angle_deg=10.0, rounds=20, frequency=2.0, direction="cw"),
        1e-3,
    )
    pos_gap = float(np.max(np.abs(traj.positions[-1] - traj.positions[0])))
    rot_gap = float(np.max(np.abs(traj.orientations_deg[-1] - traj.orientations_deg[0])))
    elapsed = time.perf_counter() - start
    ok = (
        abs(traj.duration - 10.0) < 1e-12
        and pos_gap < 1e-9
        and rot_gap < 1e-9
        and elapsed < 1.0
    )
    report(
        8,
        ok,
        f"20 rounds at 2 Hz: duration {traj.duration:.6f} s, closure {pos_gap:.1e} mm / "
        f"{rot_gap:.1e} deg, {elapsed:.2f} s",
    )


def test_criterion_9_report_structure(pipeline_dir):
    root, _ = pipeline_dir
    lines = (root / "base" / "report.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines if " = " in line]
    values = {
        line.split(" = ")[0]: float(line.split(" = ")[1]) for line in lines if " = " in line
    }
    ok = keys[:8] == list(REPORT_POSE_KEYS)
    ok = ok and all(values[k] >= 0 and np.isfinite(values[k]) for k in REPORT_POSE_KEYS)
    avg = np.mean([values["translation_x_mm"], values["translation_y_mm"], values["translation_z_mm"]])
    ok = ok and abs(values["translation_avg_mm"] - avg) < 1e-6
    report(
        9,
        ok,
        "report rows: x/y/z translation + average, x/y/z rotation + average "
        f"(translation avg {values['translation_avg_mm']:.2f} mm simulated)",
    )


def test_criterion_10_pipeline_determinism(pipeline_dir, tmp_path):
    root, first_elapsed = pipeline_dir
    start = time.perf_counter()
    status = cli_main(["all", "--run-id", "again", "--runs-root", str(root)])
    second_elapsed = time.perf_counter() - start
    ok = status == 0
    names = sorted(p.name for p in (root / "base").iterdir())
    for name in names:
        ok = ok and (root / "base" / name).read_bytes() == (root / "again" / name).read_bytes()
    ok = ok and first_elapsed < 30.0 and second_elapsed < 30.0
    report(
        10,
        ok,
        f"{len(names)} artifacts byte-identical across runs; "
        f"pipeline {first_elapsed:.1f} s / {second_elapsed:.1f} s (< 30 s)",
    )
