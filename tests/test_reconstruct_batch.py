"""Batched pose reconstruction against a per-sample reference loop.

The reference below is the original one-sample-at-a-time reconstruction
(scalar FK, determinant line midpoint, single-matrix Kabsch and math-module
Euler extraction).  The batched reconstruct_series reorders float
operations, so the two agree to a tolerance fixed here from float64
round-off, not bit for bit.  The one-pose reconstruct_pose runs the same
core as reconstruct_series, on Python floats where the series runs on
columns: its position equals the series row bit for bit, and its angles
differ only by math against numpy asin and atan2.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadstage import default_config
from quadstage.geometry import (
    DegenerateInputError,
    GimbalLockWarning,
    ParallelLinesError,
    _euler_deg,
    align_vectors,
    euler_to_rotation,
    rot_x,
    rotation_to_euler,
)
from quadstage.kinematics import (
    PlatformPose,
    UnreachableError,
    leg_fk,
    leg_ik,
    solve_platform_ik,
)
from quadstage.postprocess import reconstruct_pose, reconstruct_series

POSITION_TOL_MM = 1e-9
ANGLE_TOL_DEG = 1e-9
# reconstruct_pose's angles against its reconstruct_series row: measured
# 7.1e-15 deg apart (math against numpy atan2/asin) over 18000 noisy rows.
ONE_POSE_TOL_DEG = 1e-12

LIMITS = default_config().limits


def reference_leg_fk(q_leg, geom):
    q_aa, q_hip, q_knee = q_leg
    xp = geom.l_upper * math.sin(q_hip) + geom.l_lower * math.sin(q_hip + q_knee)
    zp = -(geom.l_upper * math.cos(q_hip) + geom.l_lower * math.cos(q_hip + q_knee))
    return geom.hip_mount + rot_x(q_aa) @ np.array([xp, geom.side_sign * geom.hip_offset_y, zp])


def reference_midpoint(p1, d1, p2, d2):
    u1 = d1 / np.linalg.norm(d1)
    u2 = d2 / np.linalg.norm(d2)
    n = np.cross(u1, u2)
    nn = float(n @ n)
    r = p2 - p1
    t1 = float(np.linalg.det(np.stack([r, u2, n]))) / nn
    t2 = float(np.linalg.det(np.stack([r, u1, n]))) / nn
    return 0.5 * (p1 + t1 * u1 + p2 + t2 * u2)


def reference_align(s, t):
    h = (s / np.linalg.norm(s, axis=1)[:, None]).T @ (t / np.linalg.norm(t, axis=1)[:, None])
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def reference_euler(r):
    ry = math.asin(min(1.0, max(-1.0, r[0, 2])))
    rx = math.atan2(-r[1, 2], r[2, 2])
    rz = math.atan2(-r[0, 1], r[0, 0])
    return np.degrees([rx, ry, rz])


def reference_triad(points):
    p_fl, p_fr, p_bl, _ = points
    axes = np.stack([p_bl - p_fl, p_fr - p_fl, np.cross(p_bl - p_fl, p_fr - p_fl)])
    return axes / np.linalg.norm(axes, axis=1)[:, None]


def reference_series(q_series, robot, platform, mode):
    """The per-sample loop: one reconstruction per row of the joint log."""
    positions, orientations = [], []
    for q in q_series:
        feet = np.array([reference_leg_fk(q[3 * i : 3 * i + 3], g) for i, g in enumerate(robot)])
        fl, fr, bl, br = feet
        center = reference_midpoint(fl, br - fl, fr, bl - fr)
        rotation = reference_align(reference_triad(platform.corner_offsets), reference_triad(feet))
        offset_dir = rotation @ [0.0, 0.0, 1.0] if mode == "platform" else np.array([0.0, 0.0, 1.0])
        positions.append(center + platform.z_offset * offset_dir - platform.home_center)
        orientations.append(reference_euler(rotation))
    return np.array(positions), np.array(orientations)


def wrapped_deg(a, b):
    return np.abs((a - b + 180.0) % 360.0 - 180.0)


@pytest.fixture(scope="module")
def stage():
    return default_config()


pose_values = st.tuples(
    *(st.floats(-bound, bound) for bound in (LIMITS.x_max, LIMITS.y_max, LIMITS.z_max)),
    *(st.floats(-LIMITS.rot_max, LIMITS.rot_max) for _ in range(3)),
)


@settings(max_examples=60, deadline=None)
@given(
    poses=st.lists(pose_values, min_size=1, max_size=12),
    mode=st.sampled_from(["world", "platform"]),
    noise_rad=st.sampled_from([0.0, 1e-3, 2e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_series_matches_loop(stage, poses, mode, noise_rad, seed):
    # Joint noise makes the diagonals skew and the corner triad non-rigid,
    # as in a tracking log.
    rows = []
    for values in poses:
        pose = PlatformPose(values[:3], values[3:])
        try:
            rows.append(solve_platform_ik(pose, stage.robot, stage.platform))
        except UnreachableError:
            continue
    assume(rows)
    q = np.array(rows) + noise_rad * np.random.default_rng(seed).standard_normal((len(rows), 12))
    series = reconstruct_series(q, stage.robot, stage.platform, 1e-3, mode)
    positions, orientations = reference_series(q, stage.robot, stage.platform, mode)
    assert np.max(np.abs(series.position - positions)) <= POSITION_TOL_MM
    assert np.max(wrapped_deg(series.orientation_deg, orientations)) <= ANGLE_TOL_DEG
    first = reconstruct_pose(q[0], stage.robot, stage.platform, mode)
    assert np.max(np.abs(first.position - positions[0])) <= POSITION_TOL_MM
    assert np.max(wrapped_deg(first.orientation_deg, orientations[0])) <= ANGLE_TOL_DEG


def test_degenerate_row_names_sample(stage):
    # Row 2 puts the back-left foot on the front-left one: the FL->BL edge
    # of the corner triad has zero length.
    home = solve_platform_ik(PlatformPose.home(), stage.robot, stage.platform)
    q = np.tile(home, (5, 1))
    fl_foot = stage.platform.home_center + stage.platform.corner_offsets[0]
    q[2, 6:9] = leg_ik(fl_foot, stage.robot[2])
    with pytest.raises(DegenerateInputError, match="at sample 2"):
        reconstruct_series(q, stage.robot, stage.platform, 1e-3)
    with pytest.raises(DegenerateInputError) as err:
        reconstruct_pose(q[2], stage.robot, stage.platform)
    assert "sample" not in str(err.value)


@settings(max_examples=60, deadline=None)
@given(
    poses=st.lists(pose_values, min_size=1, max_size=12),
    knee_front=st.sampled_from([-1, 1]),
    knee_back=st.sampled_from([-1, 1]),
)
def test_series_of_stacked_solve_recovers_poses(poses, knee_front, knee_back):
    # Every pose of the workspace box is reachable by the default legs, on
    # either knee branch, and platform mode recovers it to float round-off.
    cfg = default_config()
    cfg.robot = dataclasses.replace(cfg.robot, knee_sign_front=knee_front, knee_sign_back=knee_back)
    values = np.array(poses)
    q = solve_platform_ik(PlatformPose(values[:, :3], values[:, 3:]), cfg.robot, cfg.platform)
    series = reconstruct_series(q, cfg.robot, cfg.platform, 1e-3, "platform")
    assert np.max(np.abs(series.position - values[:, :3])) <= POSITION_TOL_MM
    assert np.max(wrapped_deg(series.orientation_deg, values[:, 3:])) <= ANGLE_TOL_DEG


@settings(max_examples=60, deadline=None)
@given(
    poses=st.lists(pose_values, min_size=1, max_size=12),
    knee_front=st.sampled_from([-1, 1]),
    knee_back=st.sampled_from([-1, 1]),
    hip_offset_y=st.sampled_from([0.0, 40.0]),
    noise_rad=st.sampled_from([0.0, 1e-3, 2e-2]),
    mode=st.sampled_from(["world", "platform"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pose_matches_series_row(poses, knee_front, knee_back, hip_offset_y, noise_rad, mode,
                                     seed):
    # reconstruct_pose runs the core on Python floats, reconstruct_series on
    # arrays; the position comes from one formula in both.
    cfg = default_config()
    cfg.robot = dataclasses.replace(cfg.robot, knee_sign_front=knee_front, knee_sign_back=knee_back,
                                    hip_offset_y=hip_offset_y)
    values = np.array(poses)
    try:
        q = solve_platform_ik(PlatformPose(values[:, :3], values[:, 3:]), cfg.robot, cfg.platform)
    except UnreachableError:
        assume(False)
    q = q + noise_rad * np.random.default_rng(seed).standard_normal(q.shape)
    series = reconstruct_series(q, cfg.robot, cfg.platform, 1e-3, mode)
    for k, row in enumerate(q):
        one = reconstruct_pose(row, cfg.robot, cfg.platform, mode)
        assert np.array_equal(one.position, series.position[k])
        assert np.max(np.abs(one.orientation_deg - series.orientation_deg[k])) <= ONE_POSE_TOL_DEG


def test_align_vectors_is_the_reconstruction_step(stage):
    # align_vectors of the nominal corner triad (FL->BL, FL->FR and their
    # cross product) onto the one of the leg FK feet runs the pipeline's
    # Kabsch step: its angles are reconstruct_series' bit for bit.
    rng = np.random.default_rng(3)
    bounds = [LIMITS.x_max, LIMITS.y_max, LIMITS.z_max] + [LIMITS.rot_max] * 3
    values = rng.uniform(-1.0, 1.0, (300, 6)) * bounds
    q = solve_platform_ik(PlatformPose(values[:, :3], values[:, 3:]), stage.robot, stage.platform)
    q = q + 1e-2 * rng.standard_normal(q.shape)
    feet = np.stack([leg_fk(q[:, 3 * i : 3 * i + 3], geom) for i, geom in enumerate(stage.robot)], axis=-2)

    def triad(points):
        x_axis, y_axis = points[..., 2, :] - points[..., 0, :], points[..., 1, :] - points[..., 0, :]
        return np.stack([x_axis, y_axis, np.cross(x_axis, y_axis)], axis=-2)

    rotation = align_vectors(triad(stage.platform.corner_offsets), triad(feet))
    series = reconstruct_series(q, stage.robot, stage.platform, 1e-3)
    assert np.array_equal(rotation_to_euler(rotation), series.orientation_deg)


@pytest.mark.parametrize("mode", ["world", "platform"])
def test_determinant_sign_correction_is_per_row(stage, monkeypatch, mode):
    # The third row of a resolvable triad is the cross product of the first
    # two, so det(h) > 0 and the Kabsch SVD never needs its sign correction.
    # Negating U's last column, on every other row of a stack and on the
    # one pose, makes det(V U^T) = -1 there, and the correction must undo
    # it row by row, to the same bits.
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, (8, 6)) * [10.0, 10.0, 10.0, 5.0, 5.0, 5.0]
    q = solve_platform_ik(PlatformPose(values[:, :3], values[:, 3:]), stage.robot, stage.platform)
    q = q + 1e-3 * rng.standard_normal(q.shape)
    series = reconstruct_series(q, stage.robot, stage.platform, 1e-3, mode)
    one = reconstruct_pose(q[1], stage.robot, stage.platform, mode)
    svd = np.linalg.svd

    def flipped(a):
        u, sing, vt = svd(a)
        (u[1::2] if u.ndim == 3 else u)[..., 2] *= -1.0
        return u, sing, vt

    monkeypatch.setattr(np.linalg, "svd", flipped)
    flipped_series = reconstruct_series(q, stage.robot, stage.platform, 1e-3, mode)
    flipped_one = reconstruct_pose(q[1], stage.robot, stage.platform, mode)
    assert np.array_equal(flipped_series.position, series.position)
    assert np.array_equal(flipped_series.orientation_deg, series.orientation_deg)
    assert np.array_equal(flipped_one.position, one.position)
    assert np.array_equal(flipped_one.orientation_deg, one.orientation_deg)


@pytest.mark.parametrize("case, error", [
    ("zero diagonal", ValueError),  # BR foot on FL: the FL->BR diagonal has zero length
    ("parallel diagonals", ParallelLinesError),  # FR on FL and BL on BR
    ("zero triad edge", DegenerateInputError),  # BL on FL: the FL->BL edge has zero length
    ("nan", ValueError),
    ("inf", ValueError),
])
def test_one_pose_raises_as_series_row(stage, case, error):
    home = solve_platform_ik(PlatformPose.home(), stage.robot, stage.platform)
    q = np.tile(home, (3, 1))
    feet = stage.platform.home_center + stage.platform.corner_offsets
    moves = {"zero diagonal": [(3, 0)], "parallel diagonals": [(1, 0), (2, 3)],
             "zero triad edge": [(2, 0)]}
    for leg, corner in moves.get(case, []):
        q[1, 3 * leg : 3 * leg + 3] = leg_ik(feet[corner], stage.robot[leg])
    if case in ("nan", "inf"):
        q[1, 4] = float(case)
    with pytest.raises(error) as series_err:
        reconstruct_series(q, stage.robot, stage.platform, 1e-3)
    with pytest.raises(error) as pose_err:
        reconstruct_pose(q[1], stage.robot, stage.platform)
    assert type(pose_err.value) is type(series_err.value)
    assert str(series_err.value) == f"{pose_err.value} at sample 1"


@pytest.mark.parametrize("euler", [(10.0, 90.0, 20.0), (-35.0, -90.0, 5.0), (0.0, 90.0, 0.0),
                                   (170.0, -90.0, -60.0), (12.0, -34.0, 170.0)])
def test_float_euler_step_matches_rotation_to_euler(euler):
    # Gimbal lock (ry = +/-90 deg) is outside what the leg angles reach in
    # the workspace, so the float Euler step is checked on its own.
    r = euler_to_rotation(euler)
    if abs(euler[1]) == 90.0:
        with pytest.warns(GimbalLockWarning) as array_warning:
            expected = rotation_to_euler(r)
        with pytest.warns(GimbalLockWarning) as float_warning:
            found = _euler_deg(r.tolist(), math)
        assert [str(w.message) for w in float_warning] == [str(w.message) for w in array_warning]
    else:
        expected, found = rotation_to_euler(r), _euler_deg(r.tolist(), math)
    assert np.max(np.abs(np.array(found) - expected)) <= ONE_POSE_TOL_DEG


@pytest.mark.parametrize("matrix", [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3),
                                    rot_x(0.3) + 1e-5])
def test_float_euler_step_rejects_non_rotation(matrix):
    with pytest.raises(ValueError) as array_err:
        rotation_to_euler(matrix)
    with pytest.raises(ValueError) as float_err:
        _euler_deg(matrix.tolist(), math)
    assert str(float_err.value) == str(array_err.value)
