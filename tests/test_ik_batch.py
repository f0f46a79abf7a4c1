"""Stacked platform IK against the per-pose loop.

The reference is solve_platform_ik called once per sample, the way the
`ik` stage solved a trajectory before the stacked path.  The stacked solve
uses the same formulas on numpy arrays, whose arctan2/arccos/hypot may
round differently from the math module in the last bit, so joint angles
agree to 1e-12 rad (float64 round-off), and errors agree exactly: the same
first failing sample, exception type, leg and message.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadstage import default_config
from quadstage.geometry import euler_to_rotation
from quadstage.kinematics import (
    BallPivotError,
    PlatformPose,
    UnreachableError,
    WorkspaceLimits,
    WorkspaceViolationError,
    check_pose_bounds,
    outside_box,
    platform_corners,
    solve_platform_ik,
)

ANGLE_TOL_RAD = 1e-12

LIMITS = default_config().limits
BOX = np.array([LIMITS.x_max, LIMITS.y_max, LIMITS.z_max])


def robot_with(knee_front=1, knee_back=-1, l_lower=None, hip_offset_y=None):
    cfg = default_config()
    edits = {"knee_sign_front": knee_front, "knee_sign_back": knee_back, "l_lower": l_lower,
             "hip_offset_y": hip_offset_y}
    cfg.robot = dataclasses.replace(cfg.robot, **{k: v for k, v in edits.items() if v is not None})
    return cfg


def loop_solve(positions, orientations, robot, platform, limits, check_pivot=False):
    """(q, k, error): the per-pose loop up to its first failing sample k."""
    q = np.empty((len(positions), 12))
    for k, (p, o) in enumerate(zip(positions, orientations)):
        try:
            q[k] = solve_platform_ik(PlatformPose(p, o), robot, platform, limits, check_pivot)
        except ValueError as err:
            return q, k, err
    return q, None, None


def assert_matches_loop(positions, orientations, cfg, limits, check_pivot=False):
    q_ref, k, err = loop_solve(positions, orientations, cfg.robot, cfg.platform, limits, check_pivot)
    stacked = PlatformPose(positions, orientations)
    if err is None:
        q = solve_platform_ik(stacked, cfg.robot, cfg.platform, limits, check_pivot)
        assert q.shape == (len(positions), 12)
        assert np.max(np.abs(q - q_ref), initial=0.0) <= ANGLE_TOL_RAD
        return
    with pytest.raises(ValueError) as got:
        solve_platform_ik(stacked, cfg.robot, cfg.platform, limits, check_pivot)
    assert type(got.value) is type(err)
    assert str(got.value) == f"{err} at sample {k}"
    assert getattr(got.value, "leg", None) == getattr(err, "leg", None)
    assert getattr(got.value, "deficit_mm", None) == getattr(err, "deficit_mm", None)
    assert getattr(got.value, "violations", None) == getattr(err, "violations", None)


@st.composite
def pose_stacks(draw):
    """(positions, orientations): poses over the workspace box grown by 10%,
    some pushed 400-700 mm down, beyond the legs' reach."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.1, 1.1, (n, 3)) * BOX
    orientations = rng.uniform(-1.1, 1.1, (n, 3)) * LIMITS.rot_max
    far = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    positions[far, 2] = -rng.uniform(400.0, 700.0, np.count_nonzero(far))
    return positions, orientations


class TestStackedSolve:
    @settings(max_examples=120, deadline=None)
    @given(
        poses=pose_stacks(),
        knee_front=st.sampled_from([-1, 1]),
        knee_back=st.sampled_from([-1, 1]),
        l_lower=st.sampled_from([375.0, 150.0]),
        hip_offset_y=st.sampled_from([0.0, 40.0]),
        with_limits=st.booleans(),
    )
    def test_matches_per_pose_loop(self, poses, knee_front, knee_back, l_lower, hip_offset_y,
                                   with_limits):
        # l_lower = 150 leaves a fold radius of 225 mm for high poses to hit.
        cfg = robot_with(knee_front, knee_back, l_lower, hip_offset_y)
        positions, orientations = poses
        assert_matches_loop(positions, orientations, cfg, LIMITS if with_limits else None)

    @settings(max_examples=80, deadline=None)
    @given(
        poses=pose_stacks(),
        knee_front=st.sampled_from([-1, 1]),
        knee_back=st.sampled_from([-1, 1]),
        hip_offset_y=st.sampled_from([0.0, 40.0]),
        rot_max=st.sampled_from([30.0, 45.0]),
        ball_pivot_max=st.sampled_from([10.0, 20.0, 30.0]),
    )
    def test_check_pivot_matches_per_pose_loop(self, poses, knee_front, knee_back, hip_offset_y,
                                               rot_max, ball_pivot_max):
        # Narrow cones and a wide rotation box put cone violations among
        # box, reach and valid samples.
        cfg = robot_with(knee_front, knee_back, hip_offset_y=hip_offset_y)
        limits = WorkspaceLimits(rot_max=rot_max, ball_pivot_max=ball_pivot_max)
        positions, orientations = poses
        assert_matches_loop(positions, orientations, cfg, limits, check_pivot=True)

    @settings(max_examples=200, deadline=None)
    @given(pose=st.tuples(*(st.floats(-bound, bound) for bound in (*BOX, *[LIMITS.rot_max] * 3))))
    def test_check_pivot_one_pose_matches_one_row_stack(self, pose):
        # Any pose of the workspace box, its faces included: the one-pose
        # solve on floats and a one-row stack raise the same error or give
        # the same q.
        positions, orientations = np.array([pose[:3]]), np.array([pose[3:]])
        assert_matches_loop(positions, orientations, default_config(), LIMITS, check_pivot=True)

    def test_check_pivot_solves_only_flagged_samples(self, cfg, monkeypatch):
        # Inside the cone no sample goes through the one-pose path; past it,
        # only the first flagged sample does, and raises as it does alone.
        one_pose = []

        def counting(pose, *args):
            one_pose.append(pose)
            return solve_platform_ik(pose, *args)

        monkeypatch.setattr("quadstage.kinematics.solve_platform_ik", counting)
        limits = default_config().limits
        limits.rot_max = 40.0
        inside = np.zeros((12, 3))
        inside[:, 2] = np.linspace(-20.0, 20.0, 12)
        poses = PlatformPose(np.zeros((12, 3)), inside)
        q = solve_platform_ik(poses, cfg.robot, cfg.platform, limits, check_pivot=True)
        assert one_pose == []
        assert np.array_equal(q, solve_platform_ik(poses, cfg.robot, cfg.platform))
        tilted = inside.copy()
        tilted[[7, 9], 0] = 35.0
        with pytest.raises(BallPivotError, match=r"exceeds 30\.00 deg at sample 7$") as err:
            solve_platform_ik(PlatformPose(np.zeros((12, 3)), tilted), cfg.robot, cfg.platform,
                              limits, check_pivot=True)
        assert len(one_pose) == 1 and np.array_equal(one_pose[0].orientation_deg, tilted[7])
        with pytest.raises(BallPivotError) as alone:
            solve_platform_ik(one_pose[0], cfg.robot, cfg.platform, limits, check_pivot=True)
        assert err.value.leg == alone.value.leg

    @settings(max_examples=60, deadline=None)
    @given(poses=pose_stacks())
    def test_box_mask_matches_check_pose_bounds(self, poses):
        positions, orientations = poses
        expected = [
            any(check_pose_bounds(PlatformPose(p, o), LIMITS)) for p, o in zip(positions, orientations)
        ]
        assert outside_box(positions, orientations, LIMITS).tolist() == expected

    @pytest.mark.parametrize("hip_offset_y", [0.0, 40.0])
    def test_corner_on_hip_axis_raises_no_warning(self, hip_offset_y):
        # Raising the stage 340 mm puts the front-left corner on its hip
        # (rho = 0): solvable fully folded without a lateral offset,
        # unreachable with one.  pytest turns a RuntimeWarning into an error.
        cfg = robot_with(hip_offset_y=hip_offset_y)
        positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 340.0]])
        corners = platform_corners(PlatformPose(positions, np.zeros((2, 3))), cfg.platform)
        assert np.array_equal(corners[1, 0], cfg.robot[0].hip_mount)
        assert_matches_loop(positions, np.zeros((2, 3)), cfg, None)

    @pytest.mark.parametrize("limits, error, message", [
        (LIMITS, WorkspaceViolationError, r"^pose outside workspace: x_mm=\+9\d+\.000 .* at sample 3$"),
        (None, UnreachableError, r"^leg fl: target inf mm from hip exceeds reach .* at sample 3$"),
    ], ids=["box", "reach"])
    def test_overflowing_row_raises_its_own_error(self, cfg, limits, error, message):
        # x = 1e200 mm overflows the stacked IK's x * x and its re-check's
        # norm.  pytest turns a RuntimeWarning into an error, so this checks
        # that the row is flagged quietly and its one-pose solve decides.
        positions = np.zeros((5, 3))
        positions[3, 0] = 1e200
        with pytest.raises(error, match=message):
            solve_platform_ik(PlatformPose(positions, np.zeros((5, 3))), cfg.robot, cfg.platform, limits)
        assert_matches_loop(positions, np.zeros((5, 3)), cfg, limits)

    def test_lateral_offset_failure_names_leg_and_sample(self):
        cfg = robot_with(hip_offset_y=400.0)  # wider than the 340 mm drop to the corners
        positions = np.zeros((3, 3))
        with pytest.raises(UnreachableError, match=r"^leg fl: .*lateral offset .* at sample 0$") as err:
            solve_platform_ik(PlatformPose(positions, positions), cfg.robot, cfg.platform)
        assert err.value.leg == 0

    def test_check_pivot_names_first_cone_violation(self, cfg):
        # A 35 deg roll is inside a 40 deg box but exceeds the 30 deg cone.
        limits = default_config().limits
        limits.rot_max = 40.0
        orientations = np.array([[0.0, 0.0, 0.0], [35.0, 0.0, 0.0]])
        poses = PlatformPose(np.zeros((2, 3)), orientations)
        with pytest.raises(ValueError, match=r"exceeds 30\.00 deg at sample 1$"):
            solve_platform_ik(poses, cfg.robot, cfg.platform, limits, check_pivot=True)
        q = solve_platform_ik(poses, cfg.robot, cfg.platform, limits)
        assert np.array_equal(q[0], solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform))

    def test_one_row_stack_matches_one_pose(self, cfg):
        # A 3-vector pose keeps the (12,) result of the one-pose path.
        pose = PlatformPose([10.0, -5.0, 3.0], [2.0, -1.0, 4.0])
        q = solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits)
        stacked = PlatformPose(pose.position[None], pose.orientation_deg[None])
        assert q.shape == (12,)
        assert np.max(np.abs(solve_platform_ik(stacked, cfg.robot, cfg.platform)[0] - q)) <= ANGLE_TOL_RAD


class TestStackedShapes:
    def test_euler_stack_equals_rows(self, rng):
        angles = rng.uniform(-180.0, 180.0, (200, 3))
        stack = euler_to_rotation(angles)
        assert stack.shape == (200, 3, 3)
        rows = np.array([euler_to_rotation(a) for a in angles])
        assert np.max(np.abs(stack - rows)) <= 1e-15
        assert euler_to_rotation(angles.reshape(2, 100, 3)).shape == (2, 100, 3, 3)

    def test_euler_one_pose_equals_stack_row_bit_for_bit(self, rng):
        angles = rng.uniform(-180.0, 180.0, (2000, 3))
        rows = np.array([euler_to_rotation(a) for a in angles])
        assert np.array_equal(euler_to_rotation(angles), rows)

    def test_euler_stack_names_non_finite_sample(self):
        angles = np.zeros((4, 3))
        angles[2, 1] = np.inf
        with pytest.raises(ValueError, match="^Euler angles must be finite at sample 2$"):
            euler_to_rotation(angles)

    def test_corners_stack_equals_rows(self, cfg, rng):
        positions = rng.uniform(-50.0, 50.0, (50, 3))
        orientations = rng.uniform(-20.0, 20.0, (50, 3))
        stack = platform_corners(PlatformPose(positions, orientations), cfg.platform)
        assert stack.shape == (50, 4, 3)
        for k in range(50):
            row = platform_corners(PlatformPose(positions[k], orientations[k]), cfg.platform)
            assert np.max(np.abs(stack[k] - row)) <= 1e-12

    @pytest.mark.parametrize("position, orientation", [
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros((1, 2, 3)), np.zeros((1, 2, 3))),
    ])
    def test_pose_shapes_checked(self, position, orientation):
        with pytest.raises(ValueError, match="3-vectors or"):
            PlatformPose(position, orientation)

