import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadstage import default_config
from quadstage.geometry import euler_to_rotation, rot_x, rot_y, rot_z
from quadstage.kinematics import (
    BallPivotError,
    KinematicsError,
    LegGeometry,
    PlatformGeometry,
    PlatformPose,
    UnreachableError,
    WorkspaceLimits,
    WorkspaceViolationError,
    leg_fk,
    leg_ik,
    leg_jacobian,
    pivot_angles_deg,
    platform_corners,
    solve_platform_ik,
    workspace_check,
)

# Golden home configuration for the shipped default geometry, frozen from
# the closed-form solve: hip_fe = -knee_fe / 2 and
# knee_fe = acos(h^2 / (2 l^2) - 1) for h = 340, l = 375.
HOME_HIP_FE = -1.1002948453877395
HOME_KNEE_FE = 2.200589690775479


def sample_leg(side="left", offset=30.0):
    return LegGeometry(
        hip_mount=[200.0, 150.0 if side == "left" else -150.0, 0.0],
        l_upper=160.0,
        l_lower=160.0,
        hip_offset_y=offset,
        side=side,
    )


def random_reachable_target(rng, geom):
    # Rejection-sample points safely inside the reach annulus.
    while True:
        p = geom.hip_mount + rng.uniform(-300, 300, 3)
        v = p - geom.hip_mount
        rho = math.hypot(v[1], v[2])
        if rho < abs(geom.hip_offset_y) + 5.0:
            continue
        r = math.sqrt(max(rho**2 - geom.hip_offset_y**2, 0.0) + v[0] ** 2)
        if 10.0 < r < 0.98 * (geom.l_upper + geom.l_lower):
            return p


class TestLegFk:
    def test_reference_zero_left(self):
        geom = sample_leg("left")
        foot = leg_fk([0, 0, 0], geom)
        assert np.allclose(foot, [200.0, 180.0, -320.0], atol=1e-12)

    def test_reference_zero_right(self):
        geom = sample_leg("right")
        foot = leg_fk([0, 0, 0], geom)
        assert np.allclose(foot, [200.0, -180.0, -320.0], atol=1e-12)

    def test_right_angle_knee_distance(self):
        # Law of cosines: d = sqrt(lu^2 + ll^2 + 2 lu ll cos(knee)).
        geom = sample_leg(offset=0.0)
        foot = leg_fk([0.0, 0.0, math.pi / 2], geom)
        expected = math.sqrt(160.0**2 + 160.0**2 + 2 * 160.0 * 160.0 * math.cos(math.pi / 2))
        assert np.linalg.norm(foot - geom.hip_mount) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(226.2741699, abs=1e-6)


class TestLegIk:
    def test_full_extension_zero_knee(self):
        geom = sample_leg(offset=0.0)
        target = geom.hip_mount + [0.0, 0.0, -320.0]
        q = leg_ik(target, geom)
        assert abs(q[2]) < 1e-9

    def test_knee_sign_follows_branch(self):
        geom = sample_leg(offset=0.0)
        target = geom.hip_mount + [0.0, 0.0, -226.2741699796952]
        q_pos = leg_ik(target, geom, branch=1)
        q_neg = leg_ik(target, geom, branch=-1)
        assert q_pos[2] == pytest.approx(math.pi / 2, abs=1e-9)
        assert q_neg[2] == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_unreachable_reports_deficit(self):
        geom = sample_leg(offset=0.0)
        with pytest.raises(UnreachableError) as err:
            leg_ik(geom.hip_mount + [0.0, 0.0, -330.0], geom)
        assert err.value.deficit_mm == pytest.approx(10.0, abs=1e-9)

    def test_inner_fold_limit(self):
        geom = LegGeometry([0.0, 0.0, 0.0], l_upper=200.0, l_lower=120.0)
        with pytest.raises(UnreachableError) as err:
            leg_ik([0.0, 0.0, -70.0], geom)  # inside |l_upper - l_lower| = 80
        assert err.value.deficit_mm == pytest.approx(10.0, abs=1e-9)

    def test_lateral_offset_unreachable(self):
        geom = sample_leg(offset=50.0)
        with pytest.raises(UnreachableError) as err:
            leg_ik(geom.hip_mount + [10.0, 0.0, 0.0], geom)
        assert err.value.deficit_mm == pytest.approx(50.0, abs=1e-9)

    def test_target_on_hip_axis(self):
        # rho = 0: every leg-plane roll reaches the target, and leg_ik takes
        # d / rho as 0.  pytest turns a RuntimeWarning into an error.
        geom = sample_leg(offset=0.0)
        target = geom.hip_mount + [100.0, 0.0, 0.0]
        q = leg_ik(target, geom)
        assert q[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.max(np.abs(leg_fk(q, geom) - target)) < 1e-9

    def test_fk_ik_round_trip(self, rng):
        for side in ("left", "right"):
            geom = sample_leg(side)
            qs, feet = [], []
            for _ in range(500):
                p = random_reachable_target(rng, geom)
                q = leg_ik(p, geom)
                assert np.max(np.abs(leg_fk(q, geom) - p)) < 1e-6
                qs.append(q)
                feet.append(leg_fk(q, geom))
            stacked = leg_fk(np.reshape(qs, (50, 10, 3)), geom)
            assert np.max(np.abs(stacked.reshape(500, 3) - feet)) < 1e-12

    def test_mirror_symmetry(self, rng):
        left = sample_leg("left")
        right = LegGeometry(
            hip_mount=left.hip_mount * np.array([1, -1, 1]),
            l_upper=left.l_upper,
            l_lower=left.l_lower,
            hip_offset_y=left.hip_offset_y,
            side="right",
        )
        for _ in range(300):
            p = random_reachable_target(rng, left)
            q_l = leg_ik(p, left)
            q_r = leg_ik(p * np.array([1, -1, 1]), right)
            assert abs(q_l[0] + q_r[0]) < 1e-9
            assert abs(q_l[1] - q_r[1]) < 1e-9
            assert abs(q_l[2] - q_r[2]) < 1e-9


class TestLegJacobian:
    def finite_difference(self, q, geom, h=1e-6):
        jac = np.empty((3, 3))
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            jac[:, j] = (leg_fk(q + dq, geom) - leg_fk(q - dq, geom)) / (2 * h)
        return jac

    def test_matches_finite_differences(self, rng):
        for side in ("left", "right"):
            geom = sample_leg(side)
            qs = rng.uniform(-1.5, 1.5, (200, 3))
            stacked = leg_jacobian(qs, geom)
            assert stacked.shape == (200, 3, 3)
            for q, jac in zip(qs, stacked):
                assert np.array_equal(leg_jacobian(q, geom), jac)
                assert np.max(np.abs(jac - self.finite_difference(q, geom))) < 1e-4

    def test_zero_velocity_maps_to_zero(self):
        geom = sample_leg()
        assert np.allclose(leg_jacobian([0.3, -0.8, 1.2], geom) @ np.zeros(3), 0.0)

    def test_singular_at_full_extension(self):
        geom = sample_leg(offset=0.0)
        sv = np.linalg.svd(leg_jacobian([0.0, 0.0, 0.0], geom), compute_uv=False)
        assert sv[-1] < 1e-6 * sv[0]


class TestPlatformCorners:
    def test_identity_pose(self, cfg):
        corners = platform_corners(PlatformPose.home(), cfg.platform)
        expected = cfg.platform.home_center + cfg.platform.corner_offsets
        assert np.allclose(corners, expected, atol=1e-12)

    def test_pure_translation(self, cfg):
        shift = np.array([10.0, 0.0, 0.0])
        base = platform_corners(PlatformPose.home(), cfg.platform)
        moved = platform_corners(PlatformPose(shift, np.zeros(3)), cfg.platform)
        assert np.allclose(moved - base, shift, atol=1e-12)

    def test_yaw_rotates_offsets(self, cfg):
        pose = PlatformPose(np.zeros(3), [0.0, 0.0, 90.0])
        corners = platform_corners(pose, cfg.platform)
        expected = cfg.platform.home_center + cfg.platform.corner_offsets @ rot_z(math.pi / 2).T
        assert np.max(np.abs(corners - expected)) < 1e-9

    def test_rigidity_under_random_poses(self, cfg, rng):
        def pairwise(pts):
            return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)

        ref = pairwise(platform_corners(PlatformPose.home(), cfg.platform))
        for _ in range(300):
            pose = PlatformPose(rng.uniform(-100, 100, 3), rng.uniform(-30, 30, 3))
            assert np.max(np.abs(pairwise(platform_corners(pose, cfg.platform)) - ref)) < 1e-9

    def test_corners_derived_from_platform_keys(self):
        with pytest.raises(ValueError, match="^length_x: must be positive$"):
            PlatformGeometry(length_x=0)
        platform = PlatformGeometry(length_x=300.0, width_y=100.0, z_offset=12.5, home_height=250.0)
        fl, fr, bl, br = platform.corner_offsets
        assert np.array_equal(platform.corner_offsets[:, 2], [-12.5] * 4)
        assert np.array_equal(fl - bl, [300.0, 0.0, 0.0]) and np.array_equal(fr - br, fl - bl)
        assert np.array_equal(fl - fr, [0.0, 100.0, 0.0]) and np.array_equal(bl - br, fl - fr)
        assert np.array_equal(fl + br, [0.0, 0.0, -25.0]) and np.array_equal(fr + bl, fl + br)
        assert np.array_equal(platform.home_center, [0.0, 0.0, -237.5])
        longer = dataclasses.replace(platform, length_x=500.0)
        assert np.array_equal(longer.corner_offsets[:, 0], [250.0, 250.0, -250.0, -250.0])
        assert np.array_equal(longer.corner_offsets[:, 1:], platform.corner_offsets[:, 1:])


class TestPlatformIk:
    def test_home_matches_golden_solution(self, cfg):
        q = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform, cfg.limits)
        expected = np.array(
            [0.0, HOME_HIP_FE, HOME_KNEE_FE] * 2 + [0.0, -HOME_HIP_FE, -HOME_KNEE_FE] * 2
        )
        assert np.max(np.abs(q - expected)) < 1e-12
        corners = platform_corners(PlatformPose.home(), cfg.platform)
        for i, leg in enumerate(cfg.robot):
            assert np.max(np.abs(leg_fk(q[3 * i : 3 * i + 3], leg) - corners[i])) < 1e-9

    def test_workspace_violation(self, cfg):
        with pytest.raises(WorkspaceViolationError):
            solve_platform_ik(
                PlatformPose([260.0, 0, 0], np.zeros(3)), cfg.robot, cfg.platform, cfg.limits
            )

    def test_corner_consistency_random(self, cfg, rng):
        for _ in range(200):
            pose = PlatformPose(
                rng.uniform([-255, -105, -105], [255, 105, 105]), rng.uniform(-30, 30, 3)
            )
            q = solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits)
            corners = platform_corners(pose, cfg.platform)
            for i, leg in enumerate(cfg.robot):
                assert np.max(np.abs(leg_fk(q[3 * i : 3 * i + 3], leg) - corners[i])) < 1e-6

    def test_unreachable_names_leg(self, cfg):
        tiny = WorkspaceLimits(x_max=1e4, y_max=1e4, z_max=1e4)
        with pytest.raises(UnreachableError) as err:
            solve_platform_ik(
                PlatformPose([900.0, 0.0, 0.0], np.zeros(3)), cfg.robot, cfg.platform, tiny
            )
        assert err.value.leg is not None

    def test_pivot_enforced_in_strict_mode(self, cfg):
        pose = PlatformPose([255.0, 0.0, -105.0], [30.0, 0.0, 0.0])
        solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits)  # lenient default
        with pytest.raises(BallPivotError):
            solve_platform_ik(pose, cfg.robot, cfg.platform, cfg.limits, check_pivot=True)


LIMITS = default_config().limits
BOX_POSES = st.tuples(
    *(st.floats(-bound, bound) for bound in (LIMITS.x_max, LIMITS.y_max, LIMITS.z_max)),
    *(st.floats(-LIMITS.rot_max, LIMITS.rot_max) for _ in range(3)),
)


def loop_pivot_angles(q, robot, platform, pose):
    """Pivot angles the per-corner way: one rot_x @ rot_y matrix and one
    math.acos per corner, the home socket axis from that corner's leg_ik."""
    z_hat = np.array([0.0, 0.0, 1.0])
    normal = pose.rotation() @ z_hat
    home = platform.home_center + platform.corner_offsets
    angles = np.empty(4)
    for i, (q_leg, geom) in enumerate(zip(np.reshape(q, (4, 3)), robot)):
        q_home = leg_ik(home[i], geom)
        axis = (rot_x(q_home[0]) @ rot_y(-(q_home[1] + q_home[2]))).T @ z_hat
        socket = rot_x(q_leg[0]) @ rot_y(-(q_leg[1] + q_leg[2])) @ axis
        angles[i] = math.degrees(math.acos(min(1.0, max(-1.0, float(socket @ normal)))))
    return angles


class TestPivotAngles:
    @settings(max_examples=80, deadline=None)
    @given(
        poses=st.lists(BOX_POSES, min_size=1, max_size=12),
        knee_front=st.sampled_from([-1, 1]),
        knee_back=st.sampled_from([-1, 1]),
        hip_offset_y=st.sampled_from([0.0, 40.0]),
    )
    def test_matches_corner_loop_and_stacks(self, poses, knee_front, knee_back, hip_offset_y):
        # arccos is ill-conditioned near 0 deg, so the array path and the
        # loop agree to 1e-6 deg there; a stacked call repeats its rows.
        cfg = default_config()
        cfg.robot = dataclasses.replace(cfg.robot, knee_sign_front=knee_front, knee_sign_back=knee_back,
                                        hip_offset_y=hip_offset_y)
        solved = []
        for values in poses:
            pose = PlatformPose(values[:3], values[3:])
            try:
                solved.append((pose, solve_platform_ik(pose, cfg.robot, cfg.platform)))
            except KinematicsError:
                continue
        assume(solved)
        one = np.array([pivot_angles_deg(q, cfg.robot, cfg.platform, pose) for pose, q in solved])
        loop = np.array([loop_pivot_angles(q, cfg.robot, cfg.platform, pose) for pose, q in solved])
        assert one.shape == (len(solved), 4)
        assert np.max(np.abs(one - loop)) <= 1e-6
        stacked = PlatformPose(np.array([pose.position for pose, _ in solved]),
                               np.array([pose.orientation_deg for pose, _ in solved]))
        q = np.array([q for _, q in solved])
        assert np.array_equal(pivot_angles_deg(q, cfg.robot, cfg.platform, stacked), one)


class TestWorkspaceCheck:
    def test_home_valid_with_symmetric_pivots(self, cfg):
        q = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
        report = workspace_check(PlatformPose.home(), q, cfg.limits, cfg.robot, cfg.platform)
        assert report.valid
        assert np.max(report.pivot_angles_deg) - np.min(report.pivot_angles_deg) < 1e-9
        assert np.max(report.pivot_angles_deg) < 1e-6  # sockets assembled at home

    def test_pivots_follow_replaced_geometry(self, cfg):
        # The home socket axes are reused between calls; with a replaced
        # geometry the sockets must be re-assembled at the new home, where
        # every pivot is zero again.
        home = PlatformPose.home()

        def home_q_and_pivots():
            q = solve_platform_ik(home, cfg.robot, cfg.platform)
            return q, pivot_angles_deg(q, cfg.robot, cfg.platform, home)

        q_before, pivots = home_q_and_pivots()
        assert np.max(pivots) < 1e-6
        cfg.platform = dataclasses.replace(cfg.platform, home_height=380.0)
        q_moved, pivots = home_q_and_pivots()
        assert np.max(np.abs(q_moved - q_before)) > 1e-3
        assert np.max(pivots) < 1e-6
        cfg.robot = dataclasses.replace(cfg.robot, l_lower=390.0)
        q_longer, pivots = home_q_and_pivots()
        assert np.max(np.abs(q_longer - q_moved)) > 1e-3
        assert np.max(pivots) < 1e-6

    def test_roll_bound(self, cfg):
        report = workspace_check(
            PlatformPose(np.zeros(3), [31.0, 0.0, 0.0]), None, cfg.limits
        )
        assert not report.valid
        assert report.rotation_violations and report.rotation_violations[0][0] == "rx_deg"

    def test_tilted_platform_pivot_violation(self, cfg):
        # Hold the legs at home but tilt the platform 35 deg: each socket
        # axis is still the home normal (z hat), so a dot-product oracle
        # puts every pivot at exactly the tilt angle.
        q = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
        pose = PlatformPose(np.zeros(3), [35.0, 0.0, 0.0])
        angles = pivot_angles_deg(q, cfg.robot, cfg.platform, pose)
        normal = euler_to_rotation([35.0, 0.0, 0.0]) @ np.array([0.0, 0.0, 1.0])
        expected = math.degrees(math.acos(normal @ np.array([0.0, 0.0, 1.0])))
        assert expected == pytest.approx(35.0, abs=1e-9)
        assert np.allclose(angles, expected, atol=1e-9)
        report = workspace_check(pose, q, cfg.limits, cfg.robot, cfg.platform)
        assert len(report.pivot_violations) == 4

    def test_soft_joint_limits_reported(self, cfg):
        cfg.robot = dataclasses.replace(cfg.robot, joint_limit_deg=60.0)  # tighter than the home knee bend
        q = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
        report = workspace_check(PlatformPose.home(), q, cfg.limits, cfg.robot, cfg.platform)
        assert not report.valid
        names = [name for name, _, _ in report.joint_limit_violations]
        assert "fl_knee_fe" in names

    def test_limits_validate(self):
        with pytest.raises(ValueError):
            WorkspaceLimits(x_max=-1.0)

    def test_limits_reject_nan(self):
        with pytest.raises(ValueError, match="^x_max: must be positive$"):
            WorkspaceLimits(x_max=float("nan"))


def test_leg_geometry_rejects_nan_length():
    with pytest.raises(ValueError, match="^l_upper: must be positive$"):
        LegGeometry([0.0, 0.0, 0.0], float("nan"), 100.0)
