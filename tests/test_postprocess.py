import math

import numpy as np
import pytest

from quadstage.kinematics import PlatformPose, solve_platform_ik
from quadstage.postprocess import (
    FilterParams,
    PoseSeries,
    butterworth_filter,
    differentiate,
    filter_series,
    joint_rmse,
    reconstruct_pose,
    rmse_report,
)

FS = 1000.0


def measured_gain_db(freq, params, fs=FS, seconds=4.0):
    t = np.arange(int(fs * seconds)) / fs
    x = np.sin(2 * math.pi * freq * t)
    y = butterworth_filter(x, fs, params)
    steady = slice(len(t) // 2, None)
    amplitude = math.sqrt(2.0) * np.std(y[steady])
    return 20.0 * math.log10(amplitude)


class TestReconstructPose:
    def test_home_identity(self, cfg):
        q = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
        pose = reconstruct_pose(q, cfg.robot, cfg.platform)
        assert np.max(np.abs(pose.position)) < 1e-9
        assert np.max(np.abs(pose.orientation_deg)) < 1e-9

    def test_pure_translation_round_trip(self, cfg):
        target = PlatformPose([10.0, -5.0, 8.0], np.zeros(3))
        q = solve_platform_ik(target, cfg.robot, cfg.platform)
        pose = reconstruct_pose(q, cfg.robot, cfg.platform)
        assert np.max(np.abs(pose.position - target.position)) < 1e-6
        assert np.max(np.abs(pose.orientation_deg)) < 1e-6

    def test_yaw_recovery_both_modes(self, cfg):
        # Yaw keeps the platform normal on the world z axis, so even the
        # world-frame offset mode reconstructs the center exactly.
        target = PlatformPose(np.zeros(3), [0.0, 0.0, 10.0])
        q = solve_platform_ik(target, cfg.robot, cfg.platform)
        for mode in ("world", "platform"):
            pose = reconstruct_pose(q, cfg.robot, cfg.platform, z_offset_mode=mode)
            assert abs(pose.orientation_deg[2] - 10.0) < 0.01
            assert np.max(np.abs(pose.position)) < 1e-6

    def test_tilt_center_error_bounded_in_world_mode(self, cfg):
        # Rolling the platform moves its normal off the world z axis; the
        # world-frame offset then misses by |(R - I) @ (0, 0, z_offset)|.
        target = PlatformPose(np.zeros(3), [10.0, 0.0, 0.0])
        q = solve_platform_ik(target, cfg.robot, cfg.platform)
        pose = reconstruct_pose(q, cfg.robot, cfg.platform, z_offset_mode="world")
        expected_err = 2.0 * cfg.platform.z_offset * math.sin(math.radians(5.0))
        err = np.linalg.norm(pose.position - target.position)
        assert err == pytest.approx(expected_err, rel=1e-6)
        exact = reconstruct_pose(q, cfg.robot, cfg.platform, z_offset_mode="platform")
        assert np.max(np.abs(exact.position - target.position)) < 1e-6

    def test_full_pose_recovery_platform_mode(self, cfg, rng):
        for _ in range(200):
            target = PlatformPose(
                rng.uniform([-255, -105, -105], [255, 105, 105]), rng.uniform(-30, 30, 3)
            )
            q = solve_platform_ik(target, cfg.robot, cfg.platform)
            pose = reconstruct_pose(q, cfg.robot, cfg.platform, z_offset_mode="platform")
            assert np.max(np.abs(pose.orientation_deg - target.orientation_deg)) < 0.01
            assert np.max(np.abs(pose.position - target.position)) < 1e-6


class TestButterworthFilter:
    def test_dc_unity(self):
        x = np.full(200, 2.5)
        for zero_phase in (False, True):
            y = butterworth_filter(x, FS, FilterParams(zero_phase=zero_phase))
            assert np.max(np.abs(y - 2.5)) < 1e-9

    def test_cutoff_attenuation(self):
        db = measured_gain_db(50.0, FilterParams(zero_phase=False))
        assert abs(db - (-3.0103)) < 0.02 * 3.0103

    def test_double_cutoff_attenuation(self):
        # Analytic order-4 response at 2 fc: 1/sqrt(1 + 2^8) = -24.1 dB.
        expected = 20.0 * math.log10(1.0 / math.sqrt(1.0 + 2.0**8))
        db = measured_gain_db(100.0, FilterParams(zero_phase=False))
        assert abs(db - expected) < 0.05 * abs(expected)

    def test_zero_phase_no_lag(self):
        t = np.arange(2000) / FS
        x = np.sin(2 * math.pi * 5.0 * t)
        y = butterworth_filter(x, FS, FilterParams(zero_phase=True))
        steady = slice(200, -200)
        lags = np.arange(-20, 21)
        scores = [np.dot(y[steady], np.roll(x, lag)[steady]) for lag in lags]
        assert lags[int(np.argmax(scores))] == 0

    def test_single_pass_lags(self):
        t = np.arange(2000) / FS
        x = np.sin(2 * math.pi * 20.0 * t)
        y = butterworth_filter(x, FS, FilterParams(zero_phase=False))
        steady = slice(200, -200)
        lags = np.arange(-20, 21)
        scores = [np.dot(y[steady], np.roll(x, lag)[steady]) for lag in lags]
        assert lags[int(np.argmax(scores))] > 0

    def test_preserves_length(self):
        x = np.sin(np.arange(100) * 0.2)
        for zero_phase in (False, True):
            assert len(butterworth_filter(x, FS, FilterParams(zero_phase=zero_phase))) == 100

    def test_rejects_cutoff_at_nyquist(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.zeros(100), FS, FilterParams(cutoff_hz=500.0))

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.zeros(12), FS, FilterParams())

    def test_order_must_be_even(self):
        with pytest.raises(ValueError):
            FilterParams(order=3)


class TestPoseSeries:
    def test_sample_clock(self):
        dt = 1.0 / 240.0
        series = PoseSeries(dt, np.ones((5, 3)), np.zeros((5, 3)))
        assert np.array_equal(series.t, np.arange(5) * dt)
        assert series.duration == 4 * dt
        pose = series.pose(3)
        pose.position[0] = 7.0
        assert series.positions[3, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        positions = np.zeros((4, 3))
        positions[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PoseSeries(1e-3, positions, np.zeros((4, 3)))


class TestDifferentiate:
    def test_linear_ramp(self):
        dt = 1e-3
        t = np.arange(1000) * dt
        series = PoseSeries(dt, np.column_stack([3.0 * t, 0 * t, 0 * t]), np.zeros((1000, 3)))
        out = differentiate(series)
        assert np.max(np.abs(out.lin_vel[:, 0] - 3.0)) < 1e-9
        assert np.max(np.abs(out.lin_acc[:, 0])) < 1e-9

    def test_sine_matches_analytic_derivative(self):
        dt, f, amp = 1e-3, 2.0, 20.0
        t = np.arange(2000) * dt
        x = amp * np.sin(2 * math.pi * f * t)
        series = PoseSeries(dt, np.column_stack([x, 0 * t, 0 * t]), np.zeros((2000, 3)))
        out = differentiate(series)
        expected = 2 * math.pi * f * amp * np.cos(2 * math.pi * f * t)
        # Central differences are exact to O(dt^2).
        tol = (2 * math.pi * f) ** 3 * amp * dt**2
        assert np.max(np.abs(out.lin_vel[5:-5, 0] - expected[5:-5])) < tol

    def test_constant_pose(self):
        series = PoseSeries(1e-3, np.full((50, 3), 7.0), np.full((50, 3), 2.0))
        out = differentiate(series)
        for arr in (out.lin_vel, out.ang_vel, out.lin_acc, out.ang_acc):
            assert np.max(np.abs(arr)) < 1e-9

    def test_integration_recovers_positions(self):
        # Trapezoid integration of the derivative rebuilds the series up to
        # its initial value within O(dt^2): halving dt quarters the error.
        def round_trip_error(dt):
            t = np.arange(int(3.0 / dt)) * dt
            x = 15.0 * np.sin(2 * math.pi * 1.5 * t) + 4.0 * np.cos(2 * math.pi * 3.0 * t)
            series = PoseSeries(dt, np.column_stack([x, 0 * t, 0 * t]), np.zeros((len(t), 3)))
            v = differentiate(series).lin_vel[:, 0]
            rebuilt = x[0] + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])
            return np.max(np.abs(rebuilt - x))

        coarse, fine = round_trip_error(1e-3), round_trip_error(5e-4)
        assert coarse < 2e-3
        assert coarse / fine == pytest.approx(4.0, rel=0.1)

    def test_too_few_samples(self):
        series = PoseSeries(1e-3, np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            differentiate(series)


class TestRmseReport:
    def make_series(self, positions, orientations, dt=1e-3):
        return PoseSeries(dt, positions, orientations)

    def test_identity_is_zero(self, rng):
        pos = rng.normal(size=(100, 3))
        rot = rng.normal(size=(100, 3))
        report = rmse_report(self.make_series(pos, rot), self.make_series(pos, rot))
        assert np.allclose(report.translation_mm, 0.0)
        assert np.allclose(report.rotation_deg, 0.0)

    def test_constant_offset(self, rng):
        pos = rng.normal(size=(100, 3))
        rot = rng.normal(size=(100, 3))
        shifted = pos + np.array([5.0, 0.0, 0.0])
        report = rmse_report(self.make_series(pos, rot), self.make_series(shifted, rot))
        assert report.translation_mm[0] == pytest.approx(5.0, abs=1e-12)
        assert report.translation_mm[1] == 0.0

    def test_averages_are_exact_means(self, rng):
        a = self.make_series(rng.normal(size=(50, 3)), rng.normal(size=(50, 3)))
        b = self.make_series(rng.normal(size=(50, 3)), rng.normal(size=(50, 3)))
        report = rmse_report(a, b)
        assert report.translation_avg_mm == pytest.approx(np.mean(report.translation_mm))
        assert report.rotation_avg_deg == pytest.approx(np.mean(report.rotation_deg))

    def test_time_reversal_invariance(self, rng):
        pos_t, rot_t = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
        pos_a, rot_a = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
        fwd = rmse_report(self.make_series(pos_t, rot_t), self.make_series(pos_a, rot_a))
        rev = rmse_report(
            self.make_series(pos_t[::-1], rot_t[::-1]), self.make_series(pos_a[::-1], rot_a[::-1])
        )
        assert np.allclose(fwd.translation_mm, rev.translation_mm)
        assert np.allclose(fwd.rotation_deg, rev.rotation_deg)

    def test_axis_permutation_invariance(self, rng):
        pos_t, rot_t = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
        pos_a, rot_a = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
        base = rmse_report(self.make_series(pos_t, rot_t), self.make_series(pos_a, rot_a))
        perm = [2, 0, 1]
        swapped = rmse_report(
            self.make_series(pos_t[:, perm], rot_t[:, perm]),
            self.make_series(pos_a[:, perm], rot_a[:, perm]),
        )
        assert np.allclose(base.translation_mm[perm], swapped.translation_mm)

    def test_length_mismatch(self):
        a = self.make_series(np.zeros((10, 3)), np.zeros((10, 3)))
        b = self.make_series(np.zeros((11, 3)), np.zeros((11, 3)))
        with pytest.raises(ValueError):
            rmse_report(a, b)


class TestJointRmse:
    def test_identical_is_zero(self, rng):
        q = rng.normal(size=(100, 12))
        assert np.allclose(joint_rmse(q, q).per_joint_deg, 0.0)

    def test_constant_offset_single_joint(self, rng):
        q = rng.normal(size=(100, 12))
        actual = q.copy()
        actual[:, 5] -= math.radians(2.0)
        result = joint_rmse(q, actual)
        assert result.per_joint_deg[5] == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.delete(result.per_joint_deg, 5), 0.0)

    def test_leg_average_structure(self, rng):
        q = rng.normal(size=(50, 12))
        actual = q + rng.normal(size=(50, 12)) * 0.01
        result = joint_rmse(q, actual)
        assert result.per_leg_avg_deg.shape == (4,)
        assert result.per_leg_avg_deg[1] == pytest.approx(np.mean(result.per_joint_deg[3:6]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_rmse(np.zeros((5, 12)), np.zeros((6, 12)))


class TestFilterSeries:
    def test_filters_all_channels(self, rng):
        dt = 1e-3
        n = 500
        pos = rng.normal(size=(n, 3)).cumsum(axis=0)
        rot = rng.normal(size=(n, 3)).cumsum(axis=0)
        out = filter_series(PoseSeries(dt, pos, rot), FilterParams())
        assert out.positions.shape == (n, 3)
        assert not np.allclose(out.positions, pos)
