import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal

from quadstage.config import TrajectoryConfig
from quadstage.kinematics import PlatformPose, solve_platform_ik
from quadstage.postprocess import (
    FilterParams,
    PoseSeries,
    butterworth_filter,
    differentiate,
    filter_series,
    joint_rmse,
    reconstruct_pose,
    reconstruct_series,
    rmse_report,
    unwrap_deg,
)

FS = 1000.0


def measured_gain_db(freq, params, fs=FS, seconds=4.0):
    t = np.arange(int(fs * seconds)) / fs
    x = np.sin(2 * math.pi * freq * t)
    y = butterworth_filter(x, fs, params)
    steady = slice(len(t) // 2, None)
    amplitude = math.sqrt(2.0) * np.std(y[steady])
    return 20.0 * math.log10(amplitude)


def home_q(cfg):
    return solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)


def still_series(dt, **rates):
    return PoseSeries(np.zeros((4, 3)), np.zeros((4, 3)), dt, **rates)


@pytest.mark.parametrize("call, message", [
    (lambda cfg: reconstruct_pose(home_q(cfg), cfg.robot, cfg.platform, "body"),
     r"^unknown z_offset_mode 'body'$"),
    (lambda cfg: reconstruct_series(np.tile(home_q(cfg), (3, 1)), cfg.robot, cfg.platform, 1e-3, "body"),
     r"^unknown z_offset_mode 'body'$"),
    (lambda cfg: reconstruct_series(np.zeros((3, 11)), cfg.robot, cfg.platform, 1e-3),
     r"^q_series must be \(N, 12\)$"),
    (lambda cfg: butterworth_filter(np.zeros((30, 2, 2)), FS, FilterParams()),
     r"^series must be \(N,\) or \(N, k\)$"),
    (lambda cfg: still_series(1e-3, lin_vel=np.zeros((3, 3))), r"^lin_vel must match the pose sample count$"),
    (lambda cfg: rmse_report(still_series(1e-3), still_series(2e-3)),
     r"^dt mismatch: target 0\.001 vs actual 0\.002$"),
], ids=["reconstruct_pose-mode", "reconstruct_series-mode", "reconstruct_series-11-joints",
        "butterworth_filter-3d", "pose_series-rate-length", "rmse_report-dt"])
def test_apis_name_a_bad_input(cfg, call, message):
    with pytest.raises(ValueError, match=message):
        call(cfg)


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

    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_channels_filtered_as_one_channel_calls(self, zero_phase, rng):
        # An (N, k) block is k independent channels along axis 0, bit for bit.
        x = rng.normal(size=(500, 4)).cumsum(axis=0)
        params = FilterParams(zero_phase=zero_phase)
        y = butterworth_filter(x, FS, params)
        each = np.column_stack([butterworth_filter(x[:, i], FS, params) for i in range(4)])
        assert y.shape == x.shape
        assert np.array_equal(y.view(np.uint64), each.view(np.uint64))

    def test_rejects_cutoff_at_nyquist(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.zeros(100), FS, FilterParams(cutoff_hz=500.0))

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            butterworth_filter(np.zeros(12), FS, FilterParams())

    def test_order_must_be_even(self):
        with pytest.raises(ValueError):
            FilterParams(order=3)

    def test_cutoff_must_not_be_nan(self):
        with pytest.raises(ValueError, match="^cutoff_hz: must be positive$"):
            FilterParams(cutoff_hz=float("nan"))


def scipy_butterworth(x, fs, params):
    # The reference: scipy.signal, which is a test-only dependency.
    b, a = signal.butter(params.order, params.cutoff_hz, fs=fs)
    if params.zero_phase:
        return signal.filtfilt(b, a, x, axis=0, padlen=3 * params.order)
    return signal.lfilter(b, a, x, axis=0, zi=np.multiply.outer(signal.lfilter_zi(b, a), x[0]))[0]


def same_bits(u, v) -> bool:
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


@st.composite
def filter_cases(draw):
    order = draw(st.sampled_from([2, 4, 6, 8]))
    fs = draw(st.sampled_from([240.0, 1000.0]) | st.floats(10.0, 5000.0))
    cutoff = draw(st.floats(1e-4 * fs, fs / 2.0, exclude_max=True))
    n = draw(st.integers(3 * order + 1, 3 * order + 150))
    shape = draw(st.sampled_from([(n,), (n, 1), (n, 3)]))
    x = draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    return x, fs, FilterParams(cutoff, order, draw(st.booleans()))


class TestButterworthMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(filter_cases())
    def test_bit_for_bit(self, case):
        x, fs, params = case
        assert same_bits(butterworth_filter(x, fs, params), scipy_butterworth(x, fs, params))

    @pytest.mark.parametrize("zero_phase", [True, False])
    def test_zeros_keep_their_sign(self, zero_phase):
        # Zeros of either sign come out with scipy's signs: channel 1 is
        # -0.0 throughout, channel 2 -0.0 after a +0.0 first sample.
        x = np.zeros((40, 3))
        x[:, 1] = -0.0
        x[1:, 2] = -0.0
        params = FilterParams(cutoff_hz=50.0, order=4, zero_phase=zero_phase)
        assert same_bits(butterworth_filter(x, FS, params), scipy_butterworth(x, FS, params))


class TestPoseSeries:
    def test_sample_clock(self):
        dt = 1.0 / 240.0
        series = PoseSeries(np.ones((5, 3)), np.zeros((5, 3)), dt)
        assert np.array_equal(series.t, np.arange(5) * dt)
        assert series.duration == 4 * dt
        pose = series.pose(3)
        pose.position[0] = 7.0
        assert series.position[3, 0] == 1.0

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan])
    def test_sample_step_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="^dt: must be positive$"):
            PoseSeries(np.zeros((40, 3)), np.zeros((40, 3)), dt)

    def test_sample_step_must_be_finite(self):
        with pytest.raises(ValueError, match="^dt: must be finite$"):
            PoseSeries(np.zeros((40, 3)), np.zeros((40, 3)), np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        positions = np.zeros((4, 3))
        positions[2, 1] = bad
        with pytest.raises(ValueError, match="^pose must be finite at sample 2$"):
            PoseSeries(positions, np.zeros((4, 3)), 1e-3)
        with pytest.raises(ValueError, match="^pose must be finite$"):
            PlatformPose(positions[2], np.zeros(3))

    def test_series_is_a_pose_stack(self, cfg):
        # solve_platform_ik takes a generated series as is, with the same
        # bits as the same stack passed as a plain PlatformPose.
        cfg.trajectory = TrajectoryConfig(type="circular", rounds=2)
        series = cfg.build_trajectory()
        assert isinstance(series, PlatformPose)
        stack = PlatformPose(series.position, series.orientation_deg)
        assert np.array_equal(solve_platform_ik(series, cfg.robot, cfg.platform, cfg.limits),
                              solve_platform_ik(stack, cfg.robot, cfg.platform, cfg.limits))
        with pytest.raises(ValueError, match=r"^position and orientation_deg must be \(N, 3\) stacks$"):
            PoseSeries(np.zeros(3), np.zeros(3), 1e-3)


class TestDifferentiate:
    def test_linear_ramp(self):
        dt = 1e-3
        t = np.arange(1000) * dt
        series = PoseSeries(np.column_stack([3.0 * t, 0 * t, 0 * t]), np.zeros((1000, 3)), dt)
        out = differentiate(series)
        assert np.max(np.abs(out.lin_vel[:, 0] - 3.0)) < 1e-9
        assert np.max(np.abs(out.lin_acc[:, 0])) < 1e-9

    def test_sine_matches_analytic_derivative(self):
        dt, f, amp = 1e-3, 2.0, 20.0
        t = np.arange(2000) * dt
        x = amp * np.sin(2 * math.pi * f * t)
        series = PoseSeries(np.column_stack([x, 0 * t, 0 * t]), np.zeros((2000, 3)), dt)
        out = differentiate(series)
        expected = 2 * math.pi * f * amp * np.cos(2 * math.pi * f * t)
        # Central differences are exact to O(dt^2).
        tol = (2 * math.pi * f) ** 3 * amp * dt**2
        assert np.max(np.abs(out.lin_vel[5:-5, 0] - expected[5:-5])) < tol

    def test_constant_pose(self):
        series = PoseSeries(np.full((50, 3), 7.0), np.full((50, 3), 2.0), 1e-3)
        out = differentiate(series)
        for arr in (out.lin_vel, out.ang_vel, out.lin_acc, out.ang_acc):
            assert np.max(np.abs(arr)) < 1e-9

    def test_integration_recovers_positions(self):
        # Trapezoid integration of the derivative rebuilds the series up to
        # its initial value within O(dt^2): halving dt quarters the error.
        def round_trip_error(dt):
            t = np.arange(int(3.0 / dt)) * dt
            x = 15.0 * np.sin(2 * math.pi * 1.5 * t) + 4.0 * np.cos(2 * math.pi * 3.0 * t)
            series = PoseSeries(np.column_stack([x, 0 * t, 0 * t]), np.zeros((len(t), 3)), dt)
            v = differentiate(series).lin_vel[:, 0]
            rebuilt = x[0] + np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])
            return np.max(np.abs(rebuilt - x))

        coarse, fine = round_trip_error(1e-3), round_trip_error(5e-4)
        assert coarse < 2e-3
        assert coarse / fine == pytest.approx(4.0, rel=0.1)

    def test_too_few_samples(self):
        series = PoseSeries(np.zeros((2, 3)), np.zeros((2, 3)), 1e-3)
        with pytest.raises(ValueError):
            differentiate(series)


class TestRmseReport:
    def make_series(self, positions, orientations, dt=1e-3):
        return PoseSeries(positions, orientations, dt)

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

    def test_angles_compared_modulo_360(self):
        pos = np.zeros((4, 3))
        target = np.array([[179.0, 0.0, 10.0], [-179.0, 0.0, 370.0], [540.0, 0.0, -350.0],
                           [0.5, 0.0, 10.0]])
        actual = np.array([[-179.0, 0.0, 10.0], [179.0, 0.0, 10.0], [180.0, 0.0, 10.0],
                           [-0.5, 0.0, 10.0]])
        report = rmse_report(self.make_series(pos, target), self.make_series(pos, actual))
        assert report.rotation_deg == pytest.approx([1.5, 0.0, 0.0], abs=1e-12)

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


class TestUnwrap:
    def test_channel_without_jump_keeps_its_bits(self):
        angles = np.array([[-0.0, 170.0, -0.0], [0.0, -170.0, 5.0], [-0.0, 175.0, -0.0]])
        out = unwrap_deg(angles)
        assert out[:, [0, 2]].tobytes() == angles[:, [0, 2]].tobytes()
        assert np.array_equal(out[:, 1], [170.0, 190.0, 175.0])
        still = np.array([[-0.0, 1.0, -0.0], [0.0, -1.0, -0.0]])
        assert unwrap_deg(still).tobytes() == still.tobytes()

    def test_filter_and_differentiate_follow_a_wrapping_spin(self):
        # 360 deg/s of yaw, wrapped to (-180, 180]: a spin at constant rate.
        dt = 1e-3
        yaw = np.degrees(np.angle(np.exp(1j * np.radians(360.0 * np.arange(3000) * dt))))
        rot = np.column_stack([np.zeros(3000), np.zeros(3000), yaw])
        series = PoseSeries(np.zeros((3000, 3)), rot, dt)
        out = differentiate(series)
        assert np.allclose(out.ang_vel[:, 2], 360.0) and np.allclose(out.ang_acc[:, 2], 0.0, atol=1e-6)
        assert np.allclose(out.orientation_deg[:, 2], 360.0 * np.arange(3000) * dt)
        # Filtered raw, the wrap steps would leave errors of up to 180 deg.
        error = filter_series(series, FilterParams()).orientation_deg[:, 2] - out.orientation_deg[:, 2]
        assert np.max(np.abs(error)) < 0.5 and np.max(np.abs(error[100:-100])) < 1e-4


class TestFilterSeries:
    def test_filters_all_channels(self, rng):
        dt = 1e-3
        n = 500
        pos = rng.normal(size=(n, 3)).cumsum(axis=0)
        rot = rng.normal(size=(n, 3)).cumsum(axis=0)
        out = filter_series(PoseSeries(pos, rot, dt), FilterParams())
        assert out.position.shape == (n, 3)
        assert not np.allclose(out.position, pos)
