import math

import numpy as np
import pytest

from quadstage.config import TrajectoryConfig
from quadstage.kinematics import PlatformPose
from quadstage.trajectory import (
    gen_arbitrary,
    gen_circular,
    gen_sine,
    gen_step,
)

DT = 1e-3


def rows(poses):
    """PlatformPoses as x y z rx ry rz rows."""
    return np.array([np.concatenate([p.position, p.orientation_deg]) for p in poses])


def all_timestamps_uniform(traj):
    gaps = np.diff(traj.t)
    return np.all(gaps > 0) and np.max(np.abs(gaps - traj.dt)) < 1e-12


def arbitrary_by_loop(channels, segment_times, t, mode):
    """gen_arbitrary's samples one at a time, kept as the reference for its
    array pass: each sample's segment by searchsorted, then the clamped
    (and for cosine, eased) fraction of it."""
    knots = np.concatenate([[0.0], np.cumsum(segment_times)])
    values = np.empty((len(t), 6))
    for k, tk in enumerate(t):
        j = min(int(np.searchsorted(knots, tk, side="right")) - 1, len(knots) - 2)
        u = min(max((tk - knots[j]) / (knots[j + 1] - knots[j]), 0.0), 1.0)
        if mode == "cosine":
            u = 0.5 * (1.0 - math.cos(math.pi * u))
        values[k] = channels[j] + u * (channels[j + 1] - channels[j])
    return values


class TestSine:
    def test_wait_holds_home_plus_offsets(self):
        params = TrajectoryConfig(run_time=1.0, wait_time=0.5, frequency=2.0, amplitude=20.0,
                                  offsets=[1.0, 2.0, 3.0])
        traj = gen_sine(params, DT)
        wait = traj.t < 0.5 - 1e-12
        assert np.allclose(traj.position[wait], [1.0, 2.0, 3.0], atol=1e-12)
        assert np.allclose(traj.position[0], [1.0, 2.0, 3.0], atol=1e-15)
        assert np.allclose(traj.orientation_deg, 0.0)

    def test_quarter_period_peak(self):
        # sin(2 pi * 2 Hz * 0.125 s) = sin(pi/2) = 1.
        params = TrajectoryConfig(run_time=1.0, wait_time=0.5, frequency=2.0, amplitude=20.0)
        traj = gen_sine(params, DT)
        k = int(round((0.5 + 0.125) / DT))
        assert traj.position[k, 0] == pytest.approx(20.0, abs=1e-9)

    def test_rotation_axis(self):
        params = TrajectoryConfig(run_time=1.0, wait_time=0.0, motion="rotation", axis="y", frequency=2.0,
                                  amplitude=10.0)
        traj = gen_sine(params, DT)
        k = int(round(0.125 / DT))
        assert traj.orientation_deg[k, 1] == pytest.approx(10.0, abs=1e-9)
        assert np.allclose(traj.position, 0.0)

    def test_peak_acceleration_ten_hz(self):
        # Analytic peak acceleration (2 pi f)^2 A for f=10 Hz, A=10 mm is
        # 39.478 m/s^2, just over 4 g.
        params = TrajectoryConfig(run_time=1.0, wait_time=0.0, frequency=10.0, amplitude=10.0)
        traj = gen_sine(params, DT)
        acc = np.gradient(np.gradient(traj.position[:, 0], DT), DT) / 1000.0
        peak = (2 * math.pi * 10.0) ** 2 * 0.010
        assert np.max(np.abs(acc)) == pytest.approx(peak, rel=2e-3)

    def test_zero_amplitude_equals_home_step(self):
        sine = gen_sine(TrajectoryConfig(run_time=1.0, wait_time=0.5, frequency=2.0, amplitude=0.0), DT)
        step = gen_step(TrajectoryConfig(type="step", step_target=np.zeros(6), step_time=0.5,
                                         total_time=1.5), DT)
        assert np.array_equal(sine.position, step.position)
        assert np.array_equal(sine.orientation_deg, step.orientation_deg)

    def test_uniform_timestamps(self):
        traj = gen_sine(TrajectoryConfig(run_time=0.37, wait_time=0.21, frequency=3.0, amplitude=5.0), DT)
        assert all_timestamps_uniform(traj)

    def test_nan_parameters_rejected(self):
        with pytest.raises(ValueError, match="^frequency: must be positive$"):
            TrajectoryConfig(run_time=1.0, wait_time=0.0, frequency=float("nan"))
        # The step is an argument, so the generator checks it.
        params = TrajectoryConfig(run_time=1.0, wait_time=0.0)
        with pytest.raises(ValueError, match="^dt must be positive$"):
            gen_sine(params, float("nan"))


class TestStep:
    def test_pre_and_post_step(self):
        target = PlatformPose([5.0, -4.0, 3.0], [1.0, 2.0, -3.0])
        traj = gen_step(TrajectoryConfig(type="step", step_target=rows([target])[0], step_time=1.0,
                                         total_time=2.0), DT)
        k = int(round(1.0 / DT))
        assert np.allclose(traj.position[k - 1], 0.0)
        assert np.allclose(traj.orientation_deg[k - 1], 0.0)
        assert np.allclose(traj.position[k], target.position)
        assert np.allclose(traj.orientation_deg[k], target.orientation_deg)

    def test_bad_step_time(self):
        with pytest.raises(ValueError):
            gen_step(TrajectoryConfig(type="step", step_target=np.zeros(6), step_time=3.0, total_time=2.0),
                     DT)


class TestArbitrary:
    def test_single_waypoint_constant(self):
        pose = PlatformPose([7.0, 0.0, 0.0], [0.0, 5.0, 0.0])
        traj = gen_arbitrary(TrajectoryConfig(type="arbitrary", waypoints=rows([pose]), segment_times=[]), DT)
        assert len(traj) == 1
        assert np.allclose(traj.position[0], pose.position)

    def test_linear_midpoint(self):
        a = PlatformPose.home()
        b = PlatformPose([10.0, 0.0, 0.0], np.zeros(3))
        params = TrajectoryConfig(type="arbitrary", waypoints=rows([a, b]), segment_times=[1.0])
        traj = gen_arbitrary(params, DT)
        k = int(round(0.5 / DT))
        assert traj.position[k, 0] == pytest.approx(5.0, abs=1e-12)

    def test_sample_count(self):
        a, b, c = PlatformPose.home(), PlatformPose([1, 0, 0], np.zeros(3)), PlatformPose.home()
        segment_times = [0.8, 1.3]
        params = TrajectoryConfig(type="arbitrary", waypoints=rows([a, b, c]), segment_times=segment_times)
        traj = gen_arbitrary(params, DT)
        assert len(traj) == round(sum(segment_times) / DT) + 1

    def test_hits_every_waypoint(self):
        poses = [
            PlatformPose.home(),
            PlatformPose([10, -5, 3], [2, 1, -2]),
            PlatformPose([-4, 2, 0], [0, 0, 5]),
        ]
        for mode in ("linear", "cosine"):
            traj = gen_arbitrary(TrajectoryConfig(type="arbitrary", waypoints=rows(poses),
                                                  segment_times=[0.5, 0.75], interp=mode), DT)
            for knot, pose in zip((0.0, 0.5, 1.25), poses):
                k = int(round(knot / DT))
                assert np.max(np.abs(traj.position[k] - pose.position)) < 1e-9
                assert np.max(np.abs(traj.orientation_deg[k] - pose.orientation_deg)) < 1e-9

    def test_mismatched_lengths(self):
        home = PlatformPose.home()
        with pytest.raises(ValueError):
            gen_arbitrary(TrajectoryConfig(type="arbitrary", waypoints=rows([home, home]),
                                           segment_times=[1.0, 2.0]), DT)

    @pytest.mark.parametrize("mode", ["linear", "cosine"])
    def test_matches_per_sample_loop(self, mode, rng):
        # Segment ends off the sample grid, and a last sample past the final
        # knot: cosine easing may differ from math.cos by its last bit.
        waypoints = rng.uniform(-20.0, 20.0, (6, 6))
        segment_times = [0.2573, 0.5, 0.1237, 0.3, 0.0105]
        params = TrajectoryConfig(type="arbitrary", waypoints=waypoints, segment_times=segment_times,
                                  interp=mode)
        traj = gen_arbitrary(params, DT)
        expected = arbitrary_by_loop(waypoints, segment_times, traj.t, mode)
        values = np.column_stack([traj.position, traj.orientation_deg])
        if mode == "linear":
            assert np.array_equal(values, expected)
        else:
            assert np.all(np.abs(values - expected) <= np.spacing(np.abs(expected)))


def circle(**keys):
    """The circular trajectory at DT with the given [trajectory] keys."""
    return gen_circular(TrajectoryConfig(type="circular", **keys), DT)


class TestCircular:
    def test_starts_at_radius_offset(self):
        traj = circle(radius=50.0, rot_angle_deg=0.0, rounds=1, circle_frequency=2.0, direction="ccw")
        assert np.allclose(traj.position[0], [50.0, 0.0, 0.0], atol=1e-12)

    def test_ccw_quarter_turn(self):
        traj = circle(radius=50.0, rot_angle_deg=0.0, rounds=1, circle_frequency=2.0, direction="ccw")
        k = int(round(0.125 / DT))  # quarter of the 0.5 s period
        assert np.allclose(traj.position[k], [0.0, 50.0, 0.0], atol=1e-9)

    def test_cw_flips_phase(self):
        traj = circle(radius=50.0, rot_angle_deg=0.0, rounds=1, circle_frequency=2.0, direction="cw")
        k = int(round(0.125 / DT))
        assert np.allclose(traj.position[k], [0.0, -50.0, 0.0], atol=1e-9)

    def test_twenty_rounds_duration_and_closure(self):
        traj = circle(radius=20.0, rot_angle_deg=10.0, rounds=20, circle_frequency=2.0, direction="cw")
        assert traj.duration == pytest.approx(10.0, abs=1e-12)
        assert np.max(np.abs(traj.position[-1] - traj.position[0])) < 1e-9
        assert np.max(np.abs(traj.orientation_deg[-1] - traj.orientation_deg[0])) < 1e-9

    def test_oscillating_rotation_peak(self):
        traj = circle(radius=0.0, rot_angle_deg=10.0, rounds=1, circle_frequency=2.0, direction="ccw")
        k = int(round(0.125 / DT))
        assert traj.orientation_deg[k, 2] == pytest.approx(10.0, abs=1e-9)

    def test_continuous_rotation_closure(self):
        traj = circle(radius=0.0, rot_angle_deg=0.0, rounds=3, circle_frequency=1.0, direction="ccw",
                      rotation_mode="continuous")
        assert abs(traj.orientation_deg[-1, 2] - traj.orientation_deg[0, 2]) < 1e-9
        # The spin wraps yaw into [-180, 180): each round is at -180 half way.
        yaw = traj.orientation_deg[:, 2]
        assert np.all((yaw >= -180.0) & (yaw < 180.0))
        assert np.count_nonzero(yaw == -180.0) == 3

    def test_disabled_channels_stay_home(self):
        # radius 0 holds the position at home in either rotation_mode;
        # rot_angle_deg 0 holds the yaw there when it oscillates, while the
        # continuous spin ignores it.  Some zeros are -0.0: compare with ==.
        for mode in ("oscillate", "continuous"):
            traj = circle(radius=0.0, rot_angle_deg=0.0, rounds=1, circle_frequency=2.0, direction="ccw",
                          rotation_mode=mode)
            assert np.all(traj.position == 0.0)
            assert np.all(traj.orientation_deg[:, :2] == 0.0)
            assert np.all(traj.orientation_deg[:, 2] == 0.0) == (mode == "oscillate")

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="^radius: must be >= 0$"):
            TrajectoryConfig(type="circular", radius=float("nan"))

    def test_uniform_timestamps(self):
        traj = circle(radius=10.0, rot_angle_deg=0.0, rounds=2, circle_frequency=3.0, direction="ccw")
        assert all_timestamps_uniform(traj)
