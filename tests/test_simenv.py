import math

import numpy as np
import pytest

from quadstage import simenv
from quadstage.cli import build_parser, effective_config
from quadstage.config import TrajectoryConfig, default_config, loads_config
from quadstage.kinematics import LegGeometry, PlatformPose, leg_jacobian, solve_platform_ik
from quadstage.logio import as_read
from quadstage.postprocess import PoseSeries
from quadstage.simenv import (
    GRAVITY,
    ActuatorParams,
    SimParams,
    SimulationUnstableError,
    gravity_torque,
    pd_control,
    run_sim,
    sim_step,
)
from quadstage.trajectory import gen_sine


# The README's circular example: 20 mm, +/-10 deg yaw, 1.2 kg payload.
README_CIRCLE = """\
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


# CI's 4-waypoint cosine arbitrary trajectory.
ARBITRARY = """\
[trajectory]
type = arbitrary
interp = cosine
waypoints = 0 0 0 0 0 0 ; 10 -5 3 2 1 -2 ; -4 2 0 0 0 5 ; 0 0 0 0 0 0
segment_times = 0.5 0.75 0.6
"""


def home_targets(cfg, n):
    q0 = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
    return np.tile(q0, (n, 1))


def sine_targets(cfg, params):
    traj = gen_sine(params, cfg.sim.dt)
    q = np.empty((len(traj), 12))
    for k in range(len(traj)):
        q[k] = solve_platform_ik(traj.pose(k), cfg.robot, cfg.platform)
    return q


def solved(cfg):
    return cfg, solve_platform_ik(cfg.build_trajectory(), cfg.robot, cfg.platform, cfg.limits)


def as_run(cfg):
    # The joint targets `all` hands run_sim: the IK of the trajectory as its
    # file holds it, itself as its file holds it.
    traj = cfg.build_trajectory()
    traj = PoseSeries(as_read(traj.position), as_read(traj.orientation_deg), cfg.sim.dt)
    return cfg, as_read(solve_platform_ik(traj, cfg.robot, cfg.platform, cfg.limits))


def flagged(*flags):
    return effective_config(build_parser().parse_args(["all", *flags]))


def perturbed_mid_cycle():
    # Unperturbed, ticks 3203-5000 of the default sine as run are copies;
    # perturbed, copying stops at tick 4000 and starts again at 4303.
    cfg, targets = as_run(default_config())
    targets[4000, 4] += 1e-9
    return cfg, targets


def signed_zeros():
    # Unloaded on zero targets the state stays +0.0, but a -0.0 target sets
    # the sign bit of tau and current: the rows are equal as floats, not as bits.
    targets = np.zeros((1000, 12))
    targets[500::7, 5] = -0.0
    return loads_config("[sim]\npayload_mass = 0\nplatform_mass = 0\n"), targets


def signed_zero_in_a_later_period():
    # Unloaded, joint 0 swings with period 4 and joint 5 stays at +0.0, so
    # the ticks soon repeat and are copied; one row of a later period holds
    # -0.0 on joint 5, which sets that tick's tau sign bit.  The copy must
    # stop at that row: its target equals the row 4 before as floats, not as bits.
    targets = np.zeros((2000, 12))
    targets[:, 0] = np.tile([0.0, 0.01, 0.0, -0.01], 500)
    targets[1501, 5] = -0.0
    return loads_config("[sim]\npayload_mass = 0\nplatform_mass = 0\n"), targets


def short_repeats():
    cfg = default_config()
    q0 = home_targets(cfg, 1)[0]
    return cfg, np.array([q0, q0 + 0.01, q0, q0 - 0.01] * 500)


def strided():
    cfg, targets = as_run(default_config())
    return cfg, np.repeat(targets, 2, axis=0)[::2]


# run_sim copies the ticks that repeat earlier ones; its log must still be
# that of a sim_step loop.  Each case gives a config and its joint targets.
LOOP_CASES = {
    "default sine": lambda: solved(default_config()),
    "README circle": lambda: solved(loads_config(README_CIRCLE)),
    "README circle as run": lambda: as_run(loads_config(README_CIRCLE)),
    "--traj step": lambda: as_run(flagged("--traj", "step")),
    "--profile sim": lambda: as_run(flagged("--profile", "sim")),
    "CI arbitrary": lambda: as_run(loads_config(ARBITRARY)),
    "perturbed mid-cycle": perturbed_mid_cycle,
    "signed zeros": signed_zeros,
    "signed zero in a later period": signed_zero_in_a_later_period,
    "strided": strided,
    "short repeats": short_repeats,
}


class TestGravityTorque:
    def test_zero_mass(self, cfg):
        q = home_targets(cfg, 1)[0]
        assert np.array_equal(gravity_torque(q, 0.0, cfg.robot), np.zeros(12))

    def test_straight_vertical_leg_unloaded_joints(self, cfg):
        # A vertical force through both planar joints has no moment arm.
        q = np.zeros(12)
        tau = gravity_torque(q, 2.0, cfg.robot)
        assert np.max(np.abs(tau)) < 1e-12

    def test_matches_potential_energy_gradient(self, cfg, rng):
        # Independent oracle: central finite differences of the per-leg
        # potential U = (m g / 4) * z_foot, with the load being -dU/dq.
        from quadstage.kinematics import leg_fk

        mass, g, h = 1.5, 9.81, 1e-6
        for _ in range(50):
            q = rng.uniform(-1.2, 1.2, 12)
            tau = gravity_torque(q, mass, cfg.robot)
            for i, geom in enumerate(cfg.robot):
                for j in range(3):
                    dq = np.zeros(3)
                    dq[j] = h
                    q_leg = q[3 * i : 3 * i + 3]
                    du = (
                        leg_fk(q_leg + dq, geom)[2] - leg_fk(q_leg - dq, geom)[2]
                    ) / (2 * h) * 1e-3 * mass * g / 4.0
                    assert tau[3 * i + j] == pytest.approx(-du, abs=1e-6)

    @pytest.mark.parametrize("hip_offset_y", [0.0, 40.0, -12.5])
    def test_equals_leg_jacobian_transpose_bit_for_bit(self, cfg, rng, hip_offset_y):
        # leg_jacobian is the oracle for the closed-form z row: the load
        # must equal J^T f with f = (0, 0, -m g / 4) exactly, sign of zero
        # included.  The fixed configurations put zeros in the z row
        # (q_aa = 0 with no offset, q_hip + q_knee = 0).
        robot = [LegGeometry(geom.hip_mount, geom.l_upper, geom.l_lower, hip_offset_y, geom.side)
                 for geom in cfg.robot]
        assert {geom.side for geom in robot} == {"left", "right"}
        fixed = [np.zeros(12), np.tile([0.0, 0.4, -0.4], 4), np.tile([-0.0, -0.3, 0.3], 4)]
        for k in range(1000):
            q = fixed[k] if k < len(fixed) else rng.uniform(-3.0, 3.0, 12)
            mass = rng.uniform(0.01, 5.0)
            f = np.array([0.0, 0.0, -mass * GRAVITY / 4.0])
            expected = np.concatenate(
                [(leg_jacobian(q[3 * i : 3 * i + 3], geom) * 1e-3).T @ f for i, geom in enumerate(robot)]
            )
            tau = gravity_torque(q, mass, robot)
            assert np.array_equal(tau.view(np.uint64), expected.view(np.uint64)), (q, mass)


class TestPdControl:
    def test_zero_error_zero_output(self, cfg):
        q = np.zeros(12)
        tau, current = pd_control(q, q, np.zeros(12), cfg.sim, cfg.actuator, np.zeros(12))
        assert np.array_equal(tau, np.zeros(12))
        assert np.array_equal(current, np.zeros(12))

    def test_torque_clamp_binds_before_current_clamp(self, cfg):
        # tau_max / (gear * kt) = 2.7 / 0.225 = 12 A < 15 A.
        tau, current = pd_control(
            np.full(12, 10.0), np.zeros(12), np.zeros(12), cfg.sim, cfg.actuator, np.zeros(12)
        )
        assert np.allclose(tau, 2.7)
        assert np.allclose(current, 12.0)

    def test_current_clamp_reduces_torque(self):
        # With a larger torque budget the 15 A current clamp binds first
        # and the applied torque drops to i_max * gear * kt.
        actuator = ActuatorParams(tau_max=5.0)
        params = SimParams()
        tau, current = pd_control(
            np.full(12, 10.0), np.zeros(12), np.zeros(12), params, actuator, np.zeros(12)
        )
        assert np.allclose(current, 15.0)
        assert np.allclose(tau, 15.0 * 9.0 * 0.025)

    def test_linear_below_clamps(self, cfg):
        err = np.full(12, 1e-3)
        tau1, cur1 = pd_control(err, np.zeros(12), np.zeros(12), cfg.sim, cfg.actuator, np.zeros(12))
        tau2, cur2 = pd_control(2 * err, np.zeros(12), np.zeros(12), cfg.sim, cfg.actuator, np.zeros(12))
        assert np.allclose(tau2, 2 * tau1)
        assert np.allclose(cur2, 2 * cur1)

    def test_gravity_feedforward_flag(self, cfg):
        tau_g = np.full(12, 0.5)
        q = np.zeros(12)
        tau_off, _ = pd_control(q, q, np.zeros(12), cfg.sim, cfg.actuator, tau_g)
        assert np.array_equal(tau_off, np.zeros(12))
        cfg.sim.gravity_compensation = True
        tau_on, _ = pd_control(q, q, np.zeros(12), cfg.sim, cfg.actuator, tau_g)
        assert np.allclose(tau_on, 0.5)


class TestSimStep:
    def test_equilibrium_without_gravity(self, cfg):
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        q0 = home_targets(cfg, 1)[0]
        q, qdot, _, _ = sim_step(q0, np.zeros(12), q0, cfg.sim, cfg.actuator, cfg.robot, 0)
        assert np.array_equal(q, q0)
        assert np.array_equal(qdot, np.zeros(12))

    def test_overdamped_convergence_is_monotone(self, cfg):
        # Scalar oracle: kd >= 2 sqrt(kp I) gives a non-oscillating approach.
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        cfg.sim.kp[:] = 20.0
        cfg.sim.kd[:] = 2.5 * math.sqrt(20.0 * cfg.actuator.reflected_inertia)
        q0 = home_targets(cfg, 1)[0]
        target = q0 + 0.1
        q, qdot = q0, np.zeros(12)
        for k in range(3000):
            prev = q
            q, qdot, _, _ = sim_step(q, qdot, target, cfg.sim, cfg.actuator, cfg.robot, k)
            assert np.all(q - prev >= -1e-12)
        assert np.max(np.abs(q - target)) < 1e-6

    def test_gravity_offset_at_equilibrium(self, cfg):
        cfg.sim.payload_mass = 1.2
        cfg.sim.platform_mass = 0.3
        q0 = home_targets(cfg, 1)[0]
        q, qdot = q0, np.zeros(12)
        for k in range(6000):
            q, qdot, _, _ = sim_step(q, qdot, q0, cfg.sim, cfg.actuator, cfg.robot, k)
        tau_g = gravity_torque(q, cfg.sim.total_mass, cfg.robot)
        assert np.max(np.abs((q0 - q) - tau_g / cfg.sim.kp)) < 1e-6

    def test_unstable_error_names_the_tick_passed_in(self, cfg):
        q0 = home_targets(cfg, 1)[0]
        target = q0.copy()
        target[5] = np.nan
        with pytest.raises(SimulationUnstableError, match="^simulation diverged at tick 1234$") as err:
            sim_step(q0, np.zeros(12), target, cfg.sim, cfg.actuator, cfg.robot, 1234)
        assert err.value.tick == 1234


class TestRunSim:
    def test_all_home_without_gravity_stays_put(self, cfg):
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        targets = home_targets(cfg, 500)
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert np.max(np.abs(log.q - targets)) == 0.0

    def test_all_home_with_gravity_stays_in_offset_band(self, cfg):
        targets = home_targets(cfg, 2000)
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        tau_g0 = gravity_torque(targets[0], cfg.sim.total_mass, cfg.robot)
        band = 2.5 * np.max(np.abs(tau_g0 / cfg.sim.kp))
        assert np.max(np.abs(log.q - targets)) < band

    def test_log_shape_and_determinism(self, cfg):
        targets = sine_targets(cfg, TrajectoryConfig(run_time=0.5, wait_time=0.1, frequency=2.0,
                                                     amplitude=20.0))
        log1 = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        log2 = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert len(log1) == len(targets)
        assert np.max(np.abs(np.diff(log1.t) - cfg.sim.dt)) < 1e-12
        for name in ("q", "qdot", "tau", "current"):
            assert np.array_equal(getattr(log1, name), getattr(log2, name))

    def test_tracking_with_lag_and_finite_rmse(self, cfg):
        targets = sine_targets(cfg, TrajectoryConfig(run_time=1.5, wait_time=0.2, frequency=2.0,
                                                     amplitude=20.0))
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        rmse = np.sqrt(np.mean((log.q_target - log.q) ** 2))
        assert 0.0 < rmse < 0.2
        assert np.all(np.isfinite(log.q))

    def test_clamp_invariants(self, cfg):
        targets = sine_targets(cfg, TrajectoryConfig(run_time=1.0, wait_time=0.2, frequency=10.0,
                                                     amplitude=10.0))
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert np.max(np.abs(log.tau)) <= cfg.actuator.tau_max + 1e-12
        assert np.max(np.abs(log.current)) <= cfg.actuator.i_max + 1e-12

    def test_kinetic_energy_nonincreasing_at_rest_on_target(self, cfg):
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        targets = home_targets(cfg, 300)
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        ke = 0.5 * cfg.actuator.reflected_inertia * np.sum(log.qdot**2, axis=1)
        assert np.all(np.diff(ke[1:]) <= 1e-18)

    def test_displaced_start_dissipates(self, cfg):
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        q0 = home_targets(cfg, 1)[0]
        targets = np.tile(q0 + 0.05, (4000, 1))
        targets[0] = q0  # run starts at rest on the first sample
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert np.max(np.abs(log.q[-1] - targets[-1])) < 1e-9
        assert 0.5 * cfg.actuator.reflected_inertia * np.sum(log.qdot[-1] ** 2) < 1e-20

    def test_instability_reports_tick(self, cfg):
        cfg.sim.payload_mass = 0.0
        cfg.sim.platform_mass = 0.0
        q0 = home_targets(cfg, 1)[0]
        targets = np.tile(q0, (100, 1))
        targets[40, 3] = np.nan  # corrupted sample poisons the state
        with pytest.raises(SimulationUnstableError) as err:
            run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert err.value.tick == 40

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_start_state_reports_its_tick(self, cfg, value):
        # A tick checks only the state it makes; an infinite angle would
        # otherwise reach math.sin in the gravity load.
        targets = home_targets(cfg, 20)
        targets[0, 4] = value
        with pytest.raises(SimulationUnstableError, match="^simulation diverged at tick 0$"):
            run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        with pytest.raises(SimulationUnstableError, match="^simulation diverged at tick 7$"):
            sim_step(targets[0], np.zeros(12), targets[1], cfg.sim, cfg.actuator, cfg.robot, 7)

    @pytest.mark.parametrize("sample", [57, 99])
    def test_instability_reports_first_diverging_sample(self, cfg, sample):
        # The last sample's new state is never logged, but still checked.
        targets = home_targets(cfg, 100)
        targets[sample, 7] = np.nan
        with pytest.raises(SimulationUnstableError, match=f"^simulation diverged at tick {sample}$") as err:
            run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert err.value.tick == sample

    def test_finite_state_with_overflowing_dot_runs(self, cfg):
        # At +/-1.5e308 rad the gravity load still drives the rates, so
        # q . qdot (and the sum of q) overflows while every entry is finite.
        for v in (1.5e308, -1.5e308):
            targets = np.tile([v, v, 0.0], (50, 4))
            log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
            assert np.isfinite(log.q).all() and np.isfinite(log.qdot).all()
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.dot(log.q[-1], log.qdot[-1]))

    @pytest.mark.parametrize("config", list(LOOP_CASES))
    def test_equals_a_sim_step_loop_bit_for_bit(self, config):
        cfg, targets = LOOP_CASES[config]()
        if config in ("default sine", "README circle"):
            # The README circle carries 1.2 kg with the gravity feed-forward
            # on; the default sine runs without it.
            assert cfg.sim.gravity_compensation == (config == "README circle")
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert log.q_target is targets
        q, qdot = targets[0], np.zeros(12)
        expected = {name: [] for name in ("q", "qdot", "tau", "current")}
        for k, target in enumerate(targets):
            expected["q"].append(q)
            expected["qdot"].append(qdot)
            q, qdot, tau, current = sim_step(q, qdot, target, cfg.sim, cfg.actuator, cfg.robot, k)
            expected["tau"].append(tau)
            expected["current"].append(current)
        for name, rows in expected.items():
            got, want = getattr(log, name), np.array(rows)
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name
        # The log's current is its torque's, bit for bit: no tick writes it.
        derived = cfg.actuator.current_from_torque(log.tau)
        assert np.array_equal(log.current, derived)
        assert np.array_equal(np.signbit(log.current), np.signbit(derived))

    @pytest.mark.parametrize("config", ["--profile sim", "signed zeros"])
    def test_memo_hits_are_checked_byte_for_byte(self, monkeypatch, config):
        # With every memo hash equal, a tick may still only be copied from
        # one that started from its very bits.
        cfg, targets = LOOP_CASES[config]()
        want = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        monkeypatch.setattr(simenv, "hash", lambda key: 0, raising=False)
        got = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        for name in ("q", "qdot", "tau", "current"):
            assert np.array_equal(getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64)), name

    def test_instability_inside_a_copied_stretch_reports_its_tick(self):
        # Unperturbed, ticks 3203-5000 of the default sine as run are copies.
        cfg, targets = as_run(default_config())
        targets[4000, 7] = np.nan
        with pytest.raises(SimulationUnstableError, match="^simulation diverged at tick 4000$") as err:
            run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert err.value.tick == 4000

    @pytest.mark.parametrize("config, share", [("README circle", 0.30), ("default sine", 0.40),
                                               ("noisy circle", 1.0)])
    def test_repeating_ticks_are_copied_not_stepped(self, monkeypatch, config, share):
        # As run, the circle and the sine settle into cycles that repeat bit
        # for bit; a change to the tick or its key that stops the copies
        # fails here.  The log's origin names the stepped ticks, and each
        # record has the bits of its origin's (-0.0 is not 0.0).  Targets
        # with noise never repeat a row, so there every record is its own.
        stepper, ticks = simenv._stepper, []

        def counting(*args):
            step = stepper(*args)

            def counted(*rows):
                ticks.append(rows[-1])
                step(*rows)
            return counted

        monkeypatch.setattr(simenv, "_stepper", counting)
        cfg, targets = as_run(default_config() if config == "default sine" else loads_config(README_CIRCLE))
        if config == "noisy circle":
            targets = targets + np.random.default_rng(3).normal(scale=1e-6, size=targets.shape)
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert 0 < len(ticks) <= share * len(targets)
        assert np.flatnonzero(log.origin == np.arange(len(log))).tolist() == ticks
        assert (log.origin <= np.arange(len(log))).all() and np.array_equal(log.origin[log.origin], log.origin)
        for name in ("q_target", "q", "qdot", "tau", "current"):
            bits = np.ascontiguousarray(getattr(log, name)).view(np.int64)
            assert np.array_equal(bits[log.origin], bits), name
        if config == "noisy circle":
            assert np.array_equal(log.origin, np.arange(len(log)))

    def test_rejects_empty_trajectory(self, cfg):
        with pytest.raises(ValueError):
            run_sim(np.empty((0, 12)), cfg.sim, cfg.actuator, cfg.robot)


class TestParams:
    # NaN fails every comparison, so each check is written to fail on it.
    def test_sim_params_reject_nan_dt(self):
        with pytest.raises(ValueError, match="^dt: must be positive$"):
            SimParams(dt=float("nan"))

    def test_sim_params_reject_infinite_dt(self):
        with pytest.raises(ValueError, match="^dt: must be finite$"):
            SimParams(dt=float("inf"))

    def test_actuator_params_reject_nan_clamp(self):
        with pytest.raises(ValueError, match="^tau_max: must be positive$"):
            ActuatorParams(tau_max=float("nan"))
