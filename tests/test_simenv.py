import math

import numpy as np
import pytest

from quadstage.kinematics import LegGeometry, PlatformPose, leg_jacobian, solve_platform_ik
from quadstage.simenv import (
    ActuatorParams,
    SimParams,
    SimulationUnstableError,
    gravity_torque,
    pd_control,
    run_sim,
    sim_step,
)
from quadstage.trajectory import SineParams, gen_sine


def home_targets(cfg, n):
    q0 = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
    return np.tile(q0, (n, 1))


def sine_targets(cfg, params, dt):
    traj = gen_sine(params, dt)
    q = np.empty((len(traj), 12))
    for k in range(len(traj)):
        q[k] = solve_platform_ik(traj.pose(k), cfg.robot, cfg.platform)
    return q


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
            tau = gravity_torque(q, mass, cfg.robot, g)
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
            f = np.array([0.0, 0.0, -mass * cfg.sim.gravity / 4.0])
            expected = np.concatenate(
                [(leg_jacobian(q[3 * i : 3 * i + 3], geom) * 1e-3).T @ f for i, geom in enumerate(robot)]
            )
            tau = gravity_torque(q, mass, robot, cfg.sim.gravity)
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
        tau_g = gravity_torque(q, cfg.sim.total_mass, cfg.robot, cfg.sim.gravity)
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
        targets = sine_targets(cfg, SineParams(0.5, 0.1, frequency=2.0, amplitude=20.0), cfg.sim.dt)
        log1 = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        log2 = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        assert len(log1) == len(targets)
        assert np.max(np.abs(np.diff(log1.t) - cfg.sim.dt)) < 1e-12
        for name in ("q", "qdot", "tau", "current"):
            assert np.array_equal(getattr(log1, name), getattr(log2, name))

    def test_tracking_with_lag_and_finite_rmse(self, cfg):
        targets = sine_targets(cfg, SineParams(1.5, 0.2, frequency=2.0, amplitude=20.0), cfg.sim.dt)
        log = run_sim(targets, cfg.sim, cfg.actuator, cfg.robot)
        rmse = np.sqrt(np.mean((log.q_target - log.q) ** 2))
        assert 0.0 < rmse < 0.2
        assert np.all(np.isfinite(log.q))

    def test_clamp_invariants(self, cfg):
        targets = sine_targets(cfg, SineParams(1.0, 0.2, frequency=10.0, amplitude=10.0), cfg.sim.dt)
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

    def test_rejects_empty_trajectory(self, cfg):
        with pytest.raises(ValueError):
            run_sim(np.empty((0, 12)), cfg.sim, cfg.actuator, cfg.robot)


class TestParams:
    # NaN fails every comparison, so each check is written to fail on it.
    def test_sim_params_reject_nan_dt(self):
        with pytest.raises(ValueError, match="^dt: must be positive$"):
            SimParams(dt=float("nan"))

    def test_actuator_params_reject_nan_clamp(self):
        with pytest.raises(ValueError, match="^tau_max: must be positive$"):
            ActuatorParams(tau_max=float("nan"))
