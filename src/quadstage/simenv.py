"""Deterministic fixed-timestep joint-space tracking simulator.

Each joint is a double integrator with reflected inertia driven by a PD
controller with torque and current clamps.  The stage weight enters as a
static load: the supported mass pulls each corner toward the hip plane
(the mount hangs the stage upside down relative to the model frame, where
legs point to -z), and the per-corner force maps to joint torques through
the leg Jacobian transpose.  Integration is semi-implicit Euler (velocity
first, then position), which keeps stiff PD gains stable at 1 kHz without
a solver.

Two runs over the same inputs produce bit-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import NUM_JOINTS, leg_jacobian


class SimulationUnstableError(RuntimeError):
    """State became non-finite; reports the failing tick."""

    def __init__(self, tick: int):
        super().__init__(f"simulation diverged at tick {tick}")
        self.tick = tick


def _per_joint(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(NUM_JOINTS, float(arr))
    if arr.shape != (NUM_JOINTS,):
        raise ValueError(f"{name}: must be a scalar or a 12-vector")
    if np.any(arr < 0):
        raise ValueError(f"{name}: must be non-negative")
    return arr


@dataclass
class ActuatorParams:
    """Joint actuator model: torque clamp, gearbox, motor constant, and
    the current clamp of the motor driver."""

    tau_max: float = 2.7
    gear_ratio: float = 9.0
    kt_motor: float = 0.025
    i_max: float = 15.0
    reflected_inertia: float = 0.035

    def __post_init__(self):
        for name in ("tau_max", "gear_ratio", "kt_motor", "i_max", "reflected_inertia"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")

    def current_from_torque(self, tau: np.ndarray) -> np.ndarray:
        return tau / (self.gear_ratio * self.kt_motor)


@dataclass
class SimParams:
    """Controller and load configuration for a run.

    kp and kd accept a scalar or a per-joint 12-vector; they are stored as
    12-vectors.
    """

    dt: float = 1.0 / 1000.0
    kp: float | np.ndarray = 180.0
    kd: float | np.ndarray = 3.6
    gravity: float = 9.81
    payload_mass: float = 0.3
    platform_mass: float = 0.3
    gravity_compensation: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt: must be positive")
        for name in ("payload_mass", "platform_mass"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        self.kp = _per_joint(self.kp, "kp")
        self.kd = _per_joint(self.kd, "kd")

    @property
    def total_mass(self) -> float:
        return self.payload_mass + self.platform_mass


@dataclass
class SimState:
    """Per-joint state at one control tick."""

    q: np.ndarray
    qdot: np.ndarray
    tau: np.ndarray
    current: np.ndarray
    t: float

    @classmethod
    def at_rest(cls, q) -> "SimState":
        q = np.asarray(q, dtype=float).copy()
        return cls(q, np.zeros(NUM_JOINTS), np.zeros(NUM_JOINTS), np.zeros(NUM_JOINTS), 0.0)


@dataclass
class SimLog:
    """One record per target sample: target, state, and actuation; record k
    is at t = k * dt."""

    dt: float
    q_target: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    tau: np.ndarray
    current: np.ndarray

    def __len__(self) -> int:
        return len(self.q_target)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt


def gravity_torque(q, total_mass: float, robot, g: float = 9.81) -> np.ndarray:
    """Static joint load (N m) from the supported mass.

    The load splits evenly over the four corners as a force of
    total_mass * g / 4 along -z and maps through each leg's Jacobian
    transpose.  This is the torque the controller must supply to hold the
    configuration; the integrator subtracts it from the applied torque.
    """
    q = np.asarray(q, dtype=float)
    tau = np.zeros(NUM_JOINTS)
    if total_mass == 0.0:
        return tau
    f = np.array([0.0, 0.0, -total_mass * g / 4.0])
    for i, geom in enumerate(robot):
        jac_m = leg_jacobian(q[3 * i : 3 * i + 3], geom) * 1e-3  # mm/rad -> m/rad
        tau[3 * i : 3 * i + 3] = jac_m.T @ f
    return tau


def pd_control(
    q_target,
    q,
    qdot,
    params: SimParams,
    actuator: ActuatorParams,
    tau_gravity,
) -> tuple[np.ndarray, np.ndarray]:
    """PD torque and motor current with torque/current clamps.

    tau = kp (q_target - q) - kd qdot, plus the gravity feed-forward when
    params.gravity_compensation is set.  Torque is clamped to +/-tau_max,
    or to the torque of the +/-i_max current clamp when that binds first;
    the motor current follows from the clamped torque.
    """
    q_target = np.asarray(q_target, dtype=float)
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    tau = params.kp * (q_target - q) - params.kd * qdot
    if params.gravity_compensation:
        tau = tau + np.asarray(tau_gravity, dtype=float)
    tau_limit = min(actuator.tau_max, actuator.i_max * actuator.gear_ratio * actuator.kt_motor)
    tau = np.clip(tau, -tau_limit, tau_limit)
    current = np.clip(actuator.current_from_torque(tau), -actuator.i_max, actuator.i_max)
    return tau, current


def sim_step(
    state: SimState,
    q_target,
    params: SimParams,
    actuator: ActuatorParams,
    robot,
) -> SimState:
    """Advance one control tick.

    qddot = (tau_applied - tau_gravity_load) / reflected_inertia, then a
    semi-implicit Euler update of velocity and position.
    """
    tau_g = gravity_torque(state.q, params.total_mass, robot, params.gravity)
    tau, current = pd_control(q_target, state.q, state.qdot, params, actuator, tau_g)
    qddot = (tau - tau_g) / actuator.reflected_inertia
    qdot = state.qdot + params.dt * qddot
    q = state.q + params.dt * qdot
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
        raise SimulationUnstableError(tick=int(round(state.t / params.dt)))
    return SimState(q=q, qdot=qdot, tau=tau, current=current, t=state.t + params.dt)


def run_sim(
    joint_targets,
    params: SimParams,
    actuator: ActuatorParams,
    robot,
) -> SimLog:
    """Track a joint-target sequence from rest at the first target.

    Returns one log record per target sample; record k holds the state at
    t_k together with the torque and current applied over that tick.

    Raises:
        SimulationUnstableError: a state went non-finite; .tick names the
            failing sample.
    """
    targets = np.asarray(joint_targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != NUM_JOINTS or len(targets) == 0:
        raise ValueError("joint_targets must be a non-empty (N, 12) array")
    n = len(targets)
    log = SimLog(
        dt=params.dt,
        q_target=targets.copy(),
        q=np.empty((n, NUM_JOINTS)),
        qdot=np.empty((n, NUM_JOINTS)),
        tau=np.empty((n, NUM_JOINTS)),
        current=np.empty((n, NUM_JOINTS)),
    )
    state = SimState.at_rest(targets[0])
    for k in range(n):
        new_state = sim_step(state, targets[k], params, actuator, robot)
        log.q[k] = state.q
        log.qdot[k] = state.qdot
        log.tau[k] = new_state.tau
        log.current[k] = new_state.current
        state = new_state
    return log
