"""Deterministic fixed-timestep joint-space tracking simulator.

Each joint is a double integrator with reflected inertia driven by a PD
controller with torque and current clamps.  The stage weight enters as a
static load: the supported mass pulls each corner toward the hip plane
(the mount hangs the stage upside down relative to the model frame, where
legs point to -z), and the per-corner force maps to joint torques through
the leg Jacobian transpose.  As that force acts along -z, only the z row
of each leg Jacobian (d foot_z / d q) enters; gravity_torque evaluates that
row in closed form, and the tests hold it to leg_jacobian's J^T f.
Integration is semi-implicit Euler (velocity first, then position), which
keeps stiff PD gains stable at 1 kHz without a solver.

run_sim owns the loop: it holds the joint state as two 12-vectors and
calls sim_step once per target sample, which maps (q, qdot) at tick k to
the state at tick k + 1 and the torque and current applied over the tick.
Two runs over the same inputs produce bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import NUM_JOINTS, _planar_foot, check_non_negative, check_positive
from .kinematics import leg_jacobian  # not called here: perfbench/layers.py wraps simenv.leg_jacobian


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
    if not np.all(arr >= 0):
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
        check_positive(self, "tau_max", "gear_ratio", "kt_motor", "i_max", "reflected_inertia")

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
        check_positive(self, "dt")
        check_non_negative(self, "payload_mass", "platform_mass")
        self.kp = _per_joint(self.kp, "kp")
        self.kd = _per_joint(self.kd, "kd")

    @property
    def total_mass(self) -> float:
        return self.payload_mass + self.platform_mass


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

    The load splits evenly over the four corners as a force
    f = (0, 0, -F), F = total_mass * g / 4, and maps through each leg's
    Jacobian transpose: J^T f = -F J[2, :], so only the z row of
    leg_jacobian is needed.  That row, d(foot_z)/dq of
    foot_z = s y + c zp, is (c y - s zp, c xp, c kz), with c, s the cosine
    and sine of q_aa, y the signed lateral offset, kz = l_lower
    sin(q_hip + q_knee) and xp, zp the planar foot of _planar_foot.  It is
    evaluated on math scalars in leg_jacobian's order of operations, and
    the tests hold the result to leg_jacobian's J^T f bit for bit.  This is
    the torque the controller must supply to hold the configuration; the
    integrator subtracts it from the applied torque.
    """
    q = np.asarray(q, dtype=float).tolist()
    if total_mass == 0.0:
        return np.zeros(NUM_JOINTS)
    fz = -total_mass * g / 4.0
    z_rows = []
    for i, geom in enumerate(robot):
        q_aa, q_hip, q_knee = q[3 * i : 3 * i + 3]
        xp, zp = _planar_foot(q_hip, q_knee, geom)
        kz = geom.l_lower * math.sin(q_hip + q_knee)
        y = geom.side_sign * geom.hip_offset_y
        c, s = math.cos(q_aa), math.sin(q_aa)
        z_rows += (c * y - s * zp, c * xp, c * kz)
    # mm/rad -> m/rad, then times fz.  The matmul J^T f sums from +0, so an
    # entry that is zero comes out +0 whatever its sign; so does + 0.0.
    return np.array([(row * 1e-3) * fz + 0.0 for row in z_rows])


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
    the motor current follows from the clamped torque.  The joint vectors
    are float arrays; both results are new arrays.
    """
    tau = params.kp * (q_target - q) - params.kd * qdot
    if params.gravity_compensation:
        tau += tau_gravity
    # The clamps as np.maximum / np.minimum in place: np.clip's values,
    # without its Python-level argument handling on every tick.
    tau_limit = min(actuator.tau_max, actuator.i_max * actuator.gear_ratio * actuator.kt_motor)
    np.minimum(np.maximum(tau, -tau_limit, out=tau), tau_limit, out=tau)
    current = actuator.current_from_torque(tau)
    np.minimum(np.maximum(current, -actuator.i_max, out=current), actuator.i_max, out=current)
    return tau, current


def sim_step(
    q, qdot, q_target, params: SimParams, actuator: ActuatorParams, robot, tick: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance one control tick from joint angles q and rates qdot (12-vectors).

    qddot = (tau_applied - tau_gravity_load) / reflected_inertia, then a
    semi-implicit Euler update of velocity and position.  Returns the new
    (q, qdot) and the (tau, current) applied over the tick, as new arrays.

    Raises:
        SimulationUnstableError: the new state is not finite; .tick is the
            tick index passed in.
    """
    tau_g = gravity_torque(q, params.total_mass, robot, params.gravity)
    tau, current = pd_control(q_target, q, qdot, params, actuator, tau_g)
    qddot = (tau - tau_g) / actuator.reflected_inertia
    qdot = qdot + params.dt * qddot
    q = q + params.dt * qdot
    if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
        raise SimulationUnstableError(tick)
    return q, qdot, tau, current


def run_sim(
    joint_targets,
    params: SimParams,
    actuator: ActuatorParams,
    robot,
) -> SimLog:
    """Track a joint-target sequence from rest at the first target.

    Returns one log record per target sample: record k holds the state at
    t_k together with the torque and current that sim_step applies over
    tick k.

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
    q, qdot = log.q_target[0], np.zeros(NUM_JOINTS)
    for k in range(n):
        log.q[k] = q
        log.qdot[k] = qdot
        q, qdot, log.tau[k], log.current[k] = sim_step(
            q, qdot, targets[k], params, actuator, robot, k
        )
    return log
