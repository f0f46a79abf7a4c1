"""Deterministic fixed-timestep joint-space tracking simulator.

Each joint is a double integrator with reflected inertia driven by a PD
controller with torque and current clamps.  The stage weight enters as a
static load: the supported mass pulls each corner toward the hip plane
(the mount hangs the stage upside down relative to the model frame, where
legs point to -z), and the per-corner force maps to joint torques through
the leg Jacobian transpose.  As that force acts along -z, only the z row
of each leg Jacobian (d foot_z / d q) enters; gravity_torque evaluates it
with leg_jacobian's z-row core, and the tests hold it to leg_jacobian's
J^T f.
Integration is semi-implicit Euler (velocity first, then position), which
keeps stiff PD gains stable at 1 kHz without a solver.

run_sim owns the loop.  It binds a run's constants (gains, clamps, load,
leg geometry) once into a tick, which maps (q, qdot) at tick k to the
state at tick k + 1 and the torque applied over the tick, in place in the
rows of the log; the motor current follows from the logged torque.
sim_step, pd_control and gravity_torque run the same code on fresh
arrays.  Two runs over the same inputs produce bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _distinct_rows
from .kinematics import NUM_JOINTS, _foot_z_row, check_fields
from .kinematics import leg_jacobian  # not called here: perfbench/layers.py wraps simenv.leg_jacobian

# Standard gravity (m/s^2): the stage weight is total_mass * GRAVITY.
GRAVITY = 9.81


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
        check_fields(self, positive=("tau_max", "gear_ratio", "kt_motor", "i_max", "reflected_inertia"))

    @property
    def torque_limit(self) -> float:
        """The tighter of the torque clamp and the current clamp's torque."""
        return min(self.tau_max, self.i_max * self.gear_ratio * self.kt_motor)

    def current_from_torque(self, tau: np.ndarray) -> np.ndarray:
        return tau / (self.gear_ratio * self.kt_motor)


@dataclass(eq=False)
class SimParams:
    """Controller and load configuration for a run.

    kp and kd accept a scalar or a per-joint 12-vector; they are stored as
    12-vectors.  The load is the weight of payload_mass + platform_mass
    under the fixed GRAVITY.
    """

    dt: float = 1.0 / 1000.0
    kp: float | np.ndarray = 180.0
    kd: float | np.ndarray = 3.6
    payload_mass: float = 0.3
    platform_mass: float = 0.3
    gravity_compensation: bool = False

    def __post_init__(self):
        self.kp = _per_joint(self.kp, "kp")
        self.kd = _per_joint(self.kd, "kd")
        check_fields(self, positive=("dt",), non_negative=("payload_mass", "platform_mass"))

    @property
    def total_mass(self) -> float:
        return self.payload_mass + self.platform_mass


@dataclass(eq=False)
class SimLog:
    """One record per target sample: target, state, and actuation; record k
    is at t = k * dt.  origin, when known, holds for each record k the
    record origin[k] <= k that it repeats bit for bit in all five blocks, or
    k itself, and origin[origin[k]] == origin[k]; None says nothing of
    repeats."""

    dt: float
    q_target: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    tau: np.ndarray
    current: np.ndarray
    origin: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.q_target)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt


def _gravity_rows(q: list, fz: float, legs) -> list:
    # gravity_torque as a list, from 12 floats and (first joint, geometry) per
    # leg.  The matmul J^T f sums from +0, so an entry that is zero comes out
    # +0 whatever its sign; so does + 0.0.
    z_rows = []
    for j, geom in legs:
        z_rows += _foot_z_row(q[j], q[j + 1], q[j + 2], geom, math)
    return [(row * 1e-3) * fz + 0.0 for row in z_rows]


def gravity_torque(q, total_mass: float, robot) -> np.ndarray:
    """Static joint load (N m) from the supported mass under GRAVITY.

    The load splits evenly over the four corners as a force
    f = (0, 0, -F), F = total_mass * GRAVITY / 4, and maps through each leg's
    Jacobian transpose: J^T f = -F J[2, :], so only the z row of
    leg_jacobian is needed.  It comes from leg_jacobian's own z-row core,
    on math scalars, and the tests hold the result to leg_jacobian's
    J^T f bit for bit.  This is the torque the controller must supply to
    hold the configuration; the integrator subtracts it from the applied
    torque.  run_sim's tick computes it with the same code.
    """
    q, legs = np.asarray(q, dtype=float).tolist(), [(3 * i, geom) for i, geom in enumerate(robot)]
    return np.array(_gravity_rows(q, -total_mass * GRAVITY / 4.0, legs))


def _pd_clamp(tau, q_target, q, qdot, kp, kd, tau_ff, low, high, scratch) -> None:
    # tau = kp (q_target - q) - kd qdot (+ tau_ff unless None), in place, then
    # clamped to [low, high] as np.clip would be, without its argument handling.
    np.subtract(q_target, q, out=tau)
    np.subtract(np.multiply(kp, tau, out=tau), np.multiply(kd, qdot, out=scratch), out=tau)
    if tau_ff is not None:
        np.add(tau, tau_ff, out=tau)
    np.minimum(np.maximum(tau, low, out=tau), high, out=tau)


def pd_control(q_target, q, qdot, params: SimParams, actuator: ActuatorParams,
               tau_gravity) -> tuple[np.ndarray, np.ndarray]:
    """PD torque and motor current with torque/current clamps.

    tau = kp (q_target - q) - kd qdot, plus the gravity feed-forward when
    params.gravity_compensation is set.  Torque is clamped to +/-tau_max,
    or to the torque of the +/-i_max current clamp when that binds first;
    the motor current follows from the clamped torque, so it is within
    +/-i_max up to rounding.  The joint vectors are 12-vectors; both
    results are new arrays, from the PD and clamp code of run_sim's tick.
    """
    tau, scratch, limit = np.empty(NUM_JOINTS), np.empty(NUM_JOINTS), actuator.torque_limit
    tau_ff = tau_gravity if params.gravity_compensation else None
    _pd_clamp(tau, q_target, q, qdot, params.kp, params.kd, tau_ff, -limit, limit, scratch)
    return tau, actuator.current_from_torque(tau)


def _stepper(params: SimParams, actuator: ActuatorParams, robot):
    # A run's tick, step(q, qdot, q_target, q_next, qdot_next, tau, tick), with
    # its constants bound once, writes the new state and the torque in place.
    # Scalars are bound as 12-vectors, which ufuncs take faster than floats.
    kp, kd, fz = params.kp, params.kd, -params.total_mass * GRAVITY / 4.0
    dt, inertia, high = (np.full(NUM_JOINTS, value) for value in (
        params.dt, actuator.reflected_inertia, actuator.torque_limit))
    low, tau_g, scratch = -high, np.empty(NUM_JOINTS), np.empty(NUM_JOINTS)
    tau_ff = tau_g if params.gravity_compensation else None
    legs = [(3 * i, geom) for i, geom in enumerate(robot)]

    def step(q, qdot, q_target, q_next, qdot_next, tau, tick):
        tau_g[:] = _gravity_rows(q.tolist(), fz, legs)
        _pd_clamp(tau, q_target, q, qdot, kp, kd, tau_ff, low, high, scratch)
        # qddot = (tau - tau_g) / J; then qdot + dt qddot, and q + dt qdot.
        np.divide(np.subtract(tau, tau_g, out=scratch), inertia, out=scratch)
        np.add(qdot, np.multiply(dt, scratch, out=scratch), out=qdot_next)
        np.add(q, np.multiply(dt, qdot_next, out=scratch), out=q_next)
        # A non-finite entry makes the float sum non-finite, but so can a
        # finite state overflow it (silently, unlike numpy): then test exactly.
        finite = math.isfinite(sum(q_next.tolist(), sum(qdot_next.tolist())))
        if not (finite or np.isfinite(q_next).all() and np.isfinite(qdot_next).all()):
            raise SimulationUnstableError(tick)

    return step


def sim_step(
    q, qdot, q_target, params: SimParams, actuator: ActuatorParams, robot, tick: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance one control tick from joint angles q and rates qdot (12-vectors).

    qddot = (tau_applied - tau_gravity_load) / reflected_inertia, then a
    semi-implicit Euler update of velocity and position.  Returns the new
    (q, qdot), the tau applied over the tick and the current it draws, as
    new arrays: run_sim's tick and current, run once on fresh arrays.

    Raises:
        SimulationUnstableError: the given or the new state is not finite;
            .tick is the tick index passed in.
    """
    out = tuple(np.empty(NUM_JOINTS) for _ in range(3))
    q, qdot = np.asarray(q, dtype=float), np.asarray(qdot, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(qdot).all()):  # the tick checks only its new state
        raise SimulationUnstableError(tick)
    _stepper(params, actuator, robot)(q, qdot, q_target, *out, tick)
    return (*out, actuator.current_from_torque(out[2]))


def _repeat_length(ids, k: int, lag: int) -> int:
    # How many rows from k on have the id of the row lag before, compared
    # in doubling windows so that the search costs O(its result).
    start, width = k, 64
    while start < len(ids):
        stop = min(start + width, len(ids))
        differ = np.flatnonzero(ids[start:stop] != ids[start - lag:stop - lag])
        if differ.size:
            return start - k + int(differ[0])
        start, width = stop, 2 * width
    return len(ids) - k


def run_sim(joint_targets, params: SimParams, actuator: ActuatorParams, robot) -> SimLog:
    """Track a joint-target sequence from rest at the first target.

    Returns one log record per target sample: record k holds the state at
    t_k, the torque that sim_step applies over tick k and the current it
    draws.  A float array of targets is the log's q_target as is, not a copy.
    The log's origin gives each copied record the stepped tick it copies.

    A tick is a pure function of its (q, qdot, target) bits and the run's
    constants.  So a tick that starts from the bits of an earlier one is
    copied from it, bit for bit, and so is every following tick whose
    target row equals the row the same lag before.  A new per-tick input (a
    velocity reference, say) joins the rows of the one _distinct_rows call.

    Raises:
        SimulationUnstableError: a state went non-finite; .tick names the
            failing sample, 0 for a non-finite first target.
    """
    targets = np.asarray(joint_targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != NUM_JOINTS or len(targets) == 0:
        raise ValueError("joint_targets must be a non-empty (N, 12) array")
    if not np.isfinite(targets[0]).all():  # the start state: a tick checks only its new state
        raise SimulationUnstableError(0)
    # Tick k writes row k + 1 of q and qdot; the last rows are never logged.
    n = len(targets)
    q, qdot = np.empty((n + 1, NUM_JOINTS)), np.empty((n + 1, NUM_JOINTS))
    tau = np.empty((n, NUM_JOINTS))
    q[0], qdot[0] = targets[0], 0.0
    step = _stepper(params, actuator, robot)
    # A tick can only repeat an earlier one if its target row occurs twice, so
    # only those ticks are keyed.  Target rows share an id exactly when their
    # bytes are equal (geometry._distinct_rows): -0.0 is not 0.0, as it sets
    # tau's sign bit.  A memo hash match is checked on (row id, state bytes).
    ids = _distinct_rows(targets)[1]
    repeats = (np.bincount(ids)[ids] > 1).tolist()
    origin = np.arange(n)
    first = {}  # hash of a tick's input -> the first tick to start from it
    k = 0
    while k < n:  # copy the run of ticks from k on that repeats earlier ones, or step tick k
        if repeats[k]:
            start = (ids[k], q[k].tobytes() + qdot[k].tobytes())
            j = first.setdefault(hash(start), k)
            if j < k and (ids[j], q[j].tobytes() + qdot[j].tobytes()) == start:
                run = _repeat_length(ids, k, k - j)
                src = j + np.arange(run) % (k - j)
                q[k + 1:k + run + 1], qdot[k + 1:k + run + 1] = q[src + 1], qdot[src + 1]
                tau[k:k + run] = tau[src]
                origin[k:k + run] = origin[src]  # src < k, so its origins are final
                k += run
                continue
        step(q[k], qdot[k], targets[k], q[k + 1], qdot[k + 1], tau[k], k)
        k += 1
    return SimLog(params.dt, targets, q[:n], qdot[:n], tau, actuator.current_from_torque(tau), origin)
