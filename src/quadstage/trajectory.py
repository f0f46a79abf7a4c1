"""Target trajectory generators for the stage.

All generators return a PoseSeries of N = sample_count(duration, dt)
samples, sample k at t = k * dt.  When workspace limits are passed,
samples falling outside the box raise a TrajectoryBoundsWarning but are
kept (the caller decides what to do).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kinematics import PlatformPose, WorkspaceLimits, check_non_negative, check_positive, outside_box
from .postprocess import PoseSeries

TRANSLATION = "translation"
ROTATION = "rotation"

# Option lists of the string parameters, declared here only (a config field defaults to the first).
TYPES = ("sine", "step", "circular", "arbitrary")
MOTIONS = (TRANSLATION, ROTATION)
AXES = ("x", "y", "z")
DIRECTIONS = ("cw", "ccw")
ROTATION_MODES = ("oscillate", "continuous")
INTERP_MODES = ("linear", "cosine")


class TrajectoryBoundsWarning(UserWarning):
    """Generated samples exceed the configured workspace box."""


def check_choice(name: str, value: str, options) -> None:
    """ValueError "<name>: must be one of ..." unless value is one of options."""
    if value not in options:
        raise ValueError(f"{name}: must be one of {', '.join(options)}")


@dataclass
class SineParams:
    """Single-axis sinusoid: wait at home, then run_time of A sin(2 pi f t).

    motion selects translation (amplitude in mm) or rotation (amplitude in
    degrees); offsets shift the position channels throughout, wait
    included.
    """

    run_time: float
    wait_time: float
    motion: str = TRANSLATION
    axis: str = "x"
    frequency: float = 1.0
    amplitude: float = 0.0
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        check_positive(self, "frequency")
        check_non_negative(self, "run_time", "wait_time")
        check_choice("motion", self.motion, MOTIONS)
        check_choice("axis", self.axis, AXES)

    @property
    def duration(self) -> float:
        return self.wait_time + self.run_time


@dataclass
class CircularParams:
    """Circle in the x-y plane with optional yaw motion.

    rounds full circles are traced at `frequency`; direction 'ccw' runs the
    phase forward and 'cw' flips its sign.  rotation_mode 'oscillate' sweeps
    yaw as rot_angle_deg * sin(phase); 'continuous' spins the yaw through a
    full turn per round (wrapped to (-180, 180]), ignoring rot_angle_deg.
    """

    radius: float
    rot_angle_deg: float = 0.0
    rounds: int = 1
    frequency: float = 1.0
    direction: str = "ccw"
    translation_enabled: bool = True
    rotation_enabled: bool = True
    rotation_mode: str = "oscillate"

    def __post_init__(self):
        check_non_negative(self, "radius")
        if not self.rounds >= 1:
            raise ValueError("rounds: must be >= 1")
        check_positive(self, "frequency")
        check_choice("direction", self.direction, DIRECTIONS)
        check_choice("rotation_mode", self.rotation_mode, ROTATION_MODES)

    @property
    def duration(self) -> float:
        return self.rounds / self.frequency


def sample_count(duration: float, dt: float) -> int:
    """Samples of a trajectory lasting duration seconds at step dt, both ends included."""
    return int(round(duration / dt)) + 1


def _time_grid(duration: float, dt: float) -> np.ndarray:
    if not dt > 0:
        raise ValueError("dt must be positive")
    return np.arange(sample_count(duration, dt)) * dt


def check_step_time(step_time: float, total_time: float) -> None:
    """The step generator's condition 0 <= step_time <= total_time."""
    if not 0.0 <= step_time <= total_time:
        raise ValueError("step_time: must be within [0, total_time]")


def check_segment_times(n_waypoints: int, segment_times) -> None:
    """The arbitrary generator's segments: one positive duration per waypoint gap."""
    if n_waypoints < 1:
        raise ValueError("waypoints: need at least one waypoint")
    if len(segment_times) != n_waypoints - 1:
        raise ValueError(f"segment_times: need {n_waypoints - 1} segment times for "
                         f"{n_waypoints} waypoints, got {len(segment_times)}")
    if not all(s > 0 for s in segment_times):
        raise ValueError("segment_times: must be positive")


def _series(dt: float, positions, orientations, limits: WorkspaceLimits | None) -> PoseSeries:
    # The generated samples, after warning of those outside the box.
    count = 0 if limits is None else int(np.count_nonzero(outside_box(positions, orientations, limits)))
    if count:
        warnings.warn(f"{count} of {len(positions)} samples exceed the workspace box",
                      TrajectoryBoundsWarning, stacklevel=3)
    return PoseSeries(dt, positions, orientations)


def gen_sine(params: SineParams, dt: float, limits: WorkspaceLimits | None = None) -> PoseSeries:
    """Sine trajectory: home (plus offsets) during wait_time, then a zero
    phase sinusoid on the selected axis for run_time."""
    t = _time_grid(params.duration, dt)
    positions = np.tile(params.offsets, (len(t), 1))
    orientations = np.zeros((len(t), 3))
    running = t >= params.wait_time - 1e-12
    value = np.zeros(len(t))
    value[running] = params.amplitude * np.sin(
        2.0 * math.pi * params.frequency * (t[running] - params.wait_time)
    )
    axis = "xyz".index(params.axis)
    if params.motion == TRANSLATION:
        positions[:, axis] += value
    else:
        orientations[:, axis] = value
    return _series(dt, positions, orientations, limits)


def gen_step(
    target: PlatformPose,
    step_time: float,
    total_time: float,
    dt: float,
    limits: WorkspaceLimits | None = None,
) -> PoseSeries:
    """Home pose before step_time, target pose from step_time on
    (right-continuous)."""
    check_step_time(step_time, total_time)
    t = _time_grid(total_time, dt)
    after = t >= step_time - 1e-12
    positions = np.where(after[:, None], target.position, 0.0)
    orientations = np.where(after[:, None], target.orientation_deg, 0.0)
    return _series(dt, positions, orientations, limits)


def gen_arbitrary(
    waypoints,
    segment_times,
    dt: float,
    mode: str = "linear",
    limits: WorkspaceLimits | None = None,
) -> PoseSeries:
    """Piecewise interpolation through waypoints.

    segment_times[i] is the duration from waypoint i to i+1, so it must
    hold len(segment_times) == len(waypoints) - 1.  mode 'linear'
    interpolates each channel linearly; 'cosine' applies half-cosine
    easing per segment (still hitting every waypoint exactly).
    """
    waypoints = list(waypoints)
    segment_times = [float(s) for s in segment_times]
    check_segment_times(len(waypoints), segment_times)
    check_choice("mode", mode, INTERP_MODES)

    channels = np.array(
        [np.concatenate([w.position, w.orientation_deg]) for w in waypoints]
    )
    knots = np.concatenate([[0.0], np.cumsum(segment_times)])
    t = _time_grid(knots[-1], dt)
    values = channels  # one waypoint: no segment, one sample
    if len(waypoints) > 1:  # sample k lies at fraction u[k] of segment j[k]
        j = np.minimum(np.searchsorted(knots, t, side="right") - 1, len(knots) - 2)
        u = np.clip((t - knots[j]) / (knots[j + 1] - knots[j]), 0.0, 1.0)
        if mode == "cosine":
            u = 0.5 * (1.0 - np.cos(np.pi * u))
        values = channels[j] + u[:, None] * (channels[j + 1] - channels[j])
    positions, orientations = values[:, :3], values[:, 3:]
    return _series(dt, positions, orientations, limits)


def gen_circular(params: CircularParams, dt: float, limits: WorkspaceLimits | None = None) -> PoseSeries:
    """Circular trajectory: rounds/frequency seconds of circle tracing,
    starting at (radius, 0) offset, with the configured yaw motion."""
    t = _time_grid(params.duration, dt)
    sign = 1.0 if params.direction == "ccw" else -1.0
    phase = sign * 2.0 * math.pi * params.frequency * t
    positions = np.zeros((len(t), 3))
    orientations = np.zeros((len(t), 3))
    if params.translation_enabled:
        positions[:, 0] = params.radius * np.cos(phase)
        positions[:, 1] = params.radius * np.sin(phase)
    if params.rotation_enabled:
        if params.rotation_mode == "oscillate":
            orientations[:, 2] = params.rot_angle_deg * np.sin(phase)
        else:
            wrapped = np.degrees(np.mod(phase + math.pi, 2.0 * math.pi) - math.pi)
            orientations[:, 2] = wrapped
    return _series(dt, positions, orientations, limits)
