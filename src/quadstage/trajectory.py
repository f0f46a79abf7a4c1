"""Target trajectory generators for the stage.

All generators return a PoseSeries of N = round(duration / dt) + 1
samples, sample k at t = k * dt.  When workspace limits are passed,
samples falling outside the box raise a TrajectoryBoundsWarning but are
kept (the caller decides what to do).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kinematics import PlatformPose, WorkspaceLimits
from .postprocess import PoseSeries

TRANSLATION = "translation"
ROTATION = "rotation"


class TrajectoryBoundsWarning(UserWarning):
    """Generated samples exceed the configured workspace box."""


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
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.run_time < 0 or self.wait_time < 0:
            raise ValueError("run_time and wait_time must be >= 0")
        if self.motion not in (TRANSLATION, ROTATION):
            raise ValueError(f"motion must be '{TRANSLATION}' or '{ROTATION}'")
        if self.axis not in ("x", "y", "z"):
            raise ValueError("axis must be one of x, y, z")


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
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.direction not in ("cw", "ccw"):
            raise ValueError("direction must be 'cw' or 'ccw'")
        if self.rotation_mode not in ("oscillate", "continuous"):
            raise ValueError("rotation_mode must be 'oscillate' or 'continuous'")


def _time_grid(duration: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(duration / dt)) + 1
    return np.arange(n) * dt


def _warn_if_outside(positions, orientations, limits: WorkspaceLimits | None):
    if limits is None:
        return
    bounds = np.array([limits.x_max, limits.y_max, limits.z_max])
    bad = np.any(np.abs(positions) > bounds, axis=1)
    bad |= np.any(np.abs(orientations) > limits.rot_max, axis=1)
    count = int(np.count_nonzero(bad))
    if count:
        warnings.warn(
            f"{count} of {len(positions)} samples exceed the workspace box",
            TrajectoryBoundsWarning,
            stacklevel=3,
        )


def gen_sine(params: SineParams, dt: float, limits: WorkspaceLimits | None = None) -> PoseSeries:
    """Sine trajectory: home (plus offsets) during wait_time, then a zero
    phase sinusoid on the selected axis for run_time."""
    t = _time_grid(params.wait_time + params.run_time, dt)
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
    _warn_if_outside(positions, orientations, limits)
    return PoseSeries(dt, positions, orientations)


def gen_step(
    target: PlatformPose,
    step_time: float,
    total_time: float,
    dt: float,
    limits: WorkspaceLimits | None = None,
) -> PoseSeries:
    """Home pose before step_time, target pose from step_time on
    (right-continuous)."""
    if not 0.0 <= step_time <= total_time:
        raise ValueError("need 0 <= step_time <= total_time")
    t = _time_grid(total_time, dt)
    after = t >= step_time - 1e-12
    positions = np.where(after[:, None], target.position, 0.0)
    orientations = np.where(after[:, None], target.orientation_deg, 0.0)
    _warn_if_outside(positions, orientations, limits)
    return PoseSeries(dt, positions, orientations)


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
    if not waypoints:
        raise ValueError("need at least one waypoint")
    if len(segment_times) != len(waypoints) - 1:
        raise ValueError(
            f"need {len(waypoints) - 1} segment times for {len(waypoints)} waypoints, "
            f"got {len(segment_times)}"
        )
    if any(s <= 0 for s in segment_times):
        raise ValueError("segment times must be positive")
    if mode not in ("linear", "cosine"):
        raise ValueError("mode must be 'linear' or 'cosine'")

    channels = np.array(
        [np.concatenate([w.position, w.orientation_deg]) for w in waypoints]
    )
    knots = np.concatenate([[0.0], np.cumsum(segment_times)])
    t = _time_grid(knots[-1], dt)
    values = np.empty((len(t), 6))
    for k, tk in enumerate(t):
        j = min(int(np.searchsorted(knots, tk, side="right")) - 1, len(knots) - 2)
        if len(waypoints) == 1:
            values[k] = channels[0]
            continue
        u = (tk - knots[j]) / (knots[j + 1] - knots[j])
        u = min(max(u, 0.0), 1.0)
        if mode == "cosine":
            u = 0.5 * (1.0 - math.cos(math.pi * u))
        values[k] = channels[j] + u * (channels[j + 1] - channels[j])
    positions, orientations = values[:, :3], values[:, 3:]
    _warn_if_outside(positions, orientations, limits)
    return PoseSeries(dt, positions, orientations)


def gen_circular(params: CircularParams, dt: float, limits: WorkspaceLimits | None = None) -> PoseSeries:
    """Circular trajectory: rounds/frequency seconds of circle tracing,
    starting at (radius, 0) offset, with the configured yaw motion."""
    duration = params.rounds / params.frequency
    t = _time_grid(duration, dt)
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
    _warn_if_outside(positions, orientations, limits)
    return PoseSeries(dt, positions, orientations)
