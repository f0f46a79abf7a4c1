"""Target trajectory generators for the stage.

Each generator takes the ``[trajectory]`` section (``config.TrajectoryConfig``),
which declares, defaults and checks every key, reads only its own type's
keys, and samples at the step dt it is given (a run passes its one clock,
``[sim] dt``); ``GENERATORS`` maps the section's ``type`` to its generator.
All generators return a PoseSeries of N = sample_count(seconds, dt)
samples, sample k at t = k * dt, where ``seconds`` is the section's
``duration()``.  The generators only generate: the ``[workspace]`` box is
decided by the ``ik`` stage alone, which rejects the first sample outside
it, by index, on the values it solves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .postprocess import PoseSeries

if TYPE_CHECKING:
    from .config import TrajectoryConfig

TRANSLATION = "translation"
ROTATION = "rotation"

# Option lists of the string parameters, declared here only (a config field
# defaults to the first); TYPES, the keys of GENERATORS, is at the end.
MOTIONS = (TRANSLATION, ROTATION)
AXES = ("x", "y", "z")
DIRECTIONS = ("cw", "ccw")
ROTATION_MODES = ("oscillate", "continuous")
INTERP_MODES = ("linear", "cosine")


def sample_count(duration: float, dt: float) -> int:
    """Samples of a trajectory lasting duration seconds at step dt, both ends included."""
    return int(round(duration / dt)) + 1


def _time_grid(p: TrajectoryConfig, dt: float) -> np.ndarray:
    # Sample times over the section's duration.
    if not dt > 0:
        raise ValueError("dt must be positive")
    _, seconds = p.duration()
    return np.arange(sample_count(seconds, dt)) * dt


def gen_sine(p: TrajectoryConfig, dt: float) -> PoseSeries:
    """Single-axis sinusoid: home plus offsets during wait_time, then a zero
    phase amplitude * sin(2 pi frequency t) on the selected axis for
    run_time.

    motion selects translation (amplitude in mm) or rotation (amplitude in
    degrees); offsets shift the position channels throughout, wait
    included.
    """
    t = _time_grid(p, dt)
    positions = np.tile(np.asarray(p.offsets, dtype=float), (len(t), 1))
    orientations = np.zeros((len(t), 3))
    running = t >= p.wait_time - 1e-12
    value = np.zeros(len(t))
    value[running] = p.amplitude * np.sin(2.0 * math.pi * p.frequency * (t[running] - p.wait_time))
    axis = "xyz".index(p.axis)
    if p.motion == TRANSLATION:
        positions[:, axis] += value
    else:
        orientations[:, axis] = value
    return PoseSeries(positions, orientations, dt)


def gen_step(p: TrajectoryConfig, dt: float) -> PoseSeries:
    """Home pose before step_time, step_target (x y z rx ry rz) from
    step_time on (right-continuous), until total_time."""
    t = _time_grid(p, dt)
    after = t >= p.step_time - 1e-12
    positions = np.where(after[:, None], p.step_target[:3], 0.0)
    orientations = np.where(after[:, None], p.step_target[3:], 0.0)
    return PoseSeries(positions, orientations, dt)


def gen_arbitrary(p: TrajectoryConfig, dt: float) -> PoseSeries:
    """Piecewise interpolation through the waypoints (x y z rx ry rz rows).

    segment_times[i] is the duration from waypoint i to i+1.  interp
    'linear' interpolates each channel linearly; 'cosine' applies
    half-cosine easing per segment (still hitting every waypoint exactly).
    """
    channels = np.atleast_2d(np.asarray(p.waypoints, dtype=float))
    knots = np.concatenate([[0.0], np.cumsum(p.segment_times)])
    t = _time_grid(p, dt)
    values = channels  # one waypoint: no segment, one sample
    if len(channels) > 1:  # sample k lies at fraction u[k] of segment j[k]
        j = np.minimum(np.searchsorted(knots, t, side="right") - 1, len(knots) - 2)
        u = np.clip((t - knots[j]) / (knots[j + 1] - knots[j]), 0.0, 1.0)
        if p.interp == "cosine":
            u = 0.5 * (1.0 - np.cos(np.pi * u))
        values = channels[j] + u[:, None] * (channels[j + 1] - channels[j])
    positions, orientations = values[:, :3], values[:, 3:]
    return PoseSeries(positions, orientations, dt)


def gen_circular(p: TrajectoryConfig, dt: float) -> PoseSeries:
    """Circle in the x-y plane with yaw motion: rounds full circles at
    circle_frequency, starting at (radius, 0); radius 0 holds the position
    at home.

    direction 'ccw' runs the phase forward and 'cw' flips its sign.
    rotation_mode 'oscillate' sweeps yaw as rot_angle_deg * sin(phase), so
    rot_angle_deg 0 holds the yaw at home; 'continuous' spins the yaw
    through a full turn per round (wrapped to [-180, 180)), ignoring
    rot_angle_deg.
    """
    t = _time_grid(p, dt)
    sign = 1.0 if p.direction == "ccw" else -1.0
    phase = sign * 2.0 * math.pi * p.circle_frequency * t
    positions = np.zeros((len(t), 3))
    positions[:, 0] = p.radius * np.cos(phase)
    positions[:, 1] = p.radius * np.sin(phase)
    orientations = np.zeros((len(t), 3))
    if p.rotation_mode == "oscillate":
        orientations[:, 2] = p.rot_angle_deg * np.sin(phase)
    else:
        orientations[:, 2] = np.degrees(np.mod(phase + math.pi, 2.0 * math.pi) - math.pi)
    return PoseSeries(positions, orientations, dt)


# The section's type -> its generator; the keys are the type's option list.
GENERATORS = {"sine": gen_sine, "step": gen_step, "circular": gen_circular, "arbitrary": gen_arbitrary}
TYPES = tuple(GENERATORS)
