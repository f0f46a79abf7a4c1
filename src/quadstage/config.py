"""Configuration: a strict line-oriented text format and its schema.

The format is sections and key/value pairs::

    # comment
    [section]
    key = value

Each section is a dataclass (``_SECTIONS`` names them), and each of its
fields is the only declaration of a key.  The field order is the file
order.  The annotation picks the parser and formatter (``float``, ``int``,
``bool``, ``float | np.ndarray`` for per-joint gains); vectors and choice
strings carry theirs in ``field(metadata={"codec": ...})``.  A field's
check lives in its dataclass's ``__post_init__``; the checks across
sections, ``trajectory.dt`` equal to ``sim.dt`` (the whole pipeline runs on
one sample clock), the filter cutoff below the Nyquist rate of ``sim.dt``
and a trajectory long enough to filter, are in ``Config.__post_init__``.

Every key is optional and falls back to the shipped default, but unknown
sections, unknown keys, duplicates, and malformed lines are rejected with
the offending line number, and so are non-finite numbers (nan, inf).
Every error about a value names it as ``<section>.<key>: <reason>``.
Floats are written with shortest round-trip precision so write -> load
is exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .kinematics import (LEG_NAMES, LegGeometry, PlatformGeometry, PlatformPose, WorkspaceLimits,
                         check_positive)
from .postprocess import Z_OFFSET_PLATFORM, Z_OFFSET_WORLD, FilterParams, PoseSeries
from .simenv import ActuatorParams, SimParams
from .trajectory import (AXES, DIRECTIONS, INTERP_MODES, MOTIONS, ROTATION_MODES, TYPES, CircularParams,
                         SineParams, check_choice, check_segment_times, check_step_time, gen_arbitrary,
                         gen_circular, gen_sine, gen_step, sample_count)

SIM_RATE_DT = 1.0 / 240.0
HW_RATE_DT = 1.0 / 1000.0
# Named control/sample rate presets: profile -> sim.dt and trajectory.dt.
PROFILES = {"hw": HW_RATE_DT, "sim": SIM_RATE_DT}


class ConfigError(ValueError):
    """Config file cannot be parsed or violates an invariant."""


# ---------------------------------------------------------------------------
# Value codecs: (parse, format) pairs.  Parsing is strict; formatting uses
# repr so floats round-trip exactly.


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _parse_floats(text: str, count: int | None = None) -> np.ndarray:
    parts = text.split()
    if count is not None and len(parts) != count:
        raise ConfigError(f"expected {count} numbers, got {len(parts)}")
    return np.array([_parse_float(p) for p in parts])


def _parse_gains(text: str) -> np.ndarray:
    values = _parse_floats(text)
    if len(values) not in (1, 12):
        raise ConfigError(f"expected 1 or 12 numbers, got {len(values)}")
    return values[0] if len(values) == 1 else values


def _parse_pose_rows(text: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError("expected at least one 'x y z rx ry rz' group")
    return np.array([_parse_floats(row, 6) for row in rows])


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(values))


def _fmt_gains(values) -> str:
    arr = np.atleast_1d(values)
    if arr.size == 12 and np.all(arr == arr[0]):
        return repr(float(arr[0]))
    return _fmt_floats(arr)


def _fmt_pose_rows(values) -> str:
    return " ; ".join(_fmt_floats(row) for row in np.atleast_2d(values))


# Codec of a field by its annotation string (every section's module defers
# annotations), unless the field's metadata names one.
_CODECS = {
    "float": (_parse_float, lambda v: repr(float(v))),
    "int": (_parse_int, lambda v: repr(int(v))),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "float | np.ndarray": (_parse_gains, _fmt_gains),
}


def _floats(default, count: int | None = None):
    """A float-vector field of `count` numbers (any number when None)."""
    return field(
        default_factory=lambda: np.array(default, dtype=float),
        metadata={"codec": (lambda text: _parse_floats(text, count), _fmt_floats)},
    )


def _choice(*options: str):
    """A string field holding one of `options`; the first is the default."""

    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return field(default=options[0], metadata={"codec": (parse, str)})


# Sections defined here; platform, workspace, actuator, sim and filter are
# the domain dataclasses of the modules that use them.


@dataclass(frozen=True)
class RobotGeometry:
    """The four legs; indexing and iterating give their LegGeometry, FL/FR/BL/BR."""

    hip_mount_fl: np.ndarray = _floats([200.0, 150.0, 0.0], 3)
    hip_mount_fr: np.ndarray = _floats([200.0, -150.0, 0.0], 3)
    hip_mount_bl: np.ndarray = _floats([-200.0, 150.0, 0.0], 3)
    hip_mount_br: np.ndarray = _floats([-200.0, -150.0, 0.0], 3)
    hip_offset_y: float = 0.0
    l_upper: float = 375.0
    l_lower: float = 375.0
    knee_sign_front: int = 1
    knee_sign_back: int = -1
    joint_limit_deg: float = 170.0

    def __post_init__(self):
        for name in ("knee_sign_front", "knee_sign_back"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name}: must be +1 or -1")
        object.__setattr__(self, "legs", tuple(
            LegGeometry(getattr(self, f"hip_mount_{leg}"), self.l_upper, self.l_lower, self.hip_offset_y,
                        side="left" if leg[1] == "l" else "right",
                        knee_sign=self.knee_sign_front if leg[0] == "f" else self.knee_sign_back,
                        joint_limit_deg=self.joint_limit_deg)
            for leg in LEG_NAMES
        ))

    def __getitem__(self, index) -> LegGeometry:
        return self.legs[index]

    def __iter__(self):
        return iter(self.legs)


@dataclass
class TrajectoryConfig:
    """Parameters for all four generator types; `type` picks one."""

    type: str = _choice(*TYPES)
    dt: float = HW_RATE_DT
    # sine
    run_time: float = 3.0
    wait_time: float = 2.0
    motion: str = _choice(*MOTIONS)
    axis: str = _choice(*AXES)
    frequency: float = 2.0
    amplitude: float = 20.0
    offsets: np.ndarray = _floats([0.0] * 3, 3)
    # step
    step_time: float = 1.0
    total_time: float = 4.0
    step_target: np.ndarray = _floats([0.0] * 6, 6)
    # circular
    radius: float = 20.0
    rot_angle_deg: float = 10.0
    rounds: int = 20
    circle_frequency: float = 2.0
    direction: str = _choice(*DIRECTIONS)
    translation_enabled: bool = True
    rotation_enabled: bool = True
    rotation_mode: str = _choice(*ROTATION_MODES)
    # arbitrary
    waypoints: np.ndarray = field(
        default_factory=lambda: np.zeros((1, 6)),
        metadata={"codec": (_parse_pose_rows, _fmt_pose_rows)},
    )
    segment_times: np.ndarray = _floats([])
    interp: str = _choice(*INTERP_MODES)

    def __post_init__(self):
        check_positive(self, "dt")
        # Check the selected type's parameters now, so that gen cannot fail
        # on them after the run directory exists; the other types' keys may
        # hold anything.
        try:
            self.generator()
        except ValueError as err:
            msg = str(err)
            if self.type == "circular" and msg.startswith("frequency:"):
                msg = "circle_" + msg
            raise ValueError(msg) from None

    def generator(self):
        """(duration key, duration in seconds, generate) of the selected
        type, after checking its keys; generate(limits) builds the
        trajectory."""
        check_choice("type", self.type, TYPES)
        if self.type == "sine":
            params = SineParams(self.run_time, self.wait_time, self.motion, self.axis,
                                self.frequency, self.amplitude, self.offsets)
            return "run_time", params.duration, partial(gen_sine, params, self.dt)
        if self.type == "circular":
            params = CircularParams(self.radius, self.rot_angle_deg, self.rounds,
                                    self.circle_frequency, self.direction,
                                    self.translation_enabled, self.rotation_enabled,
                                    self.rotation_mode)
            return "rounds", params.duration, partial(gen_circular, params, self.dt)
        if self.type == "step":
            check_step_time(self.step_time, self.total_time)
            target = PlatformPose(self.step_target[:3], self.step_target[3:])
            return "total_time", self.total_time, partial(gen_step, target, self.step_time,
                                                          self.total_time, self.dt)
        waypoints = np.atleast_2d(self.waypoints)
        check_segment_times(len(waypoints), self.segment_times)
        poses = [PlatformPose(w[:3], w[3:]) for w in waypoints]
        return "segment_times", sum(self.segment_times, 0.0), partial(
            gen_arbitrary, poses, list(self.segment_times), self.dt, self.interp)


@dataclass
class PostprocessConfig:
    z_offset_mode: str = _choice(Z_OFFSET_WORLD, Z_OFFSET_PLATFORM)


@dataclass
class Config:
    """Fully validated configuration for the whole pipeline."""

    robot: RobotGeometry
    platform: PlatformGeometry
    limits: WorkspaceLimits
    actuator: ActuatorParams
    sim: SimParams
    filter_params: FilterParams
    trajectory: TrajectoryConfig
    postprocess: PostprocessConfig

    def __post_init__(self):
        if self.trajectory.dt != self.sim.dt:
            raise ConfigError("trajectory.dt: must equal sim.dt")
        if self.filter_params.cutoff_hz >= 0.5 / self.sim.dt:
            raise ConfigError("filter.cutoff_hz: must be below the Nyquist rate of sim.dt")
        # post filters the reconstruction (filtfilt pads 3 * order samples)
        key, duration, _ = self.trajectory.generator()
        samples, least = sample_count(duration, self.sim.dt), 3 * self.filter_params.order
        if not samples > least:
            raise ConfigError(f"trajectory.{key}: too short to filter: sample count {samples} "
                              f"at sim.dt, need more than {least} (3 * filter.order)")

    def build_trajectory(self) -> PoseSeries:
        """Generate the trajectory described by the [trajectory] block."""
        _, _, generate = self.trajectory.generator()
        return generate(self.limits)


# Section name -> (Config attribute, dataclass), in file order.
_SECTIONS = {
    "robot": ("robot", RobotGeometry),
    "platform": ("platform", PlatformGeometry),
    "workspace": ("limits", WorkspaceLimits),
    "actuator": ("actuator", ActuatorParams),
    "sim": ("sim", SimParams),
    "filter": ("filter_params", FilterParams),
    "trajectory": ("trajectory", TrajectoryConfig),
    "postprocess": ("postprocess", PostprocessConfig),
}

# (section, key) -> (parse, format), derived from the section fields.
_SCHEMA = {
    section: {f.name: f.metadata.get("codec") or _CODECS[f.type] for f in fields(cls)}
    for section, (_, cls) in _SECTIONS.items()
}


def default_config() -> Config:
    return Config(**{attr: cls() for attr, cls in _SECTIONS.values()})


def loads_config(text: str) -> Config:
    """Parse and validate config text; see load_config."""
    raw: dict[str, dict[str, object]] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in raw[section]:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        parse, _ = _SCHEMA[section][key]
        try:
            raw[section][key] = parse(value)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {section}.{key}: {err}") from None
    return _build_config(raw)


def _build_config(raw: dict) -> Config:
    kwargs = {}
    for section, (attr, cls) in _SECTIONS.items():
        try:
            kwargs[attr] = cls(**raw.get(section, {}))
        except ValueError as err:
            raise ConfigError(f"{section}.{err}") from None
    try:
        return Config(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_config(path) -> Config:
    """Load, parse, and validate a config file.

    Raises:
        ConfigError: parse errors (with line numbers), unknown keys, or
            invariant violations (with the field path).
    """
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def dumps_config(cfg: Config) -> str:
    """Serialize a config deterministically; loads_config inverts exactly."""
    lines = []
    for section, (attr, _) in _SECTIONS.items():
        lines.append(f"[{section}]")
        obj = getattr(cfg, attr)
        for key, (_, fmt) in _SCHEMA[section].items():
            lines.append(f"{key} = {fmt(getattr(obj, key))}")
        lines.append("")
    return "\n".join(lines)


def write_config(cfg: Config, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg))


def config_hash(cfg: Config) -> str:
    """16-hex-digit digest identifying an effective configuration."""
    return hashlib.sha256(dumps_config(cfg).encode("utf-8")).hexdigest()[:16]


def apply_profile(cfg: Config, profile: str) -> Config:
    """Set the control/sample rates of a named profile ('hw' or 'sim')."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    cfg.sim.dt = cfg.trajectory.dt = PROFILES[profile]
    return cfg
