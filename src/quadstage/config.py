"""Configuration: a strict line-oriented text format and its schema.

The format is sections and key/value pairs::

    # comment
    [section]
    key = value

Each section is a dataclass (``_SECTIONS`` names them), and each of its
fields is the only declaration of a key.  The field order is the file
order.  The annotation picks the parser and formatter (``float``, ``int``,
``bool``, ``str``, ``float | np.ndarray`` for per-joint gains); vectors
carry theirs in ``field(metadata={"codec": ...})``, choice strings their
options.  The codecs only parse; each value is checked once, in its
section's ``__post_init__`` (numbers by ``kinematics.check_fields``),
whether it comes from a file or from Python.  ``TrajectoryConfig`` is the
input of the trajectory generators (``trajectory.GENERATORS`` maps its
``type`` to one); it checks every choice, pose vector and number, but
only the selected type's ranges.
``sim.dt`` is the whole pipeline's one sample clock: the generators sample
at it, and no other key sets a step.  The checks across sections, the
filter cutoff below the Nyquist rate of ``sim.dt`` and a trajectory long
enough to filter but at most ``MAX_SAMPLES`` long at ``sim.dt``, are in
``Config.__post_init__``.

Every key is optional and falls back to the shipped default, but unknown
sections, unknown keys, duplicates, malformed lines and values that do not
parse (not a number, integer or ``true``/``false``; a ``waypoints`` row
of other than 6 numbers) are rejected with the offending line number.
Every error about a value names it as ``<section>.<key>: <reason>``.
Floats are written with shortest round-trip precision so write -> load
is exact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .kinematics import LEG_NAMES, LegGeometry, PlatformGeometry, WorkspaceLimits, check_fields
from .postprocess import Z_OFFSET_MODES, FilterParams, PoseSeries
from .simenv import ActuatorParams, SimParams
from .trajectory import (AXES, DIRECTIONS, GENERATORS, INTERP_MODES, MOTIONS, ROTATION_MODES, TYPES,
                         sample_count)

# Named control/sample rate presets: profile -> sim.dt, the run's one clock.
PROFILES = {"hw": 1.0 / 1000.0, "sim": 1.0 / 240.0}
# Most samples a trajectory may have: every stage holds whole-run arrays,
# and this is 100 times the README circle (10001 samples).
MAX_SAMPLES = 10**6


class ConfigError(ValueError):
    """Config file cannot be parsed or violates an invariant."""


# ---------------------------------------------------------------------------
# Value codecs: (parse, format) pairs.  Parsing is strict; formatting uses
# repr so floats round-trip exactly.


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


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


def _parse_floats(text: str) -> np.ndarray:
    return np.array([_parse_float(p) for p in text.split()])


def _parse_gains(text: str) -> np.ndarray:
    values = _parse_floats(text)
    return values[0] if len(values) == 1 else values


def _parse_pose_rows(text: str) -> np.ndarray:
    # Ragged rows make no array, so the row length is checked here.
    rows = [row.split() for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError("expected at least one 'x y z rx ry rz' group")
    for row in rows:
        if len(row) != 6:
            raise ConfigError(f"expected 6 numbers, got {len(row)}")
    return np.array([[_parse_float(p) for p in row] for row in rows])


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
    "str": (str, str),
    "float | np.ndarray": (_parse_gains, _fmt_gains),
}


def _floats(default):
    """A float-vector field of any length; its section checks the length."""
    return field(default_factory=lambda: np.array(default, dtype=float),
                 metadata={"codec": (_parse_floats, _fmt_floats)})


def _choice(*options: str):
    """A string field for one of `options` (the first is the default)."""
    return field(default=options[0], metadata={"options": options})


def _check_choices(section) -> None:
    # Every choice field of the section, whatever else it selects.
    for f in fields(section):
        options = f.metadata.get("options")
        if options and getattr(section, f.name) not in options:
            raise ValueError(f"{f.name}: must be one of {', '.join(options)}")


def _check_poses(name: str, value, shape) -> None:
    # A pose field's shape: x y z rx ry rz numbers (one row per pose), or
    # x y z for a (3,) shape.
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        numbers = "x y z" if shape == (3,) else "x y z rx ry rz"
        raise ValueError(f"{name}: must be {numbers} numbers, got shape {value.shape}")


# Sections defined here; platform, workspace, actuator, sim and filter are
# the domain dataclasses of the modules that use them.


@dataclass(frozen=True, eq=False)
class RobotGeometry:
    """The four legs; indexing and iterating give their LegGeometry, FL/FR/BL/BR."""

    hip_mount_fl: np.ndarray = _floats([200.0, 150.0, 0.0])
    hip_mount_fr: np.ndarray = _floats([200.0, -150.0, 0.0])
    hip_mount_bl: np.ndarray = _floats([-200.0, 150.0, 0.0])
    hip_mount_br: np.ndarray = _floats([-200.0, -150.0, 0.0])
    hip_offset_y: float = 0.0
    l_upper: float = 375.0
    l_lower: float = 375.0
    knee_sign_front: int = 1
    knee_sign_back: int = -1
    joint_limit_deg: float = 170.0

    def __post_init__(self):
        for leg in LEG_NAMES:
            _check_poses(f"hip_mount_{leg}", getattr(self, f"hip_mount_{leg}"), (3,))
        for name in ("knee_sign_front", "knee_sign_back"):
            if getattr(self, name) not in (-1, 1):
                raise ValueError(f"{name}: must be +1 or -1")
        # Before the legs are built, so that an error names hip_mount_<leg>.
        check_fields(self, positive=("l_upper", "l_lower", "joint_limit_deg"))
        object.__setattr__(self, "legs", tuple(
            LegGeometry(getattr(self, f"hip_mount_{leg}"), self.l_upper, self.l_lower, self.hip_offset_y,
                        side="left" if leg[1] == "l" else "right",
                        knee_sign=self.knee_sign_front if leg[0] == "f" else self.knee_sign_back,
                        joint_limit_deg=self.joint_limit_deg)
            for leg in LEG_NAMES
        ))
        for leg, geom in zip(LEG_NAMES, self.legs):  # one read-only array per corner
            object.__setattr__(self, f"hip_mount_{leg}", geom.hip_mount)

    def __getitem__(self, index) -> LegGeometry:
        return self.legs[index]

    def __iter__(self):
        return iter(self.legs)


@dataclass(eq=False)
class TrajectoryConfig:
    """The [trajectory] section: `type` picks the generator (trajectory.GENERATORS),
    which reads only that type's keys."""

    type: str = _choice(*TYPES)
    # sine
    run_time: float = 3.0
    wait_time: float = 2.0
    motion: str = _choice(*MOTIONS)
    axis: str = _choice(*AXES)
    frequency: float = 2.0
    amplitude: float = 20.0
    offsets: np.ndarray = _floats([0.0] * 3)
    # step
    step_time: float = 1.0
    total_time: float = 4.0
    step_target: np.ndarray = _floats([0.0] * 6)
    # circular
    radius: float = 20.0
    rot_angle_deg: float = 10.0
    rounds: int = 20
    circle_frequency: float = 2.0
    direction: str = _choice(*DIRECTIONS)
    rotation_mode: str = _choice(*ROTATION_MODES)
    # arbitrary
    waypoints: np.ndarray = field(
        default_factory=lambda: np.zeros((1, 6)),
        metadata={"codec": (_parse_pose_rows, _fmt_pose_rows)},
    )
    segment_times: np.ndarray = _floats([])
    interp: str = _choice(*INTERP_MODES)

    def __post_init__(self):
        _check_choices(self)
        _check_poses("offsets", self.offsets, (3,))
        _check_poses("step_target", self.step_target, (6,))
        n = len(np.atleast_2d(self.waypoints))
        if n < 1:
            raise ValueError("waypoints: need at least one waypoint")
        _check_poses("waypoints", np.atleast_2d(self.waypoints), (n, 6))
        # The selected type's ranges are checked now, so that gen cannot
        # fail on them after the run directory exists; other types' are not.
        positive, non_negative = (), ()
        if self.type == "sine":
            positive, non_negative = ("frequency",), ("run_time", "wait_time")
        elif self.type == "circular":
            if not self.rounds >= 1:
                raise ValueError("rounds: must be >= 1")
            positive, non_negative = ("circle_frequency",), ("radius",)
        elif self.type == "step":
            if not 0.0 <= self.step_time <= self.total_time:
                raise ValueError("step_time: must be within [0, total_time]")
        else:
            if len(self.segment_times) != n - 1:
                raise ValueError(f"segment_times: need {n - 1} segment times for "
                                 f"{n} waypoints, got {len(self.segment_times)}")
            if not all(s > 0 for s in self.segment_times):
                raise ValueError("segment_times: must be positive")
        check_fields(self, positive, non_negative)

    def duration(self) -> tuple[str, float]:
        """(key, seconds): the selected type's duration, which its generator
        samples, and the key named when it is out of range."""
        if self.type == "sine":
            return "run_time", self.wait_time + self.run_time
        if self.type == "circular":
            return "rounds", self.rounds / self.circle_frequency
        if self.type == "step":
            return "total_time", self.total_time
        return "segment_times", sum(self.segment_times, 0.0)


@dataclass
class PostprocessConfig:
    z_offset_mode: str = _choice(*Z_OFFSET_MODES)

    def __post_init__(self):
        _check_choices(self)


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

    def __eq__(self, other):
        """Equal when dumps_config writes the same text (the text config_hash digests)."""
        if not isinstance(other, Config):
            return NotImplemented
        return dumps_config(self) == dumps_config(other)

    def __post_init__(self):
        if self.filter_params.cutoff_hz >= 0.5 / self.sim.dt:
            raise ConfigError("filter.cutoff_hz: must be below the Nyquist rate of sim.dt")
        # post filters the reconstruction (filtfilt pads 3 * order samples)
        key, duration = self.trajectory.duration()
        least = 3 * self.filter_params.order
        # A quotient past the float range (say, a subnormal dt) has no sample_count.
        finite = math.isfinite(duration / self.sim.dt)
        samples = sample_count(duration, self.sim.dt) if finite else math.inf
        if not samples > least:
            raise ConfigError(f"trajectory.{key}: too short to filter: sample count {samples} "
                              f"at sim.dt, need more than {least} (3 * filter.order)")
        if samples > MAX_SAMPLES:
            raise ConfigError(f"trajectory.{key}: too long: sample count {samples} "
                              f"at sim.dt, at most {MAX_SAMPLES}")

    def build_trajectory(self) -> PoseSeries:
        """The [trajectory] samples at sim.dt; ik, not this, checks them against [workspace]."""
        return GENERATORS[self.trajectory.type](self.trajectory, self.sim.dt)


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
        ConfigError: parse errors (with line numbers), unknown keys,
            invariant violations (with the field path), or a byte that is
            not UTF-8 (with the file and line: a comment is never parsed).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[:err.start] + b"_").decode("utf-8").splitlines())
        raise ConfigError(f"{path}: line {line}: not valid UTF-8") from None
    return loads_config(text)


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


def config_hash(cfg: Config) -> str:
    """16-hex-digit digest identifying an effective configuration."""
    return hashlib.sha256(dumps_config(cfg).encode("utf-8")).hexdigest()[:16]

