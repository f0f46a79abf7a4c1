import dataclasses
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadstage.cli import build_parser, effective_config, main
from quadstage.config import (
    _SECTIONS,
    MAX_SAMPLES,
    Config,
    ConfigError,
    PostprocessConfig,
    RobotGeometry,
    TrajectoryConfig,
    config_hash,
    default_config,
    dumps_config,
    load_config,
    loads_config,
)
from quadstage.kinematics import LEG_NAMES, LegGeometry, PlatformGeometry, WorkspaceLimits
from quadstage.logio import (
    FLOAT_FORMAT,
    JOINT_TARGET_COLUMNS,
    SIM_LOG_COLUMNS,
    TRAJECTORY_KIND,
    LogFormatError,
    read_config_hash,
    read_log,
    read_table,
    read_trajectory,
    write_log,
    write_table,
    write_trajectory,
)
from quadstage.postprocess import PoseSeries
from quadstage.simenv import ActuatorParams, SimLog, SimParams
from quadstage.trajectory import gen_sine, sample_count

MINIMAL = """
[robot]
l_upper = 375.0
l_lower = 375.0

[platform]
home_height = 340.0
"""


# dumps_config(default_config()), byte for byte; the empty segment_times
# line keeps the space after "=".
DEFAULT_SNAPSHOT = """\
[robot]
hip_mount_fl = 200.0 150.0 0.0
hip_mount_fr = 200.0 -150.0 0.0
hip_mount_bl = -200.0 150.0 0.0
hip_mount_br = -200.0 -150.0 0.0
hip_offset_y = 0.0
l_upper = 375.0
l_lower = 375.0
knee_sign_front = 1
knee_sign_back = -1
joint_limit_deg = 170.0

[platform]
length_x = 400.0
width_y = 300.0
z_offset = 20.0
home_height = 340.0

[workspace]
x_max = 255.0
y_max = 105.0
z_max = 105.0
rot_max = 30.0
ball_pivot_max = 30.0

[actuator]
tau_max = 2.7
gear_ratio = 9.0
kt_motor = 0.025
i_max = 15.0
reflected_inertia = 0.035

[sim]
dt = 0.001
kp = 180.0
kd = 3.6
payload_mass = 0.3
platform_mass = 0.3
gravity_compensation = false

[filter]
cutoff_hz = 50.0
order = 4
zero_phase = true

[trajectory]
type = sine
run_time = 3.0
wait_time = 2.0
motion = translation
axis = x
frequency = 2.0
amplitude = 20.0
offsets = 0.0 0.0 0.0
step_time = 1.0
total_time = 4.0
step_target = 0.0 0.0 0.0 0.0 0.0 0.0
radius = 20.0
rot_angle_deg = 10.0
rounds = 20
circle_frequency = 2.0
direction = cw
rotation_mode = oscillate
waypoints = 0.0 0.0 0.0 0.0 0.0 0.0
segment_times =\x20
interp = linear

[postprocess]
z_offset_mode = world
"""

README_OVERRIDE = """
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

CHOICES = {
    "type": ["sine", "step", "circular", "arbitrary"],
    "motion": ["translation", "rotation"],
    "axis": ["x", "y", "z"],
    "direction": ["cw", "ccw"],
    "rotation_mode": ["oscillate", "continuous"],
    "interp": ["linear", "cosine"],
    "z_offset_mode": ["world", "platform"],
}
INTS = {
    "knee_sign_front": st.sampled_from([-1, 1]),
    "knee_sign_back": st.sampled_from([-1, 1]),
    "order": st.sampled_from([2, 4, 6, 8]),
    "rounds": st.integers(1, 1000),
}
POSITIVE = st.floats(1e-3, 1e4)
THIN_RECTANGLE = "corner rectangle too small to reconstruct (side or area below 1e-12)"


def _value(name, default, sim_dt):
    """Strategy for a valid value of one config key, chosen by its default
    and, for the filter cutoff, the drawn sim dt."""
    if name == "cutoff_hz":
        return st.floats(1e-3, 0.49 / sim_dt)
    if name in ("kp", "kd"):
        return st.one_of(st.floats(0.0, 1e4), st.lists(st.floats(0.0, 1e4), min_size=12, max_size=12))
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    if name in INTS:
        return INTS[name]
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, float):
        return st.floats(1e-4, 1.0) if name == "dt" else POSITIVE
    if name == "waypoints":
        return st.lists(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6), min_size=1, max_size=4)
    if name == "segment_times":
        return st.lists(POSITIVE, max_size=4)
    return st.lists(st.floats(-1e3, 1e3), min_size=default.size, max_size=default.size)


@st.composite
def configs(draw):
    base, sections, sim_dt = default_config(), {}, None
    for section in dataclasses.fields(Config):
        obj = getattr(base, section.name)
        values = {}
        for f in dataclasses.fields(obj):
            value = draw(_value(f.name, getattr(obj, f.name), sim_dt))
            values[f.name] = np.array(value) if isinstance(value, list) else value
        if section.name == "trajectory":
            # The step and arbitrary keys are checked together at load, and
            # the selected type must last more than 3 * filter.order samples
            # and at most MAX_SAMPLES (a sine is two durations, an arbitrary
            # path up to three).
            long = st.floats(3 * sections["filter_params"].order * sim_dt,
                             min(1e4, MAX_SAMPLES * sim_dt / 8))
            values["run_time"] = draw(long)
            values["wait_time"] = draw(long)
            values["total_time"] = draw(long)
            values["circle_frequency"] = values["rounds"] / draw(long)
            values["step_time"] = draw(st.floats(0.0, values["total_time"]))
            if values["type"] == "arbitrary" and len(values["waypoints"]) == 1:
                values["waypoints"] = np.repeat(values["waypoints"], 2, axis=0)
            segments = len(values["waypoints"]) - 1
            segment_times = draw(st.lists(long, min_size=segments, max_size=segments))
            values["segment_times"] = np.array(segment_times)
        sections[section.name] = dataclasses.replace(obj, **values)
        if section.name == "sim":
            sim_dt = sections["sim"].dt
    return Config(**sections)


class TestConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "minimal.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.sim.dt == pytest.approx(1.0 / 1000.0)
        assert cfg.filter_params.cutoff_hz == 50.0
        assert cfg.filter_params.order == 4
        assert cfg.limits.x_max == 255.0

    def test_negative_link_length_names_field(self):
        text = MINIMAL.replace("l_upper = 375.0", "l_upper = -160.0")
        with pytest.raises(ConfigError, match="robot.l_upper"):
            loads_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            loads_config("[robot]\nl_uper = 100\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            loads_config("[motor]\nx = 1\n")

    @pytest.mark.parametrize("data, line", [
        (b"[sim]\ndt = 0.001 \xe9\n", 2),
        (b"# caf\xe9\n[sim]\n", 1),  # a comment is never parsed, and is still named
        (b"[sim]\r\n\r\ndt = 0.001\r\n\xff", 4),  # lines counted as loads_config counts them
    ])
    def test_byte_not_utf8_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "bad.cfg"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line {line}: not valid UTF-8$"):
            load_config(path)

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            loads_config("[robot]\nl_upper = 375\nnot a key value line\n")

    def test_key_outside_any_section_reports_line(self):
        with pytest.raises(ConfigError, match=r"^line 1: key outside any \[section\]$"):
            loads_config("x = 1\n[sim]\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads_config("[robot]\nl_upper = 1\nl_upper = 2\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="robot.l_upper"):
            loads_config("[robot]\nl_upper = abc\n")

    def test_round_trip_exact(self, tmp_path):
        cfg = default_config()
        cfg.sim.kp[:] = 123.456789012345
        cfg.trajectory.frequency = 0.1  # not exactly representable
        path = tmp_path / "out.cfg"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        cfg2 = load_config(path)
        assert dumps_config(cfg) == dumps_config(cfg2)
        assert config_hash(cfg) == config_hash(cfg2)
        assert np.array_equal(cfg.sim.kp, cfg2.sim.kp)
        assert cfg2.trajectory.frequency == cfg.trajectory.frequency

    def test_default_snapshot_is_pinned(self):
        cfg = default_config()
        assert dumps_config(cfg) == DEFAULT_SNAPSHOT
        assert config_hash(cfg) == "8d2da70f9931b948"
        assert config_hash(loads_config(README_OVERRIDE)) == "47ab3d4ac9affd4f"

    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_snapshot_round_trip_keeps_hash(self, cfg):
        text = dumps_config(cfg)
        back = loads_config(text)
        assert dumps_config(back) == text
        assert config_hash(back) == config_hash(cfg)

    @settings(max_examples=40, deadline=None)
    @given(configs())
    def test_trajectory_lasts_its_duration(self, cfg):
        # Each generator samples the seconds that duration() gives, the
        # figure the load-time sample-count checks use.
        _, seconds = cfg.trajectory.duration()
        traj = cfg.build_trajectory()
        assert len(traj) == sample_count(seconds, cfg.sim.dt)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("robot", "l_lower", "0"),
            ("robot", "knee_sign_back", "2"),
            ("robot", "joint_limit_deg", "-5"),
            ("platform", "width_y", "-1"),
            ("platform", "z_offset", "-0.5"),
            ("workspace", "x_max", "0"),
            ("actuator", "tau_max", "-2.7"),
            ("sim", "dt", "0"),
            ("sim", "kd", "-1"),
            ("sim", "payload_mass", "-0.1"),
            ("filter", "order", "3"),
            ("filter", "cutoff_hz", "600"),
            ("trajectory", "frequency", "-1"),
            ("trajectory", "axis", "w"),
            ("postprocess", "z_offset_mode", "body"),
            # Values that do not parse, reported with their line.
            ("trajectory", "rounds", "1.5"),
            ("sim", "gravity_compensation", "yes"),
            ("trajectory", "waypoints", ";"),
        ],
    )
    def test_bad_value_names_section_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"(^|: ){re.escape(section)}\.{key}: "):
            loads_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "section, cls, key, text, value, reason",
        [
            # The direction and the step pose are checked whatever the type:
            # sine is the default.
            ("trajectory", TrajectoryConfig, "direction", "left", "left", "must be one of cw, ccw"),
            ("trajectory", TrajectoryConfig, "step_target", "0 0 0 0 0", np.zeros(5),
             "must be x y z rx ry rz numbers, got shape (5,)"),
            ("robot", RobotGeometry, "hip_mount_fl", "200 150", np.array([200.0, 150.0]),
             "must be x y z numbers, got shape (2,)"),
            ("sim", SimParams, "kp", "1 2 3", np.array([1.0, 2.0, 3.0]), "must be a scalar or a 12-vector"),
            # The shorter side of a corner rectangle too small to reconstruct.
            ("platform", PlatformGeometry, "length_x", "1e-300", 1e-300, THIN_RECTANGLE),
            ("platform", PlatformGeometry, "width_y", "1e-13", 1e-13, THIN_RECTANGLE),
        ],
    )
    def test_one_check_per_value(self, section, cls, key, text, value, reason):
        # A file and a section built in Python meet the same check.
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: {re.escape(reason)}$"):
            loads_config(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError, match=rf"^{key}: {re.escape(reason)}$"):
            cls(**{key: value})

    @pytest.mark.parametrize("text, loads", [
        ("length_x = 1e-7\nwidth_y = 1e-7\n", False),  # sides of 1e-7 mm, area 1e-14
        ("length_x = 1e-3\nwidth_y = 1e-3\n", True),  # the configs() strategy's floor
        ("width_y = 1e-10\n", True),  # by 400 mm: area 4e-8
    ])
    def test_corner_rectangle_bound_on_sides_and_area(self, text, loads):
        # The reconstruction normalizes the nominal corner triad, of lengths
        # length_x, width_y and their product: each must reach 1e-12.
        if loads:
            loads_config("[platform]\n" + text)
        else:
            with pytest.raises(ConfigError, match=rf"^platform\.length_x: {re.escape(THIN_RECTANGLE)}$"):
                loads_config("[platform]\n" + text)

    def test_choices_and_poses_checked_whatever_the_type(self):
        # Each of these values would give a snapshot that does not load.
        with pytest.raises(ValueError, match="^axis: must be one of x, y, z$"):
            TrajectoryConfig(type="circular", axis="w")
        with pytest.raises(ValueError, match=r"^waypoints: must be x y z rx ry rz numbers, got shape \(2, 5\)$"):
            TrajectoryConfig(waypoints=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="^waypoints: need at least one waypoint$"):
            TrajectoryConfig(waypoints=np.zeros((0, 6)))

    def test_waypoint_row_of_three_numbers_rejected(self):
        text = "[trajectory]\ntype = arbitrary\nwaypoints = 0 0 0 0 0 0 ; 1 2 3\nsegment_times = 1\n"
        with pytest.raises(ConfigError, match=r"^line 3: trajectory\.waypoints: expected 6 numbers, got 3$"):
            loads_config(text)

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key, value",
        [("sim", "dt", "{}"), ("robot", "hip_mount_fl", "200 {} 0"), ("sim", "kp", "{}")],
    )
    def test_non_finite_number_rejected(self, section, key, value, number):
        # nan and inf parse; the section rejects them, NaN and -inf at a
        # bound first, with the message of the same value built in Python.
        bound = {"dt": "must be positive", "kp": "must be non-negative"}.get(key)
        reason = bound if bound and number != "inf" else "must be finite"
        message = rf"^{section}\.{key}: {reason}$"
        with pytest.raises(ConfigError, match=message) as from_file:
            loads_config(f"[{section}]\n{key} = {value.format(number)}\n")
        numbers = np.array([float(p) for p in value.format(number).split()])
        cls = {"sim": SimParams, "robot": RobotGeometry}[section]
        with pytest.raises(ValueError) as from_python:
            cls(**{key: numbers if len(numbers) > 1 else numbers[0]})
        assert str(from_file.value) == f"{section}.{from_python.value}"

    @pytest.mark.parametrize(
        "cls, keys, message",
        [
            (TrajectoryConfig, {"type": "circular", "rounds": 2.5}, "rounds: must be a whole number"),
            (TrajectoryConfig, {"radius": float("nan")}, "radius: must be finite"),
            (TrajectoryConfig, {"amplitude": float("nan")}, "amplitude: must be finite"),
            (SimParams, {"kp": float("inf")}, "kp: must be finite"),
            (ActuatorParams, {"tau_max": float("inf")}, "tau_max: must be finite"),
            (WorkspaceLimits, {"x_max": float("inf")}, "x_max: must be finite"),
            (PlatformGeometry, {"z_offset": float("inf")}, "z_offset: must be finite"),
            (LegGeometry, {"hip_mount": [float("nan"), 0.0, 0.0], "l_upper": 375.0, "l_lower": 375.0},
             "hip_mount: must be finite"),
        ],
    )
    def test_python_built_bad_number_rejected(self, cls, keys, message):
        # No bound rejects these (or the type does not read the key): only
        # the finite and whole-number checks do.
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            cls(**keys)

    def test_int_too_large_for_a_float_rejected(self, tmp_path, capsys):
        # A whole number that float() cannot hold would overflow later, in
        # duration(); the one number check rejects it, before any run dir.
        with pytest.raises(ValueError, match="^rounds: must be finite$"):
            TrajectoryConfig(type="circular", rounds=10**400)
        path = tmp_path / "rounds.cfg"
        path.write_text("[trajectory]\ntype = circular\nrounds = 1" + "0" * 400 + "\n")
        runs = tmp_path / "runs"
        assert main(["gen", "--config", str(path), "--run-id", "huge", "--runs-root", str(runs)]) == 2
        assert capsys.readouterr().err == "config error: trajectory.rounds: must be finite\n"
        assert not runs.exists()

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_every_number_field_checked(self, section):
        # Every float or array entry must be finite and every int whole,
        # whatever the key; this covers keys added later too.
        cls = _SECTIONS[section][1]
        for f in dataclasses.fields(cls):
            if f.type == "int":
                bad = 2.5
            elif f.type in ("float", "float | np.ndarray"):
                bad = float("inf")
            elif f.type == "np.ndarray":
                shape = np.shape(getattr(cls(), f.name))
                bad = np.full(shape if np.prod(shape) else (1,), float("inf"))
            else:
                continue
            with pytest.raises(ValueError, match=rf"^{f.name}: "):
                cls(**{f.name: bad})

    @pytest.mark.parametrize(
        "body, message",
        [
            ("frequency = -1", "frequency: must be positive"),
            ("run_time = -0.5", "run_time: must be >= 0"),
            ("type = circular\ncircle_frequency = 0", "circle_frequency: must be positive"),
            ("type = circular\nradius = -1", "radius: must be >= 0"),
            ("type = circular\nrounds = 0", "rounds: must be >= 1"),
            ("type = step\nstep_time = 5\ntotal_time = 4", "step_time: must be within [0, total_time]"),
            ("type = step\nstep_time = -1", "step_time: must be within [0, total_time]"),
            ("type = arbitrary\nsegment_times = 1.0",
             "segment_times: need 0 segment times for 1 waypoints, got 1"),
            ("type = arbitrary\nwaypoints = 0 0 0 0 0 0 ; 1 0 0 0 0 0\nsegment_times = -1",
             "segment_times: must be positive"),
        ],
    )
    def test_selected_generator_checked_at_load(self, body, message):
        with pytest.raises(ConfigError, match=rf"^trajectory\.{re.escape(message)}$"):
            loads_config(f"[trajectory]\n{body}\n")

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"frequency": -1.0}, "frequency: must be positive"),
            ({"run_time": -0.5}, "run_time: must be >= 0"),
            ({"type": "circular", "circle_frequency": 0.0}, "circle_frequency: must be positive"),
            ({"type": "circular", "radius": -1.0}, "radius: must be >= 0"),
            ({"type": "circular", "rounds": 0}, "rounds: must be >= 1"),
            ({"type": "step", "step_time": 5.0, "total_time": 4.0},
             "step_time: must be within [0, total_time]"),
            ({"type": "step", "step_time": -1.0}, "step_time: must be within [0, total_time]"),
            ({"type": "arbitrary", "segment_times": np.array([1.0])},
             "segment_times: need 0 segment times for 1 waypoints, got 1"),
            ({"type": "arbitrary", "waypoints": np.array([[0.0] * 6, [1.0] + [0.0] * 5]),
              "segment_times": np.array([-1.0])}, "segment_times: must be positive"),
            # Short waypoint rows are reached only from Python: a config
            # file cannot hold them.
            ({"type": "arbitrary", "interp": "bogus"}, "interp: must be one of linear, cosine"),
            ({"type": "arbitrary", "waypoints": np.array([[0.0] * 5 + [float("nan")]])},
             "waypoints: must be finite"),
            ({"type": "step", "step_target": np.array([float("inf")] + [0.0] * 5)},
             "step_target: must be finite"),
            ({"type": "step", "step_target": np.zeros(5)},
             "step_target: must be x y z rx ry rz numbers, got shape (5,)"),
            ({"type": "arbitrary", "waypoints": np.zeros((2, 5)), "segment_times": np.array([1.0])},
             "waypoints: must be x y z rx ry rz numbers, got shape (2, 5)"),
            ({"offsets": np.zeros(2)}, "offsets: must be x y z numbers, got shape (2,)"),
            ({"offsets": np.array([float("nan"), 0.0, 0.0])}, "offsets: must be finite"),
        ],
    )
    def test_selected_generator_checked_at_construction(self, keys, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            TrajectoryConfig(**keys)

    def test_z_offset_mode_checked_at_construction(self):
        with pytest.raises(ValueError, match="^z_offset_mode: must be one of world, platform$"):
            PostprocessConfig("body")

    @pytest.mark.parametrize(
        "body, key, samples",
        [
            ("run_time = 0.005\nwait_time = 0", "run_time", 6),
            ("run_time = 0.011\nwait_time = 0", "run_time", 12),
            ("type = step\nstep_time = 0\ntotal_time = 0.01", "total_time", 11),
            ("type = circular\nrounds = 1\ncircle_frequency = 100", "rounds", 11),
            ("type = arbitrary", "segment_times", 1),
            ("type = arbitrary\nwaypoints = 0 0 0 0 0 0 ; 1 0 0 0 0 0\nsegment_times = 0.004",
             "segment_times", 5),
        ],
    )
    def test_trajectory_too_short_to_filter(self, body, key, samples):
        # post filters with filtfilt, which needs more than 3 * order samples.
        message = (rf"^trajectory\.{key}: too short to filter: sample count {samples} at sim\.dt, "
                   rf"need more than 12 \(3 \* filter\.order\)$")
        with pytest.raises(ConfigError, match=message):
            loads_config(f"[trajectory]\n{body}\n")

    def test_trajectory_too_long(self):
        # At most MAX_SAMPLES samples, checked before any array is made; a
        # subnormal dt has no finite sample count.
        at_bound = f"[trajectory]\nrun_time = {(MAX_SAMPLES - 1) / 1000}\nwait_time = 0\n"
        cfg = loads_config(at_bound)
        assert sample_count(cfg.trajectory.run_time, cfg.sim.dt) == MAX_SAMPLES
        for body, samples in ((f"run_time = {MAX_SAMPLES / 1000}\nwait_time = 0", MAX_SAMPLES + 1),
                              ("[sim]\ndt = 5e-324", "inf")):
            with pytest.raises(ConfigError, match=rf"^trajectory\.run_time: too long: sample count {samples} "
                                                  rf"at sim\.dt, at most {MAX_SAMPLES}$"):
                loads_config(f"[trajectory]\n{body}\n")

    def test_trajectory_just_long_enough(self):
        cfg = loads_config("[trajectory]\nrun_time = 0.012\nwait_time = 0\n")
        assert len(cfg.build_trajectory()) == 13
        cfg = loads_config("[filter]\norder = 2\n[trajectory]\nrun_time = 0.006\nwait_time = 0\n")
        assert len(cfg.build_trajectory()) == 7

    def test_other_generators_not_checked(self):
        cfg = loads_config("[trajectory]\ntype = circular\nfrequency = -1\n")
        assert cfg.trajectory.frequency == -1.0
        cfg = loads_config("[trajectory]\nrounds = 0\ncircle_frequency = -2\n")
        assert cfg.trajectory.rounds == 0
        cfg = loads_config("[trajectory]\nstep_time = 5\ntotal_time = 4\nsegment_times = -1 2\n")
        assert cfg.trajectory.step_time == 5.0

    def test_one_sample_clock(self, tmp_path):
        # [sim] dt alone sets the step of every stage: the 5 s built-in sine
        # runs end to end, and the sim_log.csv t column is k * dt.
        path = tmp_path / "clock.cfg"
        path.write_text("[sim]\ndt = 0.002\n")
        assert main(["all", "--config", str(path), "--run-id", "clock", "--runs-root", str(tmp_path)]) == 0
        _, _, data = read_table(tmp_path / "clock" / "sim_log.csv", "sim_log", SIM_LOG_COLUMNS)
        t = np.arange(2501) * 0.002
        assert np.array_equal(data[:, 0], [float(format(v, FLOAT_FORMAT)) for v in t])

    def test_hash_tracks_content(self):
        cfg = default_config()
        base = config_hash(cfg)
        cfg.sim.payload_mass = 1.2
        assert config_hash(cfg) != base

    def test_profiles_set_rates(self):
        # --dt, else the --profile rate, else the config's sets sim.dt,
        # the one clock.
        def rate(*flags):
            return effective_config(build_parser().parse_args(["gen", *flags])).sim.dt

        assert rate("--profile", "sim") == 1.0 / 240.0
        assert rate("--profile", "hw") == 1e-3
        assert rate("--profile", "sim", "--dt", "0.002") == 0.002
        assert rate("--dt", "0.002") == 0.002
        assert rate() == 1e-3

    @settings(max_examples=30, deadline=None)
    @given(configs())
    def test_equal_exactly_when_written_alike(self, cfg):
        same = loads_config(dumps_config(cfg))
        assert cfg == same and not cfg != same
        assert (cfg == default_config()) == (dumps_config(cfg) == DEFAULT_SNAPSHOT)
        assert cfg != dumps_config(cfg)
        for section in dataclasses.fields(Config):
            obj = getattr(cfg, section.name)
            assert obj == obj
            assert isinstance(obj == getattr(same, section.name), bool)
        hash(cfg.robot)

    def test_one_changed_key_compares_unequal(self):
        for section in dataclasses.fields(Config):
            for f in dataclasses.fields(getattr(default_config(), section.name)):
                cfg = default_config()
                obj = getattr(cfg, section.name)
                value = _other(f.name, getattr(obj, f.name))
                setattr(cfg, section.name, dataclasses.replace(obj, **{f.name: value}))
                assert cfg != default_config() and not cfg == default_config(), f.name

    def test_per_joint_gains(self):
        gains = " ".join(str(10.0 + i) for i in range(12))
        cfg = loads_config(f"[sim]\nkp = {gains}\n")
        assert cfg.sim.kp[3] == 13.0

    def test_trajectory_block_builds(self):
        cfg = loads_config(
            "[trajectory]\ntype = circular\nradius = 15.0\nrounds = 2\ncircle_frequency = 1.0\n"
        )
        traj = cfg.build_trajectory()
        assert traj.duration == pytest.approx(2.0)
        assert traj.position[0, 0] == pytest.approx(15.0)

    def test_step_trajectory_from_config(self):
        cfg = loads_config(
            "[trajectory]\ntype = step\nstep_time = 0.5\ntotal_time = 1.0\n"
            "step_target = 0 0 -30 0 0 0\n"
        )
        traj = cfg.build_trajectory()
        assert traj.position[-1, 2] == pytest.approx(-30.0)
        assert np.allclose(traj.position[0], 0.0)

    def test_arbitrary_waypoints_from_config(self):
        cfg = loads_config(
            "[trajectory]\ntype = arbitrary\n"
            "waypoints = 0 0 0 0 0 0 ; 10 0 0 0 0 5\nsegment_times = 2.0\n"
        )
        traj = cfg.build_trajectory()
        assert traj.duration == pytest.approx(2.0)
        assert traj.position[-1, 0] == pytest.approx(10.0)
        assert traj.orientation_deg[-1, 2] == pytest.approx(5.0)


def _leg_values(robot):
    return [{f.name: np.asarray(getattr(leg, f.name)).tolist() for f in dataclasses.fields(leg)}
            for leg in robot]


def _platform_values(platform):
    return platform.corner_offsets.tolist(), platform.home_center.tolist()


def _changed(value):
    """A different valid value for a [robot] or [platform] key."""
    if isinstance(value, np.ndarray):
        return value + 1.0
    if isinstance(value, int):  # knee signs
        return -value
    return 1.5 * value + 1.0


def _other(name, value):
    """A different value for config key `name` that its own section accepts."""
    if name in CHOICES:
        return next(choice for choice in CHOICES[name] if choice != value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, np.ndarray) and not value.size:  # segment_times
        return np.ones(1)
    if isinstance(value, int) and abs(value) != 1:  # filter order, rounds
        return value + 2
    return _changed(value)


class TestGeometrySections:
    """[robot] and [platform] are frozen, with read-only arrays, so the legs
    and corners derived from them cannot go stale."""

    def test_attributes_cannot_be_assigned(self):
        cfg = default_config()
        targets = [(cfg.platform, ["corner_offsets", "home_center"]), (cfg.robot, [])]
        for obj, names in targets + [(leg, []) for leg in cfg.robot]:
            for name in [f.name for f in dataclasses.fields(obj)] + names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, getattr(obj, name))

    def test_arrays_are_read_only(self):
        cfg = default_config()
        for array in (cfg.platform.corner_offsets, cfg.platform.home_center,
                      *(leg.hip_mount for leg in cfg.robot)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0
        for leg in LEG_NAMES:
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg.robot, f"hip_mount_{leg}")[0] += 1.0

    def test_caller_arrays_stay_writable(self):
        # A leg copies its hip mount; a section then keeps its leg's
        # read-only copy, so the two stay one array.
        mount = np.array([1.0, 2.0, 3.0])
        leg = LegGeometry(mount, 1.0, 1.0)
        robot = RobotGeometry(hip_mount_fl=mount)
        mount[0] = 5.0
        assert leg.hip_mount[0] == robot.hip_mount_fl[0] == 1.0
        assert robot.hip_mount_fl is robot[0].hip_mount
        assert not robot.hip_mount_fl.flags.writeable

    @pytest.mark.parametrize("section", ["robot", "platform"])
    def test_replace_derives_what_a_reload_derives(self, section):
        default = default_config()
        for f in dataclasses.fields(getattr(default, section)):
            cfg = default_config()
            value = _changed(getattr(getattr(cfg, section), f.name))
            setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{f.name: value}))
            reloaded = loads_config(dumps_config(cfg))
            assert dumps_config(reloaded) == dumps_config(cfg)
            assert _leg_values(cfg.robot) == _leg_values(reloaded.robot)
            assert _platform_values(cfg.platform) == _platform_values(reloaded.platform)
            changed = (_leg_values(cfg.robot), _platform_values(cfg.platform))
            assert changed != (_leg_values(default.robot), _platform_values(default.platform)), f.name


class TestTables:
    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, "plot", "0" * 16, ["t", "target", "actual"], [np.empty(0)] * 3)
        digest, columns, data = read_table(path, "plot")
        assert digest == "0" * 16
        assert columns == ["t", "target", "actual"]
        assert data.shape == (0, 3)

    def test_log_round_trip_precision(self, tmp_path, rng):
        n = 1000
        log = SimLog(
            dt=1e-3,
            q_target=rng.uniform(-3, 3, (n, 12)),
            q=rng.uniform(-3, 3, (n, 12)),
            qdot=rng.uniform(-20, 20, (n, 12)),
            tau=rng.uniform(-2.7, 2.7, (n, 12)),
            current=rng.uniform(-15, 15, (n, 12)),
        )
        path = tmp_path / "log.csv"
        write_log(path, log, "a" * 16)
        digest, back = read_log(path, dt=1e-3)
        assert digest == "a" * 16
        # 9 significant digits: per-element error below 5e-9 * |value|.
        for name in ("t", "q_target", "q", "qdot", "tau", "current"):
            a, b = getattr(log, name), getattr(back, name)
            assert np.max(np.abs(a - b)) <= 5e-9 * max(1.0, np.max(np.abs(a)))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        columns = ["t"] + [f"q_{i}" for i in range(13)]
        write_table(path, "joint_targets", "b" * 16, columns, [np.zeros(2)] * 14)
        with pytest.raises(LogFormatError, match="header mismatch"):
            read_table(path, "joint_targets", JOINT_TARGET_COLUMNS)

    def test_malformed_row_reports_index(self, tmp_path):
        path = tmp_path / "broken.csv"
        good = "\n".join(
            ["# quadstage plot config=" + "c" * 16, "t,target,actual", "0,1,2", "1,2"]
        )
        path.write_text(good + "\n")
        with pytest.raises(LogFormatError, match="row 1"):
            read_table(path, "plot")

    def test_non_numeric_field_reports_index(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "# quadstage plot config=" + "d" * 16 + "\nt,target,actual\n0,oops,2\n"
        )
        with pytest.raises(LogFormatError, match="row 0"):
            read_table(path, "plot")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = gen_sine(TrajectoryConfig(run_time=0.1, wait_time=0.0, frequency=5.0, amplitude=1.0), 1e-3)
        write_trajectory(path, traj, "e" * 16)
        with pytest.raises(LogFormatError, match="expected a 'sim_log'"):
            read_log(path, dt=1e-3)

    def test_missing_header_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# quadstage plot config=" + "f" * 16 + "\n")
        with pytest.raises(LogFormatError, match=rf"^{re.escape(str(path))}: missing header row$"):
            read_table(path, "plot")

    def test_missing_identity_line(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("t,target,actual\n0,1,2\n")
        with pytest.raises(LogFormatError, match="identity line"):
            read_table(path, "plot")

    def test_byte_not_utf8_named_by_its_line(self, tmp_path):
        # Such a byte fails the check of its own line, which the message
        # names.  The identity line is read alone, so a bad byte in a row
        # (here also past the first 8 KiB) leaves the config hash readable;
        # one in the hash makes it no hash at all, so the file is named as
        # corrupt, not as written under another config.
        path = tmp_path / "traj.csv"
        write_trajectory(path, PoseSeries(np.zeros((1000, 3)), np.zeros((1000, 3)), 1e-3), "f" * 16)
        lines = path.read_bytes().split(b"\n")
        where = re.escape(str(path))
        for index, message in ((1, "header mismatch"), (2, "row 0: non-numeric field"),
                               (902, "row 900: non-numeric field")):
            path.write_bytes(b"\n".join(lines[:index] + [lines[index] + b"\xe9"] + lines[index + 1:]))
            assert read_config_hash(path, TRAJECTORY_KIND) == "f" * 16
            with pytest.raises(LogFormatError, match=rf"^{where}: {message}"):
                read_trajectory(path, dt=1e-3)
        path.write_bytes(b"\n".join([lines[0] + b"\xe9"] + lines[1:]))
        with pytest.raises(LogFormatError, match=rf"^{where}: config hash '{'f' * 16}\\udce9' is not 16 lowercase hex"):
            read_config_hash(path, TRAJECTORY_KIND)
        path.write_bytes(b"\n".join([lines[0].replace(b"traj", b"tr\xe9j")] + lines[1:]))
        with pytest.raises(LogFormatError, match=rf"^{where}: expected a 'trajectory' artifact"):
            read_config_hash(path, TRAJECTORY_KIND)
        path.write_bytes(b"\xff\xfe garbage")
        for read in (lambda: read_config_hash(path, TRAJECTORY_KIND), lambda: read_trajectory(path, dt=1e-3)):
            with pytest.raises(LogFormatError, match=rf"^{where}: missing '# quadstage' identity line$"):
                read()

    def test_trajectory_round_trip(self, tmp_path):
        traj = gen_sine(TrajectoryConfig(run_time=0.25, wait_time=0.1, frequency=4.0, amplitude=12.0), 1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj, "f" * 16)
        _, back = read_trajectory(path, dt=1e-3)
        assert len(back) == len(traj)
        assert np.max(np.abs(back.position - traj.position)) <= 5e-9 * 12.0
        assert back.dt == traj.dt

    def test_time_column_checked_against_dt(self, tmp_path):
        dt = 1.0 / 240.0
        traj = gen_sine(TrajectoryConfig(run_time=0.2, wait_time=0.1, frequency=4.0, amplitude=12.0), dt)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj, "f" * 16)
        _, back = read_trajectory(path, dt=dt)
        assert np.array_equal(back.t, traj.t)
        with pytest.raises(LogFormatError, match=r"traj\.csv: row 1: "):
            read_trajectory(path, dt=1e-3)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_artifact_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "plot.csv"
        old = os.umask(umask)
        try:
            write_table(path, "plot", "0" * 16, ["t", "target", "actual"], [np.zeros(2)] * 3)
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_sim_log_columns_schema(self):
        assert len(SIM_LOG_COLUMNS) == 1 + 5 * 12
        assert SIM_LOG_COLUMNS[0] == "t"
        assert SIM_LOG_COLUMNS[1] == "q_target_0"
        assert SIM_LOG_COLUMNS[-1] == "current_11"
