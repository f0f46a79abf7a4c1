import dataclasses
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadstage.config import (
    Config,
    ConfigError,
    apply_profile,
    config_hash,
    default_config,
    dumps_config,
    load_config,
    loads_config,
    write_config,
)
from quadstage.kinematics import LEG_NAMES
from quadstage.logio import (
    JOINT_TARGET_COLUMNS,
    SIM_LOG_COLUMNS,
    LogFormatError,
    read_log,
    read_table,
    read_trajectory,
    write_log,
    write_table,
    write_trajectory,
)
from quadstage.simenv import SimLog
from quadstage.trajectory import SineParams, gen_sine

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
gravity = 9.81
payload_mass = 0.3
platform_mass = 0.3
gravity_compensation = false

[filter]
cutoff_hz = 50.0
order = 4
zero_phase = true

[trajectory]
type = sine
dt = 0.001
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
translation_enabled = true
rotation_enabled = true
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


def _value(name, default, sim_dt):
    """Strategy for a valid value of one config key, chosen by its default;
    once the sim dt is drawn, the trajectory dt equals it."""
    if name == "dt" and sim_dt is not None:
        return st.just(sim_dt)
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
            # the selected type must last more than 3 * filter.order samples.
            long = st.floats(3 * sections["filter_params"].order * sim_dt, 1e4)
            values["run_time"] = draw(long)
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

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            loads_config("[robot]\nl_upper = 375\nnot a key value line\n")

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
        write_config(cfg, path)
        cfg2 = load_config(path)
        assert dumps_config(cfg) == dumps_config(cfg2)
        assert config_hash(cfg) == config_hash(cfg2)
        assert np.array_equal(cfg.sim.kp, cfg2.sim.kp)
        assert cfg2.trajectory.frequency == cfg.trajectory.frequency

    def test_default_snapshot_is_pinned(self):
        cfg = default_config()
        assert dumps_config(cfg) == DEFAULT_SNAPSHOT
        assert config_hash(cfg) == "a47327923402679d"
        assert config_hash(loads_config(README_OVERRIDE)) == "227ec69fd4c2f9b3"

    @settings(max_examples=60, deadline=None)
    @given(configs())
    def test_snapshot_round_trip_keeps_hash(self, cfg):
        text = dumps_config(cfg)
        back = loads_config(text)
        assert dumps_config(back) == text
        assert config_hash(back) == config_hash(cfg)

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
            ("trajectory", "dt", "-0.001"),
            ("trajectory", "axis", "w"),
            ("postprocess", "z_offset_mode", "body"),
        ],
    )
    def test_bad_value_names_section_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"(^|: ){re.escape(section)}\.{key}: "):
            loads_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key, value",
        [("sim", "dt", "{}"), ("robot", "hip_mount_fl", "200 {} 0"), ("sim", "kp", "{}")],
    )
    def test_non_finite_number_rejected(self, section, key, value, number):
        message = rf"^line 2: {section}\.{key}: expected a finite number, got '{re.escape(number)}'$"
        with pytest.raises(ConfigError, match=message):
            loads_config(f"[{section}]\n{key} = {value.format(number)}\n")

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

    def test_one_sample_clock(self):
        with pytest.raises(ConfigError, match=r"^trajectory\.dt: must equal sim\.dt$"):
            loads_config("[sim]\ndt = 0.002\n")

    def test_hash_tracks_content(self):
        cfg = default_config()
        base = config_hash(cfg)
        cfg.sim.payload_mass = 1.2
        assert config_hash(cfg) != base

    def test_profiles_set_rates(self):
        cfg = apply_profile(default_config(), "sim")
        assert cfg.sim.dt == pytest.approx(1.0 / 240.0)
        assert cfg.trajectory.dt == pytest.approx(1.0 / 240.0)
        cfg = apply_profile(cfg, "hw")
        assert cfg.sim.dt == pytest.approx(1.0 / 1000.0)

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
        assert traj.positions[0, 0] == pytest.approx(15.0)

    def test_step_trajectory_from_config(self):
        cfg = loads_config(
            "[trajectory]\ntype = step\nstep_time = 0.5\ntotal_time = 1.0\n"
            "step_target = 0 0 -30 0 0 0\n"
        )
        traj = cfg.build_trajectory()
        assert traj.positions[-1, 2] == pytest.approx(-30.0)
        assert np.allclose(traj.positions[0], 0.0)

    def test_arbitrary_waypoints_from_config(self):
        cfg = loads_config(
            "[trajectory]\ntype = arbitrary\n"
            "waypoints = 0 0 0 0 0 0 ; 10 0 0 0 0 5\nsegment_times = 2.0\n"
        )
        traj = cfg.build_trajectory()
        assert traj.duration == pytest.approx(2.0)
        assert traj.positions[-1, 0] == pytest.approx(10.0)
        assert traj.orientations_deg[-1, 2] == pytest.approx(5.0)


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
        write_table(path, "plot", "0" * 16, ["t", "target", "actual"], np.empty((0, 3)))
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
        digest, back = read_log(path)
        assert digest == "a" * 16
        # 9 significant digits: per-element error below 5e-9 * |value|.
        for name in ("t", "q_target", "q", "qdot", "tau", "current"):
            a, b = getattr(log, name), getattr(back, name)
            assert np.max(np.abs(a - b)) <= 5e-9 * max(1.0, np.max(np.abs(a)))

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        columns = ["t"] + [f"q_{i}" for i in range(13)]
        write_table(path, "joint_targets", "b" * 16, columns, np.zeros((2, 14)))
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
        traj = gen_sine(SineParams(0.1, 0.0, frequency=5.0, amplitude=1.0), 1e-3)
        write_trajectory(path, traj, "e" * 16)
        with pytest.raises(LogFormatError, match="expected a 'sim_log'"):
            read_log(path)

    def test_missing_identity_line(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("t,target,actual\n0,1,2\n")
        with pytest.raises(LogFormatError, match="identity line"):
            read_table(path, "plot")

    def test_trajectory_round_trip(self, tmp_path):
        traj = gen_sine(SineParams(0.25, 0.1, frequency=4.0, amplitude=12.0), 1e-3)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj, "f" * 16)
        _, back = read_trajectory(path)
        assert len(back) == len(traj)
        assert np.max(np.abs(back.positions - traj.positions)) <= 5e-9 * 12.0
        assert abs(back.dt - traj.dt) < 1e-12

    def test_time_column_checked_against_dt(self, tmp_path):
        dt = 1.0 / 240.0
        traj = gen_sine(SineParams(0.2, 0.1, frequency=4.0, amplitude=12.0), dt)
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
            write_table(path, "plot", "0" * 16, ["t", "target", "actual"], np.zeros((2, 3)))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_sim_log_columns_schema(self):
        assert len(SIM_LOG_COLUMNS) == 1 + 5 * 12
        assert SIM_LOG_COLUMNS[0] == "t"
        assert SIM_LOG_COLUMNS[1] == "q_target_0"
        assert SIM_LOG_COLUMNS[-1] == "current_11"
