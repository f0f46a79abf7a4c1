import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadstage import cli, logio
from quadstage.cli import main
from quadstage.config import MAX_SAMPLES, Config, load_config
from quadstage.logio import REPORT_POSE_KEYS, read_log, read_trajectory, write_trajectory

FAST_CFG = """
[trajectory]
type = sine
run_time = 0.5
wait_time = 0.2
frequency = 2.0
amplitude = 20.0
"""

# The README's circular example: 20 mm, +/-10 deg yaw, 1.2 kg payload.
README_CIRCLE = """
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

# The yaw wraps at +/-180 deg twice a round.
CONTINUOUS_YAW = """
[workspace]
rot_max = 180
[trajectory]
type = circular
radius = 0
rotation_mode = continuous
rounds = 2
circle_frequency = 0.5
"""

# CI's config-file runs: a 4-waypoint cosine arbitrary trajectory, a file
# whose only clock setting is [sim] dt, and a +/-10 deg, 0.5 Hz roll sine
# reconstructed with the center offset along the platform normal.
ARBITRARY = """
[trajectory]
type = arbitrary
interp = cosine
waypoints = 0 0 0 0 0 0 ; 10 -5 3 2 1 -2 ; -4 2 0 0 0 5 ; 0 0 0 0 0 0
segment_times = 0.5 0.75 0.6
"""

SIM_DT_ONLY = """
[sim]
dt = 0.002
"""

ROLL = """
[postprocess]
z_offset_mode = platform
[trajectory]
type = sine
motion = rotation
axis = x
amplitude = 10
frequency = 0.5
"""

# A sine whose peaks, 255.0000000004 mm, pass the 255 mm box face by less
# than the 9 significant digits the trajectory is written with.
BOX_BOUNDARY = """
[trajectory]
type = sine
amplitude = 255.0000000004
frequency = 0.25
run_time = 3.0
"""

# Config text and flags of the runs that `all` and the single stages must
# write alike.  1/240 s (--profile sim) is not written exactly with 9 digits.
STAGEWISE_RUNS = {
    "sine": (FAST_CFG, ()),
    "readme-circle": (README_CIRCLE, ()),
    "profile-sim": (FAST_CFG, ("--profile", "sim")),
    "step": (FAST_CFG, ("--traj", "step")),
    "continuous-yaw": (CONTINUOUS_YAW, ()),
    "arbitrary": (ARBITRARY, ()),
    "sim-dt-only": (SIM_DT_ONLY, ()),
    "roll": (ROLL, ()),
}

ARTIFACTS = (
    "config_snapshot.cfg",
    "trajectory.csv",
    "joint_targets.csv",
    "sim_log.csv",
    "report.txt",
    "plot_translation_x.csv",
    "plot_rotation_z.csv",
    "plot_lin_vel_x.csv",
    "plot_ang_acc_z.csv",
)


@pytest.fixture
def runs_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("QUADSTAGE_RUNS_ROOT", str(root))
    return root


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def run_cli(*args):
    return main(list(args))


class TestPipeline:
    def test_all_produces_artifacts(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "r1") == 0
        for name in ARTIFACTS:
            assert (runs_root / "r1" / name).exists(), name

    @pytest.mark.parametrize("run", list(STAGEWISE_RUNS))
    def test_stagewise_equals_all(self, runs_root, tmp_path, run):
        # `all` hands each stage its upstream data in memory; a single stage
        # reads it from the files.  Every file of the run comes out the same.
        text, flags = STAGEWISE_RUNS[run]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert run_cli("all", "--config", str(path), "--run-id", "whole", *flags) == 0
        for stage in ("gen", "ik", "sim", "post"):
            assert run_cli(stage, "--config", str(path), "--run-id", "steps", *flags) == 0
        names = sorted(p.name for p in (runs_root / "whole").iterdir())
        assert len(names) == 23
        assert names == sorted(p.name for p in (runs_root / "steps").iterdir())
        for name in names:
            assert (runs_root / "whole" / name).read_bytes() == (runs_root / "steps" / name).read_bytes(), name

    def test_all_reads_no_upstream_file(self, runs_root, fast_config, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("an artifact was read")

        monkeypatch.setattr(logio, "read_table", no_read)
        monkeypatch.setattr(logio, "read_config_hash", no_read)
        assert run_cli("all", "--config", fast_config, "--run-id", "handed") == 0

    @pytest.mark.parametrize("stage, upstream, missing", [
        ("ik", [], "trajectory.csv"),
        ("sim", ["gen"], "joint_targets.csv"),
        ("post", ["gen", "ik"], "sim_log.csv"),
    ])
    def test_single_stage_names_missing_upstream(self, runs_root, fast_config, capsys, stage, upstream,
                                                 missing):
        for name in upstream:
            assert run_cli(name, "--config", fast_config, "--run-id", "gap") == 0
        capsys.readouterr()
        assert run_cli(stage, "--config", fast_config, "--run-id", "gap") == 1
        assert capsys.readouterr().err == (f"stage {stage}: missing upstream artifact "
                                           f"{runs_root / 'gap' / missing}; run '{cli.UPSTREAM[missing][1]}' first\n")

    def test_config_hashed_once_per_command(self, runs_root, fast_config, monkeypatch):
        calls = []
        digest = cli.config_hash

        def counting_config_hash(cfg):
            calls.append(cfg)
            return digest(cfg)

        monkeypatch.setattr(cli, "config_hash", counting_config_hash)
        assert run_cli("all", "--config", fast_config, "--run-id", "hashed") == 0
        assert len(calls) == 1

    def test_sim_without_ik_fails(self, runs_root, fast_config, capsys):
        assert run_cli("sim", "--config", fast_config, "--run-id", "naked") == 1
        assert "missing upstream artifact" in capsys.readouterr().err

    def test_post_is_deterministic(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "det") == 0
        report = runs_root / "det" / "report.txt"
        first = report.read_bytes()
        assert run_cli("post", "--config", fast_config, "--run-id", "det") == 0
        assert report.read_bytes() == first

    def test_config_hash_mismatch_detected(self, runs_root, fast_config, tmp_path, capsys):
        assert run_cli("gen", "--config", fast_config, "--run-id", "mix") == 0
        other = tmp_path / "other.cfg"
        other.write_text(FAST_CFG + "\n[sim]\npayload_mass = 1.2\n")
        assert run_cli("ik", "--config", str(other), "--run-id", "mix") == 1
        assert "config hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, upstream",
                             [("ik", ["gen"]), ("post", ["gen", "ik", "sim"]), ("sim", ["gen", "ik"])])
    def test_hash_checked_before_rows(self, runs_root, fast_config, capsys, stage, upstream):
        # A 2 ms step does not match the 1 ms t column, but the changed
        # config is the cause the stage must name.
        for name in upstream:
            assert run_cli(name, "--config", fast_config, "--run-id", "rows") == 0
        capsys.readouterr()
        assert run_cli(stage, "--config", fast_config, "--run-id", "rows", "--dt", "0.002") == 1
        assert "config hash mismatch" in capsys.readouterr().err

    # 7e-7 s gives the 0.7 s trajectory 1000001 samples, one over the bound.
    @pytest.mark.parametrize("dt, field", [("0.02", "filter.cutoff_hz"), ("7e-7", "trajectory.run_time")])
    def test_overrides_checked_like_a_file(self, runs_root, fast_config, capsys, dt, field):
        assert run_cli("all", "--config", fast_config, "--run-id", "flags", "--dt", dt) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (runs_root / "flags").exists()

    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1"])
    def test_bad_dt_rejected_at_parsing(self, runs_root, fast_config, capsys, dt):
        # [sim] dt's own check judges the flag, as it judges the key in a
        # file, and names the key, not a line of the merged config text.
        assert run_cli("all", "--config", fast_config, "--run-id", "bad", "--dt", dt) == 2
        reason = "must be finite" if dt == "inf" else "must be positive"
        assert capsys.readouterr().err == f"config error: sim.dt: {reason}\n"
        assert not (runs_root / "bad").exists()

    @pytest.mark.parametrize("stage, upstream, name, column, output", [
        ("sim", ["gen", "ik"], "joint_targets.csv", "q_2", "sim_log.csv"),
        ("post", ["gen", "ik", "sim"], "sim_log.csv", "q_target_4", "report.txt"),
    ], ids=["sim", "post"])
    def test_single_stage_names_non_finite_field(self, runs_root, fast_config, capsys, stage, upstream, name,
                                                 column, output):
        # A NaN in an upstream table is the file's fault, not the stage's:
        # the reader names the file, the row and the column, and the stage
        # writes nothing.
        for step in upstream:
            assert run_cli(step, "--config", fast_config, "--run-id", "nan") == 0
        path = runs_root / "nan" / name
        lines = path.read_text().splitlines()
        j = lines[1].split(",").index(column)
        fields = lines[2 + 5].split(",")
        fields[j] = "nan"
        lines[2 + 5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(stage, "--config", fast_config, "--run-id", "nan") == 1
        assert capsys.readouterr().err == f"stage {stage}: LogFormatError: {path}: row 5: {column} = nan is not finite\n"
        assert not (runs_root / "nan" / output).exists()

    def test_byte_not_utf8_named_with_its_file(self, runs_root, fast_config, tmp_path, capsys):
        # A trajectory overwritten with bytes that are not UTF-8, one such
        # byte ending its row 0, one (and a plain "g") in place of the first
        # digit of its config hash, and one in a config file: each ends in
        # one line that names the file and the line at fault.  A corrupt
        # hash is no config's hash, so it is not reported as a config change.
        assert run_cli("gen", "--config", fast_config, "--run-id", "bytes") == 0
        path = runs_root / "bytes" / "trajectory.csv"
        lines = path.read_bytes().split(b"\n")
        head, digits = lines[0][:30], lines[0][31:].decode()
        assert head == b"# quadstage trajectory config="
        hashes = [(b"\n".join([head + byte + digits.encode()] + lines[1:]),
                   f"config hash {shown + digits!r} is not 16 lowercase hex digits")
                  for byte, shown in ((b"\xe9", "\udce9"), (b"g", "g"))]
        for data, message in ((b"\xff\xfe garbage", "missing '# quadstage' identity line"),
                              (b"\n".join(lines[:2] + [lines[2] + b"\xe9"] + lines[3:]), "row 0: non-numeric field"),
                              *hashes):
            path.write_bytes(data)
            capsys.readouterr()
            assert run_cli("ik", "--config", fast_config, "--run-id", "bytes") == 1
            assert capsys.readouterr().err == f"stage ik: LogFormatError: {path}: {message}\n"
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[sim]\ndt = 0.001 \xe9\n")
        assert run_cli("gen", "--config", str(bad), "--run-id", "bad-bytes") == 2
        assert capsys.readouterr().err == f"config error: {bad}: line 2: not valid UTF-8\n"
        assert not (runs_root / "bad-bytes").exists()

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../escape", "a/b", "ABSOLUTE"])
    def test_bad_run_id_rejected_at_parsing(self, runs_root, tmp_path, capsys, run_id):
        # A run id is one directory name inside the runs root: a path would
        # put the artifacts elsewhere, and "" straight into the runs root.
        if run_id == "ABSOLUTE":
            run_id = str(tmp_path / "outside")
        with pytest.raises(SystemExit) as exited:
            run_cli("gen", "--run-id", run_id)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --run-id: expected one directory name, not empty, '.', '..' " \
               f"or a path, got {run_id!r}" in err
        assert not runs_root.exists()
        assert not (tmp_path / "outside").exists() and not (tmp_path / "escape").exists()

    def test_too_long_trajectory_checked_before_run_dir(self, runs_root, capsys, monkeypatch):
        # The built-in 5 s sine at 5 us is 1000001 samples, one over the
        # bound: load rejects it before any array or directory is made.
        monkeypatch.setattr(Config, "build_trajectory", lambda self: pytest.fail("trajectory built"))
        assert run_cli("gen", "--run-id", "long", "--dt", "5e-6") == 2
        assert capsys.readouterr().err == (
            "config error: trajectory.run_time: too long: sample count 1000001 at sim.dt, "
            f"at most {MAX_SAMPLES}\n")
        assert not (runs_root / "long").exists()

    def test_removed_trajectory_keys_rejected(self, runs_root, tmp_path, capsys):
        # [sim] dt is the one clock, radius = 0 holds the circle's position
        # and rot_angle_deg = 0 its oscillating yaw: these keys are gone.
        path = tmp_path / "old.cfg"
        for line in ("dt = 0.001", "translation_enabled = false", "rotation_enabled = true"):
            path.write_text(FAST_CFG + line + "\n")
            assert run_cli("all", "--config", str(path), "--run-id", "old") == 2
            key = line.split(" = ")[0]
            assert capsys.readouterr().err == f"config error: line 8: unknown key trajectory.{key}\n"
            assert not (runs_root / "old").exists()

    @pytest.mark.parametrize("text", ["length_x = 1e-300\n", "length_x = 1e-7\nwidth_y = 1e-7\n"])
    def test_unresolvable_corner_rectangle_stops_before_run_dir(self, runs_root, tmp_path, capsys, text):
        # Unchecked at load, both would run gen, ik and sim, then stop at
        # post on the nominal corner triad with a DegenerateInputError.
        path = tmp_path / "thin.cfg"
        path.write_text("[platform]\n" + text)
        assert run_cli("all", "--config", str(path), "--run-id", "thin") == 2
        assert capsys.readouterr().err == ("config error: platform.length_x: corner rectangle too small "
                                           "to reconstruct (side or area below 1e-12)\n")
        assert not (runs_root / "thin").exists()

    def test_removed_gravity_key_rejected(self, runs_root, tmp_path, capsys):
        # g = 9.81 m/s^2 is the fixed simenv.GRAVITY, no longer a key.
        path = tmp_path / "old.cfg"
        path.write_text("[sim]\ngravity = 9.81\n")
        assert run_cli("all", "--config", str(path), "--run-id", "old") == 2
        assert capsys.readouterr().err == "config error: line 2: unknown key sim.gravity\n"
        assert not (runs_root / "old").exists()

    def test_unusable_runs_root_exits_before_any_stage(self, tmp_path, fast_config, capsys, monkeypatch):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setattr(cli, "STAGES", {})  # a stage that ran would exit 1
        assert run_cli("gen", "--config", fast_config, "--runs-root", str(not_a_dir)) == 2
        run_dir = os.path.join(str(not_a_dir), "default")
        assert capsys.readouterr() == ("", f"run directory error: cannot create {run_dir}: Not a directory\n")

    def test_generator_parameters_checked_before_run_dir(self, runs_root, tmp_path, capsys):
        path = tmp_path / "freq.cfg"
        path.write_text(FAST_CFG.replace("frequency = 2.0", "frequency = -1"))
        assert run_cli("all", "--config", str(path), "--run-id", "freq") == 2
        assert "config error: trajectory.frequency: must be positive" in capsys.readouterr().err
        assert not (runs_root / "freq").exists()

    def test_step_time_checked_before_run_dir(self, runs_root, tmp_path, capsys):
        path = tmp_path / "step.cfg"
        path.write_text("[trajectory]\ntype = step\nstep_time = 5.0\ntotal_time = 4.0\n")
        assert run_cli("all", "--config", str(path), "--run-id", "step") == 2
        assert "config error: trajectory.step_time: must be within [0, total_time]" in capsys.readouterr().err
        assert not (runs_root / "step").exists()

    def test_short_trajectory_checked_before_run_dir(self, runs_root, capsys):
        # The built-in arbitrary trajectory is one waypoint: one sample.
        assert run_cli("all", "--traj", "arbitrary", "--run-id", "short") == 2
        assert "config error: trajectory.segment_times: too short to filter" in capsys.readouterr().err
        assert not (runs_root / "short").exists()

    def test_ik_names_unreachable_sample(self, runs_root, tmp_path, capsys):
        # A 600 mm box lets a pose 500 mm below home through to the legs,
        # which reach 750 mm from a hip 340 mm above the corners.
        path = tmp_path / "tall.cfg"
        path.write_text(FAST_CFG + "\n[workspace]\nz_max = 600.0\n")
        assert run_cli("gen", "--config", str(path), "--run-id", "far") == 0
        traj_path = runs_root / "far" / "trajectory.csv"
        digest, traj = read_trajectory(traj_path, dt=1e-3)
        traj.position[3, 2] = -500.0
        write_trajectory(traj_path, traj, digest)
        capsys.readouterr()
        assert run_cli("ik", "--config", str(path), "--run-id", "far") == 1
        err = capsys.readouterr().err
        assert err.startswith("stage ik: UnreachableError: leg fl: ")
        assert err.rstrip().endswith(" at sample 3")

    def test_box_decided_on_the_values_ik_solves(self, runs_root, tmp_path, capsys):
        # The generated peaks pass the box face; as written (and solved by
        # ik) they are 255 mm, inside it, so the run goes through silently.
        path = tmp_path / "boundary.cfg"
        path.write_text(BOX_BOUNDARY)
        assert run_cli("all", "--config", str(path), "--run-id", "boundary") == 0
        assert capsys.readouterr().err == ""
        assert len(list((runs_root / "boundary").iterdir())) == 23

    def test_ik_names_first_sample_outside_box(self, runs_root, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text("[trajectory]\ntype = sine\namplitude = 300\n")
        assert run_cli("all", "--config", str(path), "--run-id", "wide") == 1
        assert capsys.readouterr().err == ("stage ik: WorkspaceViolationError: pose outside workspace: "
                                           "x_mm=+255.298 (bound 255.000) at sample 2081\n")
        assert sorted(p.name for p in (runs_root / "wide").iterdir()) == ["config_snapshot.cfg",
                                                                         "trajectory.csv"]

    def test_report_structure(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "rep") == 0
        lines = (runs_root / "rep" / "report.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines if " = " in line]
        assert list(REPORT_POSE_KEYS) == keys[:8]
        assert "avg_fl_deg" in keys
        assert keys.index("fl_hip_aa_deg") < keys.index("avg_fl_deg")

    def test_missing_config_file(self, runs_root, capsys):
        assert run_cli("gen", "--config", "/does/not/exist.cfg", "--run-id", "x") == 2
        assert "config error" in capsys.readouterr().err

    def test_profile_flag_changes_rates(self, runs_root, fast_config):
        # --dt takes precedence over --profile, and sets the one clock.
        for flags, dt in ((("--profile", "sim"), 1.0 / 240.0),
                          (("--profile", "sim", "--dt", "0.002"), 0.002)):
            assert run_cli("all", "--config", fast_config, "--run-id", "clock", *flags) == 0
            section, clocks = None, {}
            for line in (runs_root / "clock" / "config_snapshot.cfg").read_text().splitlines():
                if line.startswith("["):
                    section = line
                elif line.startswith("dt = "):
                    clocks[section] = line
            assert clocks == {"[sim]": f"dt = {dt!r}"}

    @pytest.mark.parametrize("flags", [("--profile", "sim"), ("--dt", "0.000333333333333")])
    def test_non_decimal_rate_runs_end_to_end(self, runs_root, fast_config, flags):
        # 1/240 s and 1/3 ms are not written exactly with 9 significant
        # digits; the readers rebuild t = k * dt from the configured dt.
        assert run_cli("all", "--config", fast_config, "--run-id", "rate", *flags) == 0
        dt = 1.0 / 240.0 if flags[0] == "--profile" else float(flags[1])
        _, log = read_log(runs_root / "rate" / "sim_log.csv", dt=dt)
        assert np.array_equal(log.t, np.arange(len(log)) * dt)
        assert (runs_root / "rate" / "report.txt").exists()

    def test_traj_override(self, runs_root, fast_config):
        assert run_cli(
            "gen", "--config", fast_config, "--run-id", "circ", "--traj", "circular"
        ) == 0
        text = (runs_root / "circ" / "config_snapshot.cfg").read_text()
        assert "type = circular" in text

    def test_step_type_runs_end_to_end(self, runs_root):
        # The built-in config with --traj step: the README's artifact list,
        # one plot table per channel of pose, velocity and acceleration.
        assert run_cli("all", "--run-id", "step", "--traj", "step") == 0
        plots = {f"plot_{kind}_{axis}.csv" for kind in ("translation", "rotation", "lin_vel", "ang_vel",
                                                         "lin_acc", "ang_acc") for axis in "xyz"}
        tables = {"config_snapshot.cfg", "trajectory.csv", "joint_targets.csv", "sim_log.csv", "report.txt"}
        assert {p.name for p in (runs_root / "step").iterdir()} == tables | plots
        assert "type = step" in (runs_root / "step" / "config_snapshot.cfg").read_text()

    def test_continuous_yaw_rmse_compares_angles_modulo_360(self, runs_root, tmp_path):
        # The commanded yaw wraps at +/-180 deg twice a round; a rotation RMSE
        # taken across the wrap read ten times the joint tracking error.
        path = tmp_path / "yaw.cfg"
        path.write_text(CONTINUOUS_YAW)
        assert run_cli("all", "--config", str(path), "--run-id", "yaw") == 0
        lines = (runs_root / "yaw" / "report.txt").read_text().splitlines()
        values = dict(line.split(" = ") for line in lines if " = " in line)
        joint_max = max(float(v) for k, v in values.items() if k.endswith(("_aa_deg", "_fe_deg")))
        assert float(values["rotation_z_deg"]) <= 3 * joint_max

    def test_runs_root_flag_beats_env(self, tmp_path, runs_root, fast_config):
        explicit = tmp_path / "explicit"
        assert run_cli(
            "gen", "--config", fast_config, "--run-id", "here", "--runs-root", str(explicit)
        ) == 0
        assert (explicit / "here" / "trajectory.csv").exists()
        assert not (runs_root / "here").exists()

    def test_empty_runs_root_env_means_unset(self, tmp_path, fast_config, monkeypatch):
        monkeypatch.setenv("QUADSTAGE_RUNS_ROOT", "")
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen", "--config", fast_config, "--run-id", "probe") == 0
        assert (tmp_path / "runs" / "probe" / "trajectory.csv").exists()
        assert not (tmp_path / "probe").exists()

    def test_sim_rejects_rate_mismatch(self, runs_root, fast_config, capsys):
        assert run_cli("gen", "--config", fast_config, "--run-id", "rate") == 0
        assert run_cli("ik", "--config", fast_config, "--run-id", "rate") == 0
        # Hash is rate-sensitive, so a changed dt trips the hash check
        # before the rate comparison.
        assert run_cli("sim", "--config", fast_config, "--run-id", "rate", "--dt", "0.002") == 1
        err = capsys.readouterr().err
        assert "mismatch" in err

    def test_snapshot_is_loadable(self, runs_root, fast_config):
        # A run's snapshot reloads to the same configuration, so rerunning
        # it writes every file byte for byte again.
        assert run_cli("all", "--config", fast_config, "--run-id", "snap") == 0
        snapshot = runs_root / "snap" / "config_snapshot.cfg"
        assert load_config(snapshot).trajectory.run_time == 0.5
        assert run_cli("all", "--config", str(snapshot), "--run-id", "reload") == 0
        names = sorted(p.name for p in (runs_root / "snap").iterdir())
        assert names == sorted(p.name for p in (runs_root / "reload").iterdir())
        for name in names:
            assert (runs_root / "snap" / name).read_bytes() == (runs_root / "reload" / name).read_bytes(), name

    def test_gravity_offset_visible_in_log(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "grav") == 0
        _, log = read_log(runs_root / "grav" / "sim_log.csv", dt=1e-3)
        settle = log.t < 0.2
        err = np.abs(log.q_target[settle][-1] - log.q[settle][-1])
        assert np.max(err) > 1e-4  # uncompensated stage weight sags


class TestPaperEnvelopes:
    """The paper's headline 10 Hz sine cases, pinned as a regression record.

    With kp = 180 and J = 0.035 the PD loop has a ~11.4 Hz natural
    frequency and a damping ratio of ~0.72, so at 10 Hz the tracking error
    is larger than the target's own RMS (7.07 mm for +/-10 mm).
    """

    @pytest.mark.parametrize("payload, amplitude, axis, expected", [
        (0.3, 10.0, "x", 7.71415085),
        (1.2, 20.0, "x", 17.1497578),
        (1.2, 20.0, "z", 22.363033),
    ])
    def test_driven_axis_rmse(self, runs_root, tmp_path, payload, amplitude, axis, expected):
        path = tmp_path / "envelope.cfg"
        path.write_text(f"[sim]\npayload_mass = {payload}\n[trajectory]\ntype = sine\nrun_time = 2\n"
                        f"wait_time = 0.5\nfrequency = 10\namplitude = {amplitude}\naxis = {axis}\n")
        assert run_cli("all", "--config", str(path), "--run-id", "envelope") == 0
        lines = (runs_root / "envelope" / "report.txt").read_text().splitlines()
        values = dict(line.split(" = ") for line in lines if " = " in line)
        assert float(values[f"translation_{axis}_mm"]) == pytest.approx(expected, rel=1e-6)


def test_import_loads_no_scipy():
    # scipy is only the tests' reference; importing it would cost most of
    # a run's start-up time.
    code = ("import quadstage, quadstage.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"
