import numpy as np
import pytest

from quadstage.cli import main
from quadstage.logio import REPORT_POSE_KEYS, read_log

FAST_CFG = """
[trajectory]
type = sine
run_time = 0.5
wait_time = 0.2
frequency = 2.0
amplitude = 20.0
"""

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

    def test_stagewise_equals_all(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "whole") == 0
        for stage in ("gen", "ik", "sim", "post"):
            assert run_cli(stage, "--config", fast_config, "--run-id", "steps") == 0
        for name in ARTIFACTS:
            a = (runs_root / "whole" / name).read_bytes()
            b = (runs_root / "steps" / name).read_bytes()
            assert a == b, name

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

    @pytest.mark.parametrize("stage, upstream", [("ik", ["gen"]), ("post", ["gen", "ik", "sim"])])
    def test_hash_checked_before_rows(self, runs_root, fast_config, capsys, stage, upstream):
        # A 2 ms step does not match the 1 ms t column, but the changed
        # config is the cause the stage must name.
        for name in upstream:
            assert run_cli(name, "--config", fast_config, "--run-id", "rows") == 0
        capsys.readouterr()
        assert run_cli(stage, "--config", fast_config, "--run-id", "rows", "--dt", "0.002") == 1
        assert "config hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("dt, field", [("0.02", "filter.cutoff_hz"), ("-1", "sim.dt")])
    def test_overrides_checked_like_a_file(self, runs_root, fast_config, capsys, dt, field):
        assert run_cli("all", "--config", fast_config, "--run-id", "flags", "--dt", dt) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (runs_root / "flags").exists()

    def test_non_finite_dt_rejected(self, runs_root, fast_config, capsys):
        assert run_cli("all", "--config", fast_config, "--run-id", "nan", "--dt", "nan") == 2
        assert "sim.dt: expected a finite number, got 'nan'" in capsys.readouterr().err
        assert not (runs_root / "nan").exists()

    def test_mismatched_sample_clocks_rejected(self, runs_root, tmp_path, capsys):
        path = tmp_path / "clocks.cfg"
        path.write_text(FAST_CFG + "\n[sim]\ndt = 0.002\n")
        assert run_cli("all", "--config", str(path), "--run-id", "clocks") == 2
        assert "config error: trajectory.dt: must equal sim.dt" in capsys.readouterr().err
        assert not (runs_root / "clocks").exists()

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
        assert run_cli("gen", "--config", fast_config, "--run-id", "slow", "--profile", "sim") == 0
        text = (runs_root / "slow" / "config_snapshot.cfg").read_text()
        assert f"dt = {1.0 / 240.0!r}" in text

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

    def test_runs_root_flag_beats_env(self, tmp_path, runs_root, fast_config):
        explicit = tmp_path / "explicit"
        assert run_cli(
            "gen", "--config", fast_config, "--run-id", "here", "--runs-root", str(explicit)
        ) == 0
        assert (explicit / "here" / "trajectory.csv").exists()
        assert not (runs_root / "here").exists()

    def test_sim_rejects_rate_mismatch(self, runs_root, fast_config, capsys):
        assert run_cli("gen", "--config", fast_config, "--run-id", "rate") == 0
        assert run_cli("ik", "--config", fast_config, "--run-id", "rate") == 0
        # Hash is rate-sensitive, so a changed dt trips the hash check
        # before the rate comparison.
        assert run_cli("sim", "--config", fast_config, "--run-id", "rate", "--dt", "0.002") == 1
        err = capsys.readouterr().err
        assert "mismatch" in err

    def test_snapshot_is_loadable(self, runs_root, fast_config):
        assert run_cli("gen", "--config", fast_config, "--run-id", "snap") == 0
        from quadstage.config import load_config

        cfg = load_config(runs_root / "snap" / "config_snapshot.cfg")
        assert cfg.trajectory.run_time == 0.5

    def test_gravity_offset_visible_in_log(self, runs_root, fast_config):
        assert run_cli("all", "--config", fast_config, "--run-id", "grav") == 0
        _, log = read_log(runs_root / "grav" / "sim_log.csv")
        settle = log.t < 0.2
        err = np.abs(log.q_target[settle][-1] - log.q[settle][-1])
        assert np.max(err) > 1e-4  # uncompensated stage weight sags
