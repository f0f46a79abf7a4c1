"""Stacked passes evaluated once per distinct row.

geometry._distinct_rows gives each row of a stack the id of the first row
with its bits.  solve_platform_ik, reconstruct_series and run_sim evaluate
each distinct row once and gather the results back, so a stack and any
gather of it give the same rows bit for bit, and an error or warning still
names the first sample at fault, not a distinct row.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadstage import default_config, geometry, kinematics, postprocess
from quadstage.cli import main
from quadstage.config import loads_config
from quadstage.geometry import DegenerateInputError, GimbalLockWarning, _distinct_rows
from quadstage.kinematics import (
    BallPivotError,
    KinematicsError,
    PlatformPose,
    UnreachableError,
    WorkspaceLimits,
    WorkspaceViolationError,
    leg_ik,
    solve_platform_ik,
)
from quadstage.logio import as_read
from quadstage.postprocess import reconstruct_pose, reconstruct_series

# The README's circular example: 20 mm, +/-10 deg yaw, 1.2 kg payload.
README_CIRCLE = """\
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

LIMITS = default_config().limits
BOX = np.array([LIMITS.x_max, LIMITS.y_max, LIMITS.z_max])

# Two rows of the README circle's trajectory as read, apart only in the
# signs of y and rz.
SIGN_TWINS = np.array([[-19.998, -0.251, 0.0, 0.0, 0.0, -0.126],
                       [-19.998, 0.251, 0.0, 0.0, 0.0, 0.126]])

# A stack whose failing row X first occurs at sample 4, after repeats of
# good rows A and B, and recurs at sample 6.  X is distinct row 2.
ORDER = ["A", "B", "A", "B", "X", "A", "X", "B"]
FIRST_BAD = 4


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def count_distinct(rows):
    return len(np.unique(bits(rows), axis=0))


def with_twins(rows, rng):
    # rows, then each with two fields (or its one) negated, then with them
    # set to 0.0 and to -0.0: rows equal but for signs, which only their
    # bits tell apart.
    flipped, zeros, negative_zeros = rows.copy(), rows.copy(), rows.copy()
    fields = min(2, rows.shape[1])
    flipped[:, rng.choice(rows.shape[1], fields, replace=False)] *= -1.0
    cols = rng.choice(rows.shape[1], fields, replace=False)
    zeros[:, cols], negative_zeros[:, cols] = 0.0, -0.0
    return np.concatenate((rows, flipped, zeros, negative_zeros))


# The cell values of a round trip, one set per example: whole numbers
# -2..2 times one scale (rows apart in signs and in exponent steps, or
# subnormal), +/-inf and NaN, and quiet NaNs of either sign with several
# payloads, which compare unequal as floats and only their bytes tell apart.
CELL_VALUES = [np.arange(-2.0, 3.0) * scale for scale in (0.5, 1e-300, 1e300, 5e-324)] + [
    np.array([-np.inf, np.inf, np.nan, 0.0, 1.0]),
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000,
              0xFFF8000000000001], dtype=np.uint64).view(np.float64),
]


def stacked(rows):
    return PlatformPose(rows[:, :3], rows[:, 3:])


class TestDistinctRows:
    def test_two_sign_flips_keep_rows_apart(self):
        # The twins differ in two signs only; each keeps its first id.
        first, inverse = _distinct_rows(SIGN_TWINS[[0, 1, 1, 0, 1]])
        assert first.tolist() == [0, 1]
        assert inverse.tolist() == [0, 1, 1, 0, 1]

    def test_signed_zeros_are_different_rows(self):
        rows = np.zeros((5, 3))
        rows[[1, 3]] = -0.0
        rows[4, 2] = -0.0
        first, inverse = _distinct_rows(rows)
        assert first.tolist() == [0, 1, 4]
        assert inverse.tolist() == [0, 1, 0, 1, 2]

    def test_circle_rows_hash_apart(self):
        cfg = loads_config(README_CIRCLE)
        traj = cfg.build_trajectory()
        rows = np.hstack((as_read(traj.position), as_read(traj.orientation_deg)))
        first, inverse = _distinct_rows(rows)
        assert len(first) == count_distinct(rows) == 577
        assert same_bits(rows[first][inverse], rows)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), m=st.integers(0, 60),
           columns=st.sampled_from([1, 2, 3, 6, 12]), values=st.sampled_from(range(len(CELL_VALUES))))
    def test_first_occurrences_rebuild_the_rows(self, seed, n, m, columns, values):
        rng = np.random.default_rng(seed)
        rows = with_twins(CELL_VALUES[values][rng.integers(0, 5, (n, columns))], rng)
        rows = rows[rng.integers(0, len(rows), m)]
        first, inverse = _distinct_rows(rows)
        assert same_bits(rows[first][inverse], rows)
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(inverse[first], np.arange(len(first)))
        assert len(first) == count_distinct(rows)


class TestGatherCommutes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), m=st.integers(1, 40))
    def test_platform_ik(self, seed, n, m):
        cfg = default_config()
        rng = np.random.default_rng(seed)
        # Poses well inside the box, where the pivot cone is seldom exceeded.
        rows = with_twins(np.hstack((rng.uniform(-0.3, 0.3, (n, 3)) * BOX,
                                     rng.uniform(-10.0, 10.0, (n, 3)))), rng)
        idx = rng.integers(0, len(rows), m)

        def solve(r):
            return solve_platform_ik(stacked(r), cfg.robot, cfg.platform, cfg.limits, check_pivot=True)

        try:
            q = solve(rows)
        except KinematicsError:
            assume(False)
        assert same_bits(solve(rows[idx]), q[idx])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), m=st.integers(1, 40),
           noise_rad=st.sampled_from([0.0, 1e-3, 2e-2]), mode=st.sampled_from(["world", "platform"]))
    def test_reconstruct_series(self, seed, n, m, noise_rad, mode):
        cfg = default_config()
        rng = np.random.default_rng(seed)
        poses = np.hstack((rng.uniform(-1.0, 1.0, (n, 3)) * BOX, rng.uniform(-20.0, 20.0, (n, 3))))
        q = solve_platform_ik(stacked(poses), cfg.robot, cfg.platform)
        q = with_twins(q + noise_rad * rng.standard_normal(q.shape), rng)
        idx = rng.integers(0, len(q), m)
        try:
            series = reconstruct_series(q, cfg.robot, cfg.platform, 1e-3, mode)
        except (ValueError, GimbalLockWarning):
            assume(False)
        gathered = reconstruct_series(q[idx], cfg.robot, cfg.platform, 1e-3, mode)
        assert same_bits(gathered.position, series.position[idx])
        assert same_bits(gathered.orientation_deg, series.orientation_deg[idx])


def pose_rows(bad):
    rows = {"A": np.zeros(6), "B": np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0]), "X": np.array(bad)}
    return np.array([rows[name] for name in ORDER])


class TestFirstFailingSample:
    @pytest.mark.parametrize("case, bad, error", [
        ("box", [300.0, 0.0, 0.0, 0.0, 0.0, 0.0], WorkspaceViolationError),
        ("reach", [0.0, 0.0, -600.0, 0.0, 0.0, 0.0], UnreachableError),
        ("pivot", [0.0, 0.0, 0.0, 35.0, 0.0, 0.0], BallPivotError),
    ])
    def test_platform_ik(self, cfg, case, bad, error):
        limits = {"box": cfg.limits, "reach": None, "pivot": WorkspaceLimits(rot_max=40.0)}[case]
        with pytest.raises(error) as alone:
            solve_platform_ik(PlatformPose(bad[:3], bad[3:]), cfg.robot, cfg.platform, limits, case == "pivot")
        with pytest.raises(error) as err:
            solve_platform_ik(stacked(pose_rows(bad)), cfg.robot, cfg.platform, limits, case == "pivot")
        assert str(err.value) == f"{alone.value} at sample {FIRST_BAD}"
        assert getattr(err.value, "leg", None) == getattr(alone.value, "leg", None)
        if case == "box":
            assert str(err.value) == "pose outside workspace: x_mm=+300.000 (bound 255.000) at sample 4"

    def test_orientation_edited_to_nan(self, cfg):
        # A pose's arrays stay writable after its finiteness check.
        poses = stacked(pose_rows([0.0, 0.0, 0.0, 0.0, 5.0, 0.0]))
        poses.orientation_deg[FIRST_BAD:, 1] = np.nan
        with pytest.raises(ValueError, match=f"^Euler angles must be finite at sample {FIRST_BAD}$"):
            solve_platform_ik(poses, cfg.robot, cfg.platform, cfg.limits)

    def joint_rows(self, cfg, bad):
        a, b = (solve_platform_ik(PlatformPose(p, np.zeros(3)), cfg.robot, cfg.platform)
                for p in ([0.0, 0.0, 0.0], [5.0, 0.0, 0.0]))
        rows = {"A": a, "B": b, "X": bad}
        return np.array([rows[name] for name in ORDER])

    def test_degenerate_row(self, cfg):
        # The back-left foot on the front-left one: a zero triad edge.
        bad = solve_platform_ik(PlatformPose.home(), cfg.robot, cfg.platform)
        bad[6:9] = leg_ik(cfg.platform.home_center + cfg.platform.corner_offsets[0], cfg.robot[2])
        with pytest.raises(DegenerateInputError) as alone:
            reconstruct_pose(bad, cfg.robot, cfg.platform)
        with pytest.raises(DegenerateInputError) as err:
            reconstruct_series(self.joint_rows(cfg, bad), cfg.robot, cfg.platform, 1e-3)
        assert str(err.value) == f"{alone.value} at sample {FIRST_BAD}"

    @pytest.mark.parametrize("matrix, error, message", [
        (2.0 * np.eye(3), ValueError,
         "input is not a rotation matrix (orthonormality/det check failed) at sample 4"),
        (geometry.euler_to_rotation([10.0, 90.0, 20.0]), GimbalLockWarning,
         "pitch at +/-90 deg: roll/yaw are not separable, reporting yaw = 0 at sample 4"),
    ], ids=["not a rotation", "gimbal lock"])
    def test_rotation_of_row(self, cfg, monkeypatch, matrix, error, message):
        # The Kabsch step gives X's rows the matrix; X is tilted 5 deg in
        # pitch, so its unit triad alone is not the nominal one (A and B
        # only move).
        bad = solve_platform_ik(PlatformPose(np.zeros(3), [0.0, 5.0, 0.0]), cfg.robot, cfg.platform)
        kabsch = postprocess._kabsch

        def aligned(s, t, lib):
            rotation = kabsch(s, t, lib)
            tilted = np.any([np.abs(tc - sc) > 1e-3 for tv, sv in zip(t, s) for tc, sc in zip(tv, sv)],
                            axis=0)
            np.moveaxis(rotation, (0, 1), (-2, -1))[tilted] = matrix
            return rotation

        monkeypatch.setattr(postprocess, "_kabsch", aligned)
        q = self.joint_rows(cfg, bad)
        if error is GimbalLockWarning:
            with pytest.warns(GimbalLockWarning) as record:
                reconstruct_series(q, cfg.robot, cfg.platform, 1e-3)
            assert [str(w.message) for w in record] == [message]
        else:
            with pytest.raises(error) as err:
                reconstruct_series(q, cfg.robot, cfg.platform, 1e-3)
            assert str(err.value) == message


def test_circle_passes_see_each_distinct_row_once(tmp_path, monkeypatch):
    # As `all` hands them over, the README circle's 10,001 samples hold 577
    # distinct poses and 862 distinct logged joint rows; a change that stops
    # evaluating each distinct row once fails here.  The reconstruction
    # takes them in one pass of its core, on the twelve joint columns.
    ik_rows, recon_rows = [], []
    leg_ik_stack, reconstruct = kinematics._leg_ik_stack, postprocess._reconstruct

    def counted_ik(p, geom):
        ik_rows.append(len(p))
        return leg_ik_stack(p, geom)

    def counted_reconstruct(q, robot, platform, z_offset_mode, lib):
        recon_rows.append(len(q[0]))
        return reconstruct(q, robot, platform, z_offset_mode, lib)

    monkeypatch.setattr(kinematics, "_leg_ik_stack", counted_ik)
    monkeypatch.setattr(postprocess, "_reconstruct", counted_reconstruct)
    path = tmp_path / "circle.cfg"
    path.write_text(README_CIRCLE)
    assert main(["all", "--config", str(path), "--run-id", "circle", "--runs-root", str(tmp_path)]) == 0
    assert len(ik_rows) == 4 and 0 < max(ik_rows) <= 600
    assert len(recon_rows) == 1 and 0 < recon_rows[0] <= 900
