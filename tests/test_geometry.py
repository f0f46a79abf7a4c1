import math

import numpy as np
import pytest

from quadstage.geometry import (
    DegenerateInputError,
    GimbalLockWarning,
    ParallelLinesError,
    align_vectors,
    euler_to_rotation,
    line_closest_midpoint,
    rotation_to_euler,
)

from conftest import random_rotation


def single_axis(axis: int, deg: float) -> np.ndarray:
    # Independent construction of one single-axis rotation matrix.
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    m = np.eye(3)
    i, j = [(1, 2), (0, 2), (0, 1)][axis]
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s if axis != 1 else s
    m[j, i] = s if axis != 1 else -s
    return m


def compose_euler(rx: float, ry: float, rz: float) -> np.ndarray:
    return single_axis(0, rx) @ single_axis(1, ry) @ single_axis(2, rz)


@pytest.mark.parametrize("call, message", [
    (lambda: euler_to_rotation(np.zeros(2)), r"^expected 3 Euler angles, got shape \(2,\)$"),
    (lambda: rotation_to_euler(np.zeros((3, 2))), r"^input is not a rotation matrix "),
    (lambda: align_vectors(np.zeros((3, 3)), np.zeros((2, 3))),
     r"^source/target must both be \(\.\.\., n, 3\), got \(3, 3\) and \(2, 3\)$"),
], ids=["euler_to_rotation-2-vector", "rotation_to_euler-3x2", "align_vectors-3-against-2"])
def test_apis_name_a_wrong_shape(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestEulerRotation:
    def test_identity(self):
        assert np.allclose(euler_to_rotation([0, 0, 0]), np.eye(3))
        assert np.allclose(rotation_to_euler(np.eye(3)), [0, 0, 0])

    def test_roll_90_maps_y_to_z(self):
        r = euler_to_rotation([90, 0, 0])
        assert np.allclose(r @ [0, 1, 0], [0, 0, 1], atol=1e-15)

    def test_matches_independent_composition(self):
        assert np.allclose(euler_to_rotation([10, 20, 30]), compose_euler(10, 20, 30), atol=1e-15)

    @pytest.mark.parametrize("angles", [(10, 20, 30), (5, -10, 25), (-170, 80, 179)])
    def test_round_trip(self, angles):
        recovered = rotation_to_euler(euler_to_rotation(angles))
        assert np.max(np.abs(recovered - np.asarray(angles))) < 1e-9

    def test_round_trip_randomized(self, rng):
        matrices, rows = [], []
        for _ in range(1000):
            angles = rng.uniform([-180, -85, -180], [180, 85, 180])
            matrices.append(euler_to_rotation(angles))
            recovered = rotation_to_euler(matrices[-1])
            rows.append(recovered)
            err = np.abs(recovered - angles)
            err[0] = min(err[0], 360 - err[0])
            err[2] = min(err[2], 360 - err[2])
            assert np.max(err) < 1e-9
        stacked = rotation_to_euler(np.reshape(matrices, (10, 100, 3, 3)))
        assert np.max(np.abs(stacked.reshape(1000, 3) - rows)) < 1e-12

    def test_gimbal_lock_flagged(self):
        with pytest.warns(GimbalLockWarning):
            angles = rotation_to_euler(euler_to_rotation([25, 90, 0]))
        assert angles[1] == pytest.approx(90.0)
        assert angles[2] == 0.0

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            rotation_to_euler(np.diag([1.0, 2.0, 1.0]))

    def test_batch_names_first_non_rotation(self):
        stack = np.tile(np.eye(3), (5, 1, 1))
        stack[3] = np.diag([1.0, 2.0, 1.0])
        stack[4] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="at sample 3$"):
            rotation_to_euler(stack)

    def test_batch_gimbal_lock_warns_once(self):
        inputs = ([0, 0, 0], [25, 90, 0], [0, 10, 0], [5, -90, 0])
        stack = np.array([euler_to_rotation(a) for a in inputs])
        with pytest.warns(GimbalLockWarning) as record:
            angles = rotation_to_euler(stack)
        assert len(record) == 1
        assert str(record[0].message).endswith("at sample 1")
        assert angles[1, 1] == pytest.approx(90.0)
        assert angles[3, 1] == pytest.approx(-90.0)
        assert angles[1, 2] == 0.0 and angles[3, 2] == 0.0
        assert angles[2] == pytest.approx([0.0, 10.0, 0.0])


class TestAlignVectors:
    def test_identity(self):
        basis = np.eye(3)
        assert np.allclose(align_vectors(basis, basis), np.eye(3), atol=1e-12)

    def test_recovers_known_rotation(self):
        r0 = single_axis(2, 30)
        source = np.eye(3)
        assert np.max(np.abs(align_vectors(source, source @ r0.T) - r0)) < 1e-9

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInputError):
            align_vectors([[1, 0, 0], [2, 0, 0]], [[0, 1, 0], [0, 2, 0]])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            align_vectors([[1, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0]])

    def test_single_pair_rejected(self):
        with pytest.raises(DegenerateInputError):
            align_vectors([[1, 0, 0]], [[0, 1, 0]])

    def test_recovers_random_rotations(self, rng):
        sources, targets, rows = [], [], []
        for _ in range(1000):
            r = random_rotation(rng)
            source = rng.normal(size=(3, 3))
            while np.linalg.matrix_rank(source, tol=1e-3) < 2:
                source = rng.normal(size=(3, 3))
            recovered = align_vectors(source, source @ r.T)
            assert np.max(np.abs(recovered - r)) < 1e-9
            sources.append(source)
            targets.append(source @ r.T)
            rows.append(recovered)
        stacked = align_vectors(sources, targets)
        assert stacked.shape == (1000, 3, 3)
        assert np.max(np.abs(stacked - rows)) < 1e-12

    def test_one_source_against_stacked_targets(self, rng):
        source = rng.normal(size=(4, 3))
        targets = [source @ random_rotation(rng).T for _ in range(6)]
        stacked = align_vectors(source, targets)
        for target, got in zip(targets, stacked):
            assert np.max(np.abs(got - align_vectors(source, target))) < 1e-12

    def test_batch_names_first_degenerate_sample(self):
        source = np.tile(np.eye(3), (5, 1, 1))
        target = source.copy()
        target[1, 2] = 0.0  # zero vector
        with pytest.raises(DegenerateInputError, match="zero-length vector.* at sample 1$"):
            align_vectors(source, target)
        target = source.copy()
        target[3] = [[1, 0, 0], [2, 0, 0], [-1, 0, 0]]  # collinear
        with pytest.raises(DegenerateInputError, match="collinear.* at sample 3$"):
            align_vectors(source, target)

    def test_noisy_output_still_proper(self, rng):
        for _ in range(200):
            r = random_rotation(rng)
            source = rng.normal(size=(4, 3))
            target = source @ r.T + 0.05 * rng.normal(size=(4, 3))
            got = align_vectors(source, target)
            assert np.max(np.abs(got.T @ got - np.eye(3))) < 1e-9
            assert abs(np.linalg.det(got) - 1.0) < 1e-9


class TestLineClosestMidpoint:
    def test_intersecting_axes(self):
        p = line_closest_midpoint([0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0])
        assert np.allclose(p, [0, 0, 0], atol=1e-15)

    def test_skew_lines(self):
        # Closest points are (0,0,0) on the first line and (0,0,1) on the
        # second; the midpoint splits the common perpendicular.
        p = line_closest_midpoint([0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0])
        assert np.allclose(p, [0, 0, 0.5], atol=1e-15)

    def test_parallel_rejected(self):
        with pytest.raises(ParallelLinesError):
            line_closest_midpoint([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            line_closest_midpoint([0, 0, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0])

    def test_swap_symmetry(self, rng):
        lines, rows = [], []
        for _ in range(500):
            p1, p2 = rng.normal(size=(2, 3)) * 10
            d1, d2 = rng.normal(size=(2, 3))
            if np.linalg.norm(np.cross(d1, d2)) < 1e-6:
                continue
            a = line_closest_midpoint(p1, d1, p2, d2)
            b = line_closest_midpoint(p2, d2, p1, d1)
            assert np.max(np.abs(a - b)) < 1e-12
            lines.append((p1, d1, p2, d2))
            rows.append(a)
        stacked = line_closest_midpoint(*np.moveaxis(np.array(lines), 1, 0))
        assert np.max(np.abs(stacked - rows)) < 1e-12

    def test_batch_names_first_bad_sample(self):
        p = np.zeros((4, 3))
        d1 = np.tile([1.0, 0.0, 0.0], (4, 1))
        d2 = np.tile([0.0, 1.0, 0.0], (4, 1))
        d2[2] = [2.0, 0.0, 0.0]  # parallel to d1
        with pytest.raises(ParallelLinesError, match="at sample 2$"):
            line_closest_midpoint(p, d1, p, d2)
        d1[1] = 0.0
        with pytest.raises(ValueError, match="nonzero at sample 1$"):
            line_closest_midpoint(p, d1, p, d2)
