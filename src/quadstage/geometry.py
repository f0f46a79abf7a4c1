"""Rotation and line-geometry primitives.

Conventions used throughout the package:

* positions are in millimetres, directions are unitless,
* Euler angles are intrinsic x-y-z (roll, pitch, yaw), degrees at API
  boundaries: ``R = Rx(rx) @ Ry(ry) @ Rz(rz)``,
* rotation matrices are 3x3 float64 arrays with ``R.T @ R = I`` and
  ``det(R) = +1``.

All functions are pure and safe to call from multiple threads.  The
array-first ones (euler_to_rotation, rotation_to_euler, align_vectors,
line_closest_midpoint) also take stacks over leading axes; a check that
fails on a stack names the first offending sample index.  Each is the
public entry point of a core that the pipeline runs: align_vectors is the
pose reconstruction's Kabsch step, _kabsch.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Rank threshold for the alignment problem and parallelism threshold for
# line intersection, both on unit-normalized inputs.
DEGENERACY_EPS = 1e-12

# |pitch| closer to 90 deg than this is treated as gimbal lock.
GIMBAL_LOCK_EPS_DEG = 1e-7


class DegenerateInputError(ValueError):
    """Vector set does not constrain a unique rotation (rank < 2)."""


class ParallelLinesError(ValueError):
    """Line directions are parallel; there is no unique closest point."""


class GimbalLockWarning(UserWarning):
    """|pitch| = 90 deg: roll and yaw are inseparable, yaw is reported as 0."""


def rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_rotation(euler_deg) -> np.ndarray:
    """Rotation matrix from intrinsic x-y-z Euler angles in degrees.

    Array-first: euler_deg is (..., 3) and the result is (..., 3, 3), each
    matrix rot_x @ rot_y @ rot_z in closed form, on floats for one 3-vector
    and equal to it bit for bit in a stack.  On a stack, the non-finite
    check names the first offending sample index.
    """
    e = np.asarray(euler_deg, dtype=float)
    if e.shape[-1:] != (3,):
        raise ValueError(f"expected 3 Euler angles, got shape {e.shape}")
    finite = np.isfinite(e)
    if not finite.all():  # then name the first bad sample of a stack
        _check(np.logical_not(np.all(finite, axis=-1)), ValueError, "Euler angles must be finite")
    if e.ndim == 1:
        return np.array(_euler_rows(*map(math.radians, e.tolist()), math))
    rows = _euler_rows(*np.moveaxis(np.radians(e), -1, 0), np)
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def at_sample(k) -> str:
    """The suffix naming sample k of a stack in an error message."""
    return f" at sample {k}"


def _where(mask) -> str:
    # at_sample of the first set entry of a batched mask; "" if unbatched.
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return ""
    first = np.argwhere(mask)[0]
    return at_sample(int(first[0]) if mask.ndim == 1 else tuple(int(i) for i in first))


def _any(mask) -> bool:
    # True if any sample is set in a mask, or in one bool (one sample).
    return bool(mask) if isinstance(mask, (bool, np.bool_)) else bool(mask.any())


def _check(bad, error: type, message: str) -> None:
    # Raise error(message) if any sample is bad, naming the first one.
    if _any(bad):
        raise error(message + _where(bad))


def _distinct_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    # (first, inverse) by bits over the rows of an (N, C) array of 8-byte
    # words: each distinct row's first index, increasing, and each row's id,
    # so rows[first][inverse] equals rows byte for byte.  np.unique sorts the
    # rows as raw bytes, so -0.0 is not 0.0 and NaN payloads stay apart; its
    # ids, in byte order, are renumbered by first use.
    rows = np.ascontiguousarray(rows)
    _, first, inverse = np.unique(rows.view(f"V{8 * rows.shape[1]}").ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


# The formula cores below take a 3-vector as its three components, floats
# (lib = math) or arrays over samples (lib = np); a 3x3 matrix as its rows.
# numpy's cos, sin, radians and degrees gave math's bits on every input
# tried (x86-64, numpy 2.4; acos, asin and atan2 did not), so _euler_rows
# gives one pose and a stack equal results, as the tests check.
# For each lib, the clamp into [-1, 1] ahead of acos or asin, and where().
_CLIP_UNIT = {math: lambda x: min(1.0, max(-1.0, x)), np: lambda x: np.clip(x, -1.0, 1.0)}
_WHERE = {math: lambda mask, a, b: a if mask else b, np: np.where}


def _sub(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple:
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _det(rows):
    # Determinant of a 3x3 matrix as the triple product of its rows.
    return _dot(rows[0], _cross(rows[1], rows[2]))


def _rows(m, lib):
    # The rows of a 3x3 matrix, or of a stack of them, as _det and _euler_deg take them.
    return m.tolist() if lib is math else np.moveaxis(m, (-2, -1), (0, 1))


def _euler_rows(rx, ry, rz, lib) -> tuple:
    # Rx(rx) @ Ry(ry) @ Rz(rz) in closed form, as its rows, for angles in radians.
    cx, sx = lib.cos(rx), lib.sin(rx)
    cy, sy = lib.cos(ry), lib.sin(ry)
    cz, sz = lib.cos(rz), lib.sin(rz)
    sxsy, cxsy = sx * sy, cx * sy
    return ((cy * cz, -(cy * sz), sy),
            (sxsy * cz + cx * sz, cx * cz - sxsy * sz, -(sx * cy)),
            (sx * sz - cxsy * cz, cxsy * sz + sx * cz, cx * cy))


def _is_rotation(rows, tol: float):
    # The rotation test on a matrix given as rows: the upper triangle of
    # its Gram matrix within tol of I and its determinant within tol of 1.
    columns = tuple(zip(*rows))
    ok = abs(_det(rows) - 1.0) <= tol
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        ok = ok & (abs(_dot(columns[i], columns[j]) - float(i == j)) <= tol)
    return ok


_NOT_ROTATION = "input is not a rotation matrix (orthonormality/det check failed)"


def _euler_deg(rows, lib):
    # rotation_to_euler on a matrix given as rows, with its 1e-6 rotation
    # check and gimbal-lock warning: the three angles in degrees.
    _check(np.logical_not(_is_rotation(rows, 1e-6)), ValueError, _NOT_ROTATION)
    where = _WHERE[lib]
    sy = _CLIP_UNIT[lib](rows[0][2])
    ry = lib.asin(sy)
    locked = 90.0 - lib.degrees(abs(ry)) < GIMBAL_LOCK_EPS_DEG
    if _any(locked):
        warnings.warn("pitch at +/-90 deg: roll/yaw are not separable, reporting yaw = 0"
                      + _where(locked), GimbalLockWarning, stacklevel=3)
    # At sy = +1: r[1,0] = sin(rx + rz), r[1,1] = cos(rx + rz).
    # At sy = -1: r[1,0] = sin(rz - rx), r[1,1] = cos(rz - rx).
    combined = lib.atan2(rows[1][0], rows[1][1])
    rx = where(locked, where(sy > 0, combined, -combined), lib.atan2(-rows[1][2], rows[2][2]))
    rz = where(locked, 0.0, lib.atan2(-rows[0][1], rows[0][0]))
    return lib.degrees(rx), lib.degrees(ry), lib.degrees(rz)


def rotation_to_euler(r: np.ndarray) -> np.ndarray:
    """Intrinsic x-y-z Euler angles (degrees) of a rotation matrix.

    Canonical form: ry in [-90, 90], rx and rz in (-180, 180].  At gimbal
    lock (|ry| = 90 deg) only rx +/- rz is observable; rz is set to 0 and a
    GimbalLockWarning is emitted, once per call.

    Array-first: r is (..., 3, 3) and the result is (..., 3).  On a stack,
    the ValueError of a failed orthonormality/det check and the gimbal-lock
    warning name the first offending sample index.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise ValueError(_NOT_ROTATION)
    return np.stack(_euler_deg(_rows(r, np), np), axis=-1)


def align_vectors(source, target) -> np.ndarray:
    """Best-fit rotation mapping each source vector onto its target.

    Solves the orthogonal Procrustes problem min_R sum ||R s_i - t_i||^2
    over proper rotations via SVD with determinant correction (Kabsch),
    on the unit-normalized vectors: the Kabsch step that the pose
    reconstruction runs on its corner triads.

    Args:
        source: (..., n, 3) array-like of source vectors, n >= 2.
        target: (..., n, 3) array-like of matching target vectors.  The
            leading axes of source and target broadcast against each other,
            so one source set can be aligned onto a stack of targets.

    Returns:
        (..., 3, 3) rotation matrices with R.T @ R = I and det(R) = +1.

    Raises:
        DegenerateInputError: fewer than two pairs, a zero vector, or a
            collinear vector set (the rotation about the common axis would
            be unconstrained).  On a stack the message names the first
            offending sample index.
    """
    s = np.atleast_2d(np.asarray(source, dtype=float))
    t = np.atleast_2d(np.asarray(target, dtype=float))
    if s.shape[-2:] != t.shape[-2:] or s.shape[-1] != 3:
        raise ValueError(f"source/target must both be (..., n, 3), got {s.shape} and {t.shape}")
    if s.shape[-2] < 2:
        raise DegenerateInputError("need at least two vector pairs")
    ns = np.linalg.norm(s, axis=-1)
    nt = np.linalg.norm(t, axis=-1)
    _check(np.any(ns < DEGENERACY_EPS, axis=-1) | np.any(nt < DEGENERACY_EPS, axis=-1),
           DegenerateInputError, "zero-length vector in input set")
    # Unit-normalize so the rank test is scale independent.
    h = np.swapaxes(s / ns[..., None], -1, -2) @ (t / nt[..., None])
    return _kabsch(h, np)


def _kabsch(h, lib) -> np.ndarray:
    # The Kabsch step of align_vectors and the pose reconstruction on
    # h = S^T T, one 3x3 or a stack: the SVD, the rank check, and
    # R = V diag(1, 1, d) U^T with d = sign(det(V U^T)) = sign(det(V) det(U))
    # per matrix, the determinants as triple products on floats (lib = math)
    # or arrays.
    u, sing, vt = np.linalg.svd(h)
    _check(sing[..., 1] <= DEGENERACY_EPS * np.maximum(sing[..., 0], 1.0),
           DegenerateInputError, "vector set is collinear; rotation is not unique")
    v = vt.swapaxes(-1, -2)
    v[..., 2] *= np.where(_det(_rows(vt, lib)) * _det(_rows(u, lib)) < 0.0, -1.0, 1.0)[..., None]
    return v @ u.swapaxes(-1, -2)


def line_closest_midpoint(p1, d1, p2, d2) -> np.ndarray:
    """Point halfway between the closest points of two lines.

    For intersecting lines this is the intersection point; for skew lines
    it is the midpoint of the common perpendicular segment.  Symmetric in
    the two lines.

    Array-first: each argument is (..., 3), the leading axes broadcast and
    the result is (..., 3).

    Raises:
        ParallelLinesError: directions are parallel (normalized cross
            product below 1e-12).
        ValueError: a direction vector is zero.
        On a stack both messages name the first offending sample index.
    """
    p1, d1, p2, d2 = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in (p1, d1, p2, d2))
    return np.stack(_midpoint(p1, d1, p2, d2, np), axis=-1)


def _midpoint(p1, d1, p2, d2, lib) -> list:
    # line_closest_midpoint on lines given as components, with its checks.
    n1, n2 = lib.sqrt(_dot(d1, d1)), lib.sqrt(_dot(d2, d2))
    _check((n1 < DEGENERACY_EPS) | (n2 < DEGENERACY_EPS), ValueError,
           "line direction must be nonzero")
    u1 = d1[0] / n1, d1[1] / n1, d1[2] / n1
    u2 = d2[0] / n2, d2[1] / n2, d2[2] / n2
    n = _cross(u1, u2)
    nn = _dot(n, n)
    _check(lib.sqrt(nn) < DEGENERACY_EPS, ParallelLinesError, "line directions are parallel")
    r = _sub(p2, p1)
    # det([r, u, n]) = r . (u x n)
    t1 = _dot(r, _cross(u2, n)) / nn
    t2 = _dot(r, _cross(u1, n)) / nn
    return [0.5 * ((a + t1 * b) + (c + t2 * d)) for a, b, c, d in zip(p1, u1, p2, u2)]
