import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

import sympforge
from sympforge import forms4d, selftest, taming

STD_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_forward_unit_period():
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    assert np.allclose(taming.theta_forward(N), STD_J, atol=1e-14)


def test_forward_electrodynamics_matches_closed_form():
    for theta, g_sq in [(0.0, 4 * np.pi), (2 * np.pi, 1.0), (-3.0, 7.5),
                        (1.0, 0.25), (12.0, 100.0)]:
        N = taming.electrodynamics_period(theta, g_sq)
        J = taming.theta_forward(N)
        assert np.max(np.abs(J - taming.electrodynamics_taming(theta, g_sq))) < 1e-12


def test_forward_output_passes_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        N = selftest.random_period_matrix(3, rng)
        ok, report = taming.is_taming(taming.theta_forward(N))
        assert ok, report


def test_inverse_unit_taming():
    N = taming.theta_inverse(STD_J)
    assert np.allclose(N.R, 0.0, atol=1e-14)
    assert np.allclose(N.I, 1.0, atol=1e-14)


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        N = selftest.random_period_matrix(n, rng)
        N2 = taming.theta_inverse(taming.theta_forward(N))
        assert np.max(np.abs(N2.R - N.R)) < taming.ROUNDTRIP_TOL
        assert np.max(np.abs(N2.I - N.I)) < taming.ROUNDTRIP_TOL


def test_inverse_electrodynamics():
    theta, g_sq = 5.0, 2.0
    N = taming.theta_inverse(taming.electrodynamics_taming(theta, g_sq))
    assert abs(N.R[0, 0] - theta / (2 * np.pi)) < 1e-10
    assert abs(N.I[0, 0] - 4 * np.pi / g_sq) < 1e-10


def test_is_taming_standard():
    ok, _ = taming.is_taming(STD_J)
    assert ok


def test_is_taming_rejects_reversed_orientation():
    ok, report = taming.is_taming(-STD_J)
    assert not ok
    assert not report["q_positive"]


def test_is_taming_rejects_identity():
    ok, report = taming.is_taming(np.eye(2))
    assert not ok
    assert report["square_residual"] > 1.0


def test_is_taming_reports_non_finite_q_as_not_positive():
    # Cholesky passes NaN through without raising, so finiteness is checked apart
    with np.errstate(over="ignore", invalid="ignore"):
        ok, report = taming.is_taming([[np.inf, 0.0], [0.0, 1.0]])
    assert not ok
    assert report["q_positive"] is False


def test_conjugate_by_identity():
    assert np.allclose(taming.taming_conjugate(STD_J, np.eye(2)), STD_J)


def test_conjugate_by_stabilizer():
    assert np.allclose(taming.taming_conjugate(STD_J, STD_J), STD_J, atol=1e-12)


def test_conjugate_preserves_taming():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = selftest.random_symplectic(1, rng)
        out = taming.taming_conjugate(STD_J, g)
        ok, report = taming.is_taming(out, tol=1e-8)
        assert ok, report


def test_conjugate_is_group_action():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 2
        J = taming.theta_forward(selftest.random_period_matrix(n, rng))
        g1 = selftest.random_symplectic(n, rng)
        g2 = selftest.random_symplectic(n, rng)
        lhs = taming.taming_conjugate(J, g1 @ g2)
        rhs = taming.taming_conjugate(taming.taming_conjugate(J, g2), g1)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))


def test_conjugate_rejects_non_symplectic():
    with pytest.raises(ValueError, match="conjugator is not symplectic"):
        taming.taming_conjugate(STD_J, 2 * np.eye(2))


@pytest.mark.parametrize("g", [np.float64(1.0), np.eye(3), np.eye(1), np.zeros((0, 0)),
                               np.zeros((2, 4)), np.zeros((2, 2, 2))],
                         ids=["0-d", "3x3", "1x1", "0x0", "2x4", "3-d"])
def test_symplectic_check_refuses_shapes_that_are_not_square_of_even_size(g):
    """One ValueError before any arithmetic, for the check and for its two callers."""
    with pytest.raises(ValueError, match="g must be square of even dimension >= 2"):
        taming.is_symplectic(g)
    with pytest.raises(ValueError, match="g must be square of even dimension >= 2"):
        taming.taming_conjugate(STD_J, g)
    with pytest.raises(ValueError, match="g must be square of even dimension >= 2"):
        forms4d.duality_act(g, np.zeros((2, 4, 4)))


def test_random_symplectic_is_symplectic_and_advances_the_stream_as_before():
    """The Cayley draw reads one standard normal (2n, 2n) block, as expm's did."""
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    for n in (1, 2, 3, 4):
        g = selftest.random_symplectic(n, rng)
        twin.standard_normal((2 * n, 2 * n))
        W = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        assert np.max(np.abs(g.T @ W @ g - W)) < 1e-14
        assert taming.is_symplectic(g)
    assert rng.standard_normal() == twin.standard_normal()


def test_theta_inverse_rejects_non_taming():
    with pytest.raises(ValueError, match="taming invariants fail"):
        taming.theta_inverse(np.eye(2))


def test_period_matrix_requires_positive_definite_imaginary_part():
    with pytest.raises(ValueError):
        taming.PeriodMatrix([[0.0]], [[-1.0]])


def test_large_period_matrix_is_checked_in_memory_linear_in_its_entries():
    """A 64 x 64 period matrix, as taming forward may read it from JSON, is accepted, and
    one with an asymmetric R refused, within a few copies of R: the symmetry test's BLAS
    form, with its (n^2, n^2) operator, is kept to stacks of matrices of at most 4 x 4."""
    rng = np.random.default_rng(31)
    A = rng.standard_normal((64, 64))
    R, I = A + A.T, A @ A.T + 64 * np.eye(64)
    skew = R.copy()
    skew[0, 1] += 1.0
    for R_in, refused in ((R, False), (skew, True)):
        tracemalloc.start()
        try:
            if refused:
                with pytest.raises(ValueError, match="R must be symmetric"):
                    taming.PeriodMatrix(R_in, I)
            else:
                taming.PeriodMatrix(R_in, I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * R.nbytes, (refused, peak)


def test_one_transpose_tolerance_predicate_in_the_library():
    # "symmetric within tolerance" has one spelling, taming.close_to_transpose;
    # Grid3's per-node check, which also rejects non-finite entries, is its own
    calls, defs = [], []
    for path in sorted(pathlib.Path(sympforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("allclose", "isclose"):
                calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.FunctionDef) and node.name == "close_to_transpose":
                defs.append(path.name)
    assert calls == [], f"use taming.close_to_transpose, not numpy's: {calls}"
    assert defs == ["taming.py"]
