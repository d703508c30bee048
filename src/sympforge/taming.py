"""Tamings of the standard symplectic form and their period matrices.

A taming J squares to minus the identity, is compatible with the symplectic
form, and makes omega(J., .) positive-definite.  Every taming of the
standard form comes from a unique period matrix N = R + iI with I
positive-definite, via the block formula implemented in theta_forward; the
two directions are exact inverses of each other up to floating point.
"""

from dataclasses import dataclass

import numpy as np

from . import symplattice as sl

ALG_TOL = 1e-10    # single algebraic identities on well-conditioned input
ROUNDTRIP_TOL = 1e-9


@np.errstate(invalid="ignore")     # inf - inf
def close_to_transpose(x, sign, atol):
    """numpy's allclose(x, sign x^T, atol=atol) on the last two axes: the same acceptance set."""
    xT = np.swapaxes(x, -1, -2)
    d = np.add(x, xT) if sign < 0 else np.subtract(x, xT)   # x - (-x^T) bit for bit, inf too
    if np.abs(d, out=d).max(initial=0.0) <= atol:   # most inputs; within atol implies finite
        return True
    y = sign * xT
    return bool((((d <= atol + 1e-5 * np.abs(y)) & np.isfinite(y)) | (x == y)).all())


@dataclass
class PeriodMatrix:
    R: np.ndarray
    I: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.I = np.asarray(self.I, dtype=float)
        if self.R.shape != self.I.shape or self.R.ndim != 2:
            raise ValueError("R and I must be square matrices of equal shape")
        for name, M in (("R", self.R), ("I", self.I)):
            if not close_to_transpose(M, 1, 1e-12):
                raise ValueError(f"{name} must be symmetric")
        try:
            np.linalg.cholesky(self.I)
        except np.linalg.LinAlgError:
            raise ValueError("I must be positive-definite") from None

    @property
    def n(self):
        return self.R.shape[0]


def is_taming(J, tol=ALG_TOL):
    """Check the three taming invariants; returns (ok, report)."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
        raise ValueError("J must be square of even dimension")
    n = J.shape[0] // 2
    W = np.asarray(sl.standard_gram(sl.delta(n)), dtype=float)
    report = {}
    report["square_residual"] = float(np.max(np.abs(J @ J + np.eye(2 * n))))
    report["compat_residual"] = float(np.max(np.abs(J.T @ W @ J - W)))
    Q = J.T @ W
    report["q_symmetric_residual"] = float(np.max(np.abs(Q - Q.T)))
    try:
        np.linalg.cholesky(0.5 * (Q + Q.T) + tol * np.eye(2 * n))
        report["q_positive"] = bool(np.isfinite(Q).all())  # Cholesky passes NaN through
    except np.linalg.LinAlgError:
        report["q_positive"] = False
    ok = (report["square_residual"] < tol
          and report["compat_residual"] < tol
          and report["q_symmetric_residual"] < 10 * tol
          and report["q_positive"])
    return ok, report


def theta_forward(N):
    """Taming of a period matrix: the block formula

        J = [[I^-1 R, I^-1], [-I - R I^-1 R, -R I^-1]].
    """
    if not isinstance(N, PeriodMatrix):
        N = PeriodMatrix(*N)
    R, I = N.R, N.I
    try:
        Iinv = np.linalg.inv(I)
    except np.linalg.LinAlgError:
        raise ValueError("imaginary part is singular") from None
    top = np.hstack([Iinv @ R, Iinv])
    bot = np.hstack([-I - R @ Iinv @ R, -R @ Iinv])
    return np.vstack([top, bot])


def theta_inverse(J):
    """Period matrix of a taming: I = J12^-1, R = J12^-1 J11."""
    J = np.asarray(J, dtype=float)
    ok, report = is_taming(J)
    if not ok:
        raise ValueError(f"taming invariants fail: {report}")
    n = J.shape[0] // 2
    J11, J12 = J[:n, :n], J[:n, n:]
    try:
        I = np.linalg.inv(J12)
    except np.linalg.LinAlgError:
        raise ValueError("upper-right block is singular") from None
    R = I @ J11
    # symmetrize away roundoff before validation
    return PeriodMatrix(0.5 * (R + R.T), 0.5 * (I + I.T))


def is_symplectic(g):
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 or not g.size:
        raise ValueError("g must be square of even dimension >= 2")
    W = np.asarray(sl.standard_gram(sl.delta(g.shape[0] // 2)), dtype=float)
    return np.max(np.abs(g.T @ W @ g - W)) < ALG_TOL


def taming_conjugate(J, g):
    """Duality conjugation g J g^-1; preserves the taming property."""
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    if not is_symplectic(g):
        raise ValueError("conjugator is not symplectic")
    return g @ J @ np.linalg.inv(g)


def electrodynamics_taming(theta, g_sq):
    """Constant taming of classical electrodynamics with theta angle.

    Corresponds to the period matrix R = theta / 2 pi, I = 4 pi / g^2.
    """
    if g_sq <= 0:
        raise ValueError("coupling g^2 must be positive")
    pi = np.pi
    # theta * theta overflows to inf, which no taming check passes; theta**2 raises
    return np.array([
        [g_sq * theta / (8 * pi**2), g_sq / (4 * pi)],
        [-4 * pi / g_sq - g_sq * (theta * theta) / (16 * pi**3),
         -g_sq * theta / (8 * pi**2)],
    ])


def electrodynamics_period(theta, g_sq):
    if g_sq <= 0:
        raise ValueError("coupling g^2 must be positive")
    return PeriodMatrix(np.array([[theta / (2 * np.pi)]]),
                        np.array([[4 * np.pi / g_sq]]))


def random_period_matrix(n, rng):
    """Well-conditioned random period matrix for property sweeps."""
    A = rng.standard_normal((n, n))
    R = 0.5 * (A + A.T)
    B = rng.standard_normal((n, n)) * 0.3
    I = np.eye(n) + B @ B.T
    return PeriodMatrix(R, I)


def random_symplectic(n, rng):
    """Well-conditioned random element of Sp(2n, R) near the identity, for tolerance-based
    tests: the Cayley transform (I - H)^-1 (I + H) of H = W S / 2, S symmetric."""
    W = np.asarray(sl.standard_gram(sl.delta(n)), dtype=float)
    S = rng.standard_normal((2 * n, 2 * n))
    H = 0.5 * W @ (0.5 * (S + S.T) * 0.4)
    return np.linalg.solve(np.eye(2 * n) - H, np.eye(2 * n) + H)
