"""Closed-form spherically symmetric polarized dyons on punctured R^3.

For a constant taming J the radial Higgs field is psi(r) = J v / (2r) + v'
and the curvature two-form is c = -(1/2) v times the solid-angle form sigma,
so the flux through any sphere around the puncture is c times the solid angle
4 pi, -2 pi v.  The charge vector v must lie in the integer lattice for the
solution to come from an honest principal connection; flux_quantization
checks that on this closed form (the tests check it against a quadrature of sigma).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import forms4d, reduction3d, symplattice, taming


class NonIntegerVWarning(UserWarning):
    pass


def solid_angle_form(x):
    """Pullback of the unit-sphere area form: sigma_ab = eps_abc x_c / r^3,
    the Euclidean star of the 1-form x / r^3."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return forms4d.hodge_star(np.eye(3), x / r**3, 1)


@dataclass
class DyonSolution:
    v: np.ndarray
    v_prime: np.ndarray
    J: object                 # (2n, 2n) array, or callable r -> (2n, 2n)
    type_ctx: tuple           # None for delta(n)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.v_prime = np.asarray(self.v_prime, dtype=float)
        if self.type_ctx is None:
            self.type_ctx = symplattice.delta(len(self.v) // 2)
        self.type_ctx = symplattice.validate_type(self.type_ctx)
        if 2 * len(self.type_ctx) != len(self.v):
            raise ValueError(f"type {self.type_ctx} must have len(v) / 2 entries, "
                             f"not {len(self.type_ctx)}")

    def J_at(self, r):
        return self.J(r) if callable(self.J) else np.asarray(self.J, dtype=float)

    def dpsi_dr(self, r):
        """psi'(r); shape (*r.shape, 2n) for an array of radii and a constant J."""
        x = np.asarray(r, dtype=float)
        if np.any(x <= 0):
            raise ValueError("radius must be positive")
        return -self.J_at(r) @ self.v / (2.0 * x[..., None] ** 2)

    def psi(self, r):
        """Higgs profile at a radius or an array of radii, shape (*r.shape, 2n); closed
        form for constant J, quadrature otherwise.  v' is psi(inf) for a constant J but
        psi(1) for a callable J: lambda r: J0 gives the profile of the constant J0
        shifted by -J0 v / 2.  The quadrature (16-point Gauss-Legendre in ln s on fixed
        panels 0.5 wide) resolves J on that scale only: I = 2 + sin s is off by 3e-5 at 50."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radius must be positive")
        if not callable(self.J):
            return self.J_at(r) @ self.v / (2.0 * r[..., None]) + self.v_prime
        # psi(r) = v' - int_0^ln r J(e^t) v e^-t / 2 dt, fixing psi(1) = v'
        t = np.log(r.ravel())
        if not np.isfinite(t).all():
            raise ValueError("radius must be finite")
        k = np.trunc(2 * t).astype(int)       # whole panels [+-j/2, +-(j+1)/2] from 0 to ln r
        j = np.arange(np.abs(k).max(initial=0)) / 2
        lo, hi = np.concatenate([j, -j, k / 2]), np.concatenate([j + 0.5, -j - 0.5, t])
        x, w = np.polynomial.legendre.leggauss(16)
        s = np.exp((hi + lo) / 2 + (hi - lo) / 2 * x[:, None])          # (node, panel)
        m = len(self.v)                        # no radii: no J values, shape (16, 0, m, m)
        Jv = np.reshape([self.J(si) for si in s.ravel().tolist()], s.shape + (m, m)) @ self.v
        panels = (hi - lo)[:, None] / 2 * (w[:, None, None] * Jv / (2 * s[..., None])).sum(0)
        sums = np.cumsum(np.concatenate([np.zeros((2, 1, m)),   # in order, outwards
                                         np.split(panels[:2 * len(j)], 2)], 1), 1)
        out = sums[(k < 0) * 1, np.abs(k)] + panels[2 * len(j):]        # plus the partial panel
        return (self.v_prime - out).reshape(r.shape + (m,))

    def curvature_coeff(self):
        """Constant vector c with V = c * (solid-angle form)."""
        return -0.5 * self.v

    def V_at(self, x):
        """Curvature two-form at Cartesian points; shape (..., 2n, 3, 3)."""
        return self.curvature_coeff()[:, None, None] * solid_angle_form(x)[..., None, :, :]

    def sample_pair(self, grid):
        """Sample (psi, V) on a Cartesian grid as a BogomolnyPair."""
        X = grid.points()
        r = np.linalg.norm(X, axis=-1)
        if np.any(r <= 0):
            raise ValueError("grid touches the puncture")
        psi = self.psi(r)
        V = self.V_at(X)   # BogomolnyPair accepts inf, as allclose does: refused here
        if not np.isfinite(V).all():
            raise ValueError("sampled V is not finite")
        return reduction3d.BogomolnyPair(psi, V)


def dyon_construct(J, v, v_prime, type_ctx=None):
    """Build the radial dyon for a (constant or radial) taming J.

    Non-integer v is allowed -- the construction solves the equations for
    any real v -- but a warning flags that flux quantization will fail.
    """
    v = np.asarray(v, dtype=float)
    v_prime = np.asarray(v_prime, dtype=float)
    if v.shape != v_prime.shape or v.ndim != 1 or len(v) % 2:
        raise ValueError("v and v' must be equal-length even-dimensional vectors")
    J0 = J(1.0) if callable(J) else J
    ok, report = taming.is_taming(J0, tol=1e-9)
    if not ok:
        raise ValueError(f"J fails the taming invariants: {report}")
    if np.max(np.abs(v - np.round(v))) > 1e-8:
        warnings.warn("charge vector v is not integral; the solution exists "
                      "but fails flux quantization", NonIntegerVWarning,
                      stacklevel=2)
    return DyonSolution(v=v, v_prime=v_prime, J=J, type_ctx=type_ctx)


def dyon_verify(sol, radii):
    """Check V = -r^2 J(r) psi'(r) sigma at each radius, plus the
    integrability derivative d/dr (r^2 J psi') by central differences.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    c = sol.curvature_coeff()
    eq_res = 0.0
    integ_res = 0.0
    for r in radii:
        rhs = -r**2 * (sol.J_at(r) @ sol.dpsi_dr(r))
        eq_res = max(eq_res, float(np.max(np.abs(c - rhs))))
        hh = 1e-5 * r
        f = lambda s: s**2 * (sol.J_at(s) @ sol.dpsi_dr(s))
        deriv = (f(r + hh) - f(r - hh)) / (2 * hh)
        integ_res = max(integ_res, float(np.max(np.abs(deriv))))
    return {"eq_residual": eq_res, "integrability_residual": integ_res}


@dataclass
class FluxReport:
    flux: np.ndarray
    normalized: np.ndarray
    lattice_member: bool
    realized_sign: int
    chern: np.ndarray


def flux_quantization(sol):
    """Flux of the curvature c sigma through the unit sphere in closed form: c times
    the solid angle 4 pi, that is -2 pi v.  Membership is tested for both signs of
    flux / 2 pi (the orientation of the sphere is a convention) against Z^{2n}.
    """
    flux = sol.curvature_coeff() * (4 * np.pi) + 0.0   # 0.0, not -0.0, at v_j = 0
    if not np.all(np.isfinite(flux)):   # |v| near the float maximum overflows
        raise ValueError("non-finite flux")
    normalized = flux / (2 * np.pi)
    member = bool(np.max(np.abs(normalized - np.round(normalized))) < 1e-8)
    if np.max(np.abs(normalized + sol.v)) < 1e-8:
        realized = -1
    elif np.max(np.abs(normalized - sol.v)) < 1e-8:
        realized = 1
    else:
        realized = 0
    return FluxReport(flux=flux, normalized=normalized, lattice_member=member,
                      realized_sign=realized, chern=0.5 * sol.v)


def default_far_grid(nodes=9):
    """Small Euclidean grid, spacing 0.01, well away from the puncture at the origin."""
    return reduction3d.Grid3(shape=(nodes,) * 3, spacing=(0.01,) * 3,
                             origin=(2.0,) * 3)


def electrodynamics_dyon(theta, g_sq, q_e, q_m, grid=None):
    """The n = 1 dyon of theta-coupled electrodynamics.

    Builds the charge-(q_e, q_m) radial solution for the constant
    electrodynamics taming, extracts the scalar potentials from the Higgs
    field via psi = (-Phi, Upsilon), and verifies the static Maxwell system
    and the potential form of B on a sample grid.
    """
    if g_sq <= 0:
        raise ValueError("g^2 must be positive")
    J = taming.electrodynamics_taming(theta, g_sq)
    v = np.array([float(q_e), float(q_m)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonIntegerVWarning)
        sol = dyon_construct(J, v, np.zeros(2))
    if grid is None:
        grid = default_far_grid()

    X = grid.points()
    r = np.linalg.norm(X, axis=-1)
    rhat = X / r[..., None]
    psi, dpsi = sol.psi(r), sol.dpsi_dr(r)   # dpsi: radial derivative, per component
    Phi = -psi[..., 0]
    Upsilon = psi[..., 1]
    E_vec = dpsi[..., 0:1] * rhat            # -grad Phi = grad psi_1
    B_vec = -(g_sq / (4 * np.pi)) * (dpsi[..., 1:2]
                                     + (theta / (2 * np.pi)) * dpsi[..., 0:1]) * rhat

    period = taming.electrodynamics_period(theta, g_sq)
    h = grid.metric
    E_form = np.einsum("...ab,...b->...a", h, E_vec)[..., None, :]
    B_form = reduction3d._star(grid, np.einsum("...ab,...b->...a", h, B_vec), 1)[..., None, :, :]
    maxwell = reduction3d.em_static_residual(grid, period.R, period.I,
                                             E_form, B_form,
                                             Phi[..., None], Upsilon[..., None])
    # displayed consequence of the potential equations
    pot_gap = float(np.max(np.abs(
        B_vec + (g_sq / (4 * np.pi))
        * reduction3d.sharp(grid, reduction3d.grad_nodes(
            grid, Upsilon - (theta / (2 * np.pi)) * Phi)))[1:-1, 1:-1, 1:-1]))
    return {
        "solution": sol,
        "grid": grid,
        "Phi": Phi,
        "Upsilon": Upsilon,
        "E_vec": E_vec,
        "B_vec": B_vec,
        "maxwell": maxwell,
        "potential_gap": pot_gap,
    }


def h_theta_fiber_check(grid, E_vec, B_vec, Phi, Upsilon, theta, g_sq):
    """Fiber characterization of the electrodynamics correspondence.

    True iff (E, B) passes the static Maxwell residuals and grad psi with
    psi = (-Phi, Upsilon) matches (E, -(theta/2pi) E - (4pi/g^2) B).
    """
    if g_sq <= 0:
        raise ValueError("g^2 must be positive")
    E_vec = np.asarray(E_vec, dtype=float)
    B_vec = np.asarray(B_vec, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    Upsilon = np.asarray(Upsilon, dtype=float)
    if E_vec.shape != B_vec.shape or Phi.shape != Upsilon.shape \
            or E_vec.shape[:3] != Phi.shape[:3] or E_vec.shape[:3] != grid.shape:
        raise ValueError("fields must share the grid sample set")

    grad_phi = reduction3d.sharp(grid, reduction3d.grad_nodes(grid, Phi))
    grad_ups = reduction3d.sharp(grid, reduction3d.grad_nodes(grid, Upsilon))
    res_e = grad_phi + E_vec                     # grad(-Phi) = E
    res_u = grad_ups + (theta / (2 * np.pi)) * E_vec + (4 * np.pi / g_sq) * B_vec
    div_e = reduction3d.divergence(grid, E_vec)
    div_b = reduction3d.divergence(grid, B_vec)
    report = {
        "electric_gradient": reduction3d._interior_max(res_e),
        "magnetoelectric_gradient": reduction3d._interior_max(res_u),
        "div_E": reduction3d._interior_max(div_e),
        "div_B": reduction3d._interior_max(div_b),
    }
    ok = all(val < 1e-5 for val in report.values())
    return ok, report
