"""Static timelike reduction: 3d Hodge calculus, the polarized Bogomolny
residual on Cartesian grids, and theta-coupled electromagnetostatics.

A static product metric -dt^2 + h splits a 4d two-form into a spatial
1-form part (the dt-wedge factor) and a spatial 2-form part; the 4d Hodge
star then factors through the 3d star of h, and the 4d lift is evaluated
through two of them.  Grid3 checks h at every node and factors it once, as
adjugate over determinant, into read-only arrays; every grid star, sharp and
divergence reads that h, h^-1 and sqrt(det h).  Solving is done elsewhere --
this module only evaluates residuals, with second-order central differences
and the one-cell boundary layer excluded.
"""

from dataclasses import dataclass

import numpy as np

from . import forms4d, taming


@dataclass(frozen=True)
class Grid3:
    shape: tuple
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0)
    metric: np.ndarray = None  # (3,3) constant or per-node (*shape, 3, 3)

    def __post_init__(self):
        put = object.__setattr__
        for name, kind in (("shape", int), ("spacing", float), ("origin", float)):
            put(self, name, tuple(kind(x) for x in getattr(self, name)))
        if len(self.shape) != 3 or len(self.spacing) != 3:
            raise ValueError("shape and spacing must have three entries")
        if min(self.shape) < 3:
            raise ValueError("need at least 3 nodes per axis for central differences")
        if not all(0 < h < np.inf for h in self.spacing):
            raise ValueError("spacing must be positive and finite")
        h = np.asarray(np.eye(3) if self.metric is None else self.metric, dtype=float).view()
        if h.shape not in ((3, 3), self.shape + (3, 3)):
            raise ValueError("metric must be 3x3 or per-node")
        hT = np.swapaxes(h, -1, -2)
        (a, b, c), (d, e, f), (g, k, i) = np.moveaxis(h, (-2, -1), (0, 1))
        adj = np.array([[e * i - f * k, c * k - b * i, b * f - c * e],
                        [f * g - d * i, a * i - c * g, c * d - a * f],
                        [d * k - e * g, b * g - a * k, a * e - b * d]])
        det = a * adj[0, 0] + b * adj[1, 0] + c * adj[2, 0]
        # symmetric as LorentzPoint checks it, and Sylvester's leading minors positive
        ok = np.all(np.abs(h - hT) <= 1e-10 + 1e-5 * np.abs(hT), axis=(-2, -1))
        ok &= (a > 0) & (adj[2, 2] > 0) & (det > 0)
        if not ok.all():
            node = f" at node {tuple(int(x) for x in np.argwhere(~ok)[0])}" if ok.ndim else ""
            raise ValueError(f"metric must be symmetric positive-definite{node}")
        hinv = np.ascontiguousarray(np.moveaxis(adj / det, (0, 1), (-2, -1)))
        sqrt_det = np.asarray(np.sqrt(det))
        # the star reads all three together: read-only (metric views the array passed in)
        for name, x in (("metric", h), ("metric_inv", hinv), ("sqrt_det", sqrt_det)):
            x.flags.writeable = False
            put(self, name, x)

    def axes(self):
        return [self.origin[k] + self.spacing[k] * np.arange(self.shape[k])
                for k in range(3)]

    def points(self):
        """Coordinate arrays of shape (*shape, 3)."""
        X = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(X, axis=-1)


# ---------------------------------------------------------------------------
# index raising, the grid star and the contraction over the component axis

def sharp(grid, E):
    """Index raising of a 1-form field of shape (*grid.shape, ..., 3), as rows @ h^-1."""
    hinv = grid.metric_inv
    return (E.reshape(hinv.shape[:-2] + (-1, 3)) @ hinv).reshape(E.shape)


def _star(grid, form, degree):
    """The Hodge star of h on a field of grid forms, from the factor of the grid."""
    return forms4d._star(grid.metric, grid.metric_inv, grid.sqrt_det, 1.0, form, degree)


def _contract(J, x):
    """np.einsum("...jk,...ka->...ja", J, x), J constant or per node, summed in its order."""
    J = np.asarray(J, dtype=float)
    if J.shape[-2:] != (x.shape[-2],) * 2:
        raise ValueError("taming size does not match field rank")
    out = J[..., :, :1] * x[..., :1, :]
    for k in range(1, J.shape[-1]):
        out += J[..., :, k:k + 1] * x[..., k:k + 1, :]
    return out


# ---------------------------------------------------------------------------
# static 4d decomposition

def _check_static(p):
    g = p.metric
    if abs(g[0, 0] + 1.0) > 1e-12 or np.max(np.abs(g[0, 1:])) > 1e-12:
        raise ValueError("metric must be -dt^2 + h in coordinates (t,x,y,z)")
    return g[1:, 1:]


def decompose_form(omega):
    """Split a 4d two-form into (top: spatial 1-form, perp: spatial 2-form).

    Convention: top = contraction with d/dt, so omega = dt ^ top + perp
    reassembles exactly.
    """
    omega = forms4d.as_two_form(omega)
    top = omega[..., 0, 1:]
    perp = omega[..., 1:, 1:]
    return top, perp


def reassemble_form(top, perp):
    top = np.asarray(top, dtype=float)
    perp = np.asarray(perp, dtype=float)
    omega = np.zeros(top.shape[:-1] + (4, 4))
    omega[..., 0, 1:] = top
    omega[..., 1:, 0] = -top
    omega[..., 1:, 1:] = perp
    return omega


def star_decompose_check(p, omega):
    """Residual of the static factorization of the 4d Hodge star:

        (*_g w)_top = *_h w_perp,   (*_g w)_perp = - *_h w_top,

    comparing the star kernel at d = 4 with the kernel at d = 3.
    """
    h = _check_static(p)
    omega = forms4d.as_two_form(omega)
    lhs = forms4d.hodge_star(p.metric, omega, 2, p.orientation)
    factor = h, np.linalg.inv(h), p.orientation * np.sqrt(np.linalg.det(h)), 1.0  # h is SPD
    top, perp = omega[..., 0, 1:], omega[..., 1:, 1:]   # decompose_form, validated above
    return float(max(np.max(np.abs(lhs[..., 0, 1:] - forms4d._star(*factor, perp, 2))),
                     np.max(np.abs(lhs[..., 1:, 1:] + forms4d._star(*factor, top, 1)))))


# ---------------------------------------------------------------------------
# grid fields

@dataclass(frozen=True)
class BogomolnyPair:
    psi: np.ndarray  # (*shape, 2n)
    V: np.ndarray    # (*shape, 2n, 3, 3) spatial-index antisymmetric

    def __post_init__(self):
        psi, V = np.asarray(self.psi, dtype=float), np.asarray(self.V, dtype=float)
        if V.shape[-2:] != (3, 3):
            raise ValueError("V must have trailing 3x3 axes")
        if psi.shape != V.shape[:-2]:
            raise ValueError("psi and V node/rank shapes disagree")
        if not taming.close_to_transpose(V, -1, 1e-12):
            raise ValueError("V must be antisymmetric in its form indices")
        object.__setattr__(self, "psi", psi)   # writeable still: they may be the caller's
        object.__setattr__(self, "V", V)


def grad_nodes(grid, field):
    """Central-difference coordinate gradient over the grid axes.

    field has shape (*grid.shape, ...); returns (*grid.shape, ..., 3).
    """
    parts = [np.gradient(field, grid.spacing[k], axis=k, edge_order=2)
             for k in range(3)]
    return np.stack(parts, axis=-1)


def _interior_max(x):
    return float(np.max(np.abs(x[(slice(1, -1),) * 3])))


def bogomolny_residual(grid, J, pair):
    """Residuals of the polarized Bogomolny equation star_{h,J} V = d psi
    and of the closure condition d V = 0, aggregated over interior nodes.
    """
    if not isinstance(pair, BogomolnyPair):
        pair = BogomolnyPair(*pair)
    eq_field = _contract(J, _star(grid, pair.V, 2)) - grad_nodes(grid, pair.psi)
    # discrete exterior derivative of the 2-form: one 3-form component
    dV = (np.gradient(pair.V[..., 1, 2], grid.spacing[0], axis=0, edge_order=2)
          + np.gradient(pair.V[..., 2, 0], grid.spacing[1], axis=1, edge_order=2)
          + np.gradient(pair.V[..., 0, 1], grid.spacing[2], axis=2, edge_order=2))
    return {
        "eq_residual": _interior_max(eq_field),
        "closure_residual": _interior_max(dV),
        "eq_field": eq_field,
        "closure_field": dV,
    }


def lift_to_4d(pair, grid, J):
    """The 4d polarized self-duality residual star_g Vhat + J Vhat of Vhat = dt ^ d psi + V, by
    star_decompose_check's factorization: dt ^ (star_h V + J d psi) + J V - star_h d psi."""
    if not isinstance(pair, BogomolnyPair):
        pair = BogomolnyPair(*pair)
    dpsi, V = grad_nodes(grid, pair.psi), pair.V   # J V on all 9 entries of V, as given
    resid = reassemble_form(_star(grid, V, 2) + _contract(J, dpsi), _contract(
        J, V.reshape(V.shape[:-2] + (9,))).reshape(V.shape) - _star(grid, dpsi, 1))
    return {"residual": _interior_max(resid), "residual_field": resid}


def divergence(grid, X):
    """Metric divergence (1/sqrt h) d_i (sqrt h X^i) of a vector field.

    X has shape (*shape, ..., 3) with contravariant last index.
    """
    vol = grid.sqrt_det
    volX = vol[(...,) + (None,) * (X.ndim - 4)] * np.moveaxis(X, -1, 0)
    out = sum(np.gradient(volX[k], grid.spacing[k], axis=k, edge_order=2)
              for k in range(3))
    return out / vol[(...,) + (None,) * (X.ndim - 4)]


def em_static_residual(grid, R, I, E, B, Phi, Upsilon):
    """Residual report for the four static equations:

        E = -grad Phi,
        I Bvec + R Evec = -grad Upsilon,
        div Bvec = 0,
        div (R Bvec + I Evec) = 0,

    with Bvec the metric proxy of the 2-form B and all gradients central.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    I = np.atleast_2d(np.asarray(I, dtype=float))
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    Upsilon = np.asarray(Upsilon, dtype=float)
    if Phi.ndim == 3:
        Phi = Phi[..., None]
        Upsilon = Upsilon[..., None]
    if E.ndim == 4:
        E = E[..., None, :]
        B = B[..., None, :, :]

    Evec = sharp(grid, E)
    Bvec = sharp(grid, _star(grid, B, 2))
    grad_phi_vec = sharp(grid, grad_nodes(grid, Phi))
    grad_ups_vec = sharp(grid, grad_nodes(grid, Upsilon))

    res1 = Evec + grad_phi_vec
    res2 = _contract(I, Bvec) + _contract(R, Evec) + grad_ups_vec
    res3 = divergence(grid, Bvec)
    res4 = divergence(grid, _contract(R, Bvec) + _contract(I, Evec))
    return {
        "electric_potential": _interior_max(res1),
        "magnetic_potential": _interior_max(res2),
        "magnetic_gauss": _interior_max(res3),
        "dual_gauss": _interior_max(res4),
    }
