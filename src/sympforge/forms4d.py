"""Pointwise exterior algebra on 4d Lorentzian vector spaces.

Every Hodge star in the package is one kernel, _star(g, g^-1, s sqrt|det g|,
sign det g, form, degree): grids pass the factor their Grid3 computed once,
hodge_star(g, form, degree) inverts g itself.  In 3d the component axes are
matmul rows: a 1-form u gives vol eps_abc (u g^-1)_c; a 2-form w gives
(vol / det g) w' g for its axial vector w'_c = (w_ab - w_ba) / 2 over cyclic
(a, b, c), as g^-1 [w']_x g^-1 = [g w' / det g]_x.  In 4d (single points)
it contracts g^-1 w g^-1 with eps, eps_{0123} = +1, coordinates (t, x, y,
z).  On two-forms the Lorentzian Hodge star squares to minus the identity,
so the polarized operator (star tensor J) squares to plus the identity and
splits vector-valued two-forms into self-dual and anti-self-dual parts.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial

import numpy as np

from . import taming

COMPOSED_TOL = 1e-9


def levi_civita(d):
    """Levi-Civita symbol of dimension d with eps_{01...d-1} = +1."""
    eps = np.zeros((d,) * d)
    for perm in permutations(range(d)):
        eps[perm] = (-1) ** sum(a > b for a, b in combinations(perm, 2))
    return eps


_EPS4 = levi_civita(4)
_EPS3 = levi_civita(3).reshape(3, 9)  # row c: eps_abc on the flat (a, b); rows @ it are exact


def hodge_star(g, form, degree, orientation=1):
    """Hodge star of a 1-form or 2-form in d = 3 or 4 dimensions, batched:

        (*w)_{b...} = (s / p!) sqrt|det g| w^{a_1...a_p} eps_{a_1...a_p b...}.

    g is one (d, d) metric or one metric per point of shape (*batch, d, d);
    either way it is inverted here, by LAPACK.  form has shape
    (*batch, *carried, d, ..., d) with `degree` trailing form axes; carried
    axes (a component index, say) pass through unchanged.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    if g.shape[-2:] != (d, d) or d not in (3, 4):
        raise ValueError("metric must be 3x3 or 4x4, or a field of them")
    det = np.linalg.det(g)
    return _star(g, np.linalg.inv(g), orientation * np.sqrt(abs(det)), np.sign(det), form, degree)


def _star(g, ginv, vol, det_sign, form, degree):
    """hodge_star from g, g^-1, vol = s sqrt|det g| and sign det g, or fields of them."""
    form = np.asarray(form, dtype=float)
    d, batch = ginv.shape[-1], ginv.shape[:-2]
    if (degree not in (1, 2) or form.shape[:len(batch)] != batch
            or form.shape[len(batch):][-degree:] != (d,) * degree):
        raise ValueError(f"form must be (*batch, *carried) + {(d,) * degree}, degree 1 or 2")
    if d == 3:  # component axes as matmul rows
        if degree == 1:
            out = ((form.reshape(batch + (-1, 3)) @ ginv)
                   * np.reshape(vol, batch + (1, 1))).reshape(-1, 3) @ _EPS3
        else:
            axial = (form.reshape(-1, 9) @ (0.5 * _EPS3.T)).reshape(batch + (-1, 3))
            out = (axial @ g) * np.reshape(det_sign / vol, batch + (1, 1))
        return out.reshape(form.shape[:form.ndim - degree] + (3,) * (3 - degree))
    vol = vol / factorial(degree)
    if batch:
        carried = (1,) * (form.ndim - len(batch) - degree)
        ginv = ginv.reshape(batch + carried + (d, d))
        vol = vol.reshape(batch + carried + (1,) * (d - degree))
    if degree == 1:
        raised = np.einsum("...bc,...c->...b", ginv, form)
    else:
        raised = ginv @ form @ ginv  # g^-1 is symmetric
    out = np.tensordot(raised, _EPS4, axes=degree)
    out *= vol
    return out


@dataclass
class LorentzPoint:
    metric: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        self.metric = np.asarray(self.metric, dtype=float)
        if self.metric.shape != (4, 4):
            raise ValueError("metric must be 4x4")
        if not taming.close_to_transpose(self.metric, 1, 1e-10):
            raise ValueError("metric must be symmetric")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        eig = np.linalg.eigvalsh(self.metric)
        if np.sum(eig < 0) != 1 or np.sum(eig > 0) != 3:
            raise ValueError("metric must have mostly-plus signature (3,1)")


def as_two_form(coeffs):
    """Validate a vector-valued two-form: shape (k, 4, 4), antisymmetric."""
    V = np.asarray(coeffs, dtype=float)
    if V.ndim == 2:
        V = V[None, :, :]
    if V.shape[-2:] != (4, 4):
        raise ValueError("two-form coefficients must be k x 4 x 4")
    if not taming.close_to_transpose(V, -1, 1e-12):
        raise ValueError("coefficients must be antisymmetric")
    return V


def hodge_star2(p, F):
    """Componentwise Hodge star on two-forms:

        (*F)_ab = (1/2) s sqrt(|det g|) eps_abcd g^ce g^df F_ef.
    """
    return hodge_star(p.metric, as_two_form(F), 2, p.orientation)


def polarized_star(p, J, V):
    """Polarized Hodge operator: J on the component index, star on forms."""
    V = as_two_form(V)
    J = np.asarray(J, dtype=float)
    if J.shape[0] != V.shape[0]:
        raise ValueError(f"J is {J.shape[0]}-dim but form has rank {V.shape[0]}")
    return np.einsum("jk,kab->jab", J, hodge_star(p.metric, V, 2, p.orientation))


def selfdual_project(p, J, V):
    """Split V into (self-dual, anti-self-dual) halves of the polarized star."""
    sV = polarized_star(p, J, V)                          # validates V
    V = np.reshape(np.asarray(V, dtype=float), sV.shape)  # as as_two_form returned it
    return 0.5 * (V + sV), 0.5 * (V - sV)


def g_map(p, N, F):
    """Magnetoelectric partner of a field strength: -R F - I (*F)."""
    F = as_two_form(F)
    N = N if isinstance(N, taming.PeriodMatrix) else taming.PeriodMatrix(*N)
    if N.n != F.shape[0]:
        raise ValueError(f"period matrix rank {N.n} vs form rank {F.shape[0]}")
    sF = hodge_star(p.metric, F, 2, p.orientation)
    return -np.einsum("ij,jab->iab", N.R, F) - np.einsum("ij,jab->iab", N.I, sF)


def check_polarized_selfdual(p, N, V, tol=COMPOSED_TOL):
    """Test *V = -J V with J the taming of N; extract the upper half.

    Returns (ok, F, report), F the first n components.  ok needs *V = -J V
    within tol and, once that holds, the last n components within 10 tol of
    g_map(p, N, F) (report's lower_gap), both relative to max(1, |V|); the
    report also carries the equivalent global-form residual of (star_{g,J} V - V).
    """
    V = as_two_form(V)
    N = N if isinstance(N, taming.PeriodMatrix) else taming.PeriodMatrix(*N)
    if V.shape[0] != 2 * N.n:
        raise ValueError("form rank must be twice the period-matrix rank")
    J = taming.theta_forward(N)
    sV = hodge_star(p.metric, V, 2, p.orientation)
    residual = float(np.max(np.abs(sV + np.einsum("jk,kab->jab", J, V))))
    global_residual = float(np.max(np.abs(np.einsum("jk,kab->jab", J, sV) - V)))
    scale = max(1.0, float(np.max(np.abs(V))))
    ok = residual < tol * scale
    report = {"residual": residual, "global_residual": global_residual}
    F = V[: N.n]
    if ok:
        # V_lower - g_map(F) is I times the upper rows' residual, so it can exceed it by |I|
        report["lower_gap"] = float(np.max(np.abs(V[N.n:] - g_map(p, N, F))))
        ok = report["lower_gap"] < 10 * tol * scale
    return ok, F, report


def duality_act(gamma, V):
    """Linear duality action on the component index of a two-form."""
    V = as_two_form(V)
    gamma = np.asarray(gamma, dtype=float)
    if not taming.is_symplectic(gamma):   # refuses a gamma that is not square of even size
        raise ValueError("duality transformations must be symplectic")
    if gamma.shape[0] != V.shape[0]:
        raise ValueError("gamma size does not match form rank")
    return np.einsum("jk,kab->jab", gamma, V)


def random_metric(rng):
    """Random well-conditioned signature-(3,1) metric."""
    while True:
        A = rng.standard_normal((4, 4))
        if np.linalg.cond(A) <= 20.0:
            break
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return LorentzPoint(A.T @ eta @ A, orientation=1 if rng.random() < 0.5 else -1)


def random_two_form(rng, rank):
    A = rng.standard_normal((rank, 4, 4))
    return A - np.swapaxes(A, -1, -2)
