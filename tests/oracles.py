"""Brute-force oracles that the library's closed forms and lattice methods
replaced: Gauss-Jordan inversion over the rationals, the affine group law with
Fraction translations instead of integer numerators, Smith invariants by
plain gcd elimination (the normal form's type, computed without its code),
the conjugator search over the whole entry box, the enumeration of the
intertwiner lattice that tries every value of the last coefficient, the
grid residuals that invert the metric (or the whole 4d metric -dt^2 + h) by
LAPACK at every node instead of reading the factor Grid3 computes once, the
dyon flux by quadrature of the whole curvature instead of c times the integral
of the solid-angle form, and the radial Higgs profile by scipy's adaptive quad
instead of fixed Gauss-Legendre panels in ln r."""

from fractions import Fraction
from itertools import product

import numpy as np

from sympforge import exactmat as xm
from sympforge import dyons, forms4d, monodromy, reduction3d, siegel


def to_fraction(A):
    return [[Fraction(x) for x in row] for row in A]


def inverse(A):
    """Exact inverse by Gauss-Jordan over the rationals.  Raises ValueError if singular."""
    n = len(A)
    M = to_fraction(A)
    Inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            Inv[col], Inv[pivot] = Inv[pivot], Inv[col]
        p = M[col][col]
        M[col] = [x / p for x in M[col]]
        Inv[col] = [x / p for x in Inv[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
                Inv[r] = [x - f * y for x, y in zip(Inv[r], Inv[col])]
    return Inv


def aff_compose_fractions(a1, r1, a2, r2):
    """(a1 + r1 a2 mod 1, r1 r2) for translations a of Fractions and rotation rows r."""
    return tuple((x + y) % 1 for x, y in zip(a1, xm.matvec(r1, a2))), xm.matmul(r1, r2)


def aff_inverse_fractions(a, r):
    """(-r^-1 a mod 1, r^-1) with r^-1 by Gauss-Jordan."""
    r_inv = inverse(r)
    return tuple(-x % 1 for x in xm.matvec(r_inv, a)), xm.to_int(r_inv)


def smith_invariants(M):
    """Smith invariants d_1 | d_2 | ... of a nonsingular integer matrix.

    Alternates row and column gcd elimination on the least entry of the
    trailing block, and adds a row whose entries the pivot does not divide.
    For Omega of type t they are (t_1, t_1, ..., t_n, t_n).
    """
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    out = []
    for k in range(m):
        while True:
            _, i, j = min((abs(A[i][j]), i, j) for i in range(k, m) for j in range(k, m)
                          if A[i][j])
            A[k], A[i] = A[i], A[k]
            for row in A:
                row[k], row[j] = row[j], row[k]
            p = A[k][k]
            for i in range(k + 1, m):
                q = A[i][k] // p
                A[i] = [x - q * y for x, y in zip(A[i], A[k])]
            for j in range(k + 1, m):
                q = A[k][j] // p
                for row in A:
                    row[j] -= q * row[k]
            if any(A[i][k] for i in range(k + 1, m)) or any(A[k][k + 1:]):
                continue
            bad = next((i for i in range(k + 1, m) if any(x % p for x in A[i][k + 1:])), None)
            if bad is None:
                break
            A[k] = [x + y for x, y in zip(A[k], A[bad])]
        out.append(abs(p))
    return out


def box_conjugacy_test(rep1, rep2, entry_bound, budget=2_000_000):
    """monodromy.conjugacy_test_bounded by trying every integer matrix in
    the entry box, (2 * entry_bound + 1)^(dim^2) candidates in lexicographic
    order of the flattened entries; the budget counts the whole box."""
    if entry_bound < 0:
        raise ValueError("entry bound must be non-negative")
    if rep1.type_ctx != rep2.type_ctx or len(rep1.images) != len(rep2.images):
        raise ValueError("representations are not comparable")
    for a, b in zip(rep1.images, rep2.images):
        if sum(a.matrix[i][i] for i in range(len(a.matrix))) != \
           sum(b.matrix[i][i] for i in range(len(b.matrix))):
            return None, "trace mismatch"
    dim = len(rep1.images[0].matrix)
    count = (2 * entry_bound + 1) ** (dim * dim)
    if count > budget:
        raise monodromy.BoundTooLargeForBudget(f"{count} candidates exceed budget {budget}; "
                                               "lower the bound")
    pairs = [(a.rows(), b.rows()) for a, b in zip(rep1.images, rep2.images)]
    vals = range(-entry_bound, entry_bound + 1)
    for entries in product(vals, repeat=dim * dim):
        gamma = [list(entries[i * dim:(i + 1) * dim]) for i in range(dim)]
        if siegel.is_member(gamma, rep1.type_ctx) and \
           all(xm.matmul(gamma, a) == xm.matmul(b, gamma) for a, b in pairs):
            return gamma, "found"
    return None, "not found within bound"


def intertwiner_basis(rep1, rep2):
    """Echelon basis of the integer gamma with gamma a = b gamma for every image pair,
    each gamma flattened row by row, as monodromy.conjugacy_test_bounded finds it."""
    dim = 2 * len(rep1.type_ctx)
    cells = [(i, j) for i in range(dim) for j in range(dim)]
    pairs = [(a.matrix, b.matrix) for a, b in zip(rep1.images, rep2.images)]
    rows = [[(a[j][l] if i == k else 0) - (b[k][i] if j == l else 0)
             for a, b in pairs for k, l in cells] + [int(c == (i, j)) for c in cells]
            for i, j in cells]
    return [r[-len(cells):] for r in xm.echelon(rows) if not any(r[:-len(cells)])]


def lattice_conjugacy_test(rep1, rep2, entry_bound, budget=2_000_000):
    """monodromy.conjugacy_test_bounded by enumerating the intertwiner lattice:
    every coefficient of the echelon basis, the last one included, runs over
    the values at its leading column in lexicographic order, and each point in
    the box is tested for membership; the budget counts (2 * entry_bound + 1)^rank
    candidates."""
    if entry_bound < 0:
        raise ValueError("entry bound must be non-negative")
    if rep1.type_ctx != rep2.type_ctx or len(rep1.images) != len(rep2.images):
        raise ValueError("representations are not comparable")
    for a, b in zip(rep1.images, rep2.images):
        if sum(a.matrix[i][i] for i in range(len(a.matrix))) != \
           sum(b.matrix[i][i] for i in range(len(b.matrix))):
            return None, "trace mismatch"
    dim = 2 * len(rep1.type_ctx)
    basis = intertwiner_basis(rep1, rep2)
    count = (2 * entry_bound + 1) ** len(basis)
    if count > budget:
        raise monodromy.BoundTooLargeForBudget(f"{count} candidates exceed budget {budget}; "
                                               "lower the bound")
    leads = [next(c for c, x in enumerate(r) if x) for r in basis]
    for values in product(range(-entry_bound, entry_bound + 1), repeat=len(basis)):
        point = [0] * (dim * dim)
        for r, lead, v in zip(basis, leads, values):
            c, rem = divmod(v - point[lead], r[lead])
            if rem:
                break
            point = [x + c * y for x, y in zip(point, r)]
        else:
            gamma = [point[i * dim:(i + 1) * dim] for i in range(dim)]
            if max(map(abs, point)) <= entry_bound and siegel.is_member(gamma, rep1.type_ctx):
                return gamma, "found"
    return None, "not found within bound"


def candidate_index(gamma, entry_bound):
    """Position of gamma in the box order of box_conjugacy_test, from 1."""
    idx = 0
    for x in (x for row in gamma for x in row):
        idx = idx * (2 * entry_bound + 1) + x + entry_bound
    return idx + 1


def bogomolny_eq_field(grid, J, pair):
    """The eq_field of reduction3d.bogomolny_residual, with the grid metric
    inverted inside forms4d.hodge_star."""
    star_v = forms4d.hodge_star(grid.metric, pair.V, 2)
    return np.einsum("...jk,...ka->...ja", J, star_v) - reduction3d.grad_nodes(grid, pair.psi)


def lift_residual_field(pair, grid, J):
    """The residual_field of reduction3d.lift_to_4d, from an explicit 4x4
    metric -dt^2 + h, once or per node, inverted by LAPACK."""
    vhat = reduction3d.reassemble_form(reduction3d.grad_nodes(grid, pair.psi), pair.V)
    g = np.zeros(grid.metric.shape[:-2] + (4, 4))
    g[..., 0, 0] = -1.0
    g[..., 1:, 1:] = grid.metric
    return forms4d.hodge_star(g, vhat, 2) + np.einsum("jk,...kab->...jab", J, vhat)


def em_static_residual(grid, R, I, E, B, Phi, Upsilon):
    """reduction3d.em_static_residual for 2-d E, B, Phi and Upsilon arrays
    with a component axis, inverting the metric and taking its determinant
    at every sharp and divergence."""
    h = grid.metric[..., None, :, :]

    def sharp(X):
        return np.einsum("...ab,...b->...a", np.linalg.inv(h), X)

    def divergence(X):
        vol = np.sqrt(np.linalg.det(grid.metric))[..., None]
        return sum(np.gradient(vol * X[..., k], grid.spacing[k], axis=k, edge_order=2)
                   for k in range(3)) / vol

    Evec, Bvec = sharp(E), sharp(forms4d.hodge_star(grid.metric, B, 2))
    mix = np.einsum("jk,...ka->...ja", R, Bvec) + np.einsum("jk,...ka->...ja", I, Evec)
    fields = {
        "electric_potential": Evec + sharp(reduction3d.grad_nodes(grid, Phi)),
        "magnetic_potential": (np.einsum("jk,...ka->...ja", I, Bvec)
                               + np.einsum("jk,...ka->...ja", R, Evec)
                               + sharp(reduction3d.grad_nodes(grid, Upsilon))),
        "magnetic_gauss": divergence(Bvec),
        "dual_gauss": divergence(mix),
    }
    return {key: reduction3d._interior_max(val) for key, val in fields.items()}


def flux_by_quadrature(sol):
    """dyons.flux_quantization's flux by quadrature of V = c sigma over the unit
    sphere at every call: 32 Gauss-Legendre nodes in cos(polar) x 64 uniform
    azimuths, with the (phi, u) tangents in the order of the outward orientation."""
    u, wu = np.polynomial.legendre.leggauss(32)
    U, PHI = np.meshgrid(u, 2 * np.pi * np.arange(64) / 64, indexing="ij")
    s = np.sqrt(np.maximum(1 - U**2, 0.0))
    pts = np.stack([s * np.cos(PHI), s * np.sin(PHI), U], axis=-1)
    t_phi = np.stack([-s * np.sin(PHI), s * np.cos(PHI), np.zeros_like(U)], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        du = np.nan_to_num(np.stack([-U / s * np.cos(PHI), -U / s * np.sin(PHI),
                                     np.ones_like(U)], axis=-1))
    V = sol.curvature_coeff()[:, None, None] * dyons.solid_angle_form(pts)[..., None, :, :]
    integrand = np.einsum("...jab,...a,...b->...j", V, t_phi, du)
    return np.einsum("uvj,u->j", integrand, wu) * (2 * np.pi / 64)


def psi_by_quad(sol, r):
    """dyons.DyonSolution.psi for a callable J by scipy's adaptive quad, one call per
    radius and component: psi(r) = v' - int_1^r J(s) v / (2 s^2) ds."""
    from scipy.integrate import quad

    r = np.asarray(r, dtype=float)
    out = np.array([[quad(lambda s, i=i: (sol.J(s) @ sol.v)[i] / (2 * s**2),
                          1.0, x, epsrel=1e-10, epsabs=1e-13)[0]
                     for i in range(len(sol.v))] for x in r.ravel()])
    return (sol.v_prime - out).reshape(r.shape + (len(sol.v),))
