"""Workload ``pointwise``: one spacetime point or one small matrix per call.

``forms4d``, ``taming`` and the dyon flux run here at per-call scale, where
validation (``eigvalsh``, ``allclose``) and einsum dispatch dominate.  It is
the small-batch use of the star kernels that ``grid`` uses at large batch,
so a batched-kernel change must not slow it.  References are the
benchmark's own epsilon-tensor star and block formulas.
"""

from itertools import permutations

import numpy as np

import calib
from harness import Op
from sympforge import dyons, forms4d, reduction3d, taming

TOL = 1e-9
TRACE_ROUNDS = 300
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _eps4():
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        inversions = sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        eps[p] = -1.0 if inversions % 2 else 1.0
    return eps


EPS4 = _eps4()


def ref_star(g, orientation, F):
    gi = np.linalg.inv(g)
    vol = orientation * np.sqrt(abs(np.linalg.det(g)))
    return 0.5 * vol * np.einsum("abcd,ce,df,kef->kab", EPS4, gi, gi, F, optimize=True)


def ref_taming(R, I):
    Ii = np.linalg.inv(I)
    return np.block([[Ii @ R, Ii], [-I - R @ Ii @ R, -R @ Ii]])


def close(a, b, tol=TOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * max(
        1.0, float(np.max(np.abs(b), initial=0.0)))


def lorentz_metric(rng):
    while True:
        A = np.eye(4) + 0.4 * rng.standard_normal((4, 4))
        if np.linalg.cond(A) < 8:
            return A.T @ ETA @ A, int(rng.choice([-1, 1]))


def static_metric(rng):
    B = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    g = np.zeros((4, 4))
    g[0, 0] = -1.0
    g[1:, 1:] = B.T @ B + 0.1 * np.eye(3)
    return g, int(rng.choice([-1, 1]))


def two_form(rng, rank):
    A = rng.standard_normal((rank, 4, 4))
    return A - np.swapaxes(A, -1, -2)


def period(rng, n):
    A = rng.standard_normal((n, n))
    B = 0.3 * rng.standard_normal((n, n))
    return 0.5 * (A + A.T), np.eye(n) + B @ B.T


def symplectic(rng, n):
    """Well-conditioned product of [[I, S], [0, I]], diag(A, A^-T) and [[I, 0], [S, I]].

    The library checks symplecticity with an absolute tolerance of 1e-10,
    so inputs are kept to condition number below 30, as its own tests do.
    """
    while True:
        W = np.eye(2 * n)
        for _ in range(2):
            S = 0.3 * rng.standard_normal((n, n))
            S = S + S.T
            up, lo = np.eye(2 * n), np.eye(2 * n)
            up[:n, n:] = S
            lo[n:, :n] = -S
            A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            D = np.zeros((2 * n, 2 * n))
            D[:n, :n], D[n:, n:] = A, np.linalg.inv(A).T
            W = W @ up @ D @ lo
        if np.linalg.cond(W) < 30:
            return W


def point_op(rng):
    g, s = lorentz_metric(rng)
    return Op("lorentz_point", lambda: forms4d.LorentzPoint(g, s),
              lambda p: np.array_equal(p.metric, g) and p.orientation == s)


def star_op(rng):
    g, s = lorentz_metric(rng)
    F = two_form(rng, 2)
    p = forms4d.LorentzPoint(g, s)
    expect = ref_star(g, s, F)
    return Op("hodge_star2", lambda: forms4d.hodge_star2(p, F), lambda r: close(r, expect))


def polarized_op(rng):
    n = int(rng.integers(1, 3))
    g, s = lorentz_metric(rng)
    p = forms4d.LorentzPoint(g, s)
    J = ref_taming(*period(rng, n))
    V = two_form(rng, 2 * n)
    expect = np.einsum("jk,kab->jab", J, ref_star(g, s, V))
    return Op("polarized_star", lambda: forms4d.polarized_star(p, J, V),
              lambda r: close(r, expect))


def g_map_op(rng):
    n = int(rng.integers(1, 3))
    g, s = lorentz_metric(rng)
    p = forms4d.LorentzPoint(g, s)
    R, I = period(rng, n)
    N = taming.PeriodMatrix(R, I)
    F = two_form(rng, n)
    expect = -np.einsum("ij,jab->iab", R, F) - np.einsum("ij,jab->iab", I, ref_star(g, s, F))
    return Op("g_map", lambda: forms4d.g_map(p, N, F), lambda r: close(r, expect))


def selfdual_op(rng, planted):
    n = int(rng.integers(1, 3))
    g, s = lorentz_metric(rng)
    p = forms4d.LorentzPoint(g, s)
    R, I = period(rng, n)
    N = taming.PeriodMatrix(R, I)
    F = two_form(rng, n)
    G = -np.einsum("ij,jab->iab", R, F) - np.einsum("ij,jab->iab", I, ref_star(g, s, F))
    V = np.concatenate([F, G if planted else np.zeros_like(F)])

    def check(res):
        ok, F_out, _ = res
        return ok is planted and (not planted or close(F_out, F))
    return Op("check_selfdual", lambda: forms4d.check_polarized_selfdual(p, N, V), check)


def duality_op(rng):
    n = int(rng.integers(1, 3))
    gamma = symplectic(rng, n)
    V = two_form(rng, 2 * n)
    expect = np.einsum("jk,kab->jab", gamma, V)
    return Op("duality_act", lambda: forms4d.duality_act(gamma, V), lambda r: close(r, expect))


def taming_op(rng):
    n = int(rng.integers(1, 4))
    R, I = period(rng, n)
    g = symplectic(rng, n)
    J_ref = ref_taming(R, I)
    conj_ref = g @ J_ref @ np.linalg.inv(g)

    def run():
        J = taming.theta_forward(taming.PeriodMatrix(R, I))
        N2 = taming.theta_inverse(J)
        ok, _ = taming.is_taming(J)
        return J, N2, ok, taming.taming_conjugate(J, g)

    def check(res):
        J, N2, ok, Jc = res
        return (close(J, J_ref) and close(N2.R, R) and close(N2.I, I) and ok is True
                and close(Jc, conj_ref, 1e-8))
    return Op("taming_roundtrip", run, check)


def astdec_op(rng):
    g, s = static_metric(rng)
    p = forms4d.LorentzPoint(g, s)
    w = two_form(rng, int(rng.integers(1, 4)))
    return Op("star_decompose", lambda: reduction3d.star_decompose_check(p, w),
              lambda r: 0.0 <= r < 1e-10)


def dyon_op(rng):
    n = int(rng.integers(1, 3))
    J = ref_taming(*period(rng, n))
    v = rng.integers(-3, 4, size=2 * n).astype(float)
    if not v.any():
        v[0] = 1.0
    vp = rng.standard_normal(2 * n)

    def run():
        sol = dyons.dyon_construct(J, v, vp)
        return sol, dyons.dyon_verify(sol, [0.5, 1.0, 4.0]), dyons.flux_quantization(sol)

    def check(res):
        sol, ver, flux = res
        return (close(sol.psi(2.0), J @ v / 4.0 + vp) and ver["eq_residual"] < 1e-10
                and close(flux.flux, -2 * np.pi * v, 1e-8) and flux.lattice_member
                and flux.realized_sign == -1)
    return Op("dyon_flux", run, check)


# reference kernel (see calib.py): the checks' own star and taming formulas
# on one point, and a closed-form solid-angle field on the 32 x 64 sphere
# nodes of the flux quadrature, on fixed inputs whatever the seed
_CAL_RNG = np.random.default_rng(20_210_118)
_CAL_G, _ = lorentz_metric(_CAL_RNG)
_CAL_F = two_form(_CAL_RNG, 2)
_CAL_N = period(_CAL_RNG, 2)
_CAL_U, _CAL_PHI = np.meshgrid(np.linspace(-0.99, 0.99, 32), 2 * np.pi * np.arange(64) / 64,
                               indexing="ij")


@calib.kernel(1.2e-3)
def kernel():
    for _ in range(2):
        close(ref_star(_CAL_G, 1, _CAL_F), _CAL_F)
        close(ref_taming(*_CAL_N), np.eye(4))
    s = np.sqrt(1 - _CAL_U ** 2)
    pts = np.stack([s * np.cos(_CAL_PHI), s * np.sin(_CAL_PHI), _CAL_U], axis=-1)
    r = np.linalg.norm(pts, axis=-1)
    np.einsum("ab,uvb->uva", _CAL_G[1:, 1:], pts / r[..., None] ** 3)


class Workload:
    name = "pointwise"
    trace_rounds = TRACE_ROUNDS
    kernel = staticmethod(kernel)

    def __init__(self, seed):
        self.seed = seed

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        # the rank-2 stars form one homogeneous block that straddles the median op
        ops = [point_op(rng) for _ in range(8)]
        ops += [star_op(rng) for _ in range(8)]
        ops += [polarized_op(rng) for _ in range(2)]
        ops += [g_map_op(rng) for _ in range(2)]
        ops += [selfdual_op(rng, planted) for planted in (True, False)]
        ops += [duality_op(rng) for _ in range(2)]
        ops += [taming_op(rng) for _ in range(2)]
        ops += [astdec_op(rng) for _ in range(2)]
        ops += [dyon_op(rng)]
        return ops

    def warmup(self):
        return self.round(10 ** 9)

    @staticmethod
    def counters(ops):
        return {"dyons.quad_nodes": 32 * 64 * sum(op.kind == "dyon_flux" for op in ops)}
