"""Seeded invariant sweeps for each module, used by the CLI selftest
subcommand.

SUITES maps each suite to (stream constructor, [(count, case), ...]).  A
case draws one sample from its suite's stream and returns named booleans;
run() calls every case count times, in order, on one stream per suite and
ANDs the booleans by name.  The counts keep the whole run in seconds.  Every
random generator of the package lives here, and the tests draw from the same ones.
"""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np

from . import dyons, exactmat as xm, forms4d, monodromy, reduction3d
from . import siegel, symplattice as sl, taming


def random_gram(rng, n):
    """A nondegenerate antisymmetric 2n x 2n integer matrix A - A^T, A in [-20, 20]."""
    while True:
        A = [[rng.randint(-20, 20) for _ in range(2 * n)] for _ in range(2 * n)]
        G = xm.sub(A, xm.transpose(A))
        if xm.det(G) != 0:
            return G


def random_unimodular(rng, m, ops):
    """The m x m identity after ops random column shears by -2..2."""
    U = xm.identity(m)
    for _ in range(ops):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        for row in U:
            row[j] += c * row[i]
    return U


def random_chain(rng, n):
    """A divisor chain t_1 | ... | t_n whose successive quotients lie in 1..4."""
    t = [rng.randint(1, 4)]
    for _ in range(n - 1):
        t.append(t[-1] * rng.randint(1, 4))
    return tuple(t)


def random_member(t, rng, word_length):
    """A word of word_length type-t generators, each inverted (-B, -Omega) with probability 1/2, on
    ints and checked once: [[I, B], [0, I]] and [[I, 0], [B, I]] of B = E_ii, [[I, B], [0, I]] of
    B = (t_j E_ij + t_i E_ji) / gcd(t_i, t_j) for i < j, and Omega if the type is constant."""
    n = len(t)
    letters = [{pos: 1} for i in range(n) for pos in ((i, n + i), (n + i, i))]
    letters += [{(i, n + j): t[j] // gcd(t[i], t[j]), (j, n + i): t[i] // gcd(t[i], t[j])}
                for i in range(n) for j in range(i + 1, n)]
    S = xm.identity(2 * n)
    for _ in range(word_length):
        k = rng.randrange(len(letters) + (len(set(t)) == 1))
        sign = -1 if rng.random() < 0.5 else 1
        if k == len(letters):
            letter = [[sign * x for x in row] for row in sl.standard_gram(sl.delta(n))]
        else:
            letter = xm.identity(2 * n)
            for (r, c), x in letters[k].items():
                letter[r][c] = sign * x
        S = xm.matmul(S, letter)
    return siegel.SiegelElement.make(S, t)


def random_period_matrix(n, rng):
    """Well-conditioned random period matrix for property sweeps."""
    A = rng.standard_normal((n, n))
    R = 0.5 * (A + A.T)
    B = rng.standard_normal((n, n)) * 0.3
    I = np.eye(n) + B @ B.T
    return taming.PeriodMatrix(R, I)


def random_symplectic(n, rng):
    """Well-conditioned random element of Sp(2n, R) near the identity, for tolerance-based
    tests: the Cayley transform (I - H)^-1 (I + H) of H = W S / 2, S symmetric."""
    W = np.asarray(sl.standard_gram(sl.delta(n)), dtype=float)
    S = rng.standard_normal((2 * n, 2 * n))
    H = 0.5 * W @ (0.5 * (S + S.T) * 0.4)
    return np.linalg.solve(np.eye(2 * n) - H, np.eye(2 * n) + H)


def random_metric(rng):
    """Random well-conditioned signature-(3,1) metric."""
    while True:
        A = rng.standard_normal((4, 4))
        if np.linalg.cond(A) <= 20.0:
            break
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return forms4d.LorentzPoint(A.T @ eta @ A, orientation=1 if rng.random() < 0.5 else -1)


def random_two_form(rng, rank):
    A = rng.standard_normal((rank, 4, 4))
    return A - np.swapaxes(A, -1, -2)


# ---------------------------------------------------------------------------
# cases: each draws one sample (or none) and returns {result name: bool}

def _normal_form(rng):
    n = rng.choice([1, 2, 3])
    G = random_gram(rng, n)
    res = sl.symplectic_normal_form(G)
    U = res.basis_change
    V = random_unimodular(rng, 2 * n, ops=8)
    return {"normal_form_exact": xm.mat_equal(sl.restrict_gram(G, U), sl.standard_gram(res.type))
            and abs(xm.det(U)) == 1,
            "type_conjugation_invariant": sl.space_type(sl.restrict_gram(G, V)) == res.type}


def _lattice_laws(rng):
    n = rng.randint(1, 5)
    t, t2 = random_chain(rng, n), random_chain(rng, n)
    meet, join = sl.type_meet_join(t, t2)
    return {"lattice_laws": sl.type_leq(meet, t) and sl.type_leq(meet, t2)
            and sl.type_leq(t, join) and sl.type_leq(t2, join)
            and sl.type_meet_join(t, t)[0] == t}


def _type_roundtrip(rng):
    return {"roundtrip_identity": all(sl.space_type(sl.standard_gram(t)) == t
                                      for t in [(1,), (7,), (1, 2), (2, 6), (3, 3, 12)])}


def _closure(rng):
    t = rng.choice([(1,), (2,), (1, 2), (2, 4)])
    a = random_member(t, rng, word_length=6)
    b = random_member(t, rng, word_length=6)
    return {"membership_closure": siegel.is_member((a @ b).rows(), t)
            and siegel.is_member(a.inverse().rows(), t)}


def _affine(rng):
    t = (rng.randint(1, 3),)
    gs = []
    for _ in range(3):
        rot = random_member(t, rng, word_length=3)
        gs.append(siegel.AffElement.make([Fraction(rng.randint(0, 7), 8) for _ in range(2)], rot))
    g1, g2, g3 = gs
    compose, adjoint = siegel.aff_compose, siegel.aff_adjoint
    return {"aff_group_axioms": compose(compose(g1, g2), g3) == compose(g1, compose(g2, g3))
            and compose(g1, siegel.aff_inverse(g1)).is_identity()
            and xm.mat_equal(adjoint(compose(g1, g2)), xm.matmul(adjoint(g1), adjoint(g2)))}


def _taming(rng):
    n = int(rng.integers(1, 5))
    N = random_period_matrix(n, rng)
    J = taming.theta_forward(N)
    g = random_symplectic(n, rng)
    N2 = taming.theta_inverse(J)
    return {"theta_roundtrip": np.max(np.abs(N2.R - N.R)) < taming.ROUNDTRIP_TOL
            and np.max(np.abs(N2.I - N.I)) < taming.ROUNDTRIP_TOL,
            "forward_invariants": taming.is_taming(J)[0],
            "conjugation_preserves_taming":
                taming.is_taming(taming.taming_conjugate(J, g), tol=1e-8)[0]}


def _forms4d(rng):
    p = random_metric(rng)
    n = int(rng.integers(1, 3))
    F = random_two_form(rng, n)
    N = random_period_matrix(n, rng)
    W = random_two_form(rng, 2 * n)
    g = random_symplectic(n, rng)
    J = taming.theta_forward(N)
    V = np.concatenate([F, forms4d.g_map(p, N, F)])
    ok, Fx, _ = forms4d.check_polarized_selfdual(p, N, V)
    V2 = forms4d.duality_act(g, V)
    sV2 = forms4d.hodge_star2(p, V2)
    J2V2 = np.einsum("jk,kab->jab", taming.taming_conjugate(J, g), V2)
    return {"star_squares_to_minus_one":
                np.max(np.abs(forms4d.hodge_star2(p, forms4d.hodge_star2(p, F)) + F)) < 1e-9,
            "polarized_star_involution":
                np.max(np.abs(forms4d.polarized_star(p, J, forms4d.polarized_star(p, J, W)) - W))
                < 1e-8,
            "twisted_selfdual_lemma": ok and np.max(np.abs(Fx - F)) < 1e-12,
            "duality_equivariance": np.max(np.abs(sV2 + J2V2)) < 1e-8 * max(1, np.max(np.abs(V2)))}


def _static_split(rng):
    A = rng.standard_normal((3, 3)) * 0.4
    g = np.zeros((4, 4))
    g[0, 0] = -1.0
    g[1:, 1:] = np.eye(3) + A @ A.T
    w = random_two_form(rng, int(rng.integers(1, 4)))
    top, perp = reduction3d.decompose_form(w)
    return {"decompose_reassemble":
                np.max(np.abs(reduction3d.reassemble_form(top, perp) - w)) == 0.0,
            "astdec_factorization":
                reduction3d.star_decompose_check(forms4d.LorentzPoint(g), w) < 1e-10}


def _dyon_on_grid(rng):
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    grid = dyons.default_far_grid(nodes=7)
    pair = dyons.dyon_construct(J, [0, 1], [0, 0]).sample_pair(grid)
    rep = reduction3d.bogomolny_residual(grid, J, pair)
    return {"dyon_bogomolny": rep["eq_residual"] < 1e-6,
            "dyon_closure": rep["closure_residual"] < 1e-6,
            "dyon_4d_lift": reduction3d.lift_to_4d(pair, grid, J)["residual"] < 1e-6}


def _dyon(rng):
    n = int(rng.integers(1, 3))
    J = taming.theta_forward(random_period_matrix(n, rng))
    v = rng.integers(-3, 4, size=2 * n).astype(float)
    sol = dyons.dyon_construct(J, v, rng.standard_normal(2 * n))
    rep = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
    fr = dyons.flux_quantization(sol)
    return {"closed_form_equation":
                rep["eq_residual"] < 1e-10 and rep["integrability_residual"] < 1e-6,
            "flux_quantization":
                np.max(np.abs(fr.flux + 2 * np.pi * v)) < 1e-8 and fr.lattice_member}


def _electrodynamics(rng):
    ed = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    ok_fiber, _ = dyons.h_theta_fiber_check(ed["grid"], ed["E_vec"], ed["B_vec"],
                                            ed["Phi"], ed["Upsilon"], 0.0, 4 * np.pi)
    return {"electrodynamics_maxwell": all(val < 1e-6 for val in ed["maxwell"].values()),
            "h_theta_fiber": ok_fiber}


def _conjugation(rng):
    t = (1,)
    a = random_member(t, rng, word_length=3)
    gamma = random_member(t, rng, word_length=3)
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    rep = monodromy.Representation((a, a), t)
    return {"conjugation_invariance": monodromy.validate_representation(pres, rep)
            and monodromy.validate_representation(pres, rep.conjugated(gamma))}


def _dirac(rng):
    ok, t = monodromy.verify_dirac_system([[[1, Fraction(1, 2)], [0, 1]]], [[1, 0], [0, 2]])
    return {"dirac_witness": ok and t == (2,)}


def _numpy_rng(seed):
    # looked up per run: np.random's first use imports 16 modules a CLI call need not load
    return np.random.default_rng(seed)


SUITES = {
    "symplattice": (random.Random, [(40, _normal_form), (40, _lattice_laws),
                                    (1, _type_roundtrip)]),
    "siegel_group": (random.Random, [(40, _closure), (40, _affine)]),
    "taming": (_numpy_rng, [(50, _taming)]),
    "forms4d": (_numpy_rng, [(50, _forms4d)]),
    "reduction3d": (_numpy_rng, [(50, _static_split), (1, _dyon_on_grid)]),
    "dyons": (_numpy_rng, [(10, _dyon), (1, _electrodynamics)]),
    "monodromy": (random.Random, [(20, _conjugation), (1, _dirac)]),
}


def run(scope, seed):
    report = {}
    for name in list(SUITES) if scope == "all" else [scope]:
        t0 = time.perf_counter()
        stream, cases = SUITES[name]
        rng, results = stream(seed), {}
        for count, case in cases:
            for _ in range(count):
                for key, ok in case(rng).items():
                    results[key] = results.get(key, True) and bool(ok)
        report[name] = {"results": results, "seconds": round(time.perf_counter() - t0, 3)}
    return all(all(suite["results"].values()) for suite in report.values()), report
