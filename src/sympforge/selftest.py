"""Seeded invariant sweeps for each module, used by the CLI selftest
subcommand.  Each suite returns a dict of named boolean results; the
sweeps mirror the per-module invariants at a sample count that keeps the
whole run in seconds.
"""

import random
import time
from fractions import Fraction

import numpy as np

from . import dyons, exactmat as xm, forms4d, monodromy, reduction3d
from . import siegel, symplattice as sl, taming


def _random_gram(rng, n):
    while True:
        A = [[rng.randint(-20, 20) for _ in range(2 * n)] for _ in range(2 * n)]
        G = xm.sub(A, xm.transpose(A))
        if xm.det(G) != 0:
            return G


def _random_unimodular(rng, m):
    U = xm.identity(m)
    for _ in range(8):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        for row in U:
            row[j] += c * row[i]
    return U


def _random_chain(rng, n):
    t = [rng.randint(1, 4)]
    for _ in range(n - 1):
        t.append(t[-1] * rng.randint(1, 4))
    return tuple(t)


def suite_symplattice(seed):
    rng = random.Random(seed)
    results = {}
    ok_nf, ok_inv = True, True
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        G = _random_gram(rng, n)
        res = sl.symplectic_normal_form(G)
        U = res.basis_change
        ok_nf &= xm.mat_equal(sl.restrict_gram(G, U), sl.standard_gram(res.type))
        ok_nf &= abs(xm.det(U)) == 1
        V = _random_unimodular(rng, 2 * n)
        ok_inv &= sl.space_type(sl.restrict_gram(G, V)) == res.type
    results["normal_form_exact"] = ok_nf
    results["type_conjugation_invariant"] = ok_inv
    ok_lat = True
    for _ in range(40):
        n = rng.randint(1, 5)
        t, t2 = _random_chain(rng, n), _random_chain(rng, n)
        meet, join = sl.type_meet_join(t, t2)
        ok_lat &= sl.type_leq(meet, t) and sl.type_leq(meet, t2)
        ok_lat &= sl.type_leq(t, join) and sl.type_leq(t2, join)
        ok_lat &= sl.type_meet_join(t, t)[0] == t
    results["lattice_laws"] = ok_lat
    results["roundtrip_identity"] = all(
        sl.space_type(sl.standard_gram(t)) == t
        for t in [(1,), (7,), (1, 2), (2, 6), (3, 3, 12)])
    return results


def suite_siegel(seed):
    rng = random.Random(seed)
    results = {}
    ok_closure = True
    for _ in range(40):
        t = rng.choice([(1,), (2,), (1, 2), (2, 4)])
        a = siegel.random_member(t, rng)
        b = siegel.random_member(t, rng)
        ok_closure &= siegel.is_member((a @ b).rows(), t)
        ok_closure &= siegel.is_member(a.inverse().rows(), t)
    results["membership_closure"] = ok_closure
    ok_aff = True
    for _ in range(40):
        t = (rng.randint(1, 3),)
        gs = []
        for _ in range(3):
            rot = siegel.random_member(t, rng, word_length=3)
            a = [rng.randint(0, 7) for _ in range(2)]
            gs.append(siegel.AffElement.make([Fraction(x, 8) for x in a], rot))
        g1, g2, g3 = gs
        lhs = siegel.aff_compose(siegel.aff_compose(g1, g2), g3)
        rhs = siegel.aff_compose(g1, siegel.aff_compose(g2, g3))
        ok_aff &= lhs == rhs
        ok_aff &= siegel.aff_compose(g1, siegel.aff_inverse(g1)).is_identity()
        ok_aff &= xm.mat_equal(siegel.aff_adjoint(siegel.aff_compose(g1, g2)),
                               xm.matmul(siegel.aff_adjoint(g1), siegel.aff_adjoint(g2)))
    results["aff_group_axioms"] = ok_aff
    return results


def suite_taming(seed):
    rng = np.random.default_rng(seed)
    ok_round, ok_inv, ok_act = True, True, True
    for _ in range(50):
        n = int(rng.integers(1, 5))
        N = taming.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        ok_inv &= taming.is_taming(J)[0]
        N2 = taming.theta_inverse(J)
        ok_round &= np.max(np.abs(N2.R - N.R)) < taming.ROUNDTRIP_TOL
        ok_round &= np.max(np.abs(N2.I - N.I)) < taming.ROUNDTRIP_TOL
        g = taming.random_symplectic(n, rng)
        ok_act &= taming.is_taming(taming.taming_conjugate(J, g), tol=1e-8)[0]
    return {"theta_roundtrip": ok_round, "forward_invariants": ok_inv,
            "conjugation_preserves_taming": ok_act}


def suite_forms4d(seed):
    rng = np.random.default_rng(seed)
    ok_star, ok_pol, ok_lemma, ok_equiv = True, True, True, True
    for _ in range(50):
        p = forms4d.random_metric(rng)
        n = int(rng.integers(1, 3))
        F = forms4d.random_two_form(rng, n)
        ok_star &= np.max(np.abs(forms4d.hodge_star2(p, forms4d.hodge_star2(p, F)) + F)) < 1e-9
        N = taming.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        V = forms4d.random_two_form(rng, 2 * n)
        ok_pol &= np.max(np.abs(forms4d.polarized_star(p, J, forms4d.polarized_star(p, J, V)) - V)) < 1e-8
        V = np.concatenate([F, forms4d.g_map(p, N, F)])
        ok_here, Fx, _ = forms4d.check_polarized_selfdual(p, N, V)
        ok_lemma &= ok_here and np.max(np.abs(Fx - F)) < 1e-12
        g = taming.random_symplectic(n, rng)
        V2 = forms4d.duality_act(g, V)
        J2 = taming.taming_conjugate(J, g)
        sV2 = forms4d.hodge_star2(p, V2)
        ok_equiv &= np.max(np.abs(sV2 + np.einsum("jk,kab->jab", J2, V2))) < 1e-8 * max(1, np.max(np.abs(V2)))
    return {"star_squares_to_minus_one": ok_star, "polarized_star_involution": ok_pol,
            "twisted_selfdual_lemma": ok_lemma, "duality_equivariance": ok_equiv}


def suite_reduction3d(seed):
    rng = np.random.default_rng(seed)
    ok_dec, ok_star = True, True
    for _ in range(50):
        A = rng.standard_normal((3, 3)) * 0.4
        h = np.eye(3) + A @ A.T
        g = np.zeros((4, 4))
        g[0, 0] = -1.0
        g[1:, 1:] = h
        p = forms4d.LorentzPoint(g)
        w = forms4d.random_two_form(rng, int(rng.integers(1, 4)))
        top, perp = reduction3d.decompose_form(w)
        ok_dec &= np.max(np.abs(reduction3d.reassemble_form(top, perp) - w)) == 0.0
        ok_star &= reduction3d.star_decompose_check(p, w) < 1e-10
    # dyon oracle on a small far grid
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [0, 1], [0, 0])
    grid = dyons.default_far_grid(spacing=0.01, nodes=7)
    rep = reduction3d.bogomolny_residual(grid, J, sol.sample_pair(grid))
    lift = reduction3d.lift_to_4d(sol.sample_pair(grid), grid, J)
    return {"decompose_reassemble": ok_dec, "astdec_factorization": ok_star,
            "dyon_bogomolny": rep["eq_residual"] < 1e-6,
            "dyon_closure": rep["closure_residual"] < 1e-6,
            "dyon_4d_lift": lift["residual"] < 1e-6}


def suite_dyons(seed):
    rng = np.random.default_rng(seed)
    ok_verify, ok_flux = True, True
    for _ in range(10):
        n = int(rng.integers(1, 3))
        N = taming.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        v = rng.integers(-3, 4, size=2 * n).astype(float)
        sol = dyons.dyon_construct(J, v, rng.standard_normal(2 * n))
        rep = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
        ok_verify &= rep["eq_residual"] < 1e-10 and rep["integrability_residual"] < 1e-6
        fr = dyons.flux_quantization(sol)
        ok_flux &= np.max(np.abs(fr.flux + 2 * np.pi * v)) < 1e-8
        ok_flux &= fr.lattice_member
    ed = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    ok_ed = all(val < 1e-6 for val in ed["maxwell"].values())
    ok_fiber, _ = dyons.h_theta_fiber_check(ed["grid"], ed["E_vec"], ed["B_vec"],
                                            ed["Phi"], ed["Upsilon"], 0.0, 4 * np.pi)
    return {"closed_form_equation": ok_verify, "flux_quantization": ok_flux,
            "electrodynamics_maxwell": ok_ed, "h_theta_fiber": ok_fiber}


def suite_monodromy(seed):
    rng = random.Random(seed)
    ok_conj, ok_dirac = True, True
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    for _ in range(20):
        t = (1,)
        a = siegel.random_member(t, rng, word_length=3)
        rep = monodromy.Representation((a, a), t)
        gamma = siegel.random_member(t, rng, word_length=3)
        ok_conj &= monodromy.validate_representation(pres, rep)
        ok_conj &= monodromy.validate_representation(pres, rep.conjugated(gamma))
    ok, t_found = monodromy.verify_dirac_system(
        [[[1, Fraction(1, 2)], [0, 1]]], [[1, 0], [0, 2]])
    ok_dirac &= ok and t_found == (2,)
    return {"conjugation_invariance": ok_conj, "dirac_witness": ok_dirac}


SUITES = {
    "symplattice": suite_symplattice,
    "siegel_group": suite_siegel,
    "taming": suite_taming,
    "forms4d": suite_forms4d,
    "reduction3d": suite_reduction3d,
    "dyons": suite_dyons,
    "monodromy": suite_monodromy,
}


def run(scope, seed):
    names = list(SUITES) if scope == "all" else [scope]
    report = {}
    passed = True
    for name in names:
        t0 = time.perf_counter()
        results = SUITES[name](seed)
        elapsed = time.perf_counter() - t0
        report[name] = {"results": {k: bool(v) for k, v in results.items()},
                        "seconds": round(elapsed, 3)}
        passed &= all(results.values())
    return passed, report
