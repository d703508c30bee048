"""Acceptance suite: one test per release criterion, with pinned scales
and tolerances.  Each test prints one pass/fail line under pytest -v.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sympforge import dyons, exactmat as xm, forms4d, monodromy
from sympforge import reduction3d, selftest, siegel, symplattice as sl, taming
from sympforge.selftest import random_chain, random_gram, random_unimodular
from oracles import inverse, to_fraction


def test_criterion_01_normal_form_soundness():
    rng = random.Random(20260824)
    for _ in range(500):
        n = rng.choice([1, 2, 3, 4])
        G = random_gram(rng, n)
        res = sl.symplectic_normal_form(G)
        assert sl.restrict_gram(G, res.basis_change) == sl.standard_gram(res.type)
        assert abs(xm.det(res.basis_change)) == 1
        for _ in range(100):
            V = random_unimodular(rng, 2 * n, ops=4)
            assert sl.space_type(sl.restrict_gram(G, V)) == res.type


def test_criterion_02_divisor_lattice_laws():
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randint(1, 5)
        t, t2 = random_chain(rng, n), random_chain(rng, n)
        meet, join = sl.type_meet_join(t, t2)
        assert sl.type_meet_join(t, t) == (t, t)                      # idempotence
        assert sl.type_meet_join(t2, t) == (meet, join)               # commutativity
        assert sl.type_meet_join(t, join) == (t, join)                # absorption
        assert sl.type_meet_join(t, meet) == (meet, t)
        assert sl.type_leq(meet, t) and sl.type_leq(meet, t2)
        assert sl.type_leq(t, join) and sl.type_leq(t2, join)


def test_criterion_03_group_membership_closure_and_monotonicity():
    rng = random.Random(3)
    for _ in range(200):
        t = rng.choice([(1,), (2,), (1, 2), (2, 4), (3,)])
        a = selftest.random_member(t, rng, word_length=4)
        b = selftest.random_member(t, rng, word_length=4)
        assert siegel.is_member((a @ b).rows(), t)
        assert siegel.is_member(a.inverse().rows(), t)
    pairs = [((1,), (2,)), ((1,), (3,)), ((1,), (4,)), ((2,), (4,)),
             ((2,), (6,)), ((3,), (6,)), ((1,), (6,)), ((2,), (2,)),
             ((1, 2), (2, 4)), ((1, 1), (2, 2)), ((1, 2), (1, 4)),
             ((2, 2), (4, 4)), ((1, 3), (3, 3)), ((1,), (5,)), ((5,), (10,)),
             ((1, 2), (2, 2)), ((2, 4), (4, 8)), ((1, 1), (1, 2)),
             ((3, 3), (3, 6)), ((1, 4), (2, 4))]
    assert len(pairs) == 20
    for t, t2 in pairs:
        for _ in range(5):
            a = selftest.random_member(t, rng, word_length=3)
            moved = siegel.transport(a.rows(), t, t2)
            if moved is not None:
                assert siegel.is_member(moved, t2)


def test_criterion_04_affine_group_axioms():
    rng = random.Random(4)
    for _ in range(500):
        t = rng.choice([(1,), (2,), (3,)])
        gs = [siegel.AffElement.make(
                  [Fraction(rng.randint(0, 23), 24) for _ in range(2)],
                  selftest.random_member(t, rng, word_length=3))
              for _ in range(3)]
        g1, g2, g3 = gs
        assert siegel.aff_compose(siegel.aff_compose(g1, g2), g3) == \
            siegel.aff_compose(g1, siegel.aff_compose(g2, g3))
        assert siegel.aff_compose(g1, siegel.aff_inverse(g1)).is_identity()
        assert siegel.aff_compose(g1, siegel.AffElement.identity_element(t)) == g1
        lhs = siegel.aff_adjoint(siegel.aff_compose(g1, g2))
        rhs = xm.matmul(siegel.aff_adjoint(g1), siegel.aff_adjoint(g2))
        assert xm.mat_equal(lhs, rhs)


def test_criterion_05_taming_bijection_and_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        N = selftest.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        ok, report = taming.is_taming(J)
        assert ok, report
        N2 = taming.theta_inverse(J)
        assert np.max(np.abs(N2.R - N.R)) < 1e-9
        assert np.max(np.abs(N2.I - N.I)) < 1e-9
    for _ in range(10):
        theta = float(rng.uniform(-10, 10))
        g_sq = float(rng.uniform(0.1, 50))
        lhs = taming.theta_forward(taming.electrodynamics_period(theta, g_sq))
        rhs = taming.electrodynamics_taming(theta, g_sq)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_criterion_06_lorentzian_hodge_squares():
    rng = np.random.default_rng(6)
    for _ in range(500):
        p = selftest.random_metric(rng)
        n = int(rng.integers(1, 3))
        F = selftest.random_two_form(rng, n)
        scale = max(1.0, np.max(np.abs(F)))
        out = forms4d.hodge_star2(p, forms4d.hodge_star2(p, F))
        assert np.max(np.abs(out + F)) < 1e-10 * scale
        J = taming.theta_forward(selftest.random_period_matrix(n, rng))
        V = selftest.random_two_form(rng, 2 * n)
        out = forms4d.polarized_star(p, J, forms4d.polarized_star(p, J, V))
        assert np.max(np.abs(out - V)) < 1e-9 * max(1.0, np.max(np.abs(V)))


def test_criterion_07_twisted_selfduality_lemma():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 3))
        p = selftest.random_metric(rng)
        N = selftest.random_period_matrix(n, rng)
        F = selftest.random_two_form(rng, n)
        V = np.concatenate([F, forms4d.g_map(p, N, F)])
        # forward: the assembled pair satisfies the self-duality condition
        ok, F_out, report = forms4d.check_polarized_selfdual(p, N, V, tol=1e-9)
        assert ok, report
        assert np.max(np.abs(F_out - F)) < 1e-12
        # converse: any passing form has its lower half determined by the upper
        assert report["lower_gap"] < 1e-9 * max(1.0, np.max(np.abs(V)))


def test_criterion_08_duality_equivariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        p = selftest.random_metric(rng)
        N = selftest.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        F = selftest.random_two_form(rng, n)
        V = np.concatenate([F, forms4d.g_map(p, N, F)])
        g = selftest.random_symplectic(n, rng)
        V2 = forms4d.duality_act(g, V)
        J2 = taming.taming_conjugate(J, g)
        resid = forms4d.hodge_star2(p, V2) + np.einsum("jk,kab->jab", J2, V2)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(V2)))


def test_criterion_09_static_decomposition_and_convergence():
    rng = np.random.default_rng(9)
    for _ in range(200):
        A = rng.standard_normal((3, 3)) * 0.4
        h = np.eye(3) + A @ A.T
        g = np.zeros((4, 4))
        g[0, 0] = -1.0
        g[1:, 1:] = h
        p = forms4d.LorentzPoint(g, orientation=1 if rng.random() < 0.5 else -1)
        w = selftest.random_two_form(rng, int(rng.integers(1, 4)))
        assert reduction3d.star_decompose_check(p, w) < 1e-10
    # 4d self-duality vs 3d reduction: both residuals shrink at O(h^2)
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [1, -2], [0, 0])
    res3, res4 = [], []
    for h, nodes in [(0.04, 5), (0.02, 9), (0.01, 17)]:
        grid = reduction3d.Grid3(shape=(nodes,) * 3, spacing=(h,) * 3,
                                 origin=(2.0,) * 3)
        pair = sol.sample_pair(grid)
        res3.append(reduction3d.bogomolny_residual(grid, J, pair)["eq_residual"])
        res4.append(reduction3d.lift_to_4d(pair, grid, J)["residual"])
    for seq in (res3, res4):
        orders = [np.log2(seq[k] / seq[k + 1]) for k in range(2)]
        assert min(orders) >= 1.8, (seq, orders)


def test_criterion_10_dyon_construction_and_flux():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        J = taming.theta_forward(selftest.random_period_matrix(n, rng))
        v = rng.integers(-3, 4, size=2 * n).astype(float)
        sol = dyons.dyon_construct(J, v, rng.standard_normal(2 * n))
        rep = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
        assert rep["eq_residual"] < 1e-10
        flux = dyons.flux_quantization(sol)
        assert np.max(np.abs(flux.flux + 2 * np.pi * v)) < 1e-8
    grid = dyons.default_far_grid(nodes=9)
    assert grid.spacing == (0.01,) * 3  # the pinned grid scale
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [2, 1], [0, 0])
    gr = reduction3d.bogomolny_residual(grid, J, sol.sample_pair(grid))
    assert gr["eq_residual"] < 1e-6
    # membership iff integrality, over mixed integer / non-integer charges
    for k in range(50):
        v = rng.integers(-3, 4, size=2).astype(float)
        if k % 2:
            v = v + rng.uniform(0.1, 0.9, size=2)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dyons.NonIntegerVWarning)
            sol = dyons.dyon_construct(J, v, np.zeros(2))
        flux = dyons.flux_quantization(sol)
        integral = bool(np.max(np.abs(v - np.round(v))) < 1e-8)
        assert flux.lattice_member == integral


def test_criterion_11_electrodynamics_monopole():
    out = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    grid = out["grid"]
    r = np.linalg.norm(grid.points(), axis=-1)
    assert np.max(np.abs(out["Phi"] + 1.0 / (2 * r))) < 1e-12
    assert all(val < 1e-6 for val in out["maxwell"].values()), out["maxwell"]
    for theta, g_sq, qe, qm in [(0.0, 4 * np.pi, 0, 1), (2 * np.pi, 4 * np.pi, 1, 0),
                                (1.0, 5.0, 1, 2), (-3.0, 0.5, 2, -1)]:
        ed = dyons.electrodynamics_dyon(theta, g_sq, qe, qm)
        ok, report = dyons.h_theta_fiber_check(
            ed["grid"], ed["E_vec"], ed["B_vec"], ed["Phi"], ed["Upsilon"],
            theta, g_sq)
        assert ok, report
    X = grid.points()
    ok, _ = dyons.h_theta_fiber_check(grid, out["E_vec"], out["B_vec"],
                                      out["Phi"], out["Upsilon"] + X[..., 0],
                                      0.0, 4 * np.pi)
    assert not ok


def test_criterion_12_monodromy_verification():
    rng = random.Random(12)
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    for _ in range(100):
        t = rng.choice([(1,), (2,)])
        a = selftest.random_member(t, rng, word_length=3)
        rep = monodromy.Representation((a, a), t)
        gamma = selftest.random_member(t, rng, word_length=3)
        assert monodromy.validate_representation(pres, rep)
        assert monodromy.validate_representation(pres, rep.conjugated(gamma))
    ok, t_found = monodromy.verify_dirac_system(
        [[[1, Fraction(1, 2)], [0, 1]]], [[1, 0], [0, 2]])
    assert ok and t_found == (2,)
    t = (1,)
    for _ in range(20):
        rep = monodromy.Representation(
            (selftest.random_member(t, rng, word_length=3),
             selftest.random_member(t, rng, word_length=3)), t)
        while True:
            g0 = selftest.random_member(t, rng, word_length=2)
            if max(abs(x) for row in g0.matrix for x in row) <= 2:
                break
        rep2 = rep.conjugated(g0)
        t0 = time.perf_counter()
        gamma, cert = monodromy.conjugacy_test_bounded(rep, rep2, 2)
        assert time.perf_counter() - t0 < 30.0
        assert cert == "found"
        ginv = inverse(gamma)
        for a, b in zip(rep.images, rep2.images):
            conj = xm.matmul(gamma, xm.matmul(a.rows(), ginv))
            assert xm.mat_equal(to_fraction(conj), to_fraction(b.rows()))
