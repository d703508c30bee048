import dataclasses
import warnings

import numpy as np
import pytest

import oracles
from sympforge import dyons, forms4d, reduction3d, taming

STD_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def static_point(h, orientation=1):
    g = np.zeros((4, 4))
    g[0, 0] = -1.0
    g[1:, 1:] = h
    return forms4d.LorentzPoint(g, orientation)


def random_spatial_metric(rng):
    A = rng.standard_normal((3, 3)) * 0.4
    return np.eye(3) + A @ A.T


def basis_two_form(a, b):
    F = np.zeros((1, 4, 4))
    F[0, a, b] = 1.0
    F[0, b, a] = -1.0
    return F


def test_decompose_dt_dx():
    top, perp = reduction3d.decompose_form(basis_two_form(0, 1))
    assert np.allclose(top, [[1.0, 0.0, 0.0]])
    assert np.allclose(perp, 0.0)
    assert np.allclose(reduction3d.reassemble_form(top, perp), basis_two_form(0, 1))


def test_decompose_dy_dz():
    w = basis_two_form(2, 3)
    top, perp = reduction3d.decompose_form(w)
    assert np.allclose(top, 0.0)
    assert np.allclose(perp, w[:, 1:, 1:])


def test_decompose_reassemble_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = forms4d.random_two_form(rng, int(rng.integers(1, 4)))
        top, perp = reduction3d.decompose_form(w)
        assert np.max(np.abs(reduction3d.reassemble_form(top, perp) - w)) == 0.0


def test_star_factorization_euclidean_basis_forms():
    p = static_point(np.eye(3))
    assert reduction3d.star_decompose_check(p, basis_two_form(0, 1)) < 1e-12
    assert reduction3d.star_decompose_check(p, basis_two_form(2, 3)) < 1e-12


def test_star_factorization_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = static_point(random_spatial_metric(rng),
                         orientation=1 if rng.random() < 0.5 else -1)
        w = forms4d.random_two_form(rng, int(rng.integers(1, 4)))
        assert reduction3d.star_decompose_check(p, w) < 1e-10


def test_star_factorization_rejects_non_static():
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    g[0, 1] = g[1, 0] = 0.3
    p = forms4d.LorentzPoint(g)
    with pytest.raises(ValueError, match=r"metric must be -dt\^2 \+ h"):
        reduction3d.star_decompose_check(p, np.zeros((1, 4, 4)))


def test_bogomolny_residual_vacuum():
    grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    psi = np.ones(grid.shape + (2,))
    V = np.zeros(grid.shape + (2, 3, 3))
    rep = reduction3d.bogomolny_residual(grid, STD_J, (psi, V))
    assert rep["eq_residual"] == 0.0
    assert rep["closure_residual"] == 0.0


def test_bogomolny_residual_dyon_oracle():
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [0, 1], [0, 0])
    grid = dyons.default_far_grid(nodes=7)
    rep = reduction3d.bogomolny_residual(grid, J, sol.sample_pair(grid))
    assert rep["eq_residual"] < 1e-6
    assert rep["closure_residual"] < 1e-6


def test_bogomolny_residual_detects_violation():
    grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    X = grid.points()
    psi = np.zeros(grid.shape + (2,))
    psi[..., 0] = X[..., 0]  # linear Higgs field with no curvature to match
    V = np.zeros(grid.shape + (2, 3, 3))
    rep = reduction3d.bogomolny_residual(grid, STD_J, (psi, V))
    assert abs(rep["eq_residual"] - 1.0) < 1e-10


def test_lift_dyon_selfdual():
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [1, 1], [0, 0])
    grid = dyons.default_far_grid(nodes=7)
    out = reduction3d.lift_to_4d(sol.sample_pair(grid), grid, J)
    assert out["residual"] < 1e-6


def test_lift_zero_pair():
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1, 0.1, 0.1))
    psi = np.zeros(grid.shape + (2,))
    V = np.zeros(grid.shape + (2, 3, 3))
    out = reduction3d.lift_to_4d((psi, V), grid, STD_J)
    assert set(out) == {"residual", "residual_field"}   # the lift assembles nothing else
    assert out["residual"] == 0.0 and out["residual_field"].shape == grid.shape + (2, 4, 4)


def test_bogomolny_pair_is_frozen_and_keeps_the_callers_arrays():
    psi, V = np.zeros((3, 3, 3, 2)), np.zeros((3, 3, 3, 2, 3, 3))
    pair = reduction3d.BogomolnyPair(psi, V)
    assert pair.psi is psi and pair.V is V and V.flags.writeable
    for name in ("psi", "V"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pair, name, V)


def test_bogomolny_pair_checks_shapes_before_antisymmetry():
    V = np.ones((3, 3, 3, 2, 3, 3))   # not antisymmetric, and psi's shape disagrees
    with pytest.raises(ValueError, match="shapes disagree"):
        reduction3d.BogomolnyPair(np.zeros((3, 3, 3, 4)), V)


def test_lift_violation_matches_3d_residual_order():
    grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    X = grid.points()
    psi = np.zeros(grid.shape + (2,))
    psi[..., 0] = X[..., 0]
    V = np.zeros(grid.shape + (2, 3, 3))
    rep3 = reduction3d.bogomolny_residual(grid, STD_J, (psi, V))
    rep4 = reduction3d.lift_to_4d((psi, V), grid, STD_J)
    assert rep4["residual"] > 0.1
    assert abs(rep4["residual"] - rep3["eq_residual"]) < 1e-8


def test_grid_too_small():
    with pytest.raises(ValueError, match="need at least 3 nodes per axis"):
        reduction3d.Grid3(shape=(2, 5, 5), spacing=(0.1, 0.1, 0.1))


def test_rank_mismatch():
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1, 0.1, 0.1))
    psi = np.zeros(grid.shape + (2,))
    V = np.zeros(grid.shape + (2, 3, 3))
    with pytest.raises(ValueError, match="taming size does not match field rank"):
        reduction3d.bogomolny_residual(grid, np.eye(4), (psi, V))


def test_em_static_residual_coulomb():
    grid = dyons.default_far_grid(nodes=7)
    X = grid.points()
    r = np.linalg.norm(X, axis=-1)
    Phi = 1.0 / r
    E = X / r[..., None] ** 3          # 1-form of the Coulomb field (euclidean)
    B = np.zeros(grid.shape + (3, 3))
    rep = reduction3d.em_static_residual(grid, [[0.0]], [[1.0]], E, B,
                                         Phi, np.zeros_like(Phi))
    assert all(v < 1e-5 for v in rep.values()), rep


def test_em_static_residual_zero_fields():
    grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    z = np.zeros(grid.shape)
    rep = reduction3d.em_static_residual(grid, [[0.0]], [[1.0]],
                                         np.zeros(grid.shape + (3,)),
                                         np.zeros(grid.shape + (3, 3)), z, z)
    assert all(v == 0.0 for v in rep.values())


def test_em_static_residual_linear_potential():
    grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1, 0.1, 0.1))
    X = grid.points()
    Phi = -X[..., 0]
    E = np.zeros(grid.shape + (3,))
    E[..., 0] = 1.0
    B = np.zeros(grid.shape + (3, 3))
    rep = reduction3d.em_static_residual(grid, [[0.0]], [[1.0]], E, B,
                                         Phi, np.zeros_like(Phi))
    assert all(v < 1e-10 for v in rep.values()), rep


def test_convergence_order_of_dyon_residuals():
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [0, 1], [0, 0])
    spacings = [0.04, 0.02]
    res = []
    for h, nodes in zip(spacings, (5, 9)):
        grid = reduction3d.Grid3(shape=(nodes,) * 3, spacing=(h,) * 3,
                                 origin=(2.0,) * 3)
        rep = reduction3d.bogomolny_residual(grid, J, sol.sample_pair(grid))
        res.append(rep["eq_residual"])
    order = np.log2(res[0] / res[1])
    assert order > 1.8


def test_constant_metric_matches_same_metric_per_node():
    rng = np.random.default_rng(11)
    h = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.1], [-0.2, 0.1, 0.5]])
    shape = (5, 6, 4)
    J = taming.theta_forward(taming.random_period_matrix(2, rng))
    psi = rng.standard_normal(shape + (4,))
    A = rng.standard_normal(shape + (4, 3, 3))
    pair = (psi, A - np.swapaxes(A, -1, -2))
    grids = [reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.15), metric=m)
             for m in (h, np.broadcast_to(h, shape + (3, 3)).copy())]
    bog = [reduction3d.bogomolny_residual(grid, J, pair) for grid in grids]
    lift = [reduction3d.lift_to_4d(pair, grid, J) for grid in grids]
    for const, per_node in ((bog[0]["eq_field"], bog[1]["eq_field"]),
                            (bog[0]["closure_field"], bog[1]["closure_field"]),
                            (lift[0]["residual_field"], lift[1]["residual_field"])):
        assert np.max(np.abs(const - per_node)) < 1e-12 * max(1.0, np.max(np.abs(const)))
    assert abs(bog[0]["eq_residual"] - bog[1]["eq_residual"]) < 1e-12 * max(1.0, bog[0]["eq_residual"])
    assert abs(lift[0]["residual"] - lift[1]["residual"]) < 1e-12 * max(1.0, lift[0]["residual"])
    X = rng.standard_normal(shape + (2, 3))
    div = [reduction3d.divergence(grid, X) for grid in grids]
    assert np.max(np.abs(div[0] - div[1])) < 1e-12 * max(1.0, np.max(np.abs(div[0])))
    E, B = X, pair[1][..., :2, :, :]
    Phi, Ups = rng.standard_normal(shape + (2,)), rng.standard_normal(shape + (2,))
    em = [reduction3d.em_static_residual(grid, np.eye(2), 2 * np.eye(2), E, B, Phi, Ups)
          for grid in grids]
    for key, val in em[0].items():
        assert abs(val - em[1][key]) < 1e-12 * max(1.0, val)


def metric_field(rng, shape):
    """Seeded positive-definite metrics, one per node, of condition <= 16 and
    overall scale from 1e-2 to 1e2."""
    Q = np.linalg.qr(rng.standard_normal(shape + (3, 3)))[0]
    lam = rng.uniform(1.0, 16.0, shape + (3,)) * 10.0 ** rng.uniform(-2, 2, shape + (1,))
    return np.einsum("...ab,...b,...cb->...ac", Q, lam, Q)


def test_grid_factor_matches_lapack():
    rng = np.random.default_rng(12)
    for shape in ((3, 3, 3), (5, 4, 6), (9, 9, 9)):
        h = metric_field(rng, shape)
        for metric in (h, h[0, 0, 0]):
            grid = reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=metric)
            inv, det = np.linalg.inv(metric), np.linalg.det(metric)
            err = (np.linalg.norm(grid.metric_inv - inv, axis=(-2, -1))
                   / np.linalg.norm(inv, axis=(-2, -1)))
            assert np.max(err) < 1e-12
            assert np.max(np.abs(grid.sqrt_det ** 2 - det) / det) < 1e-12


def test_grid_consumers_match_lapack_oracles():
    rng = np.random.default_rng(13)
    shape = (5, 6, 4)
    J = taming.theta_forward(taming.random_period_matrix(2, rng))
    psi = rng.standard_normal(shape + (4,))
    A = rng.standard_normal(shape + (4, 3, 3))
    pair = reduction3d.BogomolnyPair(psi, A - np.swapaxes(A, -1, -2))
    E, B = rng.standard_normal(shape + (2, 3)), pair.V[..., :2, :, :]
    Phi, Ups = rng.standard_normal(shape + (2,)), rng.standard_normal(shape + (2,))
    h = metric_field(rng, shape)
    for metric in (h, h[1, 2, 3], np.eye(3)):
        grid = reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.15), metric=metric)
        for got, expect in (
                (reduction3d.bogomolny_residual(grid, J, pair)["eq_field"],
                 oracles.bogomolny_eq_field(grid, J, pair)),
                (reduction3d.lift_to_4d(pair, grid, J)["residual_field"],
                 oracles.lift_residual_field(pair, grid, J))):
            assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))
        em = reduction3d.em_static_residual(grid, np.eye(2), 2 * np.eye(2), E, B, Phi, Ups)
        for key, val in oracles.em_static_residual(grid, np.eye(2), 2 * np.eye(2),
                                                   E, B, Phi, Ups).items():
            assert abs(em[key] - val) < 1e-12 * val


@pytest.mark.parametrize("fault,where", [("negative", " at node (2, 1, 0)"),
                                         ("zero", " at node (0, 2, 1)"),
                                         ("not_symmetric", ""), ("nan", " at node (1, 1, 1)")],
                         ids=["negative", "zero", "not_symmetric", "nan"])
def test_grid_rejects_metric_at_any_node(fault, where):
    metric = np.broadcast_to(np.eye(3), (3, 3, 3, 3, 3)).copy()
    if fault == "negative":
        metric[2, 1, 0] = np.diag([1.0, 1.0, -1.0])
    elif fault == "zero":
        metric[0, 2, 1] = 0.0
    elif fault == "nan":
        metric[1, 1, 1, 0, 2] = np.nan
    else:
        metric = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1,) * 3, metric=metric)
    assert str(err.value) == f"metric must be symmetric positive-definite{where}"


def test_grid_symmetry_tolerance_is_lorentz_points():
    rng = np.random.default_rng(14)
    h = metric_field(rng, (3, 3, 3))
    for step in (1e-11, 0.5e-10, 2e-10, 1e-6, 1e-4, 1e-3):
        for k in range(2):
            metric = h.copy()
            b = metric[1, 2, 0, 1, 0]
            metric[1, 2, 0, 0, 1] = b + step * (abs(b) if k else 1.0)
            g = np.zeros((4, 4))
            g[0, 0], g[1:, 1:] = -1.0, metric[1, 2, 0]
            try:
                forms4d.LorentzPoint(g)
                lorentz_ok = True
            except ValueError:
                lorentz_ok = False
            try:
                reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1,) * 3, metric=metric)
                grid_ok = True
            except ValueError:
                grid_ok = False
            assert grid_ok == lorentz_ok


def transpose_edge_cases(rng, shape, n, sign, atol, first=()):
    """(sign)-symmetric arrays of shape + (n, n) at many scales, one entry moved
    across the atol + 1e-5 |y| edge of allclose(x, y = sign x^T), and non-finite
    entries on and off the diagonal."""
    cases = list(first)
    for _ in range(300):
        A = rng.standard_normal(shape + (n, n)) * 10.0 ** rng.uniform(-12, 2, shape + (n, n))
        V = A + sign * np.swapaxes(A, -1, -2)
        idx = tuple(int(rng.integers(s)) for s in shape)
        a, b = rng.choice(n, 2, replace=False)
        if rng.random() < 0.3:
            V[idx + (a, b)] = V[idx + (b, a)] = 0.0
        edge = atol + 1e-5 * abs(V[idx + (b, a)])
        V[idx + (a, b)] = sign * V[idx + (b, a)] + rng.choice([-1, 1]) * edge * rng.choice(
            [0.5, 0.99, 0.9999, 1.0, 1.0001, 1.01, 2.0])
        cases.append(V)
    corner = (0,) * len(shape)
    for bad in (np.inf, -np.inf, np.nan):
        for diagonal in (False, True):
            V = cases[-1].copy()
            V[corner + (0, 0 if diagonal else 1)] = bad
            cases.append(V)
            if not diagonal:
                W = V.copy()
                W[corner + (1, 0)] = sign * bad
                cases.append(W)
    if shape:
        cases.append(np.zeros(shape[:-1] + (0, n, n)))
    return cases


def test_bogomolny_pair_antisymmetry_keeps_allclose_acceptance():
    """At every call site of the one transpose predicate (each sign and atol),
    valid inputs and inputs perturbed across the atol (and 1e-5 relative) edge
    get the accept/reject answer of np.allclose(x, sign x^T, atol), non-finite
    entries included; the later checks of a site (signature, definiteness) are
    told apart by their messages."""
    grid = dyons.default_far_grid(nodes=5)
    sol = dyons.dyon_construct(STD_J, [1, -1], [0, 0])
    n = 3
    sites = [   # build, shape, n, sign, atol, valid inputs
        (lambda V: reduction3d.BogomolnyPair(np.zeros(V.shape[:-2]), V),
         (3, 4, 3, 2), 3, -1, 1e-12, [sol.sample_pair(grid).V]),
        (forms4d.as_two_form, (5,), 4, -1, 1e-12, [forms4d.random_two_form(
            np.random.default_rng(1), 2)]),
        (forms4d.LorentzPoint, (), 4, 1, 1e-10, [np.diag([-1.0, 1.0, 1.0, 1.0])]),
        (lambda R: taming.PeriodMatrix(R, np.eye(n)), (), n, 1, 1e-12, []),
        (lambda I: taming.PeriodMatrix(np.zeros((n, n)), I), (), n, 1, 1e-12, [np.eye(n)]),
        (forms4d.as_two_form, (), 4, -1, 1e-12, [forms4d.random_two_form(   # one 4 x 4 matrix
            np.random.default_rng(2), 1)[0]]),
    ]
    for k, (build, shape, size, sign, atol, valid) in enumerate(sites):
        answers = set()
        rng = np.random.default_rng(15 + k)
        for V in transpose_edge_cases(rng, shape, size, sign, atol, valid):
            parent = bool(np.allclose(V, sign * np.swapaxes(V, -1, -2), atol=atol))
            try:
                with np.errstate(all="ignore"):
                    build(V)
                accepted = True
            except Exception as exc:      # a later check of the site may fail instead
                accepted = "symmetric" not in str(exc)
            assert accepted == parent, (k, V)
            answers.add(parent)
        assert answers == {True, False}


def test_euclidean_eq_field_is_the_oracles_bit_for_bit():
    """On the identity metric every product in the star and the contraction
    is exact, so bogomolny_residual gives the LAPACK oracle's eq_field."""
    rng = np.random.default_rng(16)
    for two_n in (2, 4):
        shape = (5, 6, 4)
        J = taming.theta_forward(taming.random_period_matrix(two_n // 2, rng))
        A = rng.standard_normal(shape + (two_n, 3, 3))
        pair = reduction3d.BogomolnyPair(rng.standard_normal(shape + (two_n,)),
                                         A - np.swapaxes(A, -1, -2))
        grid = reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.15))
        for Jn in (J, np.broadcast_to(J, shape + J.shape)):
            assert np.array_equal(reduction3d.bogomolny_residual(grid, Jn, pair)["eq_field"],
                                  oracles.bogomolny_eq_field(grid, Jn, pair))


@pytest.mark.parametrize("two_n", [2, 4])
@pytest.mark.parametrize("width", [3, 9])
@pytest.mark.parametrize("per_node", [False, True])
def test_component_contraction_is_einsum_bit_for_bit(two_n, width, per_node):
    rng = np.random.default_rng(17 + two_n + width)
    for shape in ((5, 6, 4), (17, 17, 17)):
        x = rng.standard_normal(shape + (two_n, width)) * 10.0 ** rng.uniform(-3, 3)
        J = rng.standard_normal((shape if per_node else ()) + (two_n, two_n))
        assert np.array_equal(reduction3d._contract(J, x),
                              np.einsum("...jk,...ka->...ja", J, x))
    with pytest.raises(ValueError, match="taming size does not match field rank"):
        reduction3d._contract(np.eye(two_n + 2), x)


def test_grid_factor_is_frozen():
    shape = (3, 4, 5)
    for metric in (np.diag([1.0, 2.0, 3.0]), metric_field(np.random.default_rng(18), shape)):
        passed = metric.copy()
        grid = reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=passed)
        for name in ("shape", "spacing", "origin", "metric", "metric_inv", "sqrt_det"):
            with pytest.raises(AttributeError):    # dataclasses.FrozenInstanceError
                setattr(grid, name, getattr(grid, name))
        for name in ("metric", "metric_inv", "sqrt_det"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[...] = 1.0
        assert passed.flags.writeable       # the grid marks its own view, not the caller's array
        assert np.array_equal(grid.metric, metric)
