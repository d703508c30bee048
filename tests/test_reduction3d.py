import numpy as np
import pytest

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
    with pytest.raises(reduction3d.NotStaticMetric):
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
    assert out["residual"] == 0.0


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
    with pytest.raises(reduction3d.GridTooSmall):
        reduction3d.Grid3(shape=(2, 5, 5), spacing=(0.1, 0.1, 0.1))


def test_rank_mismatch():
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1, 0.1, 0.1))
    psi = np.zeros(grid.shape + (2,))
    V = np.zeros(grid.shape + (2, 3, 3))
    with pytest.raises(reduction3d.RankMismatch):
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
