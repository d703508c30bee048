import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from sympforge import dyons, forms4d, reduction3d, selftest, taming

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
        w = selftest.random_two_form(rng, int(rng.integers(1, 4)))
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
        w = selftest.random_two_form(rng, int(rng.integers(1, 4)))
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
    J = taming.theta_forward(selftest.random_period_matrix(2, rng))
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
    J = taming.theta_forward(selftest.random_period_matrix(2, rng))
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


# a non-finite entry (a symmetric pair off the diagonal), in a constant metric or at node (1, 0, 2)
NON_FINITE = {f"{kind}_{name}_{place}": (value, entry, kind == "const")
              for kind in ("node", "const")
              for name, value in (("inf", np.inf), ("minus_inf", -np.inf), ("nan", np.nan))
              for place, entry in (("diagonal", (1, 1)), ("off_diagonal", (0, 2)))}


@pytest.mark.parametrize("fault,where", [("negative", " at node (2, 1, 0)"),
                                         ("zero", " at node (0, 2, 1)"),
                                         ("not_symmetric", ""), ("nan", " at node (1, 1, 1)")]
                         + [(name, "" if const else " at node (1, 0, 2)")
                            for name, (_, _, const) in NON_FINITE.items()],
                         ids=["negative", "zero", "not_symmetric", "nan"] + list(NON_FINITE))
def test_grid_rejects_metric_at_any_node(fault, where):
    """Refused with the first failing node and no warning before the ValueError
    (inf * 0 and inf - inf in the factorization are not reported)."""
    metric = np.broadcast_to(np.eye(3), (3, 3, 3, 3, 3)).copy()
    if fault in NON_FINITE:
        value, (a, b), const = NON_FINITE[fault]
        if const:
            metric = np.eye(3)
        node = metric if const else metric[1, 0, 2]
        node[a, b] = node[b, a] = value
    elif fault == "negative":
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


def test_zero_residuals_read_positive_zero():
    """A zero residual is +0.0, never -0.0 (the CLI prints it), for a zero pair and
    for fields of -0.0 alike: the interior maxima reduce as max(max x, -min x)."""
    for metric in (None, np.diag([1.0, 2.0, 0.5])):
        grid = reduction3d.Grid3(shape=(5, 5, 5), spacing=(0.1,) * 3, metric=metric)
        for zero in (0.0, -0.0):
            psi, V = np.full(grid.shape + (2,), zero), np.full(grid.shape + (2, 3, 3), zero)
            E, B, Phi = np.full(grid.shape + (3,), zero), V[..., 0, :, :], psi[..., 0]
            bog = reduction3d.bogomolny_residual(grid, STD_J, (psi, V))
            values = [bog["eq_residual"], bog["closure_residual"],
                      reduction3d.lift_to_4d((psi, V), grid, STD_J)["residual"],
                      *reduction3d.em_static_residual(grid, [[0.0]], [[1.0]], E, B,
                                                      Phi, Phi).values()]
            assert len(values) == 7
            assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in values), values


def test_lift_allocates_little_beyond_its_result():
    """lift_to_4d works in slabs of grid planes: on a 17^3 per-node grid with 2n = 4 its
    traced peak, less the residual field it returns, stays within 1.25 V.nbytes (whole-grid
    temporaries read 2.0 V.nbytes)."""
    rng = np.random.default_rng(22)
    shape = (17, 17, 17)
    grid = reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=metric_field(rng, shape))
    J = taming.theta_forward(selftest.random_period_matrix(2, rng))
    A = rng.standard_normal(shape + (4, 3, 3))
    pair = reduction3d.BogomolnyPair(rng.standard_normal(shape + (4,)),
                                     A - np.swapaxes(A, -1, -2))
    reduction3d.lift_to_4d(pair, grid, J)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = reduction3d.lift_to_4d(pair, grid, J)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out["residual_field"].nbytes <= 1.25 * pair.V.nbytes


@pytest.mark.parametrize("slab", [1, 40, 10 ** 9], ids=["plane", "planes", "grid"])
def test_lift_is_the_same_in_any_slabs(slab, monkeypatch):
    """The lift's field and interior maximum do not depend on the slab size: one plane
    per slab (the first and last slabs hold no interior node) up to the whole grid."""
    rng = np.random.default_rng(23)
    shape = (6, 5, 4)
    P = selftest.random_period_matrix(2, rng)
    A = rng.standard_normal(shape + (4, 3, 3))
    pair = reduction3d.BogomolnyPair(rng.standard_normal(shape + (4,)),
                                     A - np.swapaxes(A, -1, -2))
    grid = reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.15),
                             metric=metric_field(rng, shape))
    for J in (taming.theta_forward(P), taming.theta_forward(P) + 0.1 * rng.standard_normal(
            shape + (4, 4))):
        expect = reduction3d.lift_to_4d(pair, grid, J)
        with monkeypatch.context() as m:
            m.setattr(reduction3d, "SLAB", slab)
            got = reduction3d.lift_to_4d(pair, grid, J)
        assert np.array_equal(got["residual_field"], expect["residual_field"])
        assert got["residual"] == expect["residual"] == reduction3d._interior_max(
            expect["residual_field"])


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



def test_grid_factors_metrics_at_extreme_scales():
    """h = c I factors to I / c and c^(3/2) where its adjugate and det would leave the float
    range; a factor that is itself out of range is refused: sqrt det h at 1e300 I and 1e-300 I,
    and h^-1 of diag(1e10, 1e10, 1e-309) (accepted before with an inf in h^-1)."""
    shape = (3, 4, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e200, 1e-200, 4.0 ** 300, 1e-150):
            for metric in (c * np.eye(3), c * np.ones(shape + (1, 1)) * np.eye(3)):
                grid = reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=metric)
                assert np.array_equal(grid.metric_inv, metric / c / c)
                assert np.allclose(grid.sqrt_det, c ** 1.5, rtol=1e-15, atol=0.0)
        for h in (1e300 * np.eye(3), 1e-300 * np.eye(3), np.diag([1e10, 1e10, 1e-309])):
            for metric in (h, h * np.ones(shape + (1, 1))):
                with pytest.raises(ValueError, match="out of range"):
                    reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=metric)


def spd_field(rng, shape, scale):
    """I + A A^T, A of normals / 2, summed by elementwise products: no BLAS, so its bits
    are the same on any machine."""
    A = rng.standard_normal(shape + (3, 3)) * 0.5
    h = np.eye(3) * np.ones(shape + (1, 1))
    for k in range(3):
        h = h + A[..., :, None, k] * A[..., None, :, k]
    return h * scale


# sha256 of metric_inv then sqrt_det, as the unscaled factor (adjugate over det) gave them
FACTOR_DIGESTS = {
    "identity": "22477efc500771626ba5e358a14fb9a8",
    "constant 1.0": "545587951cbab5c4d565c8010702b76e",
    "per-node 1.0": "c26a91139c92d362680fcf67e67f2566",
    "constant 10000000000.0": "c49ec7d037baf582bc033f128ece0e24",
    "per-node 10000000000.0": "07caa6580a60438bd3bf5773f3e18ea4",
    "constant 1e-10": "3a979a11a361a283e7ea588f8881cf3f",
    "per-node 1e-10": "8d29a952a55bc03cff20b5878acc3b36",
    "constant 3e+90": "8ca80474ce2653b35c565f9557c71d7d",
    "per-node 3e+90": "9a1ed325bf7c63ad39df3049235127f3",
    "constant 2e-90": "3806a976ea27c2ee877c495989be709e",
    "per-node 2e-90": "6eb43331dfe3c20dd07b2c9f3482f4e3",
    "per-node near-symmetric": "fb074ff459a3cae75f605eaa451dc005",
}


def test_scaled_grid_factor_is_the_unscaled_one_bit_for_bit():
    """Scaling h by a power of four is exact, so wherever nothing over- or underflows the
    factor keeps the bits of the unscaled adjugate over det, C- or Fortran-ordered."""
    rng, shape = np.random.default_rng(41), (5, 6, 7)
    metrics = {"identity": None}
    for scale in (1.0, 1e10, 1e-10, 3e90, 2e-90):
        metrics[f"constant {scale}"] = spd_field(rng, (), scale)
        metrics[f"per-node {scale}"] = spd_field(rng, shape, scale)
        metrics[f"fortran {scale}"] = np.asfortranarray(metrics[f"per-node {scale}"])
    skew = spd_field(rng, shape, 1.0)
    skew[..., 0, 1] += 5e-11 * rng.standard_normal(shape)
    metrics["per-node near-symmetric"] = skew
    for name, metric in metrics.items():
        grid = reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.3), metric=metric)
        digest = hashlib.sha256(grid.metric_inv.tobytes() + grid.sqrt_det.tobytes()).hexdigest()
        assert digest[:32] == FACTOR_DIGESTS[name.replace("fortran", "per-node")], name


def test_grid_symmetry_tolerance_is_the_same_at_every_scale():
    """|h - h^T| <= 1e-10 + 1e-5 |h^T| decides as it does unscaled, on either side of its
    edge, whatever power of four the factor scales h by."""
    for c in (1e-9, 1e-7, 1.0, 3e5, 4.0 ** 40):
        for step in (0.5, 0.99, 1.01, 2.0):
            metric = c * np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 2.0]])
            gap = step * (1e-10 + 1e-5 * metric[1, 0])
            metric[0, 1] += gap
            symmetric = abs(metric[0, 1] - metric[1, 0]) <= 1e-10 + 1e-5 * metric[1, 0]
            try:
                reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1,) * 3, metric=metric)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == symmetric, (c, step)


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
        (forms4d.as_two_form, (5,), 4, -1, 1e-12, [selftest.random_two_form(
            np.random.default_rng(1), 2)]),
        (forms4d.LorentzPoint, (), 4, 1, 1e-10, [np.diag([-1.0, 1.0, 1.0, 1.0])]),
        (lambda R: taming.PeriodMatrix(R, np.eye(n)), (), n, 1, 1e-12, []),
        (lambda I: taming.PeriodMatrix(np.zeros((n, n)), I), (), n, 1, 1e-12, [np.eye(n)]),
        (forms4d.as_two_form, (), 4, -1, 1e-12, [selftest.random_two_form(   # one 4 x 4 matrix
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


@pytest.mark.parametrize("sign", [-1, 1])
def test_transpose_predicate_on_large_arrays_keeps_allclose_acceptance(sign):
    """From 4096 entries up, on matrices of at most 4 x 4, close_to_transpose forms
    x - sign x^T by one BLAS product with a 0/1 matrix (each entry one exact sum where x is
    finite); the acceptance set is still np.allclose's, across the atol edge and with
    non-finite entries."""
    rng = np.random.default_rng(24 + sign)
    answers = set()
    for shape, n in (((30, 20), 3), ((16, 20), 4)):
        for atol in (1e-12, 1e-10):
            for V in transpose_edge_cases(rng, shape, n, sign, atol)[:-1]:
                assert V.size >= 4096
                with np.errstate(all="ignore"):
                    expect = bool(np.allclose(V, sign * np.swapaxes(V, -1, -2), atol=atol))
                    assert taming.close_to_transpose(V, sign, atol) == expect, (shape, atol)
                answers.add(expect)
    assert answers == {True, False}


def test_euclidean_eq_field_is_the_oracles_bit_for_bit():
    """On the identity metric every product in the star and the contraction
    is exact, so bogomolny_residual gives the LAPACK oracle's eq_field."""
    rng = np.random.default_rng(16)
    for two_n in (2, 4):
        shape = (5, 6, 4)
        J = taming.theta_forward(selftest.random_period_matrix(two_n // 2, rng))
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
    # a transposed and a sliced x, J as a broadcast view, and one component
    # (the 1 x 1 R and I that electrodynamics_dyon passes at n = 1); einsum
    # itself sums a transposed x of 2n = 4 in another order, so the oracle
    # reads C-contiguous copies: the contraction's order does not follow the layout
    cases = [(J, np.swapaxes(rng.standard_normal(shape + (width, two_n)), -1, -2)),
             (J, rng.standard_normal(shape + (two_n, width + 2))[..., 1:-1]),
             (np.broadcast_to(rng.standard_normal((two_n, two_n)), shape + (two_n, two_n)), x),
             (rng.standard_normal((shape if per_node else ()) + (1, 1)),
              rng.standard_normal(shape + (1, width)))]
    for Jc, xc in cases:
        kept = xc.copy()
        got = reduction3d._contract(Jc, xc)
        assert np.array_equal(got, np.einsum("...jk,...ka->...ja", np.ascontiguousarray(Jc),
                                             np.ascontiguousarray(xc)))
        got[...] = np.nan               # the result is new memory, not a view of x
        assert np.array_equal(xc, kept)
    with pytest.raises(ValueError, match="taming size does not match field rank"):
        reduction3d._contract(np.eye(two_n + 2), x)


@pytest.mark.parametrize("n", [1, 2])
def test_grid_consumers_contract_as_einsum_bit_for_bit(n, monkeypatch):
    """eq_field, residual_field and every em_static_residual value are what
    np.einsum's contraction gives, bit for bit, on Euclidean, constant and
    per-node grids, for a constant and a per-node J (and R, I)."""
    rng = np.random.default_rng(19 + n)
    shape = (5, 6, 4)
    P = selftest.random_period_matrix(n, rng)        # R and I not diagonal at n = 2
    J = taming.theta_forward(P)
    A = rng.standard_normal(shape + (2 * n, 3, 3))
    pair = reduction3d.BogomolnyPair(rng.standard_normal(shape + (2 * n,)),
                                     A - np.swapaxes(A, -1, -2))
    comp = (n,) if n > 1 else ()                  # at n = 1 the fields carry no component axis
    E, B = rng.standard_normal(shape + comp + (3,)), pair.V[..., :n, :, :].reshape(
        shape + comp + (3, 3))
    Phi, Ups = rng.standard_normal(shape + comp), rng.standard_normal(shape + comp)
    tamings = [(J, P.R, P.I)] + [tuple(t + 0.1 * rng.standard_normal(shape + t.shape)
                                       for t in (J, P.R, P.I))]
    h = metric_field(rng, shape)

    def fields():
        out = []
        for metric in (np.eye(3), h[1, 2, 3], h):
            grid = reduction3d.Grid3(shape=shape, spacing=(0.1, 0.2, 0.15), metric=metric)
            for Jn, R, I in tamings:
                out += [reduction3d.bogomolny_residual(grid, Jn, pair)["eq_field"],
                        reduction3d.lift_to_4d(pair, grid, Jn)["residual_field"],
                        *reduction3d.em_static_residual(grid, R, I, E, B, Phi, Ups).values()]
        return out

    got = fields()
    monkeypatch.setattr(reduction3d, "_contract",
                        lambda J, x: np.einsum("...jk,...ka->...ja", J, x))
    expect = fields()
    assert len(got) == len(expect) == 36
    for a, b in zip(got, expect):
        assert np.array_equal(a, b)


def test_grid_consumers_refuse_fields_off_the_grid():
    """Fields, or a per-node J, R or I, whose node axes are not grid.shape are
    refused before any work (a 7x6x5 pair on a 5^3 grid gave eq_residual 20.9)."""
    rng = np.random.default_rng(21)
    shape, off = (5, 5, 5), (7, 6, 5)
    A = rng.standard_normal(off + (2, 3, 3))
    bad = reduction3d.BogomolnyPair(rng.standard_normal(off + (2,)), A - np.swapaxes(A, -1, -2))
    good = reduction3d.BogomolnyPair(np.zeros(shape + (2,)), np.zeros(shape + (2, 3, 3)))
    J_off = np.broadcast_to(STD_J, off + (2, 2))
    z, z3, z33 = np.zeros(shape), np.zeros(shape + (3,)), np.zeros(shape + (3, 3))
    for metric in (np.diag([1.0, 2.0, 3.0]), metric_field(rng, shape)):
        grid = reduction3d.Grid3(shape=shape, spacing=(0.1,) * 3, metric=metric)
        calls = [lambda: reduction3d.bogomolny_residual(grid, STD_J, bad),
                 lambda: reduction3d.lift_to_4d(bad, grid, STD_J),
                 lambda: reduction3d.bogomolny_residual(grid, J_off, good),
                 lambda: reduction3d.lift_to_4d(good, grid, J_off),
                 lambda: reduction3d.em_static_residual(grid, [[0.0]], [[1.0]],
                                                        np.zeros(off + (3,)), z33, z, z),
                 lambda: reduction3d.em_static_residual(grid, [[0.0]], [[1.0]],
                                                        z3, z33, z, np.zeros(off)),
                 lambda: reduction3d.em_static_residual(grid, np.zeros(off + (1, 1)), [[1.0]],
                                                        z3, z33, z, z)]
        for call in calls:
            with pytest.raises(ValueError, match="^fields must share the grid sample set$"):
                call()
        assert reduction3d.em_static_residual(grid, [[0.0]], [[1.0]], z3, z33, z, z)


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
