import ast
import pathlib
import random
import warnings

import numpy as np
import pytest

import sympforge
from sympforge import dyons, exactmat as xm, forms4d, reduction3d, selftest, taming
from oracles import flux_by_quadrature, inverse, psi_by_quad

STD_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_construct_unit_magnetic_charge_profile():
    sol = dyons.dyon_construct(STD_J, [0, 1], [0, 0])
    for r in [0.25, 1.0, 4.0]:
        assert np.allclose(sol.psi(r), [1.0 / (2 * r), 0.0], atol=1e-14)


def test_construct_vacuum():
    sol = dyons.dyon_construct(STD_J, [0, 0], [0.3, -0.7])
    assert np.allclose(sol.psi(2.0), [0.3, -0.7])
    assert np.allclose(sol.V_at(np.array([1.0, 2.0, 3.0])), 0.0)


def test_construct_rejects_non_taming():
    with pytest.raises(ValueError, match="J fails the taming invariants"):
        dyons.dyon_construct(np.eye(2), [0, 1], [0, 0])


def test_construct_warns_on_non_integer_charge():
    with pytest.warns(dyons.NonIntegerVWarning):
        dyons.dyon_construct(STD_J, [0.5, 0.0], [0, 0])


def test_generic_dyon_passes_grid_residual():
    rng = np.random.default_rng(0)
    N = selftest.random_period_matrix(1, rng)
    J = taming.theta_forward(N)
    sol = dyons.dyon_construct(J, [2, -1], [0.1, 0.2])
    grid = dyons.default_far_grid(nodes=7)
    rep = reduction3d.bogomolny_residual(grid, J, sol.sample_pair(grid))
    assert rep["eq_residual"] < 1e-6
    assert rep["closure_residual"] < 1e-6


def test_radial_taming_samples_the_closed_form():
    # a constant function J(r) = J0 takes the quadrature path, which fixes psi(1) = v'
    J0 = taming.theta_forward(selftest.random_period_matrix(1, np.random.default_rng(3)))
    v, vprime = np.array([2.0, -1.0]), np.array([0.1, 0.2])
    grid = dyons.default_far_grid(nodes=3)
    pair = dyons.dyon_construct(lambda r: J0, v, vprime).sample_pair(grid)
    r = np.linalg.norm(grid.points(), axis=-1)[..., None]
    assert pair.psi.shape == (3, 3, 3, 2)
    assert np.allclose(pair.psi, vprime + (J0 @ v) * (1 / r - 1) / 2, rtol=0, atol=1e-9)
    assert np.array_equal(pair.V, dyons.dyon_construct(J0, v, vprime).sample_pair(grid).V)


def test_verify_closed_form():
    sol = dyons.dyon_construct(STD_J, [1, 2], [0, 0])
    rep = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
    assert rep["eq_residual"] < 1e-10
    assert rep["integrability_residual"] < 1e-6


def test_verify_vacuum():
    sol = dyons.dyon_construct(STD_J, [0, 0], [0, 0])
    rep = dyons.dyon_verify(sol, [1.0])
    assert rep["eq_residual"] == 0.0


def test_verify_detects_perturbed_profile():
    sol = dyons.dyon_construct(STD_J, [0, 1], [0, 0])

    class Perturbed(dyons.DyonSolution):
        def dpsi_dr(self, r):
            base = dyons.DyonSolution.dpsi_dr(self, r)
            return base + np.array([-0.2 / r**3, 0.0])  # d/dr of 0.1 / r^2

    bad = Perturbed(v=sol.v, v_prime=sol.v_prime, J=sol.J, type_ctx=sol.type_ctx)
    rep = dyons.dyon_verify(bad, [1.0])
    assert rep["eq_residual"] > 1e-3


def test_verify_rejects_nonpositive_radius():
    sol = dyons.dyon_construct(STD_J, [0, 1], [0, 0])
    with pytest.raises(ValueError, match="radii must be positive"):
        dyons.dyon_verify(sol, [1.0, -1.0])


def test_radial_taming_profile_matches_constant_case():
    sol_const = dyons.dyon_construct(STD_J, [0, 1], [0.5, 0.0])
    sol_callable = dyons.dyon_construct(lambda r: STD_J, [0, 1], [0.5, 0.0])
    # the quadrature profile is anchored at psi(1) = v', so compare shifts
    for r in [0.5, 2.0]:
        shift = sol_const.psi(r) - sol_const.psi(1.0)
        assert np.allclose(sol_callable.psi(r) - sol_callable.psi(1.0),
                           shift, atol=1e-9)


def test_radial_taming_profile_matches_closed_form_integral():
    # N(r) = i r gives J(r) = [[0, 1/r], [-r, 0]], so
    # psi(r) = v' - int_1^r J(s) v / (2 s^2) ds
    #        = v' - (v_2 (1 - 1/r^2) / 4, -v_1 ln(r) / 2)
    J = lambda r: taming.theta_forward(taming.PeriodMatrix([[0.0]], [[r]]))
    v, vprime = np.array([1.0, 2.0]), np.array([0.5, -0.25])
    sol = dyons.dyon_construct(J, v, vprime)
    for r in [0.5, 2.0, 7.0]:
        want = vprime - np.array([v[1] * (1 - 1 / r**2) / 4, -v[0] * np.log(r) / 2])
        assert np.allclose(sol.psi(r), want, rtol=0, atol=1e-9)


def test_radial_taming_profile_matches_the_quad_oracle():
    """Fixed Gauss-Legendre panels in ln r against scipy's adaptive quad, for the test
    families: a constant callable, N(r) = i r and N(r) = R + i r I, 2n = 2, 4, 6."""
    rng = np.random.default_rng(37)
    for k in range(18):
        n = k % 3 + 1
        N = selftest.random_period_matrix(n, rng)
        J0 = taming.theta_forward(N)
        J = ((lambda s: J0),
             (lambda s: taming.theta_forward(taming.PeriodMatrix(np.zeros((n, n)), s * np.eye(n)))),
             (lambda s: taming.theta_forward(taming.PeriodMatrix(N.R, s * N.I))))[k // 3 % 3]
        sol = dyons.dyon_construct(J, rng.integers(-3, 4, 2 * n), rng.standard_normal(2 * n))
        r = np.concatenate([[0.05, 1.0, 50.0], np.exp(rng.uniform(np.log(0.05), np.log(50), 6))])
        assert np.max(np.abs(sol.psi(r) - psi_by_quad(sol, r))) <= 1e-10
        assert np.array_equal(sol.psi(1.0), sol.v_prime)


def test_radial_taming_is_evaluated_once_per_quadrature_node():
    """16 nodes for each radius's partial panel and for each whole panel between
    t = 0 and the farthest ln r on either side; a 17^3 grid takes one pass."""
    J0 = taming.theta_forward(selftest.random_period_matrix(1, np.random.default_rng(3)))
    calls = []
    sol = dyons.dyon_construct(lambda s: calls.append(s) or J0, [2.0, -1.0], [0.1, 0.2])
    calls.clear()
    grid = reduction3d.Grid3(shape=(17,) * 3, spacing=(0.1,) * 3, origin=(0.3,) * 3)
    pair = sol.sample_pair(grid)
    r = np.linalg.norm(grid.points(), axis=-1)
    whole = np.abs(np.trunc(2 * np.log(r))).max()
    assert len(calls) == 16 * (r.size + 2 * whole)
    assert np.allclose(pair.psi, [0.1, 0.2] + (J0 @ [2.0, -1.0]) * (1 / r[..., None] - 1) / 2,
                       rtol=0, atol=1e-12)


def test_radial_taming_profile_refuses_non_finite_radii():
    sol = dyons.dyon_construct(lambda s: STD_J, [0, 1], [0, 0])
    for r in (np.inf, np.nan, [1.0, np.inf]):
        with pytest.raises(ValueError, match="radius must be finite"):
            sol.psi(r)


def test_flux_unit_magnetic_charge():
    sol = dyons.dyon_construct(STD_J, [0, 1], [0, 0])
    rep = dyons.flux_quantization(sol)
    assert np.max(np.abs(rep.flux - np.array([0.0, -2 * np.pi]))) < 1e-8
    assert np.max(np.abs(rep.normalized - np.array([0.0, -1.0]))) < 1e-8
    assert rep.lattice_member
    assert rep.realized_sign == -1


def test_flux_vacuum():
    sol = dyons.dyon_construct(STD_J, [0, 0], [0, 0])
    rep = dyons.flux_quantization(sol)
    assert np.max(np.abs(rep.flux)) < 1e-12
    assert rep.lattice_member


def test_flux_non_integer_charge_fails_membership():
    with pytest.warns(dyons.NonIntegerVWarning):
        sol = dyons.dyon_construct(STD_J, [0.5, 0.0], [0, 0])
    rep = dyons.flux_quantization(sol)
    assert not rep.lattice_member



def test_flux_membership_is_the_charge_lattice_of_the_type():
    """flux / 2 pi = -v is a member iff v lies in Gamma_t Z^{2n}, Gamma_t = diag(I, D_t),
    decided over the Fractions of Gamma_t^-1 v."""
    rng, draws, seen = np.random.default_rng(37), random.Random(37), set()
    for k in range(60):
        n = k % 3 + 1
        t = selftest.random_chain(draws, n)
        v = [draws.randint(-8, 8) for _ in range(2 * n)]
        gamma = [[((1,) * n + t)[i] * (i == j) for j in range(2 * n)] for i in range(2 * n)]
        member = all(x.denominator == 1 for x in xm.matvec(inverse(gamma), v))
        J = taming.theta_forward(selftest.random_period_matrix(n, rng))
        rep = dyons.flux_quantization(dyons.dyon_construct(J, v, np.zeros(2 * n), type_ctx=t))
        assert rep.lattice_member == member, (t, v)
        seen.add(member)
    assert seen == {True, False}


def test_flux_matches_analytic_for_random_charges():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        J = taming.theta_forward(selftest.random_period_matrix(n, rng))
        v = rng.integers(-3, 4, size=2 * n).astype(float)
        sol = dyons.dyon_construct(J, v, np.zeros(2 * n))
        rep = dyons.flux_quantization(sol)
        assert np.max(np.abs(rep.flux + 2 * np.pi * v)) < 1e-8


def test_flux_is_the_quadrature_of_the_curvature():
    """c times the once-integrated solid-angle form against the quadrature of the
    whole curvature, for constant and radial tamings, integer and non-integer v."""
    rng = np.random.default_rng(29)
    for k in range(48):
        n = k % 3 + 1
        N = selftest.random_period_matrix(n, rng)
        J = taming.theta_forward(N) if k % 2 else \
            (lambda r, N=N: taming.theta_forward(taming.PeriodMatrix(N.R, r * N.I)))
        v = rng.integers(-3, 4, size=2 * n) + rng.uniform(-0.5, 0.5, 2 * n) * (k % 4 > 1)
        v[k % (2 * n)] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dyons.NonIntegerVWarning)
            sol = dyons.dyon_construct(J, v, rng.standard_normal(2 * n))
        flux = dyons.flux_quantization(sol).flux
        gap = np.max(np.abs(flux - flux_by_quadrature(sol)))
        assert gap <= 1e-12 * max(1.0, np.max(np.abs(v)))
        assert not np.signbit(flux[k % (2 * n)])   # a zero charge prints 0.0, not -0.0


def test_psi_and_dpsi_dr_on_arrays_stack_the_per_radius_calls():
    rng = np.random.default_rng(31)
    N = selftest.random_period_matrix(2, rng)
    v, vprime = np.array([2.0, -1.0, 0.0, 3.0]), rng.standard_normal(4)
    r = rng.uniform(0.2, 5.0, (2, 3))
    const = dyons.dyon_construct(taming.theta_forward(N), v, vprime)
    radial = dyons.dyon_construct(
        lambda s: taming.theta_forward(taming.PeriodMatrix(N.R, s * N.I)), v, vprime)
    for sol, fields in ((const, ("psi", "dpsi_dr")), (radial, ("psi",))):
        for name in fields:
            f = getattr(sol, name)
            got, each = f(r), np.stack([f(float(x)) for x in r.ravel()])
            assert got.shape == (2, 3, 4)
            assert np.array_equal(got, each.reshape(got.shape))


def test_psi_of_no_radii_has_no_rows_for_either_kind_of_J():
    J0 = taming.theta_forward(selftest.random_period_matrix(2, np.random.default_rng(5)))
    for J in (J0, lambda s: J0):
        sol = dyons.dyon_construct(J, [1.0, 0.0, -2.0, 1.0], [0.5, 0.0, 0.0, 0.25])
        assert sol.psi(np.array([])).shape == (0, 4)
        assert sol.psi(np.ones((2, 0))).shape == (2, 0, 4)


def test_electrodynamics_potentials_are_the_solutions_psi():
    out = dyons.electrodynamics_dyon(0.7, 3.0, 1, -2)
    r = np.linalg.norm(out["grid"].points(), axis=-1)
    psi = out["solution"].psi(r)
    assert np.array_equal(out["Phi"], -psi[..., 0])
    assert np.array_equal(out["Upsilon"], psi[..., 1])


def test_electrodynamics_monopole_potentials():
    out = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    grid = out["grid"]
    r = np.linalg.norm(grid.points(), axis=-1)
    assert np.max(np.abs(out["Phi"] + 1.0 / (2 * r))) < 1e-12
    rhat = grid.points() / r[..., None]
    assert np.max(np.abs(out["E_vec"] + rhat / (2 * r[..., None] ** 2))) < 1e-12
    assert all(v < 1e-6 for v in out["maxwell"].values()), out["maxwell"]
    assert out["potential_gap"] < 1e-6


def test_electrodynamics_neutral_dyon_is_trivial():
    out = dyons.electrodynamics_dyon(0.3, 2.0, 0, 0)
    assert np.max(np.abs(out["Phi"])) == 0.0
    assert np.max(np.abs(out["E_vec"])) == 0.0
    assert np.max(np.abs(out["B_vec"])) == 0.0


def test_electrodynamics_witten_mixing():
    out = dyons.electrodynamics_dyon(2 * np.pi, 4 * np.pi, 1, 0)
    assert all(v < 1e-6 for v in out["maxwell"].values()), out["maxwell"]
    assert np.max(np.abs(out["Upsilon"])) > 1e-3


def test_electrodynamics_rejects_bad_coupling():
    with pytest.raises(ValueError, match=r"g\^2 must be positive"):
        dyons.electrodynamics_dyon(0.0, -1.0, 0, 1)


def test_fiber_check_accepts_constructed_dyon():
    out = dyons.electrodynamics_dyon(1.0, 5.0, 1, 2)
    ok, report = dyons.h_theta_fiber_check(
        out["grid"], out["E_vec"], out["B_vec"], out["Phi"], out["Upsilon"],
        1.0, 5.0)
    assert ok, report


def test_fiber_check_invariant_under_constant_shift():
    out = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    ok, _ = dyons.h_theta_fiber_check(
        out["grid"], out["E_vec"], out["B_vec"], out["Phi"],
        out["Upsilon"] + 3.7, 0.0, 4 * np.pi)
    assert ok


def test_fiber_check_rejects_linear_perturbation():
    out = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    X = out["grid"].points()
    ok, report = dyons.h_theta_fiber_check(
        out["grid"], out["E_vec"], out["B_vec"], out["Phi"],
        out["Upsilon"] + X[..., 0], 0.0, 4 * np.pi)
    assert not ok
    assert report["magnetoelectric_gradient"] > 0.5


def test_fiber_check_sample_mismatch():
    out = dyons.electrodynamics_dyon(0.0, 4 * np.pi, 0, 1)
    with pytest.raises(ValueError, match="fields must share the grid sample set"):
        dyons.h_theta_fiber_check(out["grid"], out["E_vec"][1:], out["B_vec"],
                                  out["Phi"], out["Upsilon"], 0.0, 4 * np.pi)


def test_sample_pair_refuses_non_finite_samples():
    """BogomolnyPair's antisymmetry check accepts inf as np.allclose does, so
    sample_pair refuses a non-finite V itself: an overflowing V (inf) and
    inf * 0 (NaN) alike."""
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.001,) * 3, origin=(0.001,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for v in ([1e308, 0.0], [np.inf, 0.0]):
            sol = dyons.dyon_construct(STD_J, v, [0, 0])
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
                sol.sample_pair(grid)


def test_sample_pair_runs_the_pair_check_once(monkeypatch):
    sol = dyons.dyon_construct(STD_J, [2, -1], [0.1, 0.2])
    grid = dyons.default_far_grid(nodes=5)
    calls = []

    def counted(x, sign, atol, check=taming.close_to_transpose):
        calls.append((x.shape, sign, atol))
        return check(x, sign, atol)

    monkeypatch.setattr(taming, "close_to_transpose", counted)
    pair = sol.sample_pair(grid)
    assert calls == [(pair.V.shape, -1, 1e-12)]


def test_no_constructor_is_bypassed_in_the_library():
    """A checked value has one way in, its constructor: no object.__new__ in src."""
    calls = []
    for path in sorted(pathlib.Path(sympforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_sampling_gives_the_whole_array_formulas_bit_for_bit():
    """The radius is np.linalg.norm's sum (x0^2 + x1^2) + x2^2 taken in whole planes, the
    profile J v / 2r + v' is formed in component planes and the solid-angle form is one eps
    product; each gives the bits (signed zeros included) of the whole-array expression."""
    rng = np.random.default_rng(32)
    J = taming.theta_forward(selftest.random_period_matrix(2, rng))
    sol = dyons.dyon_construct(J, [2.0, -1.0, 0.0, 1.0], rng.standard_normal(4))
    for shape in ((3,), (1, 3), (7, 3), (5, 6, 4, 3)):
        X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        X[..., 0] *= rng.integers(0, 2, shape[:-1])            # zero coordinates too
        for x in (X, np.asfortranarray(X), -0.0 * X):
            r = np.linalg.norm(x, axis=-1)
            assert dyons._radius(x).tobytes() == r.tobytes()
            with np.errstate(all="ignore"):
                sigma = forms4d.hodge_star(np.eye(3), x / r[..., None] ** 3, 1)
                assert dyons.solid_angle_form(x).tobytes() == sigma.tobytes()
            if np.all(r > 0):
                assert sol.psi(r).tobytes() == (J @ sol.v / (2.0 * r[..., None])
                                                + sol.v_prime).tobytes()


def test_sample_pair_is_a_valid_bogomolny_pair():
    sol = dyons.dyon_construct(STD_J, [2, -1], [0.1, 0.2])
    grid = dyons.default_far_grid(nodes=5)
    pair = sol.sample_pair(grid)
    checked = reduction3d.BogomolnyPair(pair.psi, pair.V)   # the public constructor, again
    assert isinstance(pair, reduction3d.BogomolnyPair)
    assert np.array_equal(checked.V, pair.V) and np.array_equal(checked.psi, pair.psi)
    assert np.array_equal(pair.V, np.einsum("j,...ab->...jab", sol.curvature_coeff(),
                                            dyons.solid_angle_form(grid.points())))
