from itertools import permutations

import numpy as np
import pytest

from sympforge import forms4d, taming

MINK = forms4d.LorentzPoint(np.diag([-1.0, 1.0, 1.0, 1.0]))


def basis_two_form(a, b):
    F = np.zeros((1, 4, 4))
    F[0, a, b] = 1.0
    F[0, b, a] = -1.0
    return F


def test_star_minkowski_dt_dx():
    # *(dt ^ dx) = -(dy ^ dz) with eps_0123 = +1 and mostly-plus signature
    out = forms4d.hodge_star2(MINK, basis_two_form(0, 1))
    assert np.allclose(out, -basis_two_form(2, 3), atol=1e-14)


def test_star_minkowski_dy_dz():
    out = forms4d.hodge_star2(MINK, basis_two_form(2, 3))
    assert np.allclose(out, basis_two_form(0, 1), atol=1e-14)


def test_star_squares_to_minus_one():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = forms4d.random_metric(rng)
        F = forms4d.random_two_form(rng, 2)
        out = forms4d.hodge_star2(p, forms4d.hodge_star2(p, F))
        assert np.max(np.abs(out + F)) < 1e-9 * max(1.0, np.max(np.abs(F)))


def test_star_of_zero():
    assert np.allclose(forms4d.hodge_star2(MINK, np.zeros((2, 4, 4))), 0.0)


def test_rejects_riemannian_signature():
    with pytest.raises(ValueError, match=r"mostly-plus signature \(3,1\)"):
        forms4d.LorentzPoint(np.eye(4))


@pytest.mark.parametrize("metric", [np.diag([-1.0, -1.0, -1.0, 1.0]), np.diag([-1.0, -1.0, 1.0, 1.0]),
                                    np.diag([-1.0, 0.0, 1.0, 1.0])],
                         ids=["signature13-det-negative", "signature22", "singular"])
def test_rejects_metrics_that_are_not_lorentzian(metric):
    with pytest.raises(ValueError, match=r"mostly-plus signature \(3,1\)"):
        forms4d.LorentzPoint(metric)


def test_polarized_star_block_action():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    F = forms4d.random_two_form(np.random.default_rng(1), 1)
    V = np.concatenate([F, np.zeros_like(F)])
    out = forms4d.polarized_star(MINK, J, V)
    sF = forms4d.hodge_star2(MINK, F)
    assert np.allclose(out[0], 0.0)
    assert np.allclose(out[1], -sF[0], atol=1e-13)


def test_polarized_star_squares_to_plus_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = forms4d.random_metric(rng)
        J = taming.theta_forward(taming.random_period_matrix(n, rng))
        V = forms4d.random_two_form(rng, 2 * n)
        out = forms4d.polarized_star(p, J, forms4d.polarized_star(p, J, V))
        assert np.max(np.abs(out - V)) < 1e-8 * max(1.0, np.max(np.abs(V)))


def test_polarized_star_of_zero():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(forms4d.polarized_star(MINK, J, np.zeros((2, 4, 4))), 0.0)


def test_polarized_star_rank_mismatch():
    J = np.eye(4)
    with pytest.raises(ValueError, match="J is 4-dim but form has rank 2"):
        forms4d.polarized_star(MINK, J, np.zeros((2, 4, 4)))


def test_selfdual_project_reassembles_and_splits():
    rng = np.random.default_rng(3)
    p = forms4d.random_metric(rng)
    J = taming.theta_forward(taming.random_period_matrix(1, rng))
    V = forms4d.random_two_form(rng, 2)
    plus, minus = forms4d.selfdual_project(p, J, V)
    assert np.max(np.abs(plus + minus - V)) < 1e-10
    assert np.max(np.abs(forms4d.polarized_star(p, J, plus) - plus)) < 1e-8
    assert np.max(np.abs(forms4d.polarized_star(p, J, minus) + minus)) < 1e-8


def test_selfdual_project_on_eigenvectors():
    rng = np.random.default_rng(4)
    p = forms4d.random_metric(rng)
    J = taming.theta_forward(taming.random_period_matrix(1, rng))
    V = forms4d.random_two_form(rng, 2)
    sd, asd = forms4d.selfdual_project(p, J, V)
    again_plus, again_minus = forms4d.selfdual_project(p, J, sd)
    assert np.max(np.abs(again_plus - sd)) < 1e-8
    assert np.max(np.abs(again_minus)) < 1e-8
    again_plus, again_minus = forms4d.selfdual_project(p, J, asd)
    assert np.max(np.abs(again_minus - asd)) < 1e-8
    assert np.max(np.abs(again_plus)) < 1e-8


def test_g_map_unit_period_is_minus_star():
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    F = forms4d.random_two_form(np.random.default_rng(5), 1)
    out = forms4d.g_map(MINK, N, F)
    assert np.allclose(out, -forms4d.hodge_star2(MINK, F), atol=1e-13)


def test_g_map_of_zero():
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    assert np.allclose(forms4d.g_map(MINK, N, np.zeros((1, 4, 4))), 0.0)


def test_selfdual_check_accepts_partnered_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = forms4d.random_metric(rng)
        N = taming.random_period_matrix(n, rng)
        F = forms4d.random_two_form(rng, n)
        V = np.concatenate([F, forms4d.g_map(p, N, F)])
        ok, F_out, report = forms4d.check_polarized_selfdual(p, N, V)
        assert ok, report
        assert np.max(np.abs(F_out - F)) < 1e-12


def test_selfdual_check_rejects_missing_partner():
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    F = basis_two_form(0, 1)
    V = np.concatenate([F, np.zeros_like(F)])
    ok, _, _ = forms4d.check_polarized_selfdual(MINK, N, V)
    assert not ok


def test_selfdual_check_zero_form():
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    ok, F, _ = forms4d.check_polarized_selfdual(MINK, N, np.zeros((2, 4, 4)))
    assert ok
    assert np.allclose(F, 0.0)


def test_selfdual_check_refuses_a_lower_half_off_g_map():
    # the star takes e01 to 1e-4 e23, so *V = -J V holds to 5e-10 while the lower
    # half, I = 1000 times the upper rows' residual, misses g_map(p, N, F) by 5e-7
    p = forms4d.LorentzPoint(np.diag([-1.0, 1.0, 1e-4, 1e-4]))
    N = taming.PeriodMatrix([[0.0]], [[1000.0]])
    V = np.concatenate([np.zeros((1, 4, 4)), 5e-7 * basis_two_form(0, 1)])
    ok, _, report = forms4d.check_polarized_selfdual(p, N, V)
    assert ok is False
    assert report["residual"] < 1e-9
    assert report["lower_gap"] == pytest.approx(5e-7)


def test_duality_act_identity():
    V = forms4d.random_two_form(np.random.default_rng(7), 2)
    assert np.allclose(forms4d.duality_act(np.eye(2), V), V)


def test_duality_act_rejects_non_symplectic():
    V = np.zeros((2, 4, 4))
    with pytest.raises(ValueError, match="duality transformations must be symplectic"):
        forms4d.duality_act(2 * np.eye(2), V)


def test_duality_act_transports_selfduality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = forms4d.random_metric(rng)
        N = taming.random_period_matrix(n, rng)
        J = taming.theta_forward(N)
        F = forms4d.random_two_form(rng, n)
        V = np.concatenate([F, forms4d.g_map(p, N, F)])
        g = taming.random_symplectic(n, rng)
        V2 = forms4d.duality_act(g, V)
        J2 = taming.taming_conjugate(J, g)
        resid = forms4d.hodge_star2(p, V2) + np.einsum("jk,kab->jab", J2, V2)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(V2)))


def test_local_and_global_conditions_agree():
    rng = np.random.default_rng(9)
    p = forms4d.random_metric(rng)
    N = taming.random_period_matrix(2, rng)
    F = forms4d.random_two_form(rng, 2)
    V = np.concatenate([F, forms4d.g_map(p, N, F)])
    ok, _, report = forms4d.check_polarized_selfdual(p, N, V)
    assert ok
    scale = max(1.0, np.max(np.abs(V)))
    assert report["global_residual"] < 1e-8 * scale


# ---------------------------------------------------------------------------
# the batched kernel against explicit epsilon-tensor formulas

def _parity(p):
    p, sign = list(p), 1
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


EPS4 = np.zeros((4, 4, 4, 4))
for _p in permutations(range(4)):
    EPS4[_p] = _parity(_p)
EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1


def oracle_star(h, w, degree):
    """Explicit contractions: (*E)_ab = vol eps_abc h^cd E_d, (*B)_a =
    (1/2) vol eps_abc h^bd h^ce B_de, (*A)_bcd = vol g^ae A_e eps_abcd (the raised
    index on the first slot of eps, as in the kernel's docstring: eps_dabc = -eps_abcd),
    (*F)_ab = (1/2) vol eps_abcd g^ce g^df F_ef, with h one metric or one per point
    broadcast over a component axis."""
    hinv = np.linalg.inv(h)
    vol = np.sqrt(abs(np.linalg.det(h)))
    if h.shape[-1] == 4 and degree == 1:
        return np.einsum("...,abcd,...ae,...ke->...kbcd", vol, EPS4, hinv, w)
    if h.shape[-1] == 4:
        return 0.5 * np.einsum("...,abcd,...ce,...df,...kef->...kab", vol, EPS4, hinv, hinv, w)
    hinv, vol = hinv[..., None, :, :], vol[..., None]
    if degree == 1:
        return np.einsum("...,abc,...cd,...d->...ab", vol, EPS3, hinv, w)
    return 0.5 * np.einsum("...,abc,...bd,...ce,...de->...a", vol, EPS3, hinv, hinv, w)


def random_metrics(rng, d, count, indefinite=False):
    """Metrics of signature (3, 1) in 4d; in 3d positive definite, or of
    signature (2, 1) (det g < 0) and condition at most 20 when indefinite."""
    if d == 4:
        return np.stack([forms4d.random_metric(rng).metric for _ in range(count)])
    if indefinite:
        B = [b for b in (np.eye(3) + 0.3 * rng.standard_normal((3, 3)) for _ in range(10 * count))
             if np.linalg.cond(b) ** 2 <= 20][:count]
        return np.swapaxes(B, -1, -2) @ np.diag([1.0, 1.0, -1.0]) @ B
    A = rng.standard_normal((count, 3, 3)) * 0.5
    return np.eye(3) + A @ np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("d,degree,indefinite", [
    pytest.param(3, 1, False, id="3-1"), pytest.param(3, 2, False, id="3-2"),
    pytest.param(4, 1, False, id="4-1"), pytest.param(4, 2, False, id="4-2"),
    pytest.param(3, 1, True, id="3-1-signature21"), pytest.param(3, 2, True, id="3-2-signature21")])
@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("per_point", [False, True])
def test_hodge_star_kernel_matches_epsilon_formulas(d, degree, indefinite, orientation, per_point):
    rng = np.random.default_rng(10 * d + degree)
    points, k = 6, 3
    g = random_metrics(rng, d, points, indefinite)
    if indefinite:
        assert np.all(np.linalg.det(g) < 0)
    w = rng.standard_normal((points, k) + (d,) * degree)
    if degree == 2:
        w = w - np.swapaxes(w, -1, -2)
    if not per_point:
        g = g[0]
    expect = orientation * oracle_star(g if per_point else np.broadcast_to(g, (points, d, d)),
                                       w, degree)
    out = forms4d.hodge_star(g, w, degree, orientation)
    assert out.shape == expect.shape
    assert np.max(np.abs(out - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


@pytest.mark.parametrize("d,degree", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_star_kernel_returns_c_contiguous_arrays(d, degree):
    """Callers sum over the kernel's output with einsum, whose order of
    summation follows the memory layout (flux_quantization, say)."""
    rng = np.random.default_rng(d + degree)
    g = random_metrics(rng, d, 20)
    for metric, form in ((g[0], rng.standard_normal((4, 5, 2) + (d,) * degree)),
                         (g.reshape(4, 5, d, d), rng.standard_normal((4, 5, 2) + (d,) * degree)),
                         (g[0], rng.standard_normal((d,) * degree))):
        out = forms4d.hodge_star(metric, form, degree)
        assert out.flags.c_contiguous
        assert out.shape == form.shape[:form.ndim - degree] + (d,) * (d - degree)
