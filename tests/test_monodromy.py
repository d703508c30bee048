import random
from fractions import Fraction

import pytest

from sympforge import exactmat as xm
from sympforge import monodromy, selftest, siegel
from oracles import inverse, to_fraction


def make_rep(matrices, t=(1,)):
    return monodromy.Representation.make(matrices, t)


def test_free_group_any_members_valid():
    pres = monodromy.Presentation.make(2, [])
    rep = make_rep([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert monodromy.validate_representation(pres, rep)


def test_abelian_relator_commuting_images():
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    rep = make_rep([[[1, 1], [0, 1]], [[1, 2], [0, 1]]])
    assert monodromy.validate_representation(pres, rep)


def test_abelian_relator_noncommuting_images():
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    rep = make_rep([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert not monodromy.validate_representation(pres, rep)


def test_non_member_image_rejected_at_construction():
    with pytest.raises(ValueError, match="does not preserve the type-t Gram matrix"):
        make_rep([[[2, 0], [0, 1]]])


def test_validate_shape_mismatch():
    pres = monodromy.Presentation.make(2, [])
    rep = make_rep([[[1, 1], [0, 1]]])
    with pytest.raises(ValueError, match="generator count does not match image count"):
        monodromy.validate_representation(pres, rep)


def test_presentation_rejects_out_of_range_relator():
    with pytest.raises(ValueError):
        monodromy.Presentation.make(1, [(1, 2)])


@pytest.mark.parametrize("n, relators, message", [
    (2.9, [], "generator count must be an integer"),
    (2, [(1.7, -2.2)], "relator letters must be integers"),
    ("2", [], "generator count must be an integer"),
], ids=["float_count", "float_letters", "string_count"])
def test_presentation_refuses_non_integral_entries(n, relators, message):
    # make truncated 2.9 to 2 and (1.7, -2.2) to (1, -2)
    with pytest.raises(ValueError, match=message):
        monodromy.Presentation.make(n, relators)


def test_presentation_accepts_integral_values_of_any_number_type():
    assert monodromy.Presentation.make(2.0, [(Fraction(1), -2.0)]) == \
        monodromy.Presentation(2, ((1, -2),))


def test_holonomy_triviality():
    trivial = make_rep([xm.identity(2), xm.identity(2)])
    assert monodromy.is_holonomy_trivial(trivial)
    nontrivial = make_rep([xm.identity(2), [[1, 1], [0, 1]]])
    assert not monodromy.is_holonomy_trivial(nontrivial)
    gamma = siegel.SiegelElement.make([[1, 0], [1, 1]], (1,))
    assert monodromy.is_holonomy_trivial(trivial.conjugated(gamma))


def test_dirac_integer_images_standard_lattice():
    ok, t = monodromy.verify_dirac_system(
        [[[1, 1], [0, 1]], [[0, 1], [-1, 0]]], xm.identity(2))
    assert ok
    assert t == (1,)


def test_dirac_planted_half_shear():
    ok, t = monodromy.verify_dirac_system(
        [[[1, Fraction(1, 2)], [0, 1]]], [[1, 0], [0, 2]])
    assert ok
    assert t == (2,)


def test_dirac_fails_without_invariant_lattice():
    ok, t = monodromy.verify_dirac_system(
        [[[1, Fraction(1, 2)], [0, 1]]], xm.identity(2))
    assert not ok
    assert t is None


def test_dirac_type_invariant_under_unimodular_basis_change():
    images = [[[1, Fraction(1, 2)], [0, 1]]]
    for V in ([[1, 1], [0, 1]], [[1, 0], [3, 1]], [[2, 1], [1, 1]]):
        basis = xm.matmul([[1, 0], [0, 2]], V)
        ok, t = monodromy.verify_dirac_system(images, basis)
        assert ok and t == (2,)


def test_dirac_planted_type_in_dimension_four():
    rng = random.Random(8)
    t = (1, 2)
    gamma_t = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    images = [xm.matmul(gamma_t, xm.matmul(selftest.random_member(t, rng, word_length=6).rows(),
                                           inverse(gamma_t))) for _ in range(3)]
    V = [[1, 2, 0, 1], [0, 1, 0, 0], [0, 3, 1, 0], [0, 0, 0, 1]]
    assert abs(xm.det(V)) == 1
    for basis in (gamma_t, xm.matmul(gamma_t, V)):
        assert monodromy.verify_dirac_system(images, basis) == (True, t)
    assert not all(xm.to_int(T) is not None for T in images)
    assert monodromy.verify_dirac_system(images, xm.identity(4)) == (False, None)


@pytest.mark.parametrize("image, basis", [
    ([[1, Fraction(1, 2)], [Fraction(1, 3), 1]], [[1, 0], [0, 2]]),
    ([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], xm.identity(4)),
], ids=["2x2", "4x4"])
def test_dirac_rejects_rational_non_symplectic_image(image, basis):
    with pytest.raises(ValueError, match="image is not symplectic for the standard form"):
        monodromy.verify_dirac_system([xm.identity(len(basis)), image], basis)


def test_dirac_rejects_degenerate_lattice():
    with pytest.raises(ValueError, match="lattice basis is singular"):
        monodromy.verify_dirac_system([xm.identity(2)], [[1, 1], [1, 1]])


def test_conjugacy_identity_case():
    rep = make_rep([[[1, 1], [0, 1]]])
    gamma, cert = monodromy.conjugacy_test_bounded(rep, rep, 1)
    assert gamma is not None
    assert cert == "found"


def test_conjugacy_plant_and_recover():
    rng = random.Random(0)
    t = (1,)
    for _ in range(5):
        rep = monodromy.Representation(
            (selftest.random_member(t, rng, word_length=3),
             selftest.random_member(t, rng, word_length=3)), t)
        while True:
            g0 = selftest.random_member(t, rng, word_length=2)
            if max(abs(x) for row in g0.matrix for x in row) <= 2:
                break
        rep2 = rep.conjugated(g0)
        gamma, cert = monodromy.conjugacy_test_bounded(rep, rep2, 2)
        assert cert == "found"
        ginv = inverse(gamma)
        for a, b in zip(rep.images, rep2.images):
            conj = xm.matmul(gamma, xm.matmul(a.rows(), ginv))
            assert xm.mat_equal(to_fraction(conj), to_fraction(b.rows()))


def test_conjugacy_trace_mismatch_shortcut():
    rep1 = make_rep([[[1, 1], [0, 1]]])         # trace 2
    rep2 = make_rep([[[0, 1], [-1, 0]]])        # trace 0
    gamma, cert = monodromy.conjugacy_test_bounded(rep1, rep2, 2)
    assert gamma is None
    assert cert == "trace mismatch"


def test_conjugacy_budget_guard():
    # not conjugate in SL(2, Z): all 101 choices of the first coefficient are tried
    rep1, rep2 = make_rep([[[1, 1], [0, 1]]]), make_rep([[[1, -1], [0, 1]]])
    with pytest.raises(monodromy.BoundTooLargeForBudget):
        monodromy.conjugacy_test_bounded(rep1, rep2, 50, budget=100)


@pytest.mark.parametrize("budget", [None, 1.5, "7"])
def test_conjugacy_budget_is_read_as_an_integer(budget):
    # the budget goes through exactmat's integrality rule, like the entry bound:
    # 2.0 reads as 2, and anything that is not an integer is refused up front
    rep1, rep2 = make_rep([[[1, 1], [0, 1]]]), make_rep([[[1, -1], [0, 1]]])
    with pytest.raises(monodromy.BoundTooLargeForBudget):
        monodromy.conjugacy_test_bounded(rep1, rep2, 1, budget=2.0)
    assert monodromy.conjugacy_test_bounded(rep1, rep2, 1, budget=3.0) == \
        monodromy.conjugacy_test_bounded(rep1, rep2, 1, budget=3)
    with pytest.raises(ValueError, match="^budget must be an integer$"):
        monodromy.conjugacy_test_bounded(rep1, rep2, 1, budget=budget)


def test_representation_without_images_evaluates_to_the_identity():
    # no generator: the empty word is the identity of the type's dimension, as
    # the conjugacy search of two empty representations already assumes
    for t in ((1,), (1, 2)):
        rep = make_rep([], t)
        assert rep.images == ()
        assert rep.evaluate(()).is_identity()
        assert len(rep.evaluate(()).matrix) == 2 * len(t)
        with pytest.raises(ValueError, match="generator count"):
            monodromy.validate_representation(monodromy.Presentation.make(1, []), rep)


def test_validation_is_conjugation_invariant():
    rng = random.Random(3)
    pres = monodromy.Presentation.make(2, [(1, 2, -1, -2)])
    t = (1,)
    for _ in range(10):
        a = selftest.random_member(t, rng, word_length=3)
        rep = monodromy.Representation((a, a), t)
        gamma = selftest.random_member(t, rng, word_length=3)
        assert monodromy.validate_representation(pres, rep)
        assert monodromy.validate_representation(pres, rep.conjugated(gamma))
