import random
from fractions import Fraction

import numpy as np
import pytest

from sympforge import exactmat as xm
from sympforge import siegel
from oracles import aff_compose_fractions, aff_inverse_fractions


def test_identity_is_member_any_type():
    for t in [(1,), (2,), (1, 2), (3, 6)]:
        assert siegel.is_member(xm.identity(2 * len(t)), t)


def test_unipotent_member_at_type_two():
    assert siegel.is_member([[1, 1], [0, 1]], (2,))


def test_scaling_not_member_at_type_two():
    assert not siegel.is_member([[2, 0], [0, 1]], (2,))


def test_is_member_dimension_mismatch():
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        siegel.is_member(xm.identity(2), (1, 2))


@pytest.mark.parametrize("entry", [Fraction(2, 2), True, 1.0, np.int64(1)],
                         ids=["fraction", "bool", "float", "numpy"])
def test_membership_accepts_integral_fractions_and_bools(entry):
    M = [[entry, 0], [0, 1]]
    assert siegel.is_member(M, (1,)) is True
    g = siegel.SiegelElement.make(M, (1,))
    assert g.matrix == ((1, 0), (0, 1))
    assert all(type(x) is int for row in g.matrix for x in row)


@pytest.mark.parametrize("entry", [Fraction(1, 2), "1"], ids=["half", "str"])
def test_membership_refuses_non_integer_entries(entry):
    M = [[entry, 0], [0, 1]]
    assert siegel.is_member(M, (1,)) is False
    with pytest.raises(ValueError, match="matrix does not preserve the type-t Gram matrix"):
        siegel.SiegelElement.make(M, (1,))


@pytest.mark.parametrize("M", [[[1.0, 0]], [["1", 0, 0], [0, Fraction(1, 2), 0]]],
                         ids=["1x2", "2x3"])
def test_membership_checks_the_shape_first(M):
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        siegel.is_member(M, (1,))
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        siegel.SiegelElement.make(M, (1,))


def test_min_type_integer_symplectic_is_principal():
    assert siegel.element_min_type([[1, 1], [0, 1]]) == (1,)
    S = [[1, 0, 2, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert siegel.element_min_type(S) == (1, 1)


def test_min_type_half_shear():
    assert siegel.element_min_type([[1, Fraction(1, 2)], [0, 1]]) == (2,)


def test_min_type_third_shear():
    assert siegel.element_min_type([[1, Fraction(1, 3)], [0, 1]]) == (3,)


def test_min_type_rejects_non_symplectic():
    with pytest.raises(ValueError, match="not symplectic for the standard form"):
        siegel.element_min_type([[2, 0], [0, 1]])


@pytest.mark.parametrize("T", [[], [[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0]]],
                         ids=["0x0", "1x1", "3x3", "ragged"])
def test_min_type_refuses_matrices_not_square_of_even_dimension(T):
    with pytest.raises(ValueError, match="matrix must be square of even dimension"):
        siegel.element_min_type(T)


@pytest.mark.parametrize("kind", ["ints", "fractions", "mixed"])
def test_min_type_reads_ints_fractions_and_a_mix_alike(kind):
    """Integral entries as ints, as Fractions, or as a checkerboard of both; the
    integral matrix takes the L = 1 path of clear_denominators, the other L = 6."""
    def entry(x, i, j):
        if kind == "fractions" or kind == "mixed" and (i + j) % 2:
            return Fraction(x)
        return int(x) if Fraction(x).denominator == 1 else x
    integral = [[1, 0, 2, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rational = [[1, 0, Fraction(1, 2), 0], [0, 1, 0, Fraction(1, 3)], [0, 0, 1, 0], [0, 0, 0, 1]]
    for T, want in ((integral, (1, 1)), (rational, (2, 6))):
        T = [[entry(x, i, j) for j, x in enumerate(row)] for i, row in enumerate(T)]
        assert siegel.element_min_type(T) == want


@pytest.mark.parametrize("entry", [Fraction(1, 2), "1"], ids=["half", "str"])
def test_transport_refuses_non_integer_matrices(entry):
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        siegel.transport([[entry, 0], [0, 2]], (1,), (2,))


def test_transport_reads_integral_fractions_and_bools_as_ints():
    assert siegel.transport([[Fraction(2, 2), 0], [0, True]], (1,), (2,)) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("entry", [1.0, np.int64(1)], ids=["float", "numpy"])
def test_transport_reads_integral_floats_and_numpy_ints_as_ints(entry):
    out = siegel.transport([[entry, 0], [0, 1]], (1,), (2,))
    assert out == [[1, 0], [0, 1]]
    assert all(type(x) is int for row in out for x in row)


def test_aff_make_reads_any_iterable_of_rationals():
    rot = siegel.SiegelElement.make([[1, 1], [0, 1]], (1,))
    want = (Fraction(1, 2), Fraction(1, 3))
    for a in ((x for x in [Fraction(1, 2), Fraction(-2, 3)]), iter([0.5, Fraction(4, 3)]),
              (Fraction(3, 2), Fraction(1, 3))):
        assert siegel.AffElement.make(a, rot).translation == want


def test_aff_compose_torus_subgroup():
    t = (1,)
    rot = siegel.SiegelElement.make(xm.identity(2), t)
    a = siegel.AffElement.make([Fraction(1, 3), Fraction(3, 4)], rot)
    b = siegel.AffElement.make([Fraction(2, 3), Fraction(1, 2)], rot)
    c = siegel.aff_compose(a, b)
    assert c.translation == (Fraction(0), Fraction(1, 4))
    assert c.rotation.is_identity()


def test_aff_compose_semidirect_twist():
    t = (1,)
    gamma = siegel.SiegelElement.make([[1, 1], [0, 1]], t)
    ident = siegel.SiegelElement.make(xm.identity(2), t)
    g1 = siegel.AffElement.make([Fraction(1, 2), Fraction(0)], gamma)
    g2 = siegel.AffElement.make([Fraction(1, 4), Fraction(1, 4)], ident)
    out = siegel.aff_compose(g1, g2)
    assert out.translation == (Fraction(0), Fraction(1, 4))
    assert out.rotation == gamma


def test_aff_translation_is_canonical():
    rot = siegel.SiegelElement.make(xm.identity(2), (1,))
    a = siegel.AffElement.make([Fraction(1, 2), Fraction(2, 4)], rot)
    b = siegel.AffElement.make([Fraction(3, 2), Fraction(-1, 2)], rot)
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ((1, 1), 2)
    assert siegel.aff_compose(a, b) == siegel.AffElement.identity_element((1,))


def test_aff_group_law_matches_fraction_oracle():
    rng = random.Random(31)

    def shift(m):   # negative, integral and out-of-range entries
        return [rng.choice([Fraction(rng.randint(-40, 40), rng.choice([2, 3, 4, 6, 9, 12])),
                            rng.randint(-3, 3), Fraction(rng.randint(-9, 9), 3)])
                for _ in range(m)]
    for t in [(1,), (1, 2), (2, 4), (1, 2, 4)]:
        for _ in range(25):
            (a1, r1), (a2, r2) = [(shift(2 * len(t)), siegel.random_member(t, rng, word_length=4))
                                  for _ in range(2)]
            h = siegel.aff_compose(siegel.AffElement.make(a1, r1), siegel.AffElement.make(a2, r2))
            assert (h.translation, h.rotation.rows()) == \
                aff_compose_fractions(a1, r1.rows(), a2, r2.rows())
            inv = siegel.aff_inverse(h)
            assert (inv.translation, inv.rotation.rows()) == \
                aff_inverse_fractions(h.translation, h.rotation.rows())
            assert all(type(x) is Fraction and 0 <= x < 1 for x in h.translation + inv.translation)


def test_aff_inverse_examples():
    t = (1,)
    ident = siegel.AffElement.identity_element(t)
    assert siegel.aff_inverse(ident).is_identity()
    rot = siegel.SiegelElement.make(xm.identity(2), t)
    a = siegel.AffElement.make([Fraction(1, 3), Fraction(1, 2)], rot)
    inv = siegel.aff_inverse(a)
    assert inv.translation == (Fraction(2, 3), Fraction(1, 2))
    gamma = siegel.SiegelElement.make([[1, 1], [0, 1]], t)
    g = siegel.AffElement.make([Fraction(1, 2), Fraction(0)], gamma)
    assert siegel.aff_compose(g, siegel.aff_inverse(g)).is_identity()
    assert siegel.aff_compose(siegel.aff_inverse(g), g).is_identity()


def test_aff_adjoint_kills_translations():
    t = (1,)
    rot = siegel.SiegelElement.make(xm.identity(2), t)
    a = siegel.AffElement.make([Fraction(5, 7), Fraction(1, 9)], rot)
    assert siegel.aff_adjoint(a) == xm.identity(2)


def test_aff_adjoint_returns_rotation():
    t = (2,)
    gamma = siegel.SiegelElement.make([[1, 1], [0, 1]], t)
    g = siegel.AffElement.make([Fraction(0), Fraction(0)], gamma)
    assert siegel.aff_adjoint(g) == gamma.rows()


def test_aff_adjoint_homomorphism():
    rng = random.Random(11)
    t = (2,)
    for _ in range(20):
        g1 = siegel.AffElement.make(
            [Fraction(rng.randint(0, 7), 8) for _ in range(2)],
            siegel.random_member(t, rng, word_length=4))
        g2 = siegel.AffElement.make(
            [Fraction(rng.randint(0, 7), 8) for _ in range(2)],
            siegel.random_member(t, rng, word_length=4))
        lhs = siegel.aff_adjoint(siegel.aff_compose(g1, g2))
        rhs = xm.matmul(siegel.aff_adjoint(g1), siegel.aff_adjoint(g2))
        assert xm.mat_equal(lhs, rhs)


def test_isogeny_kernel_examples():
    assert siegel.isogeny_kernel((1, 2), (2, 4)) == (2, 2)
    assert siegel.isogeny_kernel((3, 6), (3, 6)) == (1, 1)
    assert siegel.isogeny_kernel((1,), (6,)) == (6,)


def test_isogeny_kernel_not_comparable():
    with pytest.raises(ValueError, match=r"\(2,\) does not divide \(3,\) componentwise"):
        siegel.isogeny_kernel((2,), (3,))


def test_membership_closed_under_product_and_inverse():
    rng = random.Random(5)
    for t in [(1,), (2,), (1, 2), (2, 4)]:
        for _ in range(10):
            a = siegel.random_member(t, rng)
            b = siegel.random_member(t, rng)
            assert siegel.is_member((a @ b).rows(), t)
            assert siegel.is_member(a.inverse().rows(), t)


def test_transport_monotonicity():
    rng = random.Random(9)
    pairs = [((1,), (2,)), ((1,), (3,)), ((2,), (4,)), ((1, 2), (2, 4))]
    for t, t2 in pairs:
        for _ in range(10):
            a = siegel.random_member(t, rng, word_length=4)
            moved = siegel.transport(a.rows(), t, t2)
            if moved is not None:
                assert siegel.is_member(moved, t2)


def test_aff_associativity_exact():
    rng = random.Random(13)
    t = (2,)
    for _ in range(20):
        gs = [siegel.AffElement.make(
                  [Fraction(rng.randint(0, 11), 12) for _ in range(2)],
                  siegel.random_member(t, rng, word_length=3))
              for _ in range(3)]
        g1, g2, g3 = gs
        assert siegel.aff_compose(siegel.aff_compose(g1, g2), g3) == \
            siegel.aff_compose(g1, siegel.aff_compose(g2, g3))


def test_type_context_mismatch():
    a = siegel.AffElement.identity_element((1,))
    b = siegel.AffElement.identity_element((2,))
    with pytest.raises(ValueError, match="elements live in groups of different type"):
        siegel.aff_compose(a, b)
