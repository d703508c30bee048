import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import smith_invariants
from sympforge import exactmat as xm
from sympforge import symplattice as sl
from sympforge.selftest import random_gram, random_unimodular


def bounded_gram(rng, n, bound):
    """Nondegenerate antisymmetric 2n x 2n matrix, entries uniform in [-bound, bound]."""
    while True:
        G = xm.zeros(2 * n, 2 * n)
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                G[i][j] = rng.randint(-bound, bound)
                G[j][i] = -G[i][j]
        if xm.det(G) != 0:
            return G


def test_standard_gram_principal():
    assert sl.standard_gram((1,)) == [[0, 1], [-1, 0]]


def test_standard_gram_scaled():
    assert sl.standard_gram((2,)) == [[0, 2], [-2, 0]]


def test_standard_gram_rank_two():
    G = sl.standard_gram((1, 2))
    assert G == [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]]


def test_normal_form_already_standard():
    res = sl.symplectic_normal_form([[0, 3], [-3, 0]])
    assert res.type == (3,)
    assert res.basis_change == xm.identity(2)


def test_normal_form_swapped():
    G = [[0, -1], [1, 0]]
    res = sl.symplectic_normal_form(G)
    assert res.type == (1,)
    assert sl.restrict_gram(G, res.basis_change) == sl.standard_gram((1,))
    assert abs(xm.det(res.basis_change)) == 1


def test_normal_form_random_4x4_postcondition():
    rng = random.Random(7)
    for _ in range(25):
        G = random_gram(rng, 2)
        res = sl.symplectic_normal_form(G)
        assert sl.restrict_gram(G, res.basis_change) == sl.standard_gram(res.type)
        assert abs(xm.det(res.basis_change)) == 1


def test_normal_form_rejects_degenerate():
    with pytest.raises(ValueError, match="Gram matrix is degenerate"):
        sl.symplectic_normal_form([[0, 0], [0, 0]])


def test_normal_form_rejects_odd_dimension():
    with pytest.raises(ValueError, match="dimension 3 is odd"):
        sl.symplectic_normal_form([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_space_type_standard_rank_two():
    assert sl.space_type(sl.standard_gram((1, 2))) == (1, 2)


def test_space_type_scaled():
    assert sl.space_type([[0, 2], [-2, 0]]) == (2,)


def test_space_type_doubling_doubles_divisors():
    G = sl.standard_gram((1, 3))
    doubled = [[2 * x for x in row] for row in G]
    assert sl.space_type(doubled) == (2, 6)


def test_type_leq_examples():
    assert sl.type_leq((1, 2), (2, 4))
    assert not sl.type_leq((2, 4), (1, 6))
    assert sl.type_leq((3, 6), (3, 6))


def test_type_leq_length_mismatch():
    with pytest.raises(ValueError, match="type vectors have different lengths"):
        sl.type_leq((1,), (1, 2))


def test_type_meet_join_examples():
    assert sl.type_meet_join((1, 2), (1, 4)) == ((1, 2), (1, 4))
    assert sl.type_meet_join((2, 4), (1, 6)) == ((1, 2), (2, 12))
    assert sl.type_meet_join((1, 1, 1), (2, 4, 8)) == ((1, 1, 1), (2, 4, 8))


def test_refine_sublattice_examples():
    assert sl.refine_sublattice((1,), (1,)) == xm.identity(2)
    B = sl.refine_sublattice((1,), (2,))
    assert B == [[1, 0], [0, 2]]
    assert sl.space_type(sl.restrict_gram(sl.standard_gram((1,)), B)) == (2,)
    B = sl.refine_sublattice((1, 2), (2, 4))
    assert sl.space_type(sl.restrict_gram(sl.standard_gram((1, 2)), B)) == (2, 4)


def test_refine_sublattice_not_comparable():
    with pytest.raises(ValueError, match=r"\(2,\) does not divide \(3,\) componentwise"):
        sl.refine_sublattice((2,), (3,))


def test_type_invariance_under_unimodular_conjugation():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        G = random_gram(rng, n)
        t = sl.space_type(G)
        for _ in range(10):
            V = random_unimodular(rng, 2 * n, ops=8)
            assert sl.space_type(sl.restrict_gram(G, V)) == t


def test_standard_gram_roundtrip_large_entries():
    for t in [(1,), (50,), (1, 50), (2, 4, 48)]:
        assert sl.space_type(sl.standard_gram(t)) == t


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
       st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_meet_join_lattice_laws(f1, f2):
    n = min(len(f1), len(f2))
    t = tuple_chain(f1[:n])
    t2 = tuple_chain(f2[:n])
    meet, join = sl.type_meet_join(t, t2)
    assert sl.type_leq(meet, t) and sl.type_leq(meet, t2)
    assert sl.type_leq(t, join) and sl.type_leq(t2, join)
    # idempotence, commutativity, absorption
    assert sl.type_meet_join(t, t) == (t, t)
    assert sl.type_meet_join(t2, t) == (meet, join)
    assert sl.type_meet_join(t, join) == (t, join)
    assert sl.type_meet_join(t, meet) == (meet, t)


def tuple_chain(factors):
    out = [factors[0]]
    for f in factors[1:]:
        out.append(out[-1] * f)
    return tuple(out)


def test_validate_type_rejects_broken_chain():
    with pytest.raises(ValueError):
        sl.validate_type((2, 3))
    with pytest.raises(ValueError):
        sl.validate_type((0,))


@pytest.mark.parametrize("omega", [[[0, 1.5], [-1.5, 0]],
                                   [[0, Fraction(5, 2)], [Fraction(-5, 2), 0]],
                                   [[0, 0.5], [-0.5, 0]],
                                   [[0, float("inf")], [float("-inf"), 0]]])
def test_non_integral_gram_is_refused(omega):
    with pytest.raises(ValueError, match="Gram matrix must be integral"):
        sl.space_type(omega)


@pytest.mark.parametrize("omega", [[[0, "1"], ["-1", 0]], [[0, 1.5], [1, 0]]],
                         ids=["strings", "non_integral_and_not_antisymmetric"])
def test_gram_integrality_is_checked_before_antisymmetry(omega):
    # antisymmetry on the raw entries raised TypeError on strings, and named the wrong fault
    with pytest.raises(ValueError, match="Gram matrix must be integral"):
        sl.space_type(omega)


@pytest.mark.parametrize("t", [[2.5, 6], (1.7,), [1, float("nan")]])
def test_non_integer_type_entries_are_refused(t):
    with pytest.raises(ValueError, match="type entries must be integers"):
        sl.validate_type(t)
    with pytest.raises(ValueError, match="type entries must be integers"):
        sl.standard_gram(t)


def test_integral_values_of_any_number_type_are_accepted():
    assert sl.space_type([[0, 2.0], [-2.0, 0]]) == (2,)
    assert sl.space_type([[0, Fraction(4, 2)], [Fraction(-4, 2), 0]]) == (2,)
    assert sl.validate_type([2.0, Fraction(6, 1)]) == (2, 6)


@pytest.mark.parametrize("bound", [20, 10 ** 6])
def test_normal_form_sweep_matches_smith_oracle(bound):
    rng = random.Random(bound)
    for n in range(1, 9):
        for _ in range(8):
            G = bounded_gram(rng, n, bound)
            res = sl.symplectic_normal_form(G)
            d = smith_invariants(G)
            assert d[0::2] == d[1::2] and res.type == tuple(d[0::2])
            assert sl.restrict_gram(G, res.basis_change) == sl.standard_gram(res.type)
            assert abs(xm.det(res.basis_change)) == 1


@pytest.mark.parametrize("bound, ceiling", [(20, 144), (10 ** 6, 750)])
def test_basis_change_width_is_bounded_at_rank_16(bound, ceiling):
    # U is not unique; this pins how wide the elimination lets it grow: the
    # widest entry over these 30 draws has 129 and 679 bits, plus about 10%
    rng = random.Random(16)
    widths = [max(abs(x) for row in sl.symplectic_normal_form(bounded_gram(rng, 8, bound))
                  .basis_change for x in row).bit_length() for _ in range(30)]
    assert max(widths) <= ceiling
