import random

import pytest
from hypothesis import given, settings, strategies as st

from sympforge import exactmat as xm
from sympforge import symplattice as sl
from sympforge.selftest import random_gram, random_unimodular


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
