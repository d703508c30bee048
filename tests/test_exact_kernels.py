"""The integer group kernels against the Fraction-elimination, box-search and
lattice-enumeration methods they replaced, which are kept here or in
oracles.py as oracles."""

import ast
import pathlib
import random
from fractions import Fraction
from functools import reduce
from math import isqrt, lcm

import pytest

import sympforge
from sympforge import exactmat as xm
from sympforge import monodromy, selftest, siegel
from sympforge import symplattice as sl
from oracles import (box_conjugacy_test, candidate_index, intertwiner_basis, inverse,
                     lattice_conjugacy_test, to_fraction)

MEMBER_TYPES = [(1,), (1, 2), (2, 4), (1, 2, 4)]


# ---------------------------------------------------------------------------
# oracles

def det_oracle(A):
    """Gaussian elimination over the rationals."""
    n = len(A)
    M = to_fraction(A)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            sign = -sign
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    result = Fraction(sign)
    for i in range(n):
        result *= M[i][i]
    return result


def member_oracle(S, t):
    """S^T Omega_t S == Omega_t as two full matrix products."""
    if (S := xm.to_int(S)) is None:
        return False
    G = sl.standard_gram(t)
    return xm.mat_equal(xm.matmul(xm.transpose(S), xm.matmul(G, S)), G)


def gamma(t):
    """diag(I_n, D_t) as a Fraction matrix."""
    n = len(t)
    return [[Fraction(1 if i < n else t[i - n]) if i == j else Fraction(0)
             for j in range(2 * n)] for i in range(2 * n)]


def transport_oracle(S, t, t2):
    """Gamma_{t2}^-1 Gamma_t S Gamma_t^-1 Gamma_{t2} by Fraction matrix products."""
    g1, g2 = gamma(t), gamma(t2)
    M = xm.matmul(inverse(g2), xm.matmul(g1, xm.matmul(to_fraction(S),
                                                       xm.matmul(inverse(g1), g2))))
    return xm.to_int(M)


def divisor_chains(n, cap):
    """All divisibility chains of length n whose entries divide cap."""
    divs = sorted({d for k in range(1, isqrt(cap) + 1) if cap % k == 0 for d in (k, cap // k)})
    chains = [()]
    for _ in range(n):
        chains = [c + (d,) for c in chains for d in divs
                  if not c or d % c[-1] == 0]
    return chains


def admissible_oracle(T, cap):
    """Every chain t dividing cap with Gamma_t^-1 T Gamma_t integral, the
    entry (i, j) of which is T_ij c_j / c_i for c = (1,) * n + t."""
    n = len(T) // 2
    T = to_fraction(T)
    return [t for t in divisor_chains(n, cap)
            if all((x * cj / ci).denominator == 1
                   for ci, row in zip((1,) * n + t, T) for cj, x in zip((1,) * n + t, row))]


def min_type_oracle(T):
    """The meet of every admissible chain dividing (lcm of denominators)^n,
    or None if there is none."""
    n = len(T) // 2
    cap = lcm(*(Fraction(x).denominator for row in T for x in row)) ** n
    admissible = admissible_oracle(T, cap)
    if not admissible:
        return None
    meet = reduce(lambda a, b: sl.type_meet_join(a, b)[0], admissible)
    assert meet in admissible
    return meet


def random_rational_symplectic(rng, n):
    """A product of one to three factors, each an upper or lower shear by a
    rational symmetric matrix or diag(A, A^-T) for a rational invertible A."""
    def rational():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 4, 6]))
    T = to_fraction(xm.identity(2 * n))
    for _ in range(rng.randint(1, 3)):
        G = to_fraction(xm.identity(2 * n))
        kind = rng.randrange(3)
        if kind < 2:
            rows, cols = (range(n), range(n, 2 * n)) if kind == 0 else (range(n, 2 * n), range(n))
            for a, i in enumerate(rows):
                for b, j in enumerate(cols):
                    if a <= b:
                        G[i][j] = G[rows[b]][cols[a]] = rational()
        else:
            A = [[rational() for _ in range(n)] for _ in range(n)]
            while xm.det(A) == 0:
                A = [[rational() for _ in range(n)] for _ in range(n)]
            for i, (row, inv_row) in enumerate(zip(A, xm.transpose(inverse(A)))):
                G[i][:n], G[n + i][n:] = row, inv_row
        T = xm.matmul(T, G)
    return T


def planted_min_type_input(rng, t):
    """Gamma_t S Gamma_t^-1 for a random type-t member S: a rational
    symplectic matrix for the principal form."""
    S = selftest.random_member(t, rng, word_length=6).rows()
    return xm.matmul(gamma(t), xm.matmul(to_fraction(S), inverse(gamma(t))))


# ---------------------------------------------------------------------------
# closed-form inverse

@pytest.mark.parametrize("t", MEMBER_TYPES)
def test_closed_form_inverse_matches_gauss_jordan(t):
    rng = random.Random(sum(t))
    for _ in range(25):
        g = selftest.random_member(t, rng, word_length=8)
        inv = g.inverse()
        assert inv.rows() == xm.to_int(inverse(g.rows()))
        assert (g @ inv).is_identity() and (inv @ g).is_identity()


def test_closed_form_inverse_rejects_a_non_integral_candidate():
    # products and inverses trust make's check, so a non-member built past make
    # is caught only where its candidate inverse is not integral
    S, t = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)), (1, 2)
    bad = siegel.SiegelElement(S, t)          # bypasses the check in make
    assert not member_oracle(S, t)
    with pytest.raises(ValueError, match="does not preserve the type-t Gram matrix"):
        bad.inverse()


@pytest.mark.parametrize("t", MEMBER_TYPES)
def test_values_built_from_members_stay_members(t):
    # products and inverses skip the membership test that make runs, so everything
    # built from make's members is checked here, against the full product too
    rng = random.Random(7 + sum(t))
    member = lambda g: siegel.is_member(g.rows(), t) and member_oracle(g.rows(), t)
    for _ in range(10):
        a, b, g = (siegel.SiegelElement.make(selftest.random_member(t, rng, 4).rows(), t)
                   for _ in range(3))
        assert all(member(x) for x in (a @ b, a.inverse(), (a @ b).inverse() @ a))
        rep = monodromy.Representation.make([a.rows(), b.rows()], t)
        word = [rng.choice([1, -1, 2, -2]) for _ in range(5)]
        assert member(rep.evaluate(word)) and member(rep.conjugated(g).evaluate(word))
        assert all(member(x) for x in rep.conjugated(g.rows()).images)
        shift = lambda: [Fraction(rng.randrange(7), 7) for _ in range(2 * len(t))]
        h = siegel.aff_compose(siegel.AffElement.make(shift(), a),
                               siegel.AffElement.make(shift(), b))
        assert member(h.rotation) and member(siegel.aff_inverse(h).rotation)
        assert siegel.aff_compose(h, siegel.aff_inverse(h)).is_identity()


# ---------------------------------------------------------------------------
# sparse membership test

@pytest.mark.parametrize("t", MEMBER_TYPES)
def test_sparse_membership_matches_full_product(t):
    rng = random.Random(100 + sum(t))
    m = 2 * len(t)
    for _ in range(25):
        S = selftest.random_member(t, rng, word_length=6).rows()
        assert siegel.is_member(S, t) and member_oracle(S, t)
        bumped = [row[:] for row in S]
        bumped[rng.randrange(m)][rng.randrange(m)] += rng.choice([-1, 1])
        assert siegel.is_member(bumped, t) == member_oracle(bumped, t)
        halved = [row[:] for row in S]
        halved[rng.randrange(m)][rng.randrange(m)] += Fraction(1, 2)
        assert siegel.is_member(halved, t) is False and member_oracle(halved, t) is False
        as_fractions = to_fraction(S)
        assert siegel.is_member(as_fractions, t) and member_oracle(as_fractions, t)
    swapped = [[0] * m for _ in range(m)]
    for i in range(m):
        swapped[i][(i + len(t)) % m] = 1                 # S^T Omega_t S = -Omega_t
    assert not siegel.is_member(swapped, t) and not member_oracle(swapped, t)


@pytest.mark.parametrize("S, t", [(xm.identity(2), (1, 2)), ([[1, 0], [0]], (1,)),
                                  ([[1, 0, 0], [0, 1, 0]], (1,))])
def test_sparse_membership_rejects_wrong_shapes(S, t):
    with pytest.raises(ValueError, match=r"expected a \d+x\d+ matrix"):
        siegel.is_member(S, t)


# ---------------------------------------------------------------------------
# Bareiss determinant

def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(7)
    cases = [[[5]], [[Fraction(-3, 4)]], [], [[0, 1], [1, 0]],
             [[0, 2, 1], [0, 1, 3], [4, 5, 6]],          # zero leading pivots
             [[1, 2, 3], [2, 4, 6], [7, 8, 9]],          # singular: dependent rows
             [[0, 0], [0, 0]]]
    for dim in (2, 3, 5, 8, 12):
        cases.append([[rng.randint(-50, 50) for _ in range(dim)] for _ in range(dim)])
        cases.append([[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(dim)]
                      for _ in range(dim)])
        A = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
        A[-1] = [x - 2 * y for x, y in zip(A[0], A[1])]
        cases.append(A)
    for A in cases:
        d = xm.det(A)
        assert isinstance(d, Fraction) and d == det_oracle(A)


# ---------------------------------------------------------------------------
# entrywise Gamma conjugation

def test_transport_matches_fraction_matrix_oracle():
    rng = random.Random(11)
    pairs = [((1,), (2,)), ((2,), (1,)), ((1,), (3,)), ((1, 2), (2, 4)), ((2, 4), (1, 2)),
             ((1, 1, 2), (1, 2, 4)), ((1, 2, 4), (2, 2, 4))]
    for t, t2 in pairs:
        for _ in range(20):
            S = selftest.random_member(t, rng, word_length=4).rows()
            assert siegel.transport(S, t, t2) == transport_oracle(S, t, t2)
    with pytest.raises(ValueError, match="matrix and types do not have matching sizes"):
        siegel.transport(xm.identity(2), (1,), (1, 2))


@pytest.mark.parametrize("t", [(2,), (3,), (2, 6), (1, 4), (2, 2)])
def test_min_type_is_the_meet_of_all_admissible_chains(t):
    rng = random.Random(20 + sum(t))
    for _ in range(8):
        T = planted_min_type_input(rng, t)
        assert siegel.element_min_type(T) == min_type_oracle(T)


def test_min_type_matches_oracle_on_random_rational_symplectic():
    rng = random.Random(31)
    outcomes = []
    for _ in range(300):
        T = random_rational_symplectic(rng, rng.choice([1, 2]))
        G = sl.standard_gram(sl.delta(len(T) // 2))
        assert xm.mat_equal(xm.matmul(xm.transpose(T), xm.matmul(G, T)), G)
        outcomes.append(siegel.element_min_type(T))
        assert outcomes[-1] == min_type_oracle(T), T
    found = [t for t in outcomes if t is not None]
    assert len(found) >= 20 and len(outcomes) - len(found) >= 20
    assert {len(t) for t in found} == {1, 2} and any(t[-1] > 1 for t in found)


@pytest.mark.parametrize("T, want", [
    ([[2, 0], [0, Fraction(1, 2)]], None),     # D_11 = 1/2 doubles t_1 on each pass
    ([[1, 0, 0, Fraction(1, 4), 0, 0], [0, 1, 0, 0, Fraction(1, 6), 0],
      [0, 0, 1, 0, 0, Fraction(1, 12)], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
      [0, 0, 0, 0, 0, 1]], (4, 12, 12)),
])
def test_min_type_explicit_cases(T, want):
    assert siegel.element_min_type(T) == want == min_type_oracle(T)


# ---------------------------------------------------------------------------
# Dirac-system witness: the covolume test of the lattice basis

def dirac_oracle(images, L):
    """verify_dirac_system with L^-1 by Gauss-Jordan and the inverse of each
    basis-conjugate checked as well."""
    Linv = inverse(L)
    for T in images:
        C = xm.matmul(Linv, xm.matmul(to_fraction(T), L))
        if not (xm.to_int(C) is not None and xm.to_int(inverse(C)) is not None):
            return False, None
    G = xm.matmul(xm.transpose(L), xm.matmul(sl.standard_gram(sl.delta(len(L) // 2)), L))
    return (True, sl.space_type(xm.to_int(G))) if xm.to_int(G) is not None else (False, None)


def unimodular(rng, m):
    """A product of six elementary row additions."""
    V = xm.identity(m)
    for _ in range(6):
        (i, j), c = rng.sample(range(m), 2), rng.choice([-2, -1, 1, 2])
        V[i] = [x + c * y for x, y in zip(V[i], V[j])]
    return V


def test_dirac_verification_matches_gauss_jordan_oracle():
    rng = random.Random(23)
    outcomes = []
    for _ in range(80):
        t = rng.choice([(1,), (2,), (3,), (1, 2), (2, 4)])
        m = 2 * len(t)
        # P = R Gamma_t, R rational symplectic, carries Omega_t to the principal
        # form: P V is a basis of type t, preserved by P S P^-1 for type-t members S
        P = xm.matmul(random_rational_symplectic(rng, len(t)), gamma(t))
        images = [xm.matmul(P, xm.matmul(to_fraction(
            selftest.random_member(t, rng, word_length=4).rows()), inverse(P)))
            for _ in range(rng.randint(1, 2))]
        basis = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        while xm.det(basis) == 0:
            basis = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        fractional = [[Fraction(x, i + 2) for x in row] for i, row in enumerate(basis)]
        for L in (xm.matmul(P, unimodular(rng, m)), basis, fractional):
            got = monodromy.verify_dirac_system(images, L)
            assert got == dirac_oracle(images, L)
            outcomes.append(got)
    assert outcomes.count((False, None)) >= 20 and len(set(outcomes)) >= 5


# ---------------------------------------------------------------------------
# integer echelon form

def in_row_lattice(v, rows):
    """True iff v is an integer combination of echelon rows, by back-substitution."""
    v = list(v)
    for r in rows:
        lead = next(c for c, x in enumerate(r) if x)
        q, rem = divmod(v[lead], r[lead])
        if rem or any(v[:lead]):
            return False
        v = [x - q * y for x, y in zip(v, r)]
    return not any(v)


def test_echelon_shape_and_row_lattice():
    rng = random.Random(13)
    cases = [[], [[0, 0, 0]], [[0, 2], [0, -3]], [[4, 6], [6, 9]], [[-5]]]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            A[-1] = [2 * x - 3 * y for x, y in zip(A[0], A[1])]
        cases.append(A)
    for A in cases:
        E = xm.echelon(A)
        leads = [next(c for c, x in enumerate(r) if x) for r in E]
        assert leads == sorted(set(leads)) and all(r[c] > 0 for r, c in zip(E, leads))
        assert all(in_row_lattice(row, E) for row in A)
        if A and len(A) == len(A[0]):
            # unimodular row operations keep |det|: the index of the row lattice
            assert (len(E) == len(A)) == (xm.det(A) != 0)
            if len(E) == len(A):
                assert abs(xm.det(A)) == xm.det(E)


# ---------------------------------------------------------------------------
# conjugacy by the intertwiner lattice against the box search

def conjugacy_outcome(search, *args):
    try:
        return search(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_conjugacy_matches_box_search_in_dimension_two():
    rng = random.Random(17)
    refused = monodromy.BoundTooLargeForBudget
    seen = []
    for k in range(300):
        t = [(1,), (2,), (3,)][k % 3]
        images = [selftest.random_member(t, rng, word_length=3) for _ in range(rng.randint(1, 2))]
        rep = monodromy.Representation(tuple(images), t)
        kind = rng.randrange(3)
        if kind < 2:    # conjugate by a short word (mostly found) or a long one
            rep2 = rep.conjugated(selftest.random_member(t, rng, word_length=2 + 3 * kind))
        else:           # unrelated images, mostly a trace mismatch
            rep2 = monodromy.Representation(tuple(selftest.random_member(t, rng, word_length=3)
                                                  for _ in rep.images), t)
        bound = rng.choice([-1, 0, 1, 2, 2, 3, 3, 3])
        budget = rng.choice([2_000_000, 2_000_000, 60, 1])   # with 6, no draw is refused
        got = conjugacy_outcome(monodromy.conjugacy_test_bounded, rep, rep2, bound, budget)
        boxed = conjugacy_outcome(box_conjugacy_test, rep, rep2, bound, budget)
        if got[0] is refused:
            # the lattice has at most as many candidates as the box
            assert boxed[0] is refused
        else:
            # where only the box is over the budget, the box answer under an ample one
            assert got == conjugacy_outcome(box_conjugacy_test, rep, rep2, bound, 2_000_000)
            assert boxed[0] is refused or boxed == got
        seen.append("refused" if got[0] is refused else
                    "only the box refused" if boxed[0] is refused else got[1])
    assert {"found", "not found within bound", "trace mismatch", "refused",
            "only the box refused", "entry bound must be non-negative"} <= set(seen)


def test_conjugacy_recovers_planted_conjugators_in_dimension_four():
    # the 3^16-matrix box takes minutes per pair, so the box order is checked
    # through the planted conjugator's index instead
    rng = random.Random(19)
    t = (1, 1)
    for _ in range(12):
        rep = monodromy.Representation(
            tuple(selftest.random_member(t, rng, word_length=4) for _ in range(2)), t)
        g0 = selftest.random_member(t, rng, word_length=3)
        while max(abs(x) for row in g0.matrix for x in row) > 1:
            g0 = selftest.random_member(t, rng, word_length=3)
        rep2 = rep.conjugated(g0)
        gamma, cert = monodromy.conjugacy_test_bounded(rep, rep2, 1)
        assert cert == "found" and siegel.is_member(gamma, t)
        assert max(abs(x) for row in gamma for x in row) <= 1
        assert all(xm.matmul(gamma, a.rows()) == xm.matmul(b.rows(), gamma)
                   for a, b in zip(rep.images, rep2.images))
        assert candidate_index(gamma, 1) <= candidate_index(g0.rows(), 1)


# ---------------------------------------------------------------------------
# the solved last coefficient against the lattice enumeration

def same_as_lattice_enumeration(rep, rep2, bound, budget):
    """The search and the lattice enumeration give the same answer or raise the
    same class; where only the enumeration is over the budget, the search gives
    the enumeration's answer under an ample budget."""
    refused = monodromy.BoundTooLargeForBudget
    got = conjugacy_outcome(monodromy.conjugacy_test_bounded, rep, rep2, bound, budget)
    ref = conjugacy_outcome(lattice_conjugacy_test, rep, rep2, bound, budget)
    if got[0] is refused:
        assert ref[0] is refused
    elif ref[0] is refused:         # 3^16 points: the rank-16 lattice of dimension 4
        assert got == lattice_conjugacy_test(rep, rep2, bound, 3 ** 16)
    else:
        assert got == ref
    return got


def test_conjugacy_matches_lattice_enumeration_in_dimension_two():
    rng = random.Random(23)
    seen = set()
    for k in range(240):
        t = [(1,), (2,), (3,)][k % 3]
        rep = monodromy.Representation(
            tuple(selftest.random_member(t, rng, word_length=rng.randint(0, 3))
                  for _ in range(rng.randint(1, 2))), t)
        if rng.random() < 0.7:
            rep2 = rep.conjugated(selftest.random_member(t, rng, word_length=rng.randint(0, 3)))
        else:
            rep2 = monodromy.Representation(tuple(selftest.random_member(t, rng, word_length=3)
                                                  for _ in rep.images), t)
        got = same_as_lattice_enumeration(rep, rep2, k % 7 - 1, 3 ** 9)   # bounds -1..5
        seen.add(got[1])
    assert {"found", "not found within bound", "trace mismatch",
            "entry bound must be non-negative"} <= seen


def test_conjugacy_matches_lattice_enumeration_in_dimension_four():
    # images as in the exact benchmark: short words, among them shears and the
    # identity, conjugated by a member with entries in [-1, 1], searched with its
    # budget of 500.  Draws are kept until each lattice rank has its quota; no draw
    # reaches rank 7 or 9.  Ranks 8 to 16, 3^(rank - 1) > 500, were refused up front
    rng = random.Random(29)
    t = (1, 1)
    want = {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3, 8: 2, 10: 2, 16: 1}
    seen = dict.fromkeys(want, 0)
    for _ in range(3000):
        if seen == want:
            break
        rep = monodromy.Representation(
            tuple(selftest.random_member(t, rng, word_length=rng.randint(0, 3))
                  for _ in range(rng.randint(1, 2))), t)
        g0 = selftest.random_member(t, rng, word_length=rng.randint(0, 3))
        if max(abs(x) for row in g0.matrix for x in row) > 1:
            continue
        rep2 = rep.conjugated(g0)
        rank = len(intertwiner_basis(rep, rep2))
        if seen.get(rank, 0) < want.get(rank, 0):
            seen[rank] += 1
            got = same_as_lattice_enumeration(rep, rep2, 1, 500)
            assert got[0] is not monodromy.BoundTooLargeForBudget
    assert seen == want


# draws of the exact benchmark (perfbench/exact.py) at bound 1 that the up-front
# count (2b + 1)^(rank - 1) > 500 refused: (seed, round), images of rep1, then of rep2
I4 = xm.identity(4)
REFUSED_DRAWS = [
    ((15, 26), [I4, [[1, 0, -1, -1], [0, 1, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
     [I4, [[1, 0, 0, -1], [0, 1, -1, -1], [0, 0, 1, 0], [0, 0, 0, 1]]]),
    ((17, 35), [I4, [[1, 0, -1, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
     [I4, [[1, 0, 0, 1], [0, 1, 1, -1], [0, 0, 1, 0], [0, 0, 0, 1]]]),
    ((9, 7), [[[1, 0, -2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], I4],
     [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 2, 0, 1]], I4]),
    ((8, 52), [[[1, 0, 1, -1], [0, 1, -1, 2], [0, 0, 1, 0], [0, 0, 0, 1]], I4],
     [[[1, 0, 2, -1], [0, 1, -1, 1], [0, 0, 1, 0], [0, 0, 0, 1]], I4]),
    ((2, 52), [[[2, -1, 1, -1], [0, 2, -1, 0], [0, 1, 0, 0], [1, -1, 1, 0]], I4],
     [[[0, 1, 1, -1], [0, 0, -1, 0], [0, 1, 2, 0], [1, -1, -1, 2]], I4]),
]


@pytest.mark.parametrize("draw, images1, images2", REFUSED_DRAWS,
                         ids=[f"s{s}r{r}" for (s, r), _, _ in REFUSED_DRAWS])
def test_conjugacy_answers_draws_the_up_front_count_refused(draw, images1, images2):
    rep1, rep2 = (monodromy.Representation.make(m, (1, 1)) for m in (images1, images2))
    assert 3 ** (len(intertwiner_basis(rep1, rep2)) - 1) > 500
    answer = lattice_conjugacy_test(rep1, rep2, 1, 3 ** 16)
    if draw == (2, 52):     # rows 1 to 3 only final at the leaf: 895 leaves
        with pytest.raises(monodromy.BoundTooLargeForBudget):
            monodromy.conjugacy_test_bounded(rep1, rep2, 1, 500)
        assert monodromy.conjugacy_test_bounded(rep1, rep2, 1, 2_000) == answer
    else:
        assert monodromy.conjugacy_test_bounded(rep1, rep2, 1, 500) == answer


def test_conjugacy_solves_a_rank_six_lattice_the_enumeration_refuses():
    # 3^6 = 729 lattice points exceed the budget; 3^5 = 243 choices of the
    # fixed coefficients do not
    rep = monodromy.Representation.make(
        [[[1, 1, -2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, -1, 1]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 2, 0, 1]]], (1, 1))
    assert len(intertwiner_basis(rep, rep)) == 6
    with pytest.raises(monodromy.BoundTooLargeForBudget):
        lattice_conjugacy_test(rep, rep, 1, 500)
    gamma, cert = monodromy.conjugacy_test_bounded(rep, rep, 1, 500)
    assert cert == "found" and siegel.is_member(gamma, (1, 1))
    assert (gamma, cert) == lattice_conjugacy_test(rep, rep, 1, 729)


def test_conjugacy_at_a_large_bound_solves_the_last_coefficient():
    rep1 = monodromy.Representation.make([[[1, 1], [0, 1]]], (1,))
    rep2 = monodromy.Representation.make([[[1, 0], [-1, 1]]], (1,))
    with pytest.raises(monodromy.BoundTooLargeForBudget):
        lattice_conjugacy_test(rep1, rep2, 700, 1401)
    # the enumeration's answer under an ample budget, 1401^2 lattice points, takes
    # seconds; the search takes 1401 choices of the first coefficient
    assert monodromy.conjugacy_test_bounded(rep1, rep2, 700, 1401) == \
        ([[0, -1], [1, -700]], "found")


def test_conjugacy_of_a_rank_zero_lattice_is_not_found():
    # only gamma = 0 intertwines these images with the identity
    rep1 = monodromy.Representation.make([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], (1,))
    rep2 = monodromy.Representation.make([xm.identity(2)] * 2, (1,))
    assert intertwiner_basis(rep1, rep2) == []
    # a search with no intertwiner walks nothing, so no budget refuses it
    for budget in (1, 0):
        assert monodromy.conjugacy_test_bounded(rep1, rep2, 2, budget) == \
            (None, "not found within bound")


# ---------------------------------------------------------------------------
# budget guard

def test_budget_guard_bounds_the_walk(monkeypatch):
    # identity images commute with every matrix: a rank-16 lattice, whose 3^15 > 500
    # choices the up-front count refused; the walk finds a member in a few leaves
    t = (1, 1)
    rep = monodromy.Representation.make([xm.identity(4)] * 2, t)
    gamma_found, cert = monodromy.conjugacy_test_bounded(rep, rep, 1, budget=500)
    assert cert == "found" and siegel.is_member(gamma_found, t)
    leaves, solve = [], monodromy._last_coefficient
    monkeypatch.setattr(monodromy, "_last_coefficient",
                        lambda *args: leaves.append(args) or solve(*args))
    # no member: 101 choices of the first coefficient, refused before any leaf when
    # they alone pass the budget, else all tried
    rep1 = monodromy.Representation.make([[[1, 1], [0, 1]]], (1,))
    rep2 = monodromy.Representation.make([[[1, -1], [0, 1]]], (1,))
    with pytest.raises(monodromy.BoundTooLargeForBudget):
        monodromy.conjugacy_test_bounded(rep1, rep2, 50, budget=100)
    assert leaves == []
    assert monodromy.conjugacy_test_bounded(rep1, rep2, 50, budget=101) == \
        (None, "not found within bound")
    assert len(leaves) == 101
    # the walk that needs 895 leaves stops within its budget of them
    (_, images1, images2), = [d for d in REFUSED_DRAWS if d[0] == (2, 52)]
    rep1, rep2 = (monodromy.Representation.make(m, (1, 1)) for m in (images1, images2))
    for budget in (50, 500):
        leaves.clear()
        with pytest.raises(monodromy.BoundTooLargeForBudget):
            monodromy.conjugacy_test_bounded(rep1, rep2, 1, budget)
        assert 0 < len(leaves) <= budget
    monkeypatch.undo()
    # a budget equal to the old up-front count (2b + 1)^(rank - 1) admits the search
    rng = random.Random(37)
    for k in range(120):
        t = [(1,), (2,), (1, 1), (1, 2)][k % 4]
        rep = monodromy.Representation(
            tuple(selftest.random_member(t, rng, word_length=rng.randint(0, 3))
                  for _ in range(rng.randint(1, 2))), t)
        rep2 = rep.conjugated(selftest.random_member(t, rng, word_length=rng.randint(0, 2)))
        bound = rng.randint(0, 2 if len(t) == 1 else 1)
        budget = (2 * bound + 1) ** max(len(intertwiner_basis(rep, rep2)) - 1, 0)
        if budget <= 3 ** 10:
            assert monodromy.conjugacy_test_bounded(rep, rep2, bound, budget) == \
                monodromy.conjugacy_test_bounded(rep, rep2, bound, 10 ** 12)


# ---------------------------------------------------------------------------
# Fractions only at the boundary

RATIONAL_NAMES = {"fractions", "Fraction", "numerator", "denominator"}


def fraction_scopes(path):
    """The scopes (dotted function or class names, '' for module level) of a module
    that import fractions or name Fraction, numerator or denominator."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = (child.id if isinstance(child, ast.Name) else child.attr
                    if isinstance(child, ast.Attribute) else child.name
                    if isinstance(child, ast.alias) else None)
            if name in RATIONAL_NAMES:
                scopes.add(".".join(scope))
            visit(child, scope)
    visit(ast.parse(path.read_text()), ())
    return scopes


def test_fractions_appear_only_where_values_cross_the_boundary():
    """Exact paths run on int numerators over one denominator: Fraction goes into
    clear_denominators, comes out of det, translation and serialize, and seeds selftest."""
    found = {path.name: fraction_scopes(path)
             for path in sorted(pathlib.Path(sympforge.__file__).parent.glob("*.py"))}
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "exactmat.py": {"", "clear_denominators", "det"},
        "siegel.py": {"", "AffElement.translation"},
        "serialize.py": {"", "fraction_to_json", "fraction_from_json"},
        "selftest.py": {"", "_affine", "_dirac"},
    }


@pytest.mark.parametrize("call", [
    lambda: siegel.element_min_type([[1, None], [0, 1]]),
    lambda: monodromy.verify_dirac_system([[[1, 0], [0, 1]]], [[1, None], [0, 1]]),
    lambda: siegel.AffElement.make([None, 0], siegel.SiegelElement.make(xm.identity(2), (1,))),
], ids=["element_min_type", "verify_dirac_system", "AffElement.make"])
def test_clear_denominators_refuses_a_non_number_entry_with_value_error(call):
    # Fraction(None) raised TypeError through each entry point
    with pytest.raises(ValueError, match="matrix entries must be finite numbers"):
        call()
