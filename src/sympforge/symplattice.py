"""Exact classification of integral symplectic lattices.

A full-rank lattice with an integer-valued symplectic pairing is classified
up to isomorphism by its divisibility chain t_1 | t_2 | ... | t_n of
elementary divisors (its "type").  This module computes that normal form by
exact unimodular reduction, together with the lattice-order structure on
types (componentwise gcd/lcm) and sublattice refinement.

All arithmetic is arbitrary-precision integer arithmetic; every
post-condition here is an exact matrix identity, never a tolerance.
"""

from dataclasses import dataclass
from math import gcd, lcm

from . import exactmat as xm


def validate_type(t):
    """Check the divisibility-chain condition on a type vector."""
    t = tuple(int(x) for x in t)
    if not t:
        raise ValueError("type vector must be non-empty")
    if any(x < 1 for x in t):
        raise ValueError("type entries must be positive")
    for a, b in zip(t, t[1:]):
        if b % a != 0:
            raise ValueError(f"divisibility chain broken: {a} does not divide {b}")
    return t


def delta(n):
    """The principal (bottom) type (1, ..., 1)."""
    return (1,) * n


def standard_gram(t):
    """Block Gram matrix [[0, D_t], [-D_t, 0]] of the standard lattice."""
    t = validate_type(t)
    n = len(t)
    G = xm.zeros(2 * n, 2 * n)
    for i, ti in enumerate(t):
        G[i][n + i] = ti
        G[n + i][i] = -ti
    return G


def check_gram(omega):
    """Validate an integer antisymmetric Gram matrix; returns half-dimension."""
    m = len(omega)
    if m == 0:
        raise ValueError("Gram matrix must be non-empty")
    if not xm.is_square(omega):
        raise ValueError("Gram matrix must be square")
    if m % 2 != 0:
        raise ValueError(f"dimension {m} is odd")
    for i in range(m):
        for j in range(m):
            if omega[i][j] != -omega[j][i]:
                raise ValueError("Gram matrix must be antisymmetric")
    return m // 2


@dataclass
class NormalFormResult:
    basis_change: list  # unimodular U with U^T Omega U = standard_gram(type)
    type: tuple


def _swap(A, U, p, q):
    A[p], A[q] = A[q], A[p]
    for row in A:
        row[p], row[q] = row[q], row[p]
    for row in U:
        row[p], row[q] = row[q], row[p]


def _negate(A, U, p):
    A[p] = [-x for x in A[p]]
    for row in A:
        row[p] = -row[p]
    for row in U:
        row[p] = -row[p]


def _col_add(A, U, j, i, c):
    # congruence v_j += c*v_i: column then row, mirrored on U's columns
    for row in A:
        row[j] += c * row[i]
    for k in range(len(A)):
        A[j][k] += c * A[i][k]
    for row in U:
        row[j] += c * row[i]


def symplectic_normal_form(omega):
    """Reduce an antisymmetric integer Gram matrix to symplectic normal form.

    Returns NormalFormResult(U, t) with U unimodular (det +-1) and

        U^T Omega U = [[0, D_t], [-D_t, 0]],  D_t = diag(t),

    exactly.  The reduction repeatedly isolates a hyperbolic pair on the
    minimal nonzero entry, Euclid-reducing its rows until they clear, and
    enforces that the pivot divides the remaining block before recursing.
    """
    n = check_gram(omega)
    m = 2 * n
    A = [[int(x) for x in row] for row in omega]
    U = xm.identity(m)
    divisors = []
    s = 0
    while s < m:
        # locate minimal-|.|  nonzero entry of the trailing block
        best = None
        for i in range(s, m):
            for j in range(i + 1, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best[0]):
                    best = (abs(A[i][j]), i, j)
        if best is None:
            raise ValueError("Gram matrix is degenerate")
        _, i, j = best
        if i != s:
            _swap(A, U, i, s)
        if j != s + 1:
            _swap(A, U, j, s + 1)
        if A[s][s + 1] < 0:
            _negate(A, U, s + 1)

        a = A[s][s + 1]
        # Euclid-clear rows s and s+1 beyond column s+1
        for col in range(s + 2, m):
            q = A[s][col] // a
            if q:
                _col_add(A, U, col, s + 1, -q)
            q = A[s + 1][col] // a
            if q:
                _col_add(A, U, col, s, q)
        if any(A[s][col] or A[s + 1][col] for col in range(s + 2, m)):
            continue  # a smaller entry appeared; re-pivot
        # enforce divisibility of the remaining block by the pivot
        bad = next(((k, l) for k in range(s + 2, m) for l in range(k + 1, m)
                    if A[k][l] % a != 0), None)
        if bad is not None:
            _col_add(A, U, s, bad[0], 1)
            continue
        divisors.append(a)
        s += 2

    # reorder interleaved pairs (e1,f1,e2,f2,...) to (e1..en, f1..fn)
    perm = list(range(0, m, 2)) + list(range(1, m, 2))
    U = [[row[p] for p in perm] for row in U]
    return NormalFormResult(basis_change=U, type=tuple(divisors))


def space_type(omega):
    """Elementary-divisor type of an integer antisymmetric Gram matrix."""
    return symplectic_normal_form(omega).type


def type_leq(t, t2):
    """Partial order on types: componentwise divisibility."""
    t, t2 = validate_type(t), validate_type(t2)
    if len(t) != len(t2):
        raise ValueError("type vectors have different lengths")
    return all(b % a == 0 for a, b in zip(t, t2))


def type_meet_join(t, t2):
    """(meet, join) = componentwise (gcd, lcm); both are valid chains."""
    t, t2 = validate_type(t), validate_type(t2)
    if len(t) != len(t2):
        raise ValueError("type vectors have different lengths")
    meet = tuple(gcd(a, b) for a, b in zip(t, t2))
    join = tuple(lcm(a, b) for a, b in zip(t, t2))
    return validate_type(meet), validate_type(join)


def refine_sublattice(t, t2):
    """Basis of a sublattice of the type-t standard lattice with type t2.

    In the Z^{2n} picture the pairing of e_i with f_i is t_i, so rescaling
    f_i by t2_i/t_i yields the requested type.  Columns of the returned
    matrix span the sublattice.
    """
    t, t2 = validate_type(t), validate_type(t2)
    if not type_leq(t, t2):
        raise ValueError(f"{t} does not divide {t2} componentwise")
    n = len(t)
    B = xm.zeros(2 * n, 2 * n)
    for i in range(n):
        B[i][i] = 1
        B[n + i][n + i] = t2[i] // t[i]
    return B


def restrict_gram(omega, basis):
    """Pull back a Gram matrix along a (column-spanning) basis matrix."""
    return xm.matmul(xm.transpose(basis), xm.matmul(omega, basis))
