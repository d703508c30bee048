"""Small exact-arithmetic matrix kit on Python ints.

Matrices are plain lists of row lists.  Everything here is exact: no
floating point enters, so equality checks are meaningful.  clear_denominators is
where a rational matrix becomes ints, M / L over one denominator L; det is
fraction-free (Bareiss) and echelon uses unimodular integer row operations only.
"""

from fractions import Fraction
from math import lcm
from operator import mul


def identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matmul(A, B):
    if len(A[0]) != len(B):
        raise ValueError("matmul shape mismatch")
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def matvec(A, v):
    if len(A[0]) != len(v):
        raise ValueError("matvec shape mismatch")
    return [sum(map(mul, row, v)) for row in A]


def sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_equal(A, B):
    if len(A) != len(B) or len(A[0]) != len(B[0]):
        return False
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def is_square(A):
    return all(len(row) == len(A) for row in A)


def to_int(A):
    """A as rows of plain ints, or None unless every entry is an int (a bool too) or an
    integral Fraction."""
    out = []
    for row in A:
        if not all(type(x) is int for x in row):
            row = [int(x) if isinstance(x, int) or isinstance(x, Fraction) and x.denominator == 1
                   else None for x in row]
            if None in row:
                return None
        out.append(list(row))
    return out


def clear_denominators(A):
    """(L A, L) in ints for the least common denominator L of A's entries, which are
    ints or anything Fraction takes."""
    if (M := to_int(A)) is not None:
        return M, 1
    try:
        A = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in A]
    except (TypeError, OverflowError):   # None, a list, inf
        raise ValueError("matrix entries must be finite numbers") from None
    L = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in A], L


def det(A):
    """Exact determinant (a Fraction) by Bareiss fraction-free elimination.

    The matrix is scaled to integers by the common denominator L of its entries,
    so every division is exact and det A = det(L A) / L^n.
    """
    n = len(A)
    M, L = clear_denominators(A)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        p, top = M[k][k], M[k]
        for row in M[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - c * top[j]) // prev
        prev = p
    return Fraction(sign * prev, L ** n)


def echelon(rows):
    """Integer row echelon form by unimodular row operations, Euclid down each column:
    the nonzero rows, leading columns strictly increasing, leading entries positive."""
    rows, out = [list(r) for r in rows], []
    for col in range(len(rows[0]) if rows else 0):
        while live := [r for r in rows if r[col]]:
            p = min(live, key=lambda r: abs(r[col]))
            if len(live) == 1:
                rows.remove(p)
                out.append(p if p[col] > 0 else [-x for x in p])
                break
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [x - q * y for x, y in zip(r, p)]
    return out
