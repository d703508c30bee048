"""Small exact-arithmetic matrix kit on Python ints, and the one reader of exact input.

Matrices are plain lists of row lists.  Everything here is exact: no floating point
enters, so equality checks are meaningful.  Exact input is read here by one rule: an
entry is a number (numbers.Number, never a str), an integer when int(x) == x (True, 2.0,
Fraction(4, 2) and numpy.int64(2) read as 2) and else Fraction(x), never inf or NaN.
to_int reads integers, clear_denominators rationals as M / L over one denominator L;
like is_square they answer a value that is not rows of numbers with None, ValueError or
False.  det is fraction-free (Bareiss); echelon uses unimodular integer row operations.
"""

from fractions import Fraction
from math import lcm
from numbers import Number
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
    try:
        return {*map(len, A)} <= {len(A)}
    except TypeError:   # A or a row has no length
        return False


def rows(A, entry):
    """A's rows as lists, rows not of plain ints through entry; None if unreadable."""
    out = []
    try:
        for row in map(list, A):
            out.append(row if {*map(type, row)} == {int} else list(map(entry, row)))
    except (TypeError, ValueError, ArithmeticError):
        return None
    return out


def _number(x):
    """x as an int if it is an integer, else x; raises unless x is a finite number."""
    if not isinstance(x, Number):
        raise TypeError(x)
    return n if (n := int(x)) == x else x      # int(inf) and int(nan) raise


def _integer(x):
    if type(n := _number(x)) is not int:
        raise ValueError(x)
    return n


def to_int(A):
    """A as rows of plain ints, or None unless every entry is an integer."""
    return rows(A, _integer)


def clear_denominators(A):
    """(L A, L) in ints, L the least common denominator of A's entries; or ValueError."""
    A = rows(A, lambda x: x if type(x) is Fraction or type(x) is int else Fraction(_number(x)))
    if A is None:
        raise ValueError("matrix entries must be finite numbers")
    if all(type(x) is int for row in A for x in row):
        return A, 1
    L = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in A], L


def det(A):
    """Exact determinant (a Fraction) by Bareiss fraction-free elimination.

    The matrix is scaled to integers by the common denominator L of its entries,
    so every division is exact and det A = det(L A) / L^n.
    """
    if not is_square(A):
        raise ValueError("determinant needs a square matrix")
    M, L = clear_denominators(A)
    n = len(M)
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
    rows, out = to_int(rows), []
    if rows is None or len(set(map(len, rows))) > 1:
        raise ValueError("echelon needs rows of integers, all of one length")
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
