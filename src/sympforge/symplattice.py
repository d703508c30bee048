"""Exact classification of integral symplectic lattices.

A full-rank lattice with an integer-valued symplectic pairing is classified up to
isomorphism by its divisibility chain t_1 | t_2 | ... | t_n of elementary divisors (its
"type"), which this module computes by exact unimodular reduction, together with the
lattice-order structure on types (componentwise gcd/lcm) and sublattice refinement.

Gram matrices, bases and types are read by exactmat's one rule (an entry is an integer
when it is a number with int(x) == x).  All arithmetic is arbitrary-precision integer
arithmetic; every post-condition here is an exact matrix identity, never a tolerance.
"""

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from . import exactmat as xm


def validate_type(t):
    """Check the divisibility-chain condition on a type vector."""
    if (rows := xm.to_int([t])) is None:
        raise ValueError("type entries must be integers")
    if not (t := tuple(rows[0])):
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
    """Validate an integer antisymmetric Gram matrix; returns its rows as lists of ints."""
    if not xm.is_square(omega):
        raise ValueError("Gram matrix must be square")
    if (m := len(omega)) == 0:
        raise ValueError("Gram matrix must be non-empty")
    if m % 2 != 0:
        raise ValueError(f"dimension {m} is odd")
    if (A := xm.to_int(omega)) is None:
        raise ValueError("Gram matrix must be integral")
    if any(A[i][j] != -A[j][i] for i in range(m) for j in range(i, m)):
        raise ValueError("Gram matrix must be antisymmetric")
    return A


@dataclass
class NormalFormResult:
    basis_change: list  # unimodular U with U^T Omega U = standard_gram(type)
    type: tuple


def _swap(A, U, p, q, s):
    A[p], A[q] = A[q], A[p]
    for row in A[s:]:
        row[p], row[q] = row[q], row[p]
    U[p], U[q] = U[q], U[p]


def _col_add(A, U, j, s, i, c, k, d):
    # congruence v_j += c*v_i + d*v_k on A's trailing block s.. (the rest is 0); U[j] is v_j
    Aj, Ai, Ak, Uj, Ui, Uk = A[j], A[i], A[k], U[j], U[i], U[k]
    for r in range(s, len(A)):
        Aj[r] += c * Ai[r] + d * Ak[r]
        A[r][j] = -Aj[r]
    Aj[j] = 0
    for r in range(len(U)):
        Uj[r] += c * Ui[r] + d * Uk[r]


def _mix(A, U, p, q, a, b, c, d, s):
    # congruence (v_p, v_q) <- (a*v_p + b*v_q, c*v_p + d*v_q), ad - bc = 1
    Ap, Aq, Up, Uq, apq = A[p], A[q], U[p], U[q], A[p][q]
    for r in range(s, len(A)):
        Ap[r], Aq[r] = a * Ap[r] + b * Aq[r], c * Ap[r] + d * Aq[r]
    Ap[p], Ap[q], Aq[p], Aq[q] = 0, apq, -apq, 0
    for r in range(s, len(A)):
        A[r][p], A[r][q] = -Ap[r], -Aq[r]
    for r in range(len(U)):
        Up[r], Uq[r] = a * Up[r] + b * Uq[r], c * Up[r] + d * Uq[r]


def _reduce_pair(U, p, pivot):
    # finished pair (e, f) = (U[p], U[p+1]), <e, f> made |pivot|: f -= q e, e -= q' f
    e, f = U[p], U[p + 1] if pivot > 0 else [-x for x in U[p + 1]]
    ee, ef, ff = sum(map(mul, e, e)), sum(map(mul, e, f)), sum(map(mul, f, f))
    q = (2 * ef + ee) // (2 * ee)
    ef, ff = ef - q * ee, ff - 2 * q * ef + q * q * ee
    f = [y - q * x for x, y in zip(e, f)] if q else f
    q = (2 * ef + ff) // (2 * ff)
    U[p], U[p + 1] = [x - q * y for x, y in zip(e, f)] if q else e, f


def symplectic_normal_form(omega):
    """Reduce an antisymmetric integer Gram matrix to symplectic normal form.

    Returns NormalFormResult(U, t) with U unimodular (det +-1) and

        U^T Omega U = [[0, D_t], [-D_t, 0]],  D_t = diag(t),

    exactly.  Pairs (e, f) split off in turn.  On the next trailing row e, an
    extended-gcd step on its least entry and the entry that has the least
    gcd with it gives f.  Other columns drop the nearest multiple of f plus
    the multiple of the gcd step's partner column that cancels the old f in
    it, so U widens by about the entries' width per pair, not per Euclid
    pass.  Remainders re-pivot; once the pivot divides the block, row f
    clears by multiples of e, and the pair is size-reduced both ways.
    """
    A = check_gram(omega)
    m = len(A)
    U = xm.identity(m)
    divisors = []
    s = 0
    while s < m:
        while True:
            row = A[s]
            j = min((c for c in range(s + 1, m) if row[c]), key=lambda c: abs(row[c]), default=None)
            if j is None:       # a zero row in the trailing block
                raise ValueError("Gram matrix is degenerate")
            _swap(A, U, j, s + 1, s)
            a, w, h, r = row[s + 1], s + 1, 0, 1    # w = s + 1: no partner, weight 0
            rest = [c for c in range(s + 2, m) if row[c] % a]
            if rest:
                w = min(rest, key=lambda c: (gcd(a, row[c]), abs(row[c])))
                r, g = row[w], gcd(a, row[w])
                x = pow(a // g, -1, abs(r) // g)      # x*a = g (mod r), |x| <= |r|/2g
                x -= abs(r) // g if 2 * x > abs(r) // g else 0
                _mix(A, U, s + 1, w, x, (g - x * a) // r, -r // g, a // g, s)
                a, h = g, x * g
            for c in range(s + 2, m):
                q = (2 * row[c] + a) // (2 * a)             # nearest, for either sign of a
                if q:
                    _col_add(A, U, c, s, s + 1, -q, w, (-2 * q * h // r + 1) // 2)
            if any(row[s + 2:]):
                continue
            bad = next((k for k in range(s + 1, m)
                        if any(x % a for x in A[k][max(k + 1, s + 2):])), None)
            if bad is not None:
                _col_add(A, U, s, s, bad, 1, bad, 0)    # row e gains entries a does not divide
                continue
            for c in range(s + 2, m):
                if A[s + 1][c]:
                    _col_add(A, U, c, s, s, A[s + 1][c] // a, s, 0)
            break
        _reduce_pair(U, s, a)
        divisors.append(abs(a))
        s += 2

    # reorder interleaved pairs (e1,f1,e2,f2,...) to (e1..en, f1..fn)
    perm = list(range(0, m, 2)) + list(range(1, m, 2))
    U = [[U[p][r] for p in perm] for r in range(m)]
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
    """Pull back a Gram matrix along a (column-spanning) basis matrix of integers."""
    omega, B = check_gram(omega), xm.to_int(basis)
    if B is None or len(B) != len(omega) or not B[0] or len(set(map(len, B))) > 1:
        raise ValueError("basis must be an integer matrix with one row per Gram row")
    return xm.matmul(xm.transpose(B), xm.matmul(omega, B))
