"""Reference arithmetic that the checks use instead of the library.

Everything here is written independently of ``sympforge``: exact integer
matrices are lists of row lists, the determinant is fraction-free
(Bareiss), and symplectic inverses use the closed form
``S^-1 = Omega_t^-1 S^T Omega_t``.  The workloads also draw their seeded
inputs from the generators here, so the library only ever sees inputs it
did not produce.
"""

from fractions import Fraction
from itertools import product


def ident(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def transpose(A):
    return [list(c) for c in zip(*A)]


def mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def bareiss_det(A):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    M = [[int(x) for x in row] for row in A]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * pivot - M[i][k] * M[k][j]) // prev
        prev = pivot
    return sign * M[n - 1][n - 1]


def std_gram(t):
    n = len(t)
    G = [[0] * (2 * n) for _ in range(2 * n)]
    for i, ti in enumerate(t):
        G[i][n + i] = ti
        G[n + i][i] = -ti
    return G


def is_chain(t):
    return len(t) > 0 and all(x >= 1 for x in t) and all(b % a == 0 for a, b in zip(t, t[1:]))


def is_member(S, t):
    G = std_gram(t)
    return mul(transpose(S), mul(G, S)) == G


def symp_inverse(S, t):
    """Closed-form inverse of a type-t member; raises if not integral."""
    n = len(t)
    M = mul(transpose(S), std_gram(t))
    out = []
    for i in range(2 * n):
        row, d = (M[n + i], -t[i]) if i < n else (M[i - n], t[i - n])
        if any(x % d for x in row):
            raise ValueError("closed-form inverse is not integral")
        out.append([x // d for x in row])
    return out


def conjugate_by_gamma(S, t, t2):
    """Gamma_t2^-1 Gamma_t S Gamma_t^-1 Gamma_t2 entrywise, as Fractions."""
    n = len(t)
    g1 = [1] * n + list(t)
    g2 = [1] * n + list(t2)
    return [[Fraction(S[i][j] * g1[i] * g2[j], g2[i] * g1[j]) for j in range(2 * n)]
            for i in range(2 * n)]


def integral(M):
    return all(Fraction(x).denominator == 1 for row in M for x in row)


# ---------------------------------------------------------------------------
# seeded generators

def random_chain(rng, n, max_factor=3):
    t = [rng.randint(1, max_factor)]
    for _ in range(n - 1):
        t.append(t[-1] * rng.randint(1, max_factor))
    return tuple(t)


def random_unimodular(rng, m, ops=8, c=2):
    U = ident(m)
    for _ in range(ops):
        i, j = rng.sample(range(m), 2)
        k = rng.randint(-c, c)
        for row in U:
            row[j] += k * row[i]
    return U


def random_antisymmetric(rng, n, bound):
    """Nondegenerate antisymmetric 2n x 2n integer matrix, entries in [-bound, bound]."""
    m = 2 * n
    while True:
        G = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = rng.randint(-bound, bound)
                G[i][j], G[j][i] = x, -x
        if bareiss_det(G) != 0:
            return G


def generator(rng, t, entry=1):
    """One unipotent type-t member: [[I, B], [0, I]] or [[I, 0], [C, I]].

    Upper blocks need D_t B symmetric and lower blocks D_t C symmetric.
    """
    n = len(t)
    S = ident(2 * n)
    i, j = rng.randrange(n), rng.randrange(n)
    c = rng.choice([k for k in range(-entry, entry + 1) if k])
    upper = rng.random() < 0.5
    if i == j:
        blk = {(i, i): c}
    elif upper:   # t_i B_ij = t_j B_ji
        blk = {(i, j): c * t[j], (j, i): c * t[i]}
    else:         # t_i C_ij = t_j C_ji
        blk = {(i, j): c * t[j], (j, i): c * t[i]}
    for (a, b), x in blk.items():
        if upper:
            S[a][n + b] = x
        else:
            S[n + a][b] = x
    return S


def random_member(rng, t, length=6):
    S = ident(2 * len(t))
    for _ in range(length):
        S = mul(S, generator(rng, t))
    return S


def sl2_with_bound(rng, bound):
    """Random det-1 integer 2x2 matrix with entries in [-bound, bound]."""
    vals = range(-bound, bound + 1)
    pool = [((a, b), (c, d)) for a, b, c, d in product(vals, repeat=4) if a * d - b * c == 1]
    (a, b), (c, d) = rng.choice(pool)
    return [[a, b], [c, d]]


def candidate_index(M, bound):
    """Position of M in product(range(-b, b + 1), repeat=dim^2) order, plus one."""
    base = 2 * bound + 1
    idx = 0
    for x in (x for row in M for x in row):
        idx = idx * base + (x + bound)
    return idx + 1


def chains_below(t):
    """Divisor chains strictly below t in the componentwise-divisibility order."""
    opts = [[d for d in range(1, x + 1) if x % d == 0] for x in t]
    for c in product(*opts):
        if c != tuple(t) and is_chain(c):
            yield c
