"""Arithmetic of the modified Siegel modular groups and the affine
symplectic torus automorphism group.

Group elements are exact integer matrices preserving the block Gram matrix of a
given type, checked once, in SiegelElement.make (products and inverses stay
members); the affine group pairs such a rotation with a torus translation held as
integer numerators over one least common denominator, so the group law runs on ints
and is tested with equality; ``translation`` gives the Fractions in [0, 1).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from . import exactmat as xm
from . import symplattice as sl


def is_member(S, t):
    """Membership in the modified Siegel group of type t (Z^{2n} picture).

    True iff S is an integer matrix with S^T Omega_t S = Omega_t exactly.
    """
    return _member_rows(S, sl.validate_type(t)) is not None


def _member_rows(S, t):
    """S as rows of ints if it is a member of type t (already validated), else None."""
    if not xm.is_square(S) or len(S) != 2 * len(t):
        raise ValueError(f"expected a {2*len(t)}x{2*len(t)} matrix")
    rows = xm.to_int(S)
    return rows if rows is not None and pairing(rows, rows, t) == _omega_entries(t) else None


def pairing(X, Y, t):
    """The entries i < j of X^T Omega_t Y, row by row, for exact square X and Y of
    size 2n = 2 len(t): (X^T Omega_t Y)_ij = sum_k t_k (X_ki Y_{n+k,j} - X_{n+k,i} Y_kj)."""
    n = len(t)
    xs = [(c[:n], c[n:]) for c in zip(*X)]
    ys = xs if Y is X else [(c[:n], c[n:]) for c in zip(*Y)]
    return [sum(tk * (a * d - c * b) for tk, a, c, b, d in zip(t, *xs[i], *ys[j]))
            for i in range(2 * n) for j in range(i + 1, 2 * n)]


@cache
def _eye(m):  # the identity as rows of a SiegelElement
    return tuple(map(tuple, xm.identity(m)))


@cache
def _omega_entries(t):  # pairing(I, I, t): the entries i < j of Omega_t, once per type; read only
    return pairing(*[xm.identity(2 * len(t))] * 2, t)


def symplectic_numerators(T):
    """(M, L) with T = M / L in ints (exactmat.clear_denominators) if T, square of even
    size, is symplectic for the principal form, that is pairing(M, M) = L^2 Omega; else None."""
    M, L = xm.clear_denominators(T)
    delta = sl.delta(len(M) // 2)
    return (M, L) if pairing(M, M, delta) == [L * L * w for w in _omega_entries(delta)] else None


def _diag_conjugate(S, c, den):
    """diag(c)^-1 (S / den) diag(c), entry (S_ij c_j) / (c_i den), for S of ints and c of
    positive ints; None unless every entry is an integer."""
    out = [[divmod(x * cj, ci * den) for x, cj in zip(row, c)] for ci, row in zip(c, S)]
    return None if any(r for row in out for _, r in row) else [[q for q, _ in row] for row in out]


@dataclass(frozen=True)
class SiegelElement:
    matrix: tuple  # rows of ints
    type_ctx: tuple

    @staticmethod
    def make(matrix, type_ctx):
        t = sl.validate_type(type_ctx)
        if (rows := _member_rows(matrix, t)) is None:
            raise ValueError("matrix does not preserve the type-t Gram matrix")
        return SiegelElement(tuple(map(tuple, rows)), t)

    def rows(self):
        return [list(r) for r in self.matrix]

    def inverse(self):
        """S^-1 = Omega_t^-1 S^T Omega_t in closed form, with Omega_t = J diag(t + t)."""
        S, m, n = self.matrix, len(self.matrix), len(self.type_ctx)
        adj = [[S[(j + n) % m][(i + n) % m] * (1 if (i < n) == (j < n) else -1)
                for j in range(m)] for i in range(m)]
        inv = _diag_conjugate(adj, self.type_ctx * 2, 1)
        if inv is None:
            raise ValueError("matrix does not preserve the type-t Gram matrix")
        return SiegelElement(tuple(map(tuple, inv)), self.type_ctx)

    def __matmul__(self, other):
        if self.type_ctx != other.type_ctx:
            raise ValueError("elements live in groups of different type")
        product = xm.matmul(self.matrix, other.matrix)
        return SiegelElement(tuple(map(tuple, product)), self.type_ctx)

    def is_identity(self):
        return self.matrix == _eye(len(self.matrix))


def element_min_type(T):
    """Minimal type t with Gamma_t^{-1} T Gamma_t integral, for T = [[A, B], [C, D]] = M / L
    exactly symplectic for the principal form, M and L ints (exactmat.clear_denominators).

    The conjugate is [[A, B D_t], [D_t^-1 C, D_t^-1 D D_t]], with entries M_ij t_j / (L t_i)
    in its B and D blocks (t_i = 1 in B).  These and the chain condition give lower bounds
    that grow with t: L t_i / gcd(L t_i, M_ij) | t_j and t_{j-1} | t_j.  Raised to their
    least fixed point they give a chain dividing every admissible type; the A and C
    conditions (A integral, t_i | C_ij) only fail more as t grows, so that chain is the
    minimum if any type is admissible.  Like the types a search would try, its entries
    must divide cap = L^n; without that bound the raising need not stop (D_11 = 1/2
    doubles t_1 on each pass).  Returns None when an entry leaves cap or A, C fail.
    """
    if not xm.is_square(T) or not (m := len(T)) or m % 2:
        raise ValueError("matrix must be square of even dimension")
    if (scaled := symplectic_numerators(T)) is None:
        raise ValueError("matrix is not symplectic for the standard form")

    (M, L), n = scaled, m // 2
    cap, D = L ** n, [row[n:] for row in M[n:]]
    t = [lcm(*(L // gcd(L, row[n + j]) for row in M[:n])) for j in range(n)]
    changed = True
    while changed:
        changed = False
        for j in range(n):
            need = lcm(t[j], t[j - 1] if j else 1,
                       *(L * t[i] // gcd(L * t[i], D[i][j]) for i in range(n)))
            if need != t[j]:
                if cap % need:
                    return None
                t[j], changed = need, True
    t = tuple(t)
    return None if _diag_conjugate(M, (1,) * n + t, L) is None else t


def transport(S, t, t2):
    """Move a type-t member, of integer entries, to the type-t2 picture; None if non-integral.

    The transport conjugates by Gamma_t then Gamma_{t2}^{-1}, that is by diag(c)
    with c = t_n Gamma_{t2} / Gamma_t; an integral result is a member at t2.
    """
    t, t2 = sl.validate_type(t), sl.validate_type(t2)
    if len(t) != len(t2) or not xm.is_square(S) or len(S) != 2 * len(t):
        raise ValueError("matrix and types do not have matching sizes")
    if (rows := xm.to_int(S)) is None:
        raise ValueError("matrix entries must be integers")
    c = (t[-1],) * len(t) + tuple(t[-1] * b // a for a, b in zip(t, t2))
    return _diag_conjugate(rows, c, 1)


# ---------------------------------------------------------------------------
# the affine group: torus translations semidirect rotations

@dataclass(frozen=True)
class AffElement:
    nums: tuple  # ints in [0, den): the translation is nums / den
    den: int     # the least common denominator of the translation
    rotation: SiegelElement

    @staticmethod
    def make(translation, rotation):
        [nums], den = xm.clear_denominators([translation])
        if len(nums) != len(rotation.matrix):
            raise ValueError("translation length does not match rotation size")
        return _aff(nums, den, rotation)

    @staticmethod
    def identity_element(t):
        rot = SiegelElement.make(xm.identity(2 * len(t)), t)   # make validates t
        return AffElement((0,) * len(rot.matrix), 1, rot)

    @property
    def translation(self):
        """The torus translation as Fractions in [0, 1)."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_identity(self):
        return not any(self.nums) and self.rotation.is_identity()


def _aff(nums, den, rotation):
    """The element with translation nums / den mod 1, reduced to canonical form."""
    nums = [x % den for x in nums]
    g = gcd(den, *nums)
    return AffElement(tuple(x // g for x in nums), den // g, rotation)


def aff_compose(g1, g2):
    """(a1, r1)(a2, r2) = (a1 + r1 a2 mod 1, r1 r2), over the lcm of both denominators."""
    if g1.rotation.type_ctx != g2.rotation.type_ctx:
        raise ValueError("elements live in groups of different type")
    den = lcm(g1.den, g2.den)
    c1, c2 = den // g1.den, den // g2.den
    a = [c1 * x + c2 * y for x, y in zip(g1.nums, xm.matvec(g1.rotation.matrix, g2.nums))]
    return _aff(a, den, g1.rotation @ g2.rotation)


def aff_inverse(g):
    """(a, r)^-1 = (-r^-1 a mod 1, r^-1)."""
    rot_inv = g.rotation.inverse()
    return _aff([-x for x in xm.matvec(rot_inv.matrix, g.nums)], g.den, rot_inv)


def aff_adjoint(g):
    """Adjoint representation: translations act trivially, so Ad(a, r) = r."""
    return g.rotation.rows()


def isogeny_kernel(t, t2):
    """Cyclic factors (q_1, ..., q_n) = (t2_i / t_i) of the isogeny kernel."""
    t, t2 = sl.validate_type(t), sl.validate_type(t2)
    if not sl.type_leq(t, t2):
        raise ValueError(f"{t} does not divide {t2} componentwise")
    return tuple(b // a for a, b in zip(t, t2))


# ---------------------------------------------------------------------------
# generator sampling, used by the self-test suites

def generators(t):
    """A finite generating-ish set of type-t members for random sampling."""
    t = sl.validate_type(t)
    n = len(t)
    gens = []
    for i in range(n):
        # the upper and lower unipotents of E_ii
        B = xm.zeros(n, n)
        B[i][i] = 1
        gens += [_embed(B, t, True), _embed(B, t, False)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(t[i], t[j])
            B = xm.zeros(n, n)
            B[i][j] = t[j] // g
            B[j][i] = t[i] // g
            gens.append(_embed(B, t, True))
    # the symplectic reflection e_i -> -f_i-ish block rotation, principal only
    if all(x == t[0] for x in t):
        gens.append(SiegelElement.make(sl.standard_gram(sl.delta(n)), t))
    return gens


def _embed(M, t, upper):
    """The unipotent [[I, M], [0, I]] if upper, else [[I, 0], [M, I]]."""
    n = len(M)
    r, c = (0, n) if upper else (n, 0)
    S = xm.identity(2 * n)
    for i in range(n):
        for j in range(n):
            S[r + i][c + j] = M[i][j]
    return SiegelElement.make(S, t)


def random_member(t, rng, word_length=6):
    """Random word in the generator set (and inverses)."""
    gens = generators(t)
    g = SiegelElement.make(xm.identity(2 * len(t)), t)
    for _ in range(word_length):
        pick = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            pick = pick.inverse()
        g = g @ pick
    return g
