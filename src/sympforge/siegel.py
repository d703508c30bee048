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
    return rows if rows is not None and preserves_form(rows, t) else None


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


def preserves_form(S, t):
    """S^T Omega_t S == Omega_t for exact square S, on the entries i < j of both sides."""
    return pairing(S, S, t) == _omega_entries(t)


def _diag_conjugate(S, c):
    """diag(c)^-1 S diag(c), entry (S_ij c_j) / c_i, for S of ints or Fractions and
    c of positive ints; None unless every entry is an integer."""
    out = [[divmod(x.numerator * cj, x.denominator * ci) for x, cj in zip(row, c)]
           for ci, row in zip(c, S)]
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
        inv = _diag_conjugate(adj, self.type_ctx * 2)
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
    """Minimal type t with Gamma_t^{-1} T Gamma_t integral, for T = [[A, B], [C, D]]
    exactly symplectic for the principal form.

    The conjugate is [[A, B D_t], [D_t^-1 C, D_t^-1 D D_t]].  Its B and D blocks
    and the chain condition give lower bounds that grow with t: den(B_ij) | t_j,
    t_{j-1} | t_j, and q t_i / gcd(t_i, p) | t_j for D_ij = p/q.  Raised to their
    least fixed point they give a chain dividing every admissible type; the A
    and C conditions (A integral, t_i | C_ij) only fail more as t grows, so that
    chain is the minimum if any type is admissible.  Like the types a search
    would try, its entries must divide cap = (lcm of entry denominators)^n;
    without that bound the raising need not stop (D_11 = 1/2 doubles t_1 on
    each pass).  Returns None when an entry leaves cap or A, C fail.
    """
    T = xm.to_fraction(T)
    m = len(T)
    if not xm.is_square(T) or m % 2:
        raise ValueError("matrix must be square of even dimension")
    n = m // 2
    if not preserves_form(T, sl.delta(n)):
        raise ValueError("matrix is not symplectic for the standard form")

    cap = lcm(*(x.denominator for row in T for x in row)) ** n
    D = [row[n:] for row in T[n:]]
    t = [lcm(*(row[n + j].denominator for row in T[:n])) for j in range(n)]
    changed = True
    while changed:
        changed = False
        for j in range(n):
            need = lcm(t[j], t[j - 1] if j else 1,
                       *(D[i][j].denominator * t[i] // gcd(t[i], D[i][j].numerator)
                         for i in range(n)))
            if need != t[j]:
                if cap % need:
                    return None
                t[j], changed = need, True
    t = tuple(t)
    return None if _diag_conjugate(T, (1,) * n + t) is None else t


def transport(S, t, t2):
    """Move a type-t member to the type-t2 picture; None if non-integral.

    The transport conjugates by Gamma_t then Gamma_{t2}^{-1}, that is by diag(c)
    with c = t_n Gamma_{t2} / Gamma_t; an integral result is a member at t2.
    """
    t, t2 = sl.validate_type(t), sl.validate_type(t2)
    if len(t) != len(t2) or not xm.is_square(S) or len(S) != 2 * len(t):
        raise ValueError("matrix and types do not have matching sizes")
    c = (t[-1],) * len(t) + tuple(t[-1] * b // a for a, b in zip(t, t2))
    return _diag_conjugate(xm.to_fraction(S), c)


# ---------------------------------------------------------------------------
# the affine group: torus translations semidirect rotations

@dataclass(frozen=True)
class AffElement:
    nums: tuple  # ints in [0, den): the translation is nums / den
    den: int     # the least common denominator of the translation
    rotation: SiegelElement

    @staticmethod
    def make(translation, rotation):
        a = [Fraction(x) for x in translation]
        if len(a) != len(rotation.matrix):
            raise ValueError("translation length does not match rotation size")
        den = lcm(*(x.denominator for x in a))
        return _aff([x.numerator * (den // x.denominator) for x in a], den, rotation)

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
