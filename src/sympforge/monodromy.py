"""Verification of monodromy representations into the modified Siegel
groups: relator checking, Dirac-system witnesses, and bounded conjugacy
search over the integer lattice of intertwiners.  Everything is exact
integer/rational arithmetic; the conjugacy search is sound but only complete
within its entry bound.
"""

from dataclasses import dataclass
from math import isqrt, prod

from . import exactmat as xm
from . import siegel
from . import symplattice as sl


class BoundTooLargeForBudget(ValueError):
    pass


@dataclass(frozen=True)
class Presentation:
    n_generators: int
    relators: tuple  # words: tuples of nonzero signed 1-based generator indices

    @staticmethod
    def make(n_generators, relators):
        if (count := xm.to_int([[n_generators]])) is None:
            raise ValueError("generator count must be an integer")
        if (n := count[0][0]) < 1:
            raise ValueError("need at least one generator")
        if (rels := xm.to_int(relators)) is None:
            raise ValueError("relator letters must be integers")
        for word in rels:
            if any(x == 0 or abs(x) > n for x in word):
                raise ValueError(f"relator index out of range in {tuple(word)}")
        return Presentation(n, tuple(map(tuple, rels)))


@dataclass(frozen=True)
class Representation:
    images: tuple   # SiegelElements, one per generator
    type_ctx: tuple

    @staticmethod
    def make(matrices, type_ctx):
        t = sl.validate_type(type_ctx)
        if (matrices := xm.rows(matrices, lambda row: row)) is None:
            raise ValueError("images must be a sequence of matrices")
        return Representation(tuple(siegel.SiegelElement.make(m, t) for m in matrices), t)

    def evaluate(self, word):
        acc = siegel.SiegelElement(siegel._eye(len(self.images[0].matrix)), self.type_ctx)
        for idx in word:
            g = self.images[abs(idx) - 1]
            acc = acc @ (g if idx > 0 else g.inverse())
        return acc

    def conjugated(self, gamma):
        g = siegel.SiegelElement.make(gamma, self.type_ctx) \
            if not isinstance(gamma, siegel.SiegelElement) else gamma
        ginv = g.inverse()
        return Representation(tuple(g @ im @ ginv for im in self.images), self.type_ctx)


def validate_representation(pres, rep):
    """True iff every relator evaluates to the identity (membership of the
    images is enforced by construction of the Representation)."""
    if pres.n_generators != len(rep.images):
        raise ValueError("generator count does not match image count")
    return all(rep.evaluate(word).is_identity() for word in pres.relators)


def is_holonomy_trivial(rep):
    return all(im.is_identity() for im in rep.images)


def verify_dirac_system(images, lattice_basis):
    """Verify a supplied invariant-lattice witness for rational monodromy.

    images: rational matrices, each exactly symplectic for the principal
    form.  lattice_basis: columns spanning a full lattice.  True iff every
    image preserves the lattice and the form restricted to the lattice is
    integer-valued; returns (ok, type) with the type of the restricted Gram
    matrix.  T preserves it iff D T L is integral, D the common denominator of
    L, and adding its columns to those of D L keeps their covolume, the product
    of the echelon form's leading entries (det T = 1 makes the lattices equal).
    """
    DL, D = xm.clear_denominators(lattice_basis)
    if not (m := len(DL)) or m % 2 or not xm.is_square(DL):
        raise ValueError("lattice basis must be square of even dimension")
    if (images := xm.rows(images, lambda row: row)) is None or not all(
            xm.is_square(T) and len(T) == m for T in images):
        raise ValueError(f"images must be {m}x{m}, like the lattice basis")
    if len(E := xm.echelon(xm.transpose(DL))) < m:
        raise ValueError("lattice basis is singular")
    covolume = lambda rows: prod(r[i] for i, r in enumerate(rows))   # of m echelon rows
    for T in images:
        if (scaled := siegel.symplectic_numerators(T)) is None:   # T = dT / d
            raise ValueError("image is not symplectic for the standard form")
        dT, d = scaled
        DTL = xm.matmul(dT, DL)   # d D T L: D T L is integral iff d divides it
        if any(x % d for row in DTL for x in row) or covolume(xm.echelon(
                E + [[x // d for x in col] for col in zip(*DTL)])) != covolume(E):
            return False, None
    W = sl.standard_gram(sl.delta(m // 2))
    G = xm.matmul(xm.transpose(DL), xm.matmul(W, DL))   # D^2 L^T W L
    if any(x % (D * D) for row in G for x in row):
        return False, None
    return True, sl.space_type([[x // (D * D) for x in row] for row in G])


def _last_coefficient(q, l, k, P, r, bound):
    """The least integer c with P + c r in [-bound, bound] and q_e c^2 + l_e c + k_e = 0 for
    every e, or None: a root of the first equation not constant in c, else the least."""
    a, b, e = next(((a, b, e) for a, b, e in zip(q, l, k) if a or b), (0, 0, 0))
    roots = [(-b + s * isqrt(d)) // (2 * a) for s in (-1, 1)] \
        if a and (d := b * b - 4 * a * e) >= 0 else [-e // b] if b else []
    roots = [c for c in roots if all(x * c * c + y * c + z == 0 for x, y, z in zip(q, l, k))]
    if (a or b or any(k)) and not roots or any(abs(p) > bound for p, y in zip(P, r) if not y):
        return None
    span = [(p, y) if y > 0 else (-p, -y) for p, y in zip(P, r) if y]   # |p + c y|, y > 0
    lo, hi = max(-((bound + p) // y) for p, y in span), min((bound - p) // y for p, y in span)
    return min((c for c in roots or [lo] if lo <= c <= hi), default=None)


def conjugacy_test_bounded(rep1, rep2, entry_bound, budget=2_000_000):
    """Conjugator search among members with entries in [-entry_bound, entry_bound].

    Members are invertible, so gamma a gamma^-1 = b is gamma a = b gamma, which is
    linear in gamma.  In the echelon form of one row per gamma_ij, its coefficients
    in every equation and then the unit vector, the rows with a zero equation part
    are an echelon basis of the intertwiners.  All coefficients but the last fix the
    entries at their leading columns in lexicographic order, the order of the
    flattened entries, skipping prefixes fits rules out; membership is quadratic in
    the last, which is solved for.  Returns (gamma, certificate): the first member, or
    None, decisive with "trace mismatch" and else not found within the bound.  Raises
    BoundTooLargeForBudget past the work of a full walk of (2b + 1)^(rank - 1) = budget leaves.
    """
    if (bound := xm.to_int([[entry_bound]])) is None:
        raise ValueError("entry bound must be an integer")
    if (entry_bound := bound[0][0]) < 0:
        raise ValueError("entry bound must be non-negative")
    if rep1.type_ctx != rep2.type_ctx or len(rep1.images) != len(rep2.images):
        raise ValueError("representations are not comparable")
    # conjugation invariants give a cheap decisive prefilter
    for a, b in zip(rep1.images, rep2.images):
        if sum(a.matrix[i][i] for i in range(len(a.matrix))) != \
           sum(b.matrix[i][i] for i in range(len(b.matrix))):
            return None, "trace mismatch"
    dim, t = 2 * len(rep1.type_ctx), rep1.type_ctx
    cells = [(i, j) for i in range(dim) for j in range(dim)]
    pairs = [(a.matrix, b.matrix) for a, b in zip(rep1.images, rep2.images)]
    # the coefficient of gamma_ij in (gamma a - b gamma)_kl
    rows = [[(a[j][l] if i == k else 0) - (b[k][i] if j == l else 0)
             for a, b in pairs for k, l in cells] + [int(c == (i, j)) for c in cells]
            for i, j in cells]
    basis = [r[-len(cells):] for r in xm.echelon(rows) if not any(r[:-len(cells)])]
    if len(basis) > 1 and 2 * entry_bound + 1 > budget:   # 2b + 1 values of one coefficient
        raise BoundTooLargeForBudget(f"search exceeds budget {budget}; lower the bound")
    leads = [next(c for c, x in enumerate(r) if x) for r in basis]
    shape = lambda v: [v[i * dim:(i + 1) * dim] for i in range(dim)]
    F = [[siegel.pairing(shape(x), shape(y), t) for y in basis] for x in basis]
    # fits: entries final at depth a (no later basis row touches them) in the box; rows
    # final there nonzero, gamma Omega_u gamma^T = Omega_u on them, -Omega_u = t_n Omega_t^-1
    n, u = dim // 2, [t[-1] // x for x in t] * 2
    pair = lambda x, y: sum(v * (a * d - c * b) for v, a, c, b, d in zip(u, x, x[n:], y, y[n:]))
    omega_u = [[u[j] * (i == j + n) - u[i] * (j == i + n) for i in range(dim)] for j in range(dim)]
    fin = [max(a * (x != 0) for a, x in enumerate(col, 1)) for col in zip(*basis)]
    done = [max(fin[i * dim:(i + 1) * dim], default=0) for i in range(dim)]
    if not all(done):       # a row no basis row touches is zero, rank 0 included
        return None, "not found within bound"
    cols = [[c for c, d in enumerate(fin) if d == a and c not in leads] for a in range(len(basis))]
    new_rows = [[i for i, d in enumerate(done) if d == a] for a in range(len(basis))]
    def fits(P, a):
        row = lambda i: P[i * dim:(i + 1) * dim]
        return all(abs(P[c]) <= entry_bound for c in cols[a]) and all(any(row(i)) and all(
            pair(row(j), row(i)) == omega_u[j][i] for j in range(dim) if done[j] <= a)
            for i in new_rows[a])
    # depth first over c r_a by the entry at r_a's leading column: P = sum c r so far,
    # K = P^T Omega P - Omega and Y[d - a] = P^T Omega r_d + r_d^T Omega P (entries i < j).
    # Budget: a prefix costs a unit per row of Y it carries; a full walk with B = (2b + 1)^
    # (rank - 1) <= budget leaves costs < 9 B / 4.  Leaves skip fits: _last_coefficient tests all
    left = [budget * 9 // 4 + len(basis) * (len(basis) + 1) // 2, budget]   # units, leaves
    def prefixes(a, P, K, Y):
        if a == len(basis) - 1:
            yield P, K, Y[0]
            return
        r, p, s = basis[a], P[leads[a]], basis[a][leads[a]]
        for c in range(-((entry_bound + p) // s), (entry_bound - p) // s + 1):
            left[0] -= len(Y) - 1
            left[1] -= a + 2 == len(basis)
            if min(left) < 0:
                raise BoundTooLargeForBudget(f"search exceeds budget {budget}; lower the bound")
            Q = [x + c * y for x, y in zip(P, r)]
            if a + 2 == len(basis) or fits(Q, a + 1):
                yield from prefixes(a + 1, Q,
                                    [k + c * (c * f + y) for k, f, y in zip(K, F[a][a], Y[0])],
                                    [[y + c * (f + g) for y, f, g in zip(Yd, F[a][d], F[d][a])]
                                     for d, Yd in enumerate(Y[1:], a + 1)])
    w = [-x for x in siegel._omega_entries(t)]    # -Omega_t
    for P, K, l in prefixes(0, [0] * len(cells), w, [[0] * len(w)] * len(basis)):
        if (c := _last_coefficient(F[-1][-1], l, K, P, basis[-1], entry_bound)) is not None:
            return shape([x + c * y for x, y in zip(P, basis[-1])]), "found"
    return None, "not found within bound"
