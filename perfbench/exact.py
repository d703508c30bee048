"""Workload ``exact``: exact-integer lattice, Siegel-group and monodromy ops.

The mix puts big-integer elimination (normal forms with entries up to
10^6, dimension-16 determinants) beside many tiny products and inverses
(Siegel words, affine compositions), so a change that speeds one kind and
slows the other shows in the end-to-end numbers.  The dimension-4
conjugacy searches run with a small explicit budget; the library refuses
them today, and they stay in the mix as failed ops.
"""

import random

import calib
import ref
from harness import Op
from sympforge import exactmat as xm, monodromy, siegel, symplattice as sl

NF_SIZES = [(n, b) for n in (1, 2, 4, 6, 8) for b in (20, 10 ** 6)]
SPACE_TYPE_N = (1, 2, 4)
DET_DIMS = (8, 16)
SIEGEL_TYPES = ((1,), (1, 2), (2, 4), (1, 2, 4))
MIN_TYPES = ((2,), (2, 6), (1, 4))
TRANSPORT_PAIRS = (((1, 2), (2, 4)), ((2, 4), (1, 2)), ((1, 1, 2), (1, 2, 4)))
AFF_COUNT = 16          # one homogeneous block that straddles the median op
CONJ2_BOUNDS = (1, 2, 3)
CONJ4_BUDGET = 500
TRACE_ROUNDS = 8


def nf_op(rng, n, bound):
    G = ref.random_antisymmetric(rng, n, bound)
    info = {"size": f"n{n}.{'small' if bound <= 20 else 'big'}"}

    def check(res):
        U, t = res.basis_change, tuple(res.type)
        info["u_bits"] = max(abs(x) for row in U for x in row).bit_length()
        return (len(t) == n and ref.is_chain(t)
                and ref.mul(ref.transpose(U), ref.mul(G, U)) == ref.std_gram(t)
                and abs(ref.bareiss_det(U)) == 1)
    return Op("normal_form", lambda: sl.symplectic_normal_form(G), check, info=info)


def space_type_op(rng, n):
    t = ref.random_chain(rng, n)
    W = ref.random_unimodular(rng, 2 * n, ops=3 * n)
    G = ref.mul(ref.transpose(W), ref.mul(ref.std_gram(t), W))
    return Op("space_type", lambda: sl.space_type(G), lambda res: tuple(res) == t)


def det_op(rng, dim):
    A = [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(dim)]
    expect = ref.bareiss_det(A)
    return Op("det", lambda: xm.det(A), lambda res: res == expect, info={"size": f"d{dim}"})


def siegel_word_op(rng, t):
    letters = [(ref.random_member(rng, t, 3), rng.random() < 0.5) for _ in range(6)]
    m = 2 * len(t)
    expect = ref.ident(m)
    for M, inv in letters:
        expect = ref.mul(expect, ref.symp_inverse(M, t) if inv else M)

    def run():
        g = siegel.SiegelElement.make(ref.ident(m), t)
        for M, inv in letters:
            x = siegel.SiegelElement.make(M, t)
            g = g @ (x.inverse() if inv else x)
        return g
    return Op("siegel_word", run,
              lambda g: g.rows() == expect and tuple(g.type_ctx) == t)


def min_type_op(rng, t):
    S = ref.random_member(rng, t, 6)
    delta = (1,) * len(t)
    T = ref.conjugate_by_gamma(S, t, delta)      # Gamma_t S Gamma_t^-1

    def admissible(c):
        return ref.integral(ref.conjugate_by_gamma(T, delta, c))

    def check(res):
        r = tuple(res)
        return (ref.is_chain(r) and len(r) == len(t) and admissible(r)
                and all(b % a == 0 for a, b in zip(r, t))
                and not any(admissible(c) for c in ref.chains_below(r)))
    return Op("min_type", lambda: siegel.element_min_type(T), check)


def transport_op(rng, t, t2):
    S = ref.random_member(rng, t, 6)
    M = ref.conjugate_by_gamma(S, t, t2)
    expect = [[int(x) for x in row] for row in M] if ref.integral(M) else None
    return Op("transport", lambda: siegel.transport(S, t, t2), lambda res: res == expect)


def _rational(rng):
    den = rng.randint(1, 12)
    return (rng.randrange(den), den)


def aff_op(rng, t):
    m = 2 * len(t)
    r1, r2 = ref.random_member(rng, t, 4), ref.random_member(rng, t, 4)
    a1 = [_rational(rng) for _ in range(m)]
    a2 = [_rational(rng) for _ in range(m)]
    fr = ref.Fraction
    moved = [sum(r1[i][j] * fr(*a2[j]) for j in range(m)) for i in range(m)]
    expect_a = tuple((fr(*x) + y) % 1 for x, y in zip(a1, moved))
    expect_r = ref.mul(r1, r2)

    def run():
        g1 = siegel.AffElement.make([fr(*x) for x in a1], siegel.SiegelElement.make(r1, t))
        g2 = siegel.AffElement.make([fr(*x) for x in a2], siegel.SiegelElement.make(r2, t))
        h = siegel.aff_compose(g1, g2)
        return h, siegel.aff_compose(h, siegel.aff_inverse(h))

    def check(res):
        h, e = res
        return (tuple(h.translation) == expect_a and h.rotation.rows() == expect_r
                and all(x == 0 for x in e.translation) and e.rotation.rows() == ref.ident(m))
    return Op("aff", run, check)


def _commuting_images(rng, t, k):
    """k commuting members gamma U_i gamma^-1 with U_i upper unipotent."""
    n = len(t)
    g = ref.random_member(rng, t, 4)
    g_inv = ref.symp_inverse(g, t)
    out = []
    for _ in range(k):
        U = ref.ident(2 * n)
        for i in range(n):
            U[i][n + i] = rng.randint(-2, 2)
        out.append(ref.mul(g, ref.mul(U, g_inv)))
    return out


def validate_op(rng, t, holds):
    images = _commuting_images(rng, t, 3)
    rels = [[1, 2, -1, -2], [2, 3, -2, -3], [1, 3, -1, -3]]
    if not holds:
        rels.append([1, 2])

    def evaluate(word):
        acc = ref.ident(2 * len(t))
        for x in word:
            g = images[abs(x) - 1]
            acc = ref.mul(acc, g if x > 0 else ref.symp_inverse(g, t))
        return acc
    expect = all(evaluate(w) == ref.ident(2 * len(t)) for w in rels)

    def run():
        pres = monodromy.Presentation.make(3, rels)
        return monodromy.validate_representation(pres, monodromy.Representation.make(images, t))
    return Op("validate_rep", run, lambda res: res is expect)


def dirac_op(rng, t):
    n = len(t)
    delta = (1,) * n
    M = ref.random_member(rng, delta, 4)
    M_inv = ref.symp_inverse(M, delta)
    L = [[M[i][j] * ([1] * n + list(t))[j] for j in range(2 * n)] for i in range(2 * n)]
    images = [ref.mul(M, ref.mul(ref.conjugate_by_gamma(ref.random_member(rng, t, 4), t, delta),
                                 M_inv)) for _ in range(2)]
    return Op("dirac_verify", lambda: monodromy.verify_dirac_system(images, L),
              lambda res: res[0] is True and tuple(res[1]) == t)


def _bounded_sp4(rng):
    """A member of Sp(4, Z) with entries in [-1, 1]."""
    while True:
        g = ref.ident(4)
        for _ in range(2):
            kind = rng.randrange(3)
            if kind == 0:
                b = rng.randint(-1, 1)
                B = [[rng.randint(-1, 1), b], [b, rng.randint(-1, 1)]]
                step = [[1, 0, B[0][0], B[0][1]], [0, 1, B[1][0], B[1][1]],
                        [0, 0, 1, 0], [0, 0, 0, 1]]
            elif kind == 1:
                step = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
            else:
                step = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
            g = ref.mul(g, step)
        if max(abs(x) for row in g for x in row) <= 1:
            return g


def conjugacy_op(rng, dim, bound):
    t = (1,) * (dim // 2)
    A = [ref.random_member(rng, t, 4) for _ in range(2)]
    gamma = ref.sl2_with_bound(rng, bound) if dim == 2 else _bounded_sp4(rng)
    g_inv = ref.symp_inverse(gamma, t)
    B = [ref.mul(gamma, ref.mul(a, g_inv)) for a in A]
    budget = CONJ4_BUDGET if dim == 4 else 2_000_000
    info = {"candidates": budget, "answered": 0}

    def run():
        r1, r2 = monodromy.Representation.make(A, t), monodromy.Representation.make(B, t)
        return monodromy.conjugacy_test_bounded(r1, r2, bound, budget=budget)

    def check(res):
        g, cert = res
        if g is None:
            return False
        info["candidates"] = ref.candidate_index(g, bound)
        info["answered"] = 1
        return (cert == "found" and max(abs(x) for row in g for x in row) <= bound
                and ref.is_member(g, t)
                and all(ref.mul(g, a) == ref.mul(b, g) for a, b in zip(A, B)))
    return Op(f"conjugacy_d{dim}", run, check,
              refusals=(monodromy.BoundTooLargeForBudget,), info=info)


class Workload:
    """Seeded round generator; round k draws from its own stream."""

    name = "exact"
    trace_rounds = TRACE_ROUNDS
    kernel = staticmethod(calib.python_kernel)

    def __init__(self, seed):
        self.seed = seed

    def round(self, k):
        rng = random.Random(self.seed * 1_000_003 + k)
        ops = [nf_op(rng, n, b) for n, b in NF_SIZES]
        ops += [space_type_op(rng, n) for n in SPACE_TYPE_N for _ in range(4)]
        ops += [det_op(rng, d) for d in DET_DIMS]
        ops += [siegel_word_op(rng, t) for t in SIEGEL_TYPES for _ in range(3)]
        ops += [min_type_op(rng, t) for t in MIN_TYPES]
        ops += [transport_op(rng, t, t2) for t, t2 in TRANSPORT_PAIRS]
        ops += [aff_op(rng, (1, 2)) for _ in range(AFF_COUNT)]
        ops += [validate_op(rng, (1, 2), holds) for holds in (True, False)]
        ops += [dirac_op(rng, t) for t in ((2,), (1, 2))]
        ops += [conjugacy_op(rng, 2, b) for b in CONJ2_BOUNDS]
        # two dimension-4 searches, so that each worker's tail op falls inside
        # their cluster rather than among the bound-3 searches of dimension 2,
        # whose times spread with the planted conjugator's place in the search
        ops += [conjugacy_op(rng, 4, 1) for _ in range(2)]
        return ops

    def warmup(self):
        rng = random.Random(-1 - self.seed)
        return [nf_op(rng, 1, 20), space_type_op(rng, 1), det_op(rng, 8),
                siegel_word_op(rng, (1,)), min_type_op(rng, (2,)),
                transport_op(rng, (1, 2), (2, 4)), aff_op(rng, (1,)),
                validate_op(rng, (1, 2), True), dirac_op(rng, (2,)),
                conjugacy_op(rng, 2, 1)]

    @staticmethod
    def counters(ops):
        nf = [op.info.get("u_bits", 0) for op in ops if op.kind == "normal_form"]
        conj = [op for op in ops if op.kind.startswith("conjugacy")]
        cand = sum(op.info["candidates"] for op in conj)
        answered = sum(op.info["answered"] for op in conj)
        return {
            "symplattice.u_max_bits": max(nf, default=0),
            "monodromy.candidates": cand,
            "monodromy.useful_ratio": answered / cand if cand else 0.0,
        }
