"""The one reader of exact input: exactmat's rule, seen through every exact entry point.

An entry must be a number (never a str); it is an integer when int(x) == x, and any
other entry is Fraction(x); inf and nan are refused.  A value that is not an iterable
of iterables of numbers is refused with a ValueError, as is every entry the rule
refuses, by every entry point of the exact layer.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sympforge import exactmat as xm
from sympforge import monodromy, siegel
from sympforge import symplattice as sl

FORMS = {
    "int": lambda M: M,
    "bool": lambda M: [[True if x == 1 else x for x in row] for row in M],
    "float": lambda M: [[float(x) for x in row] for row in M],
    "fraction": lambda M: [[Fraction(x) for x in row] for row in M],
    "numpy_scalar": lambda M: [[np.int64(x) for x in row] for row in M],
    "numpy_array": lambda M: np.array(M),
}
I2, GRAM = [[1, 0], [0, 1]], [[0, 1], [-1, 0]]


@pytest.mark.parametrize("form", FORMS)
def test_the_identity_reads_alike_in_every_integer_form(form):
    S, G = FORMS[form](I2), FORMS[form](GRAM)
    assert siegel.is_member(S, (1,)) is True
    assert siegel.SiegelElement.make(S, (1,)).matrix == ((1, 0), (0, 1))
    assert monodromy.Representation.make([S], (1,)).images[0].matrix == ((1, 0), (0, 1))
    assert siegel.transport(S, (1,), (1,)) == I2
    assert siegel.element_min_type(S) == (1,)
    assert monodromy.verify_dirac_system([S], S) == (True, (1,))
    assert sl.space_type(G) == (1,)


def test_the_identity_of_strings_is_refused_everywhere():
    S, G = [["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]
    assert siegel.is_member(S, (1,)) is False
    for call in (lambda: siegel.SiegelElement.make(S, (1,)),
                 lambda: monodromy.Representation.make([S], (1,)),
                 lambda: siegel.transport(S, (1,), (1,)),
                 lambda: siegel.element_min_type(S),
                 lambda: monodromy.verify_dirac_system([S], I2),
                 lambda: monodromy.verify_dirac_system([I2], S),
                 lambda: sl.space_type(G)):
        with pytest.raises(ValueError):
            call()


ROT = siegel.SiegelElement.make([[1, 1], [0, 1]], (1,))
REP = monodromy.Representation.make([[[1, 1], [0, 1]]], (1,))


@pytest.mark.parametrize("call, message", [
    (lambda: xm.det([[1, 2, 3], [4, 5, 6]]), "determinant needs a square matrix"),
    (lambda: xm.det([[1], [2]]), "determinant needs a square matrix"),
    (lambda: xm.det([[1, 2], [3]]), "determinant needs a square matrix"),
    (lambda: xm.echelon([[0.5, 1], [1, 0]]), "echelon needs rows of integers"),
    (lambda: xm.echelon([[math.nan, 1], [1, 0]]), "echelon needs rows of integers"),
    (lambda: xm.echelon([[1, 2], [3]]), "echelon needs rows of integers"),
    (lambda: sl.restrict_gram(GRAM, [[1, None], [0, 1]]), "basis must be an integer matrix"),
    (lambda: sl.restrict_gram(GRAM, [[1, 0], [0]]), "basis must be an integer matrix"),
    (lambda: sl.restrict_gram(GRAM, [[1], [0], [0]]), "basis must be an integer matrix"),
    (lambda: sl.restrict_gram([[0, 1], [-1]], I2), "Gram matrix must be square"),
    (lambda: monodromy.conjugacy_test_bounded(REP, REP, 1.5), "entry bound must be an integer"),
    (lambda: monodromy.verify_dirac_system(5, I2), r"images must be 2x2"),
    (lambda: monodromy.verify_dirac_system([5], I2), r"images must be 2x2"),
    (lambda: monodromy.verify_dirac_system([I2], 5), "matrix entries must be finite numbers"),
    (lambda: monodromy.verify_dirac_system([I2], []), "lattice basis must be square of even"),
    (lambda: monodromy.Presentation.make(2, None), "relator letters must be integers"),
    (lambda: monodromy.Presentation.make(2, [None]), "relator letters must be integers"),
    (lambda: monodromy.Representation.make(5, (1,)), "images must be a sequence of matrices"),
    (lambda: siegel.AffElement.make(5, ROT), "matrix entries must be finite numbers"),
    (lambda: sl.space_type([[0, 1], 5]), "Gram matrix must be square"),
    (lambda: sl.space_type(5), "Gram matrix must be square"),
    (lambda: siegel.element_min_type(5), "matrix must be square of even dimension"),
    (lambda: siegel.element_min_type([["1", "0"], ["0", "1"]]), "matrix entries must be finite"),
    (lambda: siegel.AffElement.make(["1/2", 0], ROT), "matrix entries must be finite numbers"),
], ids=["det_wide", "det_tall", "det_ragged", "echelon_float", "echelon_nan", "echelon_ragged",
        "restrict_none", "restrict_ragged", "restrict_tall", "restrict_gram_ragged",
        "conjugacy_bound", "dirac_images", "dirac_image", "dirac_basis", "dirac_empty_basis",
        "relators_none", "relator_none", "representation", "aff_translation", "gram_row",
        "gram", "min_type", "min_type_str", "aff_str"])
def test_what_the_reader_cannot_see_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_integral_values_of_any_number_type_pass_where_ints_do():
    assert xm.echelon([[2.0, np.int64(1)], [True, Fraction(0)]]) == [[1, 0], [0, 1]]
    assert xm.det(np.array([[2, 1], [1, 1]])) == 1
    assert sl.restrict_gram(GRAM, [[2.0, 0], [0, True]]) == [[0, 2], [-2, 0]]
    assert monodromy.conjugacy_test_bounded(REP, REP, 2.0) == \
        monodromy.conjugacy_test_bounded(REP, REP, 2)


# ---------------------------------------------------------------------------
# nested junk through every exact entry point: a normal return or a ValueError

ATOMS = [None, "1", True, 1.5, Fraction(1, 2), math.inf, math.nan, np.int64(1), [],
         [[1, 2], [3]]]


def entry(rng):
    return rng.choice(ATOMS) if rng.random() < 0.15 else rng.randint(-2, 2)


def matrix(rng):
    """Up to 4 x 4: mostly square, some entries atoms, now and then a row or the whole
    matrix replaced by an atom or made short."""
    if rng.random() < 0.1:
        return rng.choice(ATOMS)
    n = rng.randint(0, 4)
    M = [[entry(rng) for _ in range(n if rng.random() < 0.7 else rng.randint(0, 4))]
         for _ in range(n)]
    if M and rng.random() < 0.15:
        M[rng.randrange(n)] = rng.choice(ATOMS) if rng.random() < 0.5 else M[0][:-1]
    return M


def vector(rng):
    if rng.random() < 0.1:
        return rng.choice(ATOMS)
    return [rng.choice(ATOMS) if rng.random() < 0.15 else rng.randint(1, 3)
            for _ in range(rng.randint(0, 3))]


def gram(rng):
    """An antisymmetric 2 x 2 or 4 x 4 integer matrix, or else matrix(rng); an entry at
    times an atom."""
    if rng.random() < 0.5:
        return matrix(rng)
    n = rng.choice([2, 4])
    A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[rng.choice(ATOMS) if rng.random() < 0.05 else A[i][j] - A[j][i] for j in range(n)]
            for i in range(n)]


def matrices(rng):
    return [matrix(rng) for _ in range(rng.randint(0, 2))] if rng.random() < 0.9 \
        else rng.choice(ATOMS)


ENTRY_POINTS = {
    "space_type": lambda r: sl.space_type(gram(r)),
    "is_member": lambda r: siegel.is_member(matrix(r), vector(r)),
    "SiegelElement.make": lambda r: siegel.SiegelElement.make(matrix(r), vector(r)),
    "element_min_type": lambda r: siegel.element_min_type(matrix(r)),
    "transport": lambda r: siegel.transport(matrix(r), vector(r), vector(r)),
    "verify_dirac_system": lambda r: monodromy.verify_dirac_system(matrices(r), matrix(r)),
    "Presentation.make": lambda r: monodromy.Presentation.make(entry(r), matrix(r)),
    "restrict_gram": lambda r: sl.restrict_gram(gram(r), matrix(r)),
    "det": lambda r: xm.det(matrix(r)),
    "echelon": lambda r: xm.echelon(matrix(r)),
    "validate_type": lambda r: sl.validate_type(vector(r)),
    "type_leq": lambda r: sl.type_leq(vector(r), vector(r)),
    "AffElement.make": lambda r: siegel.AffElement.make(vector(r), ROT),
    "Representation.make": lambda r: monodromy.Representation.make(matrices(r), vector(r)),
    "conjugacy_test_bounded": lambda r: monodromy.conjugacy_test_bounded(REP, REP, entry(r)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_exact_entry_points_refuse_junk_with_value_error(name):
    rng = random.Random(name)
    for _ in range(4000):
        try:
            ENTRY_POINTS[name](rng)
        except ValueError:
            pass
