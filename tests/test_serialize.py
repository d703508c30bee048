import json
from fractions import Fraction

import numpy as np
import pytest

from sympforge import reduction3d, serialize, siegel, taming


def test_int_matrix_roundtrip_big_entries():
    A = [[10**40, -3], [0, 7]]
    out = serialize.int_matrix_from_json(
        json.loads(json.dumps(serialize.int_matrix_to_json(A))))
    assert out == A


def test_fraction_roundtrip():
    for x in [Fraction(3, 7), Fraction(-5, 2), Fraction(4)]:
        assert serialize.fraction_from_json(serialize.fraction_to_json(x)) == x
    assert serialize.fraction_from_json(3) == Fraction(3)
    assert serialize.fraction_from_json("12") == Fraction(12)


def test_rational_matrix_roundtrip():
    A = [[Fraction(1, 2), 3], [Fraction(-7, 5), Fraction(0)]]
    out = serialize.rational_matrix_from_json(serialize.rational_matrix_to_json(A))
    assert out == [[Fraction(1, 2), Fraction(3)], [Fraction(-7, 5), Fraction(0)]]


def test_aff_roundtrip():
    gamma = siegel.SiegelElement.make([[1, 1], [0, 1]], (2,))
    g = siegel.AffElement.make([Fraction(1, 3), Fraction(5, 8)], gamma)
    out = serialize.aff_from_json(json.loads(json.dumps(serialize.aff_to_json(g))))
    assert out == g


def test_period_roundtrip():
    N = taming.PeriodMatrix([[0.25, 0.5], [0.5, -1.0]], [[2.0, 0.1], [0.1, 1.0]])
    out = serialize.period_from_json(serialize.period_to_json(N))
    assert np.allclose(out.R, N.R) and np.allclose(out.I, N.I)


def test_two_form_roundtrip():
    V = np.zeros((2, 4, 4))
    V[0, 0, 1] = 1.0
    V[0, 1, 0] = -1.0
    out = serialize.two_form_from_json(serialize.two_form_to_json(V))
    assert np.allclose(out, V)


def test_grid_field_roundtrip_inline(tmp_path):
    grid = reduction3d.Grid3(shape=(3, 4, 5), spacing=(0.1, 0.2, 0.3),
                             origin=(1.0, 2.0, 3.0))
    psi = np.random.default_rng(0).standard_normal(grid.shape + (2,))
    header = serialize.grid_field_to_json(grid, {"psi": psi})
    grid2, fields = serialize.grid_field_from_json(header)
    assert grid2.shape == grid.shape
    assert grid2.spacing == grid.spacing
    assert grid2.origin == grid.origin
    assert np.allclose(fields["psi"], psi)


def test_grid_field_roundtrip_binary(tmp_path):
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1, 0.1, 0.1))
    psi = np.random.default_rng(1).standard_normal(grid.shape + (2,))
    path = str(tmp_path / "field.json")
    serialize.grid_field_to_json(grid, {"psi": psi}, path=path, binary=True)
    grid2, fields = serialize.grid_field_from_json(path)
    assert np.array_equal(fields["psi"], psi)
    assert grid2.shape == grid.shape


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ValueError):
        serialize.fraction_from_json(["1", "0"])


def test_grid_payload_outside_header_dir_rejected_before_any_read(tmp_path, monkeypatch):
    grid = reduction3d.Grid3(shape=(3, 3, 3), spacing=(0.1, 0.1, 0.1))
    psi = np.zeros(grid.shape + (2,))
    path = str(tmp_path / "field.json")
    header = serialize.grid_field_to_json(grid, {"psi": psi, "V": psi}, path=path, binary=True)
    header["fields"]["V"]["file"] = "../field.json.V.f64"

    def no_read(*args, **kwargs):
        raise AssertionError("payload read before the header was validated")

    monkeypatch.setattr(serialize.np, "fromfile", no_read)
    with pytest.raises(ValueError, match="inside the header's directory"):
        serialize.grid_field_from_json(header, str(tmp_path))
