"""JSON (de)serialization helpers.

Exact integer matrices travel as arrays of arrays of decimal strings so
arbitrary precision survives any JSON parser; rationals as [num, den]
pairs; numeric matrices as plain float arrays.  Grid fields are either
fully-JSON (small grids) or a JSON header pointing at a flat little-endian
binary64 payload in row-major node order.
"""

import json
import os
from fractions import Fraction

from . import lazy, reduction3d, siegel, taming

[np] = lazy("numpy")  # a plain import would run numpy, which the CLI registers lazily


def int_matrix_to_json(A):
    return [[str(int(x)) for x in row] for row in A]


def int_from_json(x):
    if type(x) not in (int, str):
        raise ValueError(f"expected an integer or a decimal string, not {x!r}")
    return int(x)


def checked(data, kind, what):
    """data, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(data, kind):
        raise ValueError(f"{what} must be {'an object' if kind is dict else 'an array'}, "
                         f"not {type(data).__name__}")
    return data


def int_tuple_from_json(data, what="a type"):
    return tuple(int_from_json(x) for x in checked(data, list, what))


def float_array_from_json(data, shape=None):
    """A JSON number or nested array of finite numbers as a float ndarray,
    which must have the given shape if one is given."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected numbers: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError("expected finite numbers")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, not {arr.shape}")
    return arr


def _matrix_from_json(data, entry):
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("a matrix must be an array of arrays")
    return [[entry(x) for x in row] for row in data]


def int_matrix_from_json(data):
    return _matrix_from_json(data, int_from_json)


def fraction_to_json(x):
    f = Fraction(x)
    return [str(f.numerator), str(f.denominator)]


def fraction_from_json(data):
    if not isinstance(data, list):
        return Fraction(int_from_json(data))
    num, den = (int_from_json(x) for x in data)
    if den == 0:
        raise ValueError(f"rational {data!r} has a zero denominator")
    return Fraction(num, den)


def rational_matrix_from_json(data):
    return _matrix_from_json(data, fraction_from_json)


def rational_matrix_to_json(A):
    return [[fraction_to_json(x) for x in row] for row in A]


def float_matrix_to_json(A):
    return np.asarray(A, dtype=float).tolist()


def aff_to_json(g):
    return {"a": [fraction_to_json(x) for x in g.translation],
            "gamma": int_matrix_to_json(g.rotation.rows()),
            "type": list(g.rotation.type_ctx)}


def aff_from_json(data):
    data = checked(data, dict, "an affine element")
    rot = siegel.SiegelElement.make(int_matrix_from_json(data["gamma"]),
                                    int_tuple_from_json(data["type"]))
    return siegel.AffElement.make([fraction_from_json(x) for x in checked(data["a"], list, "a")],
                                  rot)


def period_to_json(N):
    return {"R": float_matrix_to_json(N.R), "I": float_matrix_to_json(N.I)}


def period_from_json(data):
    data = checked(data, dict, "a period matrix")
    return taming.PeriodMatrix(float_array_from_json(data["R"]),
                               float_array_from_json(data["I"]))


def two_form_to_json(V):
    V = np.asarray(V, dtype=float)
    return {"rank": V.shape[0], "coeffs": V.tolist()}


def two_form_from_json(data):
    data = checked(data, dict, "a two-form")
    V = float_array_from_json(data["coeffs"])
    if V.shape[:1] != (data["rank"],):
        raise ValueError("declared rank does not match coefficient count")
    return V


def grid_field_to_json(grid, fields, path=None, binary=False):
    """Serialize a grid plus named node fields.

    With binary=True, writes each field as <path>.<name>.f64 (little-endian
    float64, row-major) and records only shapes in the header.
    """
    header = {
        "shape": list(grid.shape),
        "spacing": list(grid.spacing),
        "origin": list(grid.origin),
        "metric": np.asarray(grid.metric, dtype=float).tolist(),
        "fields": {},
    }
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        if binary:
            if path is None:
                raise ValueError("binary payloads need a header path")
            fname = f"{path}.{name}.f64"
            arr.astype("<f8").tofile(fname)
            header["fields"][name] = {"file": os.path.basename(fname),
                                      "shape": list(arr.shape)}
        else:
            header["fields"][name] = {"data": arr.tolist(),
                                      "shape": list(arr.shape)}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(header, fh)
    return header


def _payload_path(base_dir, name):
    """Resolve a binary payload name, which must stay inside base_dir."""
    if not isinstance(name, str):
        raise ValueError(f"payload file name {name!r} must be a string")
    base = os.path.realpath(base_dir)
    path = os.path.realpath(os.path.join(base, name))
    if os.path.isabs(name) or os.path.commonpath([base, path]) != base:
        raise ValueError(f"payload file {name!r} must lie inside the header's directory")
    return path


def grid_field_from_json(header, base_dir="."):
    """Read a grid and its fields; binary payload names are relative to
    base_dir (the header's directory when header is a path) and may not
    leave it."""
    if isinstance(header, str):
        base_dir = os.path.dirname(header) or "."
        with open(header) as fh:
            header = json.load(fh)
    header = checked(header, dict, "a grid header")
    grid = reduction3d.Grid3(
        shape=int_tuple_from_json(header["shape"], "a grid shape"),
        spacing=tuple(float_array_from_json(header["spacing"], (3,))),
        origin=tuple(float_array_from_json(header.get("origin", (0, 0, 0)), (3,))),
        metric=float_array_from_json(header.get("metric", np.eye(3))))
    specs = {name: checked(spec, dict, f"field {name!r}")
             for name, spec in checked(header["fields"], dict, "fields").items()}
    paths = {name: _payload_path(base_dir, spec["file"])
             for name, spec in specs.items() if "file" in spec}
    fields = {}
    for name, spec in specs.items():
        shape = int_tuple_from_json(spec["shape"], "a field shape")
        if name in paths:
            try:
                arr = np.fromfile(paths[name], dtype="<f8").reshape(shape)
            except OSError as exc:
                raise ValueError(f"cannot read payload file {spec['file']!r}: "
                                 f"{exc.strerror}") from None
        else:
            arr = float_array_from_json(spec["data"]).reshape(shape)
        fields[name] = arr
    return grid, fields
