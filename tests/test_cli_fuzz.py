"""Fuzz of the CLI exit-code contract.

Every subcommand that reads JSON is driven in process on its valid input,
on that input with one or two subtrees replaced or deleted, and on arbitrary
JSON.  Exit 0 must come with status ok, exit 2 with status invalid_input,
exit 1 only with a verified-false field or status not_found, and no
exception may leave cli.main (in a fresh interpreter it would be a
traceback with exit 1).
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sympforge import cli

EXAMPLES_PER_SUBCOMMAND = 40

LORENTZ = np.diag([-1.0, 1.0, 1.0, 1.0]).tolist()
STD_J = [[0.0, 1.0], [-1.0, 0.0]]
AFF = {"a": [["1", "2"], ["0", "1"]], "gamma": [["1", "1"], ["0", "1"]], "type": [1]}

# name: (argv before the input path, the input's flag, a valid input, argv after it)
CASES = {
    "lattice normal-form": (["lattice", "normal-form"], "--in",
                            [["0", "0", "1", "0"], ["0", "0", "0", "2"],
                             ["-1", "0", "0", "0"], ["0", "-2", "0", "0"]], []),
    "lattice type": (["lattice", "type"], "--in", [[0, 3], [-3, 0]], []),
    "group check": (["group", "check"], "--matrix", [[1, 1], [0, 1]], ["--type", "2"]),
    "group min-type": (["group", "min-type"], "--matrix", [[1, ["1", "2"]], [0, 1]], []),
    "aff compose": (["aff", "compose"], "--in", {"g1": AFF, "g2": AFF}, []),
    "taming check": (["taming", "check"], "--in", STD_J, []),
    "taming convert": (["taming", "convert"], "--in", {"R": [[0.5]], "I": [[2.0]]}, []),
    "selfdual check": (["selfdual", "check"], "--in",
                       {"metric": LORENTZ, "orientation": 1, "N": {"R": [[0.0]], "I": [[1.0]]},
                        "V": {"rank": 2, "coeffs": np.zeros((2, 4, 4)).tolist()}}, []),
    "reduce astdec-check": (["reduce", "astdec-check"], "--in",
                            {"metric": LORENTZ, "orientation": 1,
                             "omega": {"rank": 1, "coeffs": np.eye(4, k=1)[None].tolist()}}, []),
    "bogomolny residual": (["bogomolny", "residual"], "--in",
                           {"shape": [3, 3, 3], "spacing": [0.1] * 3, "origin": [1.0] * 3,
                            "J": STD_J, "fields": {
                                "psi": {"data": np.zeros((3, 3, 3, 2)).tolist(),
                                        "shape": [3, 3, 3, 2]},
                                "V": {"data": np.zeros((3, 3, 3, 2, 3, 3)).tolist(),
                                      "shape": [3, 3, 3, 2, 3, 3]}}}, []),
    "dyon build": (["dyon", "build", "--v", "0,1"], "--J", STD_J, []),
    "dyon flux": (["dyon", "flux"], "--in",
                  {"v": [0, 1], "vprime": [0.0, 0.0], "J": STD_J, "type": [1]}, []),
    "monodromy validate": (["monodromy", "validate"], "--in",
                           {"presentation": {"generators": 1, "relators": [[1, 1, 1, 1]]},
                            "images": [[["0", "-1"], ["1", "0"]]], "type": [1]}, []),
    "monodromy dirac-verify": (["monodromy", "dirac-verify"], "--in",
                               {"images": [[[1, ["1", "2"]], [0, 1]]],
                                "lattice": [[1, 0], [0, 2]]}, []),
    "monodromy conjugacy": (["monodromy", "conjugacy"], "--in",
                            {"type": [1], "rep1": [[[1, 1], [0, 1]]],
                             "rep2": [[[1, 0], [-1, 1]]]}, ["--bound", "1"]),
}

KEYS = sorted({"R", "I", "J", "N", "V", "metric", "orientation", "rank", "coeffs", "omega",
               "shape", "spacing", "origin", "fields", "data", "file", "psi", "v", "vprime",
               "type", "g1", "g2", "a", "gamma", "presentation", "generators", "relators",
               "images", "lattice", "rep1", "rep2"})

LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                   st.floats(), st.text(max_size=3),
                   st.sampled_from(["0", "1", "-2", "1.5", "1e400", "x", ""]))
JSON = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), kids, max_size=4)),
    max_leaves=12)

# exit 1 must come with one of these false, or with status not_found
VERIFIED_FALSE = ("member", "taming", "selfdual", "passes", "lattice_member", "valid",
                  "preserved")


def _paths(value, depth=0):
    """Paths to the subtrees of a JSON value, four levels deep at most."""
    yield ()
    if depth < 4 and isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            for path in _paths(child, depth + 1):
                yield (key,) + path


@st.composite
def mutated(draw, valid):
    """valid with one or two subtrees replaced by arbitrary JSON or deleted."""
    value = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(value))))
        if not path:
            value = draw(JSON)
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return value


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_contract_holds_on_fuzzed_json(name, tmp_path):
    head, flag, valid, tail = CASES[name]
    path = tmp_path / "input.json"

    @settings(max_examples=EXAMPLES_PER_SUBCOMMAND, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.just(valid), mutated(valid), JSON))
    def check(payload):
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(head + [flag, str(path)] + tail)
        report = json.loads(out)
        assert "Traceback" not in err
        assert code in (0, 1, 2)
        if code == 0:
            assert report["status"] == "ok"
        elif code == 2:
            assert report["status"] == "invalid_input"
        else:
            conjugacy_not_found = "certificate" in report and "conjugator" not in report
            assert report["status"] == "not_found" or conjugacy_not_found \
                or any(report.get(key) is False for key in VERIFIED_FALSE), report

    check()
