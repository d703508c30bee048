"""Fuzz of the CLI exit-code contract.

Every subcommand that reads JSON is driven in process on its valid input,
on that input with one or two subtrees replaced or deleted, and on arbitrary
JSON; every numeric argv value (tolerances, couplings, charges, bounds,
types) is driven on arbitrary and extreme strings.  stdout must be strict
JSON (no NaN or Infinity).  Exit 0 must come with status ok, exit 2 with
status invalid_input (or usage_error for an argv value argparse refuses),
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
from strictjson import strict_loads

EXAMPLES_PER_SUBCOMMAND = 40

LORENTZ = np.diag([-1.0, 1.0, 1.0, 1.0]).tolist()
TWO_FORM = (np.eye(4, k=1) - np.eye(4, k=-1))[None].tolist()  # antisymmetric, rank 1
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
                             "omega": {"rank": 1, "coeffs": TWO_FORM}}, []),
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


def check_contract(code, out, err, exit_two=("invalid_input",)):
    """The report on stdout, parsed strictly, against the exit code."""
    report = strict_loads(out)
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 0:
        assert report["status"] == "ok"
    elif code == 2:
        assert report["status"] in exit_two
    else:
        conjugacy_not_found = "certificate" in report and "conjugator" not in report
        assert report["status"] == "not_found" or conjugacy_not_found \
            or any(report.get(key) is False for key in VERIFIED_FALSE), report
    return report


def write_valid(name, tmp_path):
    """argv of CASES[name] on its valid input, written under tmp_path."""
    head, flag, valid, tail = CASES[name]
    path = tmp_path / (name.replace(" ", "_") + ".json")
    path.write_text(json.dumps(valid))
    return head + [flag, str(path)] + tail


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_contract_holds_on_fuzzed_json(name, tmp_path):
    head, flag, valid, tail = CASES[name]
    path = tmp_path / "input.json"

    @settings(max_examples=EXAMPLES_PER_SUBCOMMAND, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.just(valid), mutated(valid), JSON))
    def check(payload):
        path.write_text(json.dumps(payload))
        check_contract(*run_cli(head + [flag, str(path)] + tail))

    check()


# argv values: named extremes, then arbitrary floats, integers and number-like text
EXTREMES = ["nan", "inf", "-inf", "-1", "0", "-0", "1e-320", "1e-300", "1e154", "1e200",
            "-1e200", "1e308", "1e400", "1" + "0" * 400, "0.5", "", "x", "1,2"]
TEXT = st.text("0123456789.,-+einfatx ", max_size=6)
NUMBER = st.one_of(st.sampled_from(EXTREMES), st.floats().map(repr),
                   st.integers().map(str), TEXT)
VECTOR = st.lists(NUMBER, min_size=1, max_size=4).map(",".join)
BOUND = st.one_of(st.sampled_from(EXTREMES), st.integers().map(str), TEXT)

# slot: (CASES entry or plain argv, flag or environment variable, values);
# a flag goes in as flag=value after the entry's argv, --tol before it
ARGV_SLOTS = {
    "--tol taming check": ("taming check", "--tol", NUMBER),
    "--tol selfdual check": ("selfdual check", "--tol", NUMBER),
    "SYMPFORGE_TOL reduce astdec-check": ("reduce astdec-check", "SYMPFORGE_TOL", NUMBER),
    "--threshold": ("bogomolny residual", "--threshold", NUMBER),
    "--theta": ("edyn build", "--theta", NUMBER),
    "--gsq": ("edyn build", "--gsq", NUMBER),
    "--qe": ("edyn build", "--qe", NUMBER),
    "--J edyn:": ("dyon build", "--J",
                  st.tuples(NUMBER, NUMBER).map(",".join).map("edyn:".__add__)),
    "--v": ("dyon build", "--v", VECTOR),
    "--vprime": ("dyon build", "--vprime", VECTOR),
    "--type dyon build": ("dyon build", "--type", VECTOR),
    "--type group check": ("group check", "--type", VECTOR),
    "--bound": ("monodromy conjugacy", "--bound", BOUND),
}


def with_value(argv, flag, value, monkeypatch):
    if flag == "SYMPFORGE_TOL":
        monkeypatch.setenv(flag, value)
        return argv
    return [f"{flag}={value}"] + argv if flag == "--tol" else argv + [f"{flag}={value}"]


@pytest.mark.parametrize("slot", sorted(ARGV_SLOTS))
def test_cli_contract_holds_on_fuzzed_argv(slot, tmp_path, monkeypatch):
    case, flag, values = ARGV_SLOTS[slot]
    argv = write_valid(case, tmp_path) if case in CASES else case.split()

    @settings(max_examples=EXAMPLES_PER_SUBCOMMAND, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values)
    def check(value):
        check_contract(*run_cli(with_value(argv, flag, value, monkeypatch)),
                       exit_two=("invalid_input", "usage_error"))

    check()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("case, flag", [
    ("taming check", "--tol"), ("selfdual check", "--tol"), ("reduce astdec-check", "--tol"),
    ("taming check", "SYMPFORGE_TOL"), ("selfdual check", "SYMPFORGE_TOL"),
    ("bogomolny residual", "--threshold")])
def test_tolerance_must_be_finite_and_non_negative(case, flag, value, tmp_path, monkeypatch):
    code, out, err = run_cli(with_value(write_valid(case, tmp_path), flag, value, monkeypatch))
    assert code == 2
    assert check_contract(code, out, err)["status"] == "invalid_input"
