import ast
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sympforge
from sympforge import cli, dyons, exactmat as xm, forms4d, reduction3d, selftest, serialize, siegel
from sympforge import taming
from strictjson import strict_loads


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_lattice_normal_form(tmp_path, capsys):
    path = write(tmp_path, "gram.json",
                 [["0", "0", "1", "0"], ["0", "0", "0", "2"],
                  ["-1", "0", "0", "0"], ["0", "-2", "0", "0"]])
    code, report = run(capsys, ["lattice", "normal-form", "--in", path])
    assert code == 0
    assert report["status"] == "ok"
    assert report["type"] == [1, 2]
    assert "U" in report
    assert report["manifest"]["version"]


def test_lattice_type(tmp_path, capsys):
    path = write(tmp_path, "gram.json", [[0, 3], [-3, 0]])
    code, report = run(capsys, ["lattice", "type", "--in", path])
    assert code == 0
    assert report["type"] == [3]


def test_lattice_invalid_input(tmp_path, capsys):
    path = write(tmp_path, "gram.json", [[0, 1], [1, 0]])  # not antisymmetric
    code, report = run(capsys, ["lattice", "type", "--in", path])
    assert code == 2
    assert report["status"] == "invalid_input"


def test_group_check_member(tmp_path, capsys):
    path = write(tmp_path, "s.json", [[1, 1], [0, 1]])
    code, report = run(capsys, ["group", "check", "--matrix", path, "--type", "2"])
    assert code == 0
    assert report["member"] is True


def test_group_check_nonmember_exits_one(tmp_path, capsys):
    path = write(tmp_path, "s.json", [[2, 0], [0, 1]])
    code, report = run(capsys, ["group", "check", "--matrix", path, "--type", "2"])
    assert code == 1
    assert report["member"] is False


def test_group_min_type(tmp_path, capsys):
    path = write(tmp_path, "t.json", [[1, [1, 2]], [0, 1]])
    code, report = run(capsys, ["group", "min-type", "--matrix", path])
    assert code == 0
    assert report["type"] == [2]


AFF_PAIR = {"g1": {"a": [["1", "2"], ["0", "1"]], "gamma": [["1", "1"], ["0", "1"]], "type": [1]},
            "g2": {"a": [["1", "4"], ["1", "4"]], "gamma": [["1", "0"], ["0", "1"]], "type": [1]}}


def test_aff_compose(tmp_path, capsys):
    path = write(tmp_path, "aff.json", AFF_PAIR)
    code, report = run(capsys, ["aff", "compose", "--in", path])
    assert code == 0
    assert report["result"]["a"] == [["0", "1"], ["1", "4"]]
    assert report["result"]["gamma"] == [["1", "1"], ["0", "1"]]


def test_taming_convert_forward(tmp_path, capsys):
    path = write(tmp_path, "period.json", {"R": [[0.0]], "I": [[1.0]]})
    code, report = run(capsys, ["taming", "convert", "--in", path])
    assert code == 0
    assert np.allclose(report["J"], [[0.0, 1.0], [-1.0, 0.0]])


def test_taming_convert_inverse(tmp_path, capsys):
    path = write(tmp_path, "taming.json", [[0.0, 1.0], [-1.0, 0.0]])
    code, report = run(capsys, ["taming", "convert", "--in", path])
    assert code == 0
    assert np.allclose(report["N"]["R"], [[0.0]])
    assert np.allclose(report["N"]["I"], [[1.0]])


def test_taming_check_true_and_false(tmp_path, capsys):
    good = write(tmp_path, "good.json", [[0.0, 1.0], [-1.0, 0.0]])
    code, report = run(capsys, ["taming", "check", "--in", good])
    assert code == 0 and report["taming"] is True
    bad = write(tmp_path, "bad.json", [[1.0, 0.0], [0.0, 1.0]])
    code, report = run(capsys, ["taming", "check", "--in", bad])
    assert code == 1 and report["taming"] is False


def test_selfdual_check(tmp_path, capsys):
    p = forms4d.LorentzPoint(np.diag([-1.0, 1.0, 1.0, 1.0]))
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    F = selftest.random_two_form(np.random.default_rng(0), 1)
    V = np.concatenate([F, forms4d.g_map(p, N, F)])
    payload = {"metric": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(),
               "orientation": 1,
               "N": {"R": [[0.0]], "I": [[1.0]]},
               "V": serialize.two_form_to_json(V)}
    path = write(tmp_path, "sd.json", payload)
    code, report = run(capsys, ["selfdual", "check", "--in", path])
    assert code == 0 and report["selfdual"] is True

    payload["V"] = serialize.two_form_to_json(np.concatenate([F, np.zeros_like(F)]))
    path = write(tmp_path, "sd_bad.json", payload)
    code, report = run(capsys, ["selfdual", "check", "--in", path])
    assert code == 1 and report["selfdual"] is False


def test_selfdual_check_reports_a_lower_half_off_g_map_as_false(tmp_path):
    # *V = -J V holds to 5e-10, but the lower half misses g_map(p, N, F) by 5e-7
    coeffs = np.zeros((2, 4, 4))
    coeffs[1, 0, 1], coeffs[1, 1, 0] = 5e-7, -5e-7
    payload = {"metric": np.diag([-1.0, 1.0, 1e-4, 1e-4]).tolist(), "orientation": 1,
               "N": {"R": [[0.0]], "I": [[1000.0]]},
               "V": {"rank": 2, "coeffs": coeffs.tolist()}}
    proc = run_python("-m", "sympforge.cli", "selfdual", "check",
                      "--in", write(tmp_path, "sd.json", payload))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    report = strict_loads(proc.stdout)
    assert report["selfdual"] is False and "F" not in report
    assert report["report"]["lower_gap"] == pytest.approx(5e-7)


def test_reduce_astdec_check(tmp_path, capsys):
    w = selftest.random_two_form(np.random.default_rng(1), 2)
    payload = {"metric": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(),
               "orientation": 1,
               "omega": serialize.two_form_to_json(w)}
    path = write(tmp_path, "astdec.json", payload)
    code, report = run(capsys, ["reduce", "astdec-check", "--in", path])
    assert code == 0
    assert report["residual"] < 1e-10


def test_bogomolny_residual(tmp_path, capsys):
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    sol = dyons.dyon_construct(J, [0, 1], [0, 0])
    grid = dyons.default_far_grid(nodes=5)
    pair = sol.sample_pair(grid)
    header = serialize.grid_field_to_json(grid, {"psi": pair.psi, "V": pair.V})
    header["J"] = J.tolist()
    path = write(tmp_path, "bog.json", header)
    code, report = run(capsys, ["bogomolny", "residual", "--in", path])
    assert code == 0
    assert report["eq_residual"] < 1e-6


@pytest.mark.parametrize("fault,where", [("negative_at_node", " at node (2, 2, 2)"),
                                         ("not_symmetric", ""),
                                         ("zero_at_node", " at node (1, 0, 2)")],
                         ids=["negative_at_node", "not_symmetric", "zero_at_node"])
def test_bogomolny_residual_refuses_bad_metric(fault, where, tmp_path, capsys):
    # the parent printed "passes": true for the first two and numpy's bare
    # "Singular matrix" for the third
    metric = np.broadcast_to(np.eye(3), (3, 3, 3, 3, 3)).copy()
    if fault == "negative_at_node":
        metric[2, 2, 2] = np.diag([1.0, 1.0, -1.0])
    elif fault == "zero_at_node":
        metric[1, 0, 2] = 0.0
    else:
        metric = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fields = {name: {"data": np.zeros(shape).tolist(), "shape": list(shape)}
              for name, shape in (("psi", (3, 3, 3, 2)), ("V", (3, 3, 3, 2, 3, 3)))}
    header = {"shape": [3, 3, 3], "spacing": [0.1] * 3, "origin": [1.0] * 3,
              "metric": metric.tolist(), "J": [[0.0, 1.0], [-1.0, 0.0]], "fields": fields}
    code = cli.main(["bogomolny", "residual", "--in", write(tmp_path, "grid.json", header)])
    captured = capsys.readouterr()
    assert code == 2
    report = strict_loads(captured.out)
    assert report["status"] == "invalid_input"
    assert report["error"] == f"metric must be symmetric positive-definite{where}"
    assert captured.err == f"error: {report['error']}\n"



def test_bogomolny_residual_refuses_fields_off_the_grid(tmp_path, capsys):
    # the parent printed "status": "ok" and exited 1 for 6^3 fields on a 5^3 header
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6, 6, 2, 3, 3))
    fields = {name: {"data": x.tolist(), "shape": list(x.shape)} for name, x in (
        ("psi", rng.standard_normal((6, 6, 6, 2))), ("V", A - np.swapaxes(A, -1, -2)))}
    header = {"shape": [5, 5, 5], "spacing": [0.1] * 3, "origin": [1.0] * 3,
              "J": [[0.0, 1.0], [-1.0, 0.0]], "fields": fields}
    code = cli.main(["bogomolny", "residual", "--in", write(tmp_path, "h.json", header)])
    captured = capsys.readouterr()
    assert code == 2
    report = strict_loads(captured.out)
    assert report["status"] == "invalid_input"
    assert report["error"] == "fields must share the grid sample set"
    assert captured.err == f"error: {report['error']}\n"
    assert "Traceback" not in captured.err

def test_dyon_build(capsys):
    code, report = run(capsys, ["dyon", "build", "--type", "1", "--v", "0,1",
                                "--vprime", "0,0", "--J", "std"])
    assert code == 0
    assert report["lattice_member"] is True
    assert np.allclose(report["normalized"], [0.0, -1.0], atol=1e-8)
    assert report["verify"]["eq_residual"] < 1e-10



def test_dyon_build_checks_the_charge_lattice_of_its_type(capsys):
    """At type (1, 2) the charge lattice is Z^2 + (Z + 2Z): the last entry must be even."""
    for v, code, member in (("0,0,0,1", 1, False), ("0,0,0,2", 0, True), ("1,-3,5,-4", 0, True)):
        got, report = run(capsys, ["dyon", "build", "--type", "1,2", "--v", v])
        assert (got, report["lattice_member"]) == (code, member), v


def test_dyon_flux_non_integer_charge(tmp_path, capsys):
    payload = {"v": [0.5, 0.0], "vprime": [0.0, 0.0],
               "J": [[0.0, 1.0], [-1.0, 0.0]], "type": [1]}
    path = write(tmp_path, "dyon.json", payload)
    code, report = run(capsys, ["dyon", "flux", "--in", path])
    assert code == 1
    assert report["lattice_member"] is False


def test_edyn_build(capsys):
    code, report = run(capsys, ["edyn", "build", "--theta", "0", "--gsq",
                                str(4 * np.pi), "--qe", "0", "--qm", "1"])
    assert code == 0
    assert report["passes"] is True
    assert all(v < 1e-6 for v in report["maxwell"].values())


def test_monodromy_validate(tmp_path, capsys):
    payload = {"presentation": {"generators": 2, "relators": [[1, 2, -1, -2]]},
               "images": [[[1, 1], [0, 1]], [[1, 2], [0, 1]]],
               "type": [1]}
    path = write(tmp_path, "rep.json", payload)
    code, report = run(capsys, ["monodromy", "validate", "--in", path])
    assert code == 0 and report["valid"] is True


def test_monodromy_dirac_verify(tmp_path, capsys):
    payload = {"images": [[[1, [1, 2]], [0, 1]]],
               "lattice": [[1, 0], [0, 2]]}
    path = write(tmp_path, "dirac.json", payload)
    code, report = run(capsys, ["monodromy", "dirac-verify", "--in", path])
    assert code == 0
    assert report["preserved"] is True
    assert report["type"] == [2]


def test_monodromy_conjugacy(tmp_path, capsys):
    payload = {"rep1": [[[1, 1], [0, 1]]],
               "rep2": [[[0, 1], [-1, 2]]],
               "type": [1]}
    path = write(tmp_path, "conj.json", payload)
    code, report = run(capsys, ["monodromy", "conjugacy", "--in", path,
                                "--bound", "2"])
    assert code == 0
    assert report["certificate"] == "found"


def test_monodromy_conjugacy_of_empty_representations(tmp_path, capsys):
    # no images: every member conjugates, so the first one in the entry box
    path = write(tmp_path, "conj.json", {"rep1": [], "rep2": [], "type": [1]})
    code, report = run(capsys, ["monodromy", "conjugacy", "--in", path, "--bound", "1"])
    assert code == 0
    assert report["conjugator"] == [["-1", "-1"], ["0", "-1"]]


def test_monodromy_conjugacy_in_dimension_four(tmp_path, capsys):
    t = (1, 1)
    rng = random.Random(4)
    images = [selftest.random_member(t, rng, word_length=4) for _ in range(2)]
    planted = siegel.SiegelElement.make([[1, 0, 1, -1], [0, 1, -1, 2],
                                         [0, 0, 1, 0], [0, 0, 0, 1]], t)
    conjugates = [planted @ a @ planted.inverse() for a in images]
    payload = {"rep1": [a.rows() for a in images], "rep2": [b.rows() for b in conjugates],
               "type": list(t)}
    path = write(tmp_path, "conj.json", payload)
    code, report = run(capsys, ["monodromy", "conjugacy", "--in", path, "--bound", "2"])
    assert code == 0
    assert report["certificate"] == "found"
    gamma = [[int(x) for x in row] for row in report["conjugator"]]
    assert max(abs(x) for row in gamma for x in row) <= 2 and siegel.is_member(gamma, t)
    assert all(xm.matmul(gamma, a.rows()) == xm.matmul(b.rows(), gamma)
               for a, b in zip(images, conjugates))


def test_selftest_subcommand(capsys):
    code, report = run(capsys, ["selftest", "symplattice", "--seed", "7"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["suites"]["symplattice"]["results"]["normal_form_exact"]


def test_selftest_unknown_module(capsys):
    code, report = run(capsys, ["selftest", "nonsense"])
    assert code == 2
    assert report["status"] == "invalid_input"


def test_selftest_negative_seed_is_refused_before_any_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli.selftest, "run", lambda *args: pytest.fail("a suite ran"))
    code, report = run(capsys, ["selftest", "all", "--seed", "-1"])
    assert code == 2
    assert report["status"] == "invalid_input" and "--seed" in report["error"]


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[0, 2], [-2, 0]])))
    code, report = run(capsys, ["lattice", "type", "--in", "-"])
    assert code == 0
    assert report["type"] == [2]


def test_manifest_reproducibility(tmp_path, capsys):
    path = write(tmp_path, "gram.json", [[0, 5], [-5, 0]])
    code1, rep1 = run(capsys, ["lattice", "normal-form", "--in", path])
    code2, rep2 = run(capsys, ["lattice", "normal-form", "--in", path])
    assert (code1, rep1) == (code2, rep2)
    assert list(rep1["manifest"]["inputs"].values())[0] == \
        list(rep2["manifest"]["inputs"].values())[0]


def test_tol_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMPFORGE_TOL", "1e-7")
    path = write(tmp_path, "gram.json", [[0, 1], [-1, 0]])
    code, report = run(capsys, ["lattice", "type", "--in", path])
    assert code == 0
    assert report["manifest"]["tolerances"]["tol"] == 1e-7


def selfdual_payload(passing):
    p = forms4d.LorentzPoint(np.diag([-1.0, 1.0, 1.0, 1.0]))
    N = taming.PeriodMatrix([[0.0]], [[1.0]])
    F = selftest.random_two_form(np.random.default_rng(0), 1)
    lower = forms4d.g_map(p, N, F) if passing else np.zeros_like(F)
    return {"metric": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(), "orientation": 1,
            "N": {"R": [[0.0]], "I": [[1.0]]},
            "V": serialize.two_form_to_json(np.concatenate([F, lower]))}


def bogomolny_payload():
    J = taming.theta_forward(taming.PeriodMatrix([[0.0]], [[1.0]]))
    grid = dyons.default_far_grid(nodes=5)
    pair = dyons.dyon_construct(J, [0, 1], [0, 0]).sample_pair(grid)
    return dict(serialize.grid_field_to_json(grid, {"psi": pair.psi, "V": pair.V}),
                J=J.tolist())


DYON_KEYS = ["status", "psi_at_1", "curvature_coeff", "verify", "flux", "normalized",
             "lattice_member", "realized_sign", "manifest"]
KEY_ORDER = {
    "lattice_normal_form": (["lattice", "normal-form", "--in", "IN"], lambda: [[0, 3], [-3, 0]],
                            0, ["status", "type", "manifest", "U"]),
    "lattice_type": (["lattice", "type", "--in", "IN"], lambda: [[0, 3], [-3, 0]],
                     0, ["status", "type", "manifest"]),
    "group_check": (["group", "check", "--matrix", "IN", "--type", "2"], lambda: [[1, 1], [0, 1]],
                    0, ["status", "member", "manifest"]),
    "group_min_type": (["group", "min-type", "--matrix", "IN"], lambda: [[1, [1, 2]], [0, 1]],
                       0, ["status", "type", "manifest"]),
    "group_min_type_not_found": (["group", "min-type", "--matrix", "IN"],
                                 lambda: [[[1, 2], 0], [0, 2]], 1, ["status", "manifest"]),
    "aff_compose": (["aff", "compose", "--in", "IN"], lambda: AFF_PAIR,
                    0, ["status", "result", "manifest"]),
    "taming_convert_forward": (["taming", "convert", "--in", "IN"],
                               lambda: {"R": [[0.0]], "I": [[1.0]]},
                               0, ["J", "status", "manifest"]),
    "taming_convert_inverse": (["taming", "convert", "--in", "IN"],
                               lambda: [[0.0, 1.0], [-1.0, 0.0]], 0, ["N", "status", "manifest"]),
    "taming_check": (["taming", "check", "--in", "IN"], lambda: [[0.0, 1.0], [-1.0, 0.0]],
                     0, ["status", "taming", "report", "manifest"]),
    "selfdual_passing": (["selfdual", "check", "--in", "IN"], lambda: selfdual_payload(True),
                         0, ["status", "selfdual", "report", "manifest", "F"]),
    "selfdual_failing": (["selfdual", "check", "--in", "IN"], lambda: selfdual_payload(False),
                         1, ["status", "selfdual", "report", "manifest"]),
    "reduce_astdec_check": (["reduce", "astdec-check", "--in", "IN"],
                            lambda: {"metric": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(),
                                     "omega": serialize.two_form_to_json(
                                         selftest.random_two_form(np.random.default_rng(1), 2))},
                            0, ["status", "residual", "passes", "manifest"]),
    "bogomolny_residual": (["bogomolny", "residual", "--in", "IN"], bogomolny_payload,
                           0, ["status", "eq_residual", "closure_residual", "passes", "manifest"]),
    "dyon_build": (["dyon", "build", "--v", "0,1"], None, 0, DYON_KEYS),
    "dyon_flux": (["dyon", "flux", "--in", "IN"],
                  lambda: {"v": [0, 1], "J": [[0.0, 1.0], [-1.0, 0.0]]}, 0, DYON_KEYS),
    "edyn_build": (["edyn", "build", "--qm", "1"], None,
                   0, ["status", "maxwell", "potential_gap", "h_theta_fiber", "passes", "manifest"]),
    "monodromy_validate": (["monodromy", "validate", "--in", "IN"],
                           lambda: {"presentation": {"generators": 1, "relators": []},
                                    "images": [[[1, 1], [0, 1]]], "type": [1]},
                           0, ["status", "valid", "manifest"]),
    "monodromy_dirac_verify": (["monodromy", "dirac-verify", "--in", "IN"],
                               lambda: {"images": [[[1, [1, 2]], [0, 1]]],
                                        "lattice": [[1, 0], [0, 2]]},
                               0, ["status", "preserved", "type", "manifest"]),
    "monodromy_conjugacy_found": (["monodromy", "conjugacy", "--in", "IN"],
                                  lambda: {"rep1": [[[1, 1], [0, 1]]], "rep2": [[[0, 1], [-1, 2]]],
                                           "type": [1]},
                                  0, ["status", "certificate", "manifest", "conjugator"]),
    "monodromy_conjugacy_not_found": (["monodromy", "conjugacy", "--in", "IN"],
                                      lambda: {"rep1": [[[1, 1], [0, 1]]],
                                               "rep2": [[[1, 2], [0, 1]]], "type": [1]},
                                      1, ["status", "certificate", "manifest"]),
    "selftest": (["selftest", "taming", "--seed", "7"], None,
                 0, ["status", "suites", "manifest"]),
    "invalid_input": (["lattice", "type", "--in", "IN"], lambda: [[0, 1], [1, 0]],
                      2, ["status", "error"]),
    "usage_error": (["lattice"], None, 2, ["status"]),
}


@pytest.mark.parametrize("case", KEY_ORDER)
def test_report_key_order(case, tmp_path, capsys):
    argv, payload, want_code, keys = KEY_ORDER[case]
    if payload is not None:
        argv = [write(tmp_path, "in.json", payload()) if a == "IN" else a for a in argv]
    code, report = run(capsys, argv)
    assert code == want_code
    assert list(report) == keys


def binary_grid_header(tmp_path, psi_file):
    """Header of a 3^3 grid whose V payload exists and whose psi payload is
    named psi_file; the header itself goes in tmp_path/sub."""
    (tmp_path / "sub").mkdir()
    np.zeros((3, 3, 3, 2, 3, 3)).tofile(tmp_path / "sub" / "V.f64")
    np.zeros((3, 3, 3, 2)).tofile(tmp_path / "psi.f64")
    return {"shape": [3, 3, 3], "spacing": [0.1] * 3, "origin": [1.0] * 3,
            "J": [[0.0, 1.0], [-1.0, 0.0]],
            "fields": {"psi": {"file": psi_file, "shape": [3, 3, 3, 2]},
                       "V": {"file": "V.f64", "shape": [3, 3, 3, 2, 3, 3]}}}


@pytest.mark.parametrize("case", ["tol_env_not_a_number", "negative_bound", "empty_gram",
                                  "list_input", "zero_denominator_min_type", "empty_min_type",
                                  "zero_denominator_aff", "missing_payload",
                                  "payload_outside_header_dir", "absolute_payload",
                                  "period_not_an_object", "float_matrix_entry", "over_budget",
                                  "null_affine_element", "object_in_float_matrix",
                                  "null_charge", "nan_charge_argument", "zero_spacing",
                                  "ragged_dirac_image", "dyon_flux_without_in",
                                  "grid_fields_lack_V", "missing_input_file",
                                  "dyon_type_too_long", "dyon_flux_type_too_long"])
def test_invalid_input_exits_two_without_traceback(case, tmp_path, capsys, monkeypatch):
    if case == "tol_env_not_a_number":
        monkeypatch.setenv("SYMPFORGE_TOL", "abc")
        argv = ["lattice", "type", "--in", write(tmp_path, "gram.json", [[0, 3], [-3, 0]])]
    elif case == "negative_bound":
        reps = {"rep1": [[[1, 1], [0, 1]]], "rep2": [[[1, 1], [0, 1]]], "type": [1]}
        argv = ["monodromy", "conjugacy", "--in", write(tmp_path, "conj.json", reps),
                "--bound", "-1"]
    elif case == "empty_gram":
        argv = ["lattice", "type", "--in", write(tmp_path, "empty.json", [])]
    elif case == "list_input":
        argv = ["selfdual", "check", "--in", write(tmp_path, "list.json", [1, 2, 3])]
    elif case == "zero_denominator_min_type":
        argv = ["group", "min-type", "--matrix",
                write(tmp_path, "t.json", [[1, ["1", "0"]], [0, 1]])]
    elif case == "empty_min_type":
        argv = ["group", "min-type", "--matrix", write(tmp_path, "t.json", [])]
    elif case == "zero_denominator_aff":
        g = {"a": [["1", "0"], ["0", "1"]], "gamma": [["1", "0"], ["0", "1"]], "type": [1]}
        argv = ["aff", "compose", "--in", write(tmp_path, "aff.json", {"g1": g, "g2": g})]
    elif case == "period_not_an_object":
        payload = {"metric": np.diag([-1.0, 1.0, 1.0, 1.0]).tolist(), "orientation": 1,
                   "N": [1], "V": {"rank": 2, "coeffs": np.zeros((2, 4, 4)).tolist()}}
        argv = ["selfdual", "check", "--in", write(tmp_path, "sd.json", payload)]
    elif case == "float_matrix_entry":
        argv = ["group", "min-type", "--matrix", write(tmp_path, "t.json", [[1, 0.5], [0, 1]])]
    elif case == "over_budget":
        # 2 * 10^6 + 1 choices of the first coefficient alone pass the default budget
        reps = {"rep1": [[[1, 1], [0, 1]]], "rep2": [[[1, -1], [0, 1]]], "type": [1]}
        argv = ["monodromy", "conjugacy", "--in", write(tmp_path, "conj.json", reps),
                "--bound", "1000000"]
    elif case == "null_affine_element":
        g = {"a": [["1", "2"], ["0", "1"]], "gamma": [["1", "0"], ["0", "1"]], "type": [1]}
        argv = ["aff", "compose", "--in", write(tmp_path, "aff.json", {"g1": None, "g2": g})]
    elif case == "object_in_float_matrix":
        argv = ["taming", "check", "--in", write(tmp_path, "J.json", [[0.0, {}], [-1.0, 0.0]])]
    elif case == "null_charge":
        payload = {"v": [None, 1], "J": [[0.0, 1.0], [-1.0, 0.0]]}
        argv = ["dyon", "flux", "--in", write(tmp_path, "dyon.json", payload)]
    elif case == "nan_charge_argument":
        argv = ["dyon", "build", "--v", "nan,1"]
    elif case == "zero_spacing":
        fields = {name: {"data": np.zeros(shape).tolist(), "shape": list(shape)}
                  for name, shape in (("psi", (3, 3, 3, 2)), ("V", (3, 3, 3, 2, 3, 3)))}
        header = {"shape": [3, 3, 3], "spacing": [0.1, 0.1, 0.0],
                  "J": [[0.0, 1.0], [-1.0, 0.0]], "fields": fields}
        argv = ["bogomolny", "residual", "--in", write(tmp_path, "grid.json", header)]
    elif case == "ragged_dirac_image":
        payload = {"images": [[[1, ["1", "2"]], []]], "lattice": [[1, 0], [0, 2]]}
        argv = ["monodromy", "dirac-verify", "--in", write(tmp_path, "dirac.json", payload)]
    elif case == "dyon_flux_without_in":
        argv = ["dyon", "flux"]
    elif case == "grid_fields_lack_V":
        header = {"shape": [3, 3, 3], "spacing": [0.1] * 3, "J": [[0.0, 1.0], [-1.0, 0.0]],
                  "fields": {"psi": {"data": np.zeros((3, 3, 3, 2)).tolist(),
                                     "shape": [3, 3, 3, 2]}}}
        argv = ["bogomolny", "residual", "--in", write(tmp_path, "grid.json", header)]
    elif case == "missing_input_file":
        argv = ["lattice", "type", "--in", str(tmp_path / "absent.json")]
    elif case == "dyon_type_too_long":
        argv = ["dyon", "build", "--v", "0,1", "--type", "2,4,8"]
    elif case == "dyon_flux_type_too_long":
        payload = {"v": [0, 1], "J": [[0.0, 1.0], [-1.0, 0.0]], "type": [3, 6]}
        argv = ["dyon", "flux", "--in", write(tmp_path, "dyon.json", payload)]
    else:
        psi_file = {"missing_payload": "absent.f64",
                    "payload_outside_header_dir": "../psi.f64",
                    "absolute_payload": str(tmp_path / "psi.f64")}[case]
        header = binary_grid_header(tmp_path, psi_file)
        argv = ["bogomolny", "residual", "--in", write(tmp_path, "sub/grid.json", header)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert strict_loads(captured.out)["status"] == "invalid_input"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["edyn", "build", "--theta", "1e200"],
    ["dyon", "build", "--v", "0,1", "--J", "edyn:1e200,1"],
    ["edyn", "build", "--qe", "1" + "0" * 400],
    ["dyon", "build", "--v", "1e308,1e308"],
    ["dyon", "build", "--v", "1e200,1e200", "--J", "edyn:0,1e150"],
    ["taming", "check", "--in", "-"],
], ids=["theta_squared_overflows", "edyn_spec_theta_overflows", "charge_beyond_float",
        "flux_overflows", "report_not_finite", "taming_check_overflows"])
def test_overflowing_argv_exits_two_with_one_report(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([[1e200, 0.0], [0.0, 1e200]])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("\n") == 1  # the invalid_input report and nothing before it
    report = strict_loads(captured.out)
    assert report["status"] == "invalid_input"
    assert "Traceback" not in captured.err
    # numpy's overflow warnings would land on stderr before the error line
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert captured.err == f"error: {report['error']}\n"
    if argv[-1] == "edyn:0,1e150":
        assert report["error"].startswith("report field 'psi_at_1': ")


def test_manifest_records_the_argv_main_parsed(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["host", "--host-flag"])
    argv = ["edyn", "build", "--qm", "1"]
    code, report = run(capsys, argv)
    assert code == 0
    assert report["manifest"]["command"] == argv


def test_dyon_build_records_digest_of_taming_file(tmp_path, capsys):
    path = tmp_path / "J.json"
    path.write_text(json.dumps([[0.0, 1.0], [-1.0, 0.0]]))
    code, report = run(capsys, ["dyon", "build", "--v", "0,1", "--J", str(path)])
    assert code == 0
    assert report["manifest"]["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_stdin_digest_matches_file_digest(tmp_path, capsys, monkeypatch):
    text = json.dumps([[0, 2], [-2, 0]])
    path = tmp_path / "gram.json"
    path.write_text(text)
    code, from_file = run(capsys, ["lattice", "type", "--in", str(path)])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, from_stdin = run(capsys, ["lattice", "type", "--in", "-"])
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert from_file["manifest"]["inputs"] == {str(path): digest}
    assert from_stdin["manifest"]["inputs"] == {"-": digest}


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's sympforge."""
    src = os.path.dirname(os.path.dirname(sympforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_exact_layers_load_no_numpy():
    proc = run_python("-c", "import sys; from sympforge import exactmat, monodromy, siegel, "
                            "symplattice; print(sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # nor numpy.random, which numpy imports on its first use
    proc = run_python("-c", "import sys, sympforge.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                            "or m.startswith('numpy.random')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_selftest_taming_loads_no_scipy():
    """The suite that draws random symplectic matrices runs them on numpy alone."""
    proc = run_python("-c", "import contextlib, io, sys; from sympforge import cli\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            "    code = cli.main(['selftest', 'taming', '--seed', '7'])\n"
                            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_no_library_module_imports_scipy():
    imported = []
    for path in sorted(pathlib.Path(sympforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imported += [f"{path.name}:{node.lineno}" for m in names if m.split(".")[0] == "scipy"]
    assert imported == []


def test_only_main_adds_the_manifest_and_writes_the_report():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    # each call, module-level or nested, under the top-level definition it sits in
    callers = {(getattr(top, "name", "<module>"), node.func.id) for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) in ("_emit", "_manifest")}
    assert callers == {("main", "_emit"), ("main", "_manifest")}


IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
from sympforge import cli
argv, payload = json.loads(sys.argv[1])
sys.stdin = io.StringIO(json.dumps(payload))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(argv)
print(json.dumps([code, json.loads(out.getvalue())["status"],
                  sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


def cli_main_in_fresh_interpreter(argv, payload):
    """(exit code, report status, numpy submodules loaded) of cli.main(argv), stdin payload."""
    proc = run_python("-c", IN_FRESH_INTERPRETER, json.dumps([argv, payload]))
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, payload, code", [
    (["lattice", "type", "--in", "-"], [[0, 3], [-3, 0]], 0),
    (["group", "check", "--matrix", "-", "--type", "2"], [[1, 1], [0, 1]], 0),
    (["aff", "compose", "--in", "-"], AFF_PAIR, 0),
    (["monodromy", "conjugacy", "--in", "-", "--bound", "2"],
     {"rep1": [[[1, 1], [0, 1]]], "rep2": [[[0, 1], [-1, 2]]], "type": [1]}, 0),
    (["lattice", "type", "--in", "-"], [], 2),
], ids=["lattice_type", "group_check", "aff_compose", "monodromy_conjugacy", "empty_gram"])
def test_exact_subcommands_run_no_numpy(argv, payload, code):
    status = "ok" if code == 0 else "invalid_input"
    assert cli_main_in_fresh_interpreter(argv, payload) == (code, status, [])


@pytest.mark.parametrize("argv, payload", [
    (["taming", "check", "--in", "-"], [[0.0, 1.0], [-1.0, 0.0]]),
    (["edyn", "build", "--qm", "1"], None),
], ids=["taming_check", "edyn_build"])
def test_float_subcommands_load_numpy_on_first_use(argv, payload):
    code, status, loaded = cli_main_in_fresh_interpreter(argv, payload)
    assert (code, status) == (0, "ok") and "numpy.linalg" in loaded


def test_cli_import_registers_every_layer():
    # a tracer patches the layers it finds in sys.modules after this import
    layers = ["cli", "dyons", "exactmat", "forms4d", "monodromy", "reduction3d", "serialize",
              "siegel", "symplattice", "taming"]
    proc = run_python("-c", "import sys, sympforge.cli; "
                            "print(' '.join(m for m in sys.modules if m.startswith('sympforge.')))")
    assert proc.returncode == 0, proc.stderr
    assert {f"sympforge.{name}" for name in layers} <= set(proc.stdout.split())


def test_lazy_is_called_by_cli_for_every_layer_and_by_serialize_for_numpy():
    """One rule decides what a CLI call loads: cli registers numpy and every other
    module of the package lazily, serialize registers numpy (a plain import of it
    would run it), and no other module calls lazy."""
    package = pathlib.Path(sympforge.__file__).parent
    calls = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy":
                # the modules the call names, evaluated with lazy returning its arguments
                code = compile(ast.Expression(node), str(path), "eval")
                calls.setdefault(path.stem, []).append(eval(code, {"lazy": lambda *n: n}))
    layers = sorted(f"sympforge.{path.stem}" for path in package.glob("*.py")
                    if path.stem not in ("__init__", "cli"))
    assert calls == {"cli": [("numpy", *layers)], "serialize": [("numpy",)]}


RAN_AFTER_MAIN = """
import contextlib, io, json, sys
from sympforge import cli
argv, payload = json.loads(sys.argv[1])
sys.stdin = io.StringIO(json.dumps(payload))
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
# running a module's code adds __builtins__ to its namespace; a lazy module not yet run lacks it
print(" ".join(sorted(name.split(".")[1] for name, module in sys.modules.items()
                      if name.startswith("sympforge.")
                      and "__builtins__" in object.__getattribute__(module, "__dict__"))))
"""


@pytest.mark.parametrize("argv, payload, ran", [
    (["lattice", "type", "--in", "-"], [[0, 3], [-3, 0]],
     "cli exactmat serialize symplattice"),
    (["taming", "check", "--in", "-"], [[0.0, 1.0], [-1.0, 0.0]],
     "cli exactmat serialize symplattice taming"),
], ids=["lattice_type", "taming_check"])
def test_a_call_runs_only_the_layers_its_handler_touches(argv, payload, ran):
    # neither call runs monodromy or siegel, which cli once imported for every call
    proc = run_python("-c", RAN_AFTER_MAIN, json.dumps([argv, payload]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ran.split()


WARNS_IN_HANDLER = """
import sys
import numpy as np
from sympforge import cli
def handler(args, tol):
    EXPR
    return {"status": "ok"}, 0
cli.cmd_edyn = handler
sys.exit(cli.main(["edyn", "build"]))
"""


@pytest.mark.parametrize("expr, warning", [
    ("np.float64(1e308) * 10", None),
    ("np.float64(np.inf) - np.inf", None),
    ("np.float64(1.0) / 0.0", "RuntimeWarning: divide by zero encountered in scalar divide"),
], ids=["overflow", "invalid_value", "divide_by_zero"])
def test_main_hides_the_warnings_errstate_hid(expr, warning):
    # np.errstate(over="ignore", invalid="ignore") hid overflow and invalid values only
    proc = run_python("-c", WARNS_IN_HANDLER.replace("EXPR", expr))
    assert proc.returncode == 0, proc.stderr
    assert strict_loads(proc.stdout)["status"] == "ok"
    if warning is None:
        assert proc.stderr == ""
    else:
        assert warning in proc.stderr

SELFDUAL_UNDER_O = """
import numpy as np
from sympforge import forms4d, selftest, taming
p = forms4d.LorentzPoint(np.diag([-1.0, 1.0, 1.0, 1.0]))
N = taming.PeriodMatrix([[0.0]], [[1.0]])
F = selftest.random_two_form(np.random.default_rng(0), 1)
V = np.concatenate([F, forms4d.g_map(p, N, F)])
print(__debug__, forms4d.check_polarized_selfdual(p, N, V)[0])
forms4d.g_map = lambda p, N, F: 0 * F   # breaks the lower-half condition
print(forms4d.check_polarized_selfdual(p, N, V)[0])
"""


def test_child_process_manifest_records_its_argv():
    proc = run_python("-m", "sympforge.cli", "edyn", "build", "--qm", "1")
    assert proc.returncode == 0, proc.stderr
    assert strict_loads(proc.stdout)["manifest"]["command"] == ["edyn", "build", "--qm", "1"]


def test_selfdual_postcondition_checked_under_optimize():
    proc = run_python("-O", "-c", SELFDUAL_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False"]
