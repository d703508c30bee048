"""Command-line surface.

Every subcommand reads JSON, writes a single JSON report with a "status"
field to stdout, and exits 0 (success / verified true), 1 (verified
false), or 2 (invalid input).  Reports embed a reproducibility manifest:
argv, SHA-256 digests of the inputs (stdin under "-"), tolerances in effect,
seed, version.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, dyons, forms4d, monodromy
from . import reduction3d, selftest, serialize, siegel, symplattice as sl, taming


class UsageError(Exception):
    pass


# every exception that means "invalid input": exit 2, status invalid_input
# (json.JSONDecodeError and the library's input errors are ValueErrors)
INVALID_INPUT = (UsageError, ValueError, KeyError)


def default_tol():
    return float(os.environ.get("SYMPFORGE_TOL", "1e-9"))


def _read_json(path, kind=None):
    """Parse a JSON input file, or stdin for "-"; returns (data, {path: sha256}).

    kind, if given (dict or list), is the required type of the top-level value.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
    data = json.loads(text)
    if kind is not None and not isinstance(data, kind):
        want = "an object" if kind is dict else "an array"
        raise UsageError(f"{path}: top-level JSON value must be {want}, "
                         f"not {type(data).__name__}")
    return data, {path: hashlib.sha256(text.encode()).hexdigest()}


def _manifest(args, inputs, tol, seed=None):
    return {
        "command": sys.argv[1:],
        "inputs": inputs or {},
        "tolerances": {"tol": tol},
        "seed": seed,
        "version": __version__,
    }


def _emit(report, code):
    json.dump(report, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return code


def _parse_type(text):
    return tuple(int(x) for x in str(text).split(","))


def _parse_vector(text):
    return [float(x) for x in str(text).split(",")]


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_lattice(args, tol):
    data, inputs = _read_json(args.infile, list)
    G = serialize.int_matrix_from_json(data)
    res = sl.symplectic_normal_form(G)
    report = {"status": "ok", "type": list(res.type),
              "manifest": _manifest(args, inputs, tol)}
    if args.action == "normal-form":
        report["U"] = serialize.int_matrix_to_json(res.basis_change)
    return _emit(report, 0)


def cmd_group(args, tol):
    data, inputs = _read_json(args.matrix, list)
    t = _parse_type(args.type) if args.type else None
    if args.action == "check":
        if t is None:
            raise UsageError("group check requires --type")
        S = serialize.int_matrix_from_json(data)
        member = siegel.is_member(S, t)
        report = {"status": "ok", "member": member,
                  "manifest": _manifest(args, inputs, tol)}
        return _emit(report, 0 if member else 1)
    T = serialize.rational_matrix_from_json(data)
    try:
        found = siegel.element_min_type(T)
    except siegel.NotFound:
        return _emit({"status": "not_found",
                      "manifest": _manifest(args, inputs, tol)}, 1)
    return _emit({"status": "ok", "type": list(found),
                  "manifest": _manifest(args, inputs, tol)}, 0)


def cmd_aff(args, tol):
    data, inputs = _read_json(args.infile, dict)
    g = siegel.aff_compose(serialize.aff_from_json(data["g1"]),
                           serialize.aff_from_json(data["g2"]))
    report = {"status": "ok", "result": serialize.aff_to_json(g),
              "manifest": _manifest(args, inputs, tol)}
    return _emit(report, 0)


def cmd_taming(args, tol):
    data, inputs = _read_json(args.infile, list if args.action == "check" else None)
    if args.action == "check":
        ok, rep = taming.is_taming(np.asarray(data, dtype=float), tol=max(tol, 1e-10))
        return _emit({"status": "ok", "taming": ok, "report": rep,
                      "manifest": _manifest(args, inputs, tol)}, 0 if ok else 1)
    if isinstance(data, dict) and "R" in data:
        J = taming.theta_forward(serialize.period_from_json(data))
        out = {"J": serialize.float_matrix_to_json(J)}
    else:
        J = np.asarray(data.get("J", data) if isinstance(data, dict) else data,
                       dtype=float)
        out = {"N": serialize.period_to_json(taming.theta_inverse(J))}
    out.update(status="ok", manifest=_manifest(args, inputs, tol))
    return _emit(out, 0)


def cmd_selfdual(args, tol):
    data, inputs = _read_json(args.infile, dict)
    p = forms4d.LorentzPoint(np.asarray(data["metric"], dtype=float),
                             int(data.get("orientation", 1)))
    N = serialize.period_from_json(data["N"])
    V = serialize.two_form_from_json(data["V"])
    ok, F, rep = forms4d.check_polarized_selfdual(p, N, V, tol=tol)
    report = {"status": "ok", "selfdual": ok, "report": rep,
              "manifest": _manifest(args, inputs, tol)}
    if ok:
        report["F"] = serialize.two_form_to_json(F)
    return _emit(report, 0 if ok else 1)


def cmd_reduce(args, tol):
    data, inputs = _read_json(args.infile, dict)
    p = forms4d.LorentzPoint(np.asarray(data["metric"], dtype=float),
                             int(data.get("orientation", 1)))
    omega = serialize.two_form_from_json(data["omega"])
    resid = reduction3d.star_decompose_check(p, omega)
    ok = resid < max(tol, 1e-10)
    return _emit({"status": "ok", "residual": resid, "passes": ok,
                  "manifest": _manifest(args, inputs, tol)}, 0 if ok else 1)


def cmd_bogomolny(args, tol):
    data, inputs = _read_json(args.infile, dict)
    # payload names are relative to the header's directory (cwd for stdin)
    grid, fields = serialize.grid_field_from_json(data, os.path.dirname(args.infile) or ".")
    if "psi" not in fields or "V" not in fields:
        raise UsageError("grid payload must provide fields 'psi' and 'V'")
    J = np.asarray(data["J"], dtype=float)
    rep = reduction3d.bogomolny_residual(
        grid, J, reduction3d.BogomolnyPair(fields["psi"], fields["V"]))
    threshold = args.threshold if args.threshold is not None else 1e-6
    ok = rep["eq_residual"] < threshold and rep["closure_residual"] < threshold
    return _emit({"status": "ok", "eq_residual": rep["eq_residual"],
                  "closure_residual": rep["closure_residual"], "passes": ok,
                  "manifest": _manifest(args, inputs, tol)}, 0 if ok else 1)


def _taming_from_spec(spec, n):
    """The taming J named by --J, and the digests of the files it read."""
    if spec == "std":
        return taming.theta_forward(taming.PeriodMatrix(np.zeros((n, n)), np.eye(n))), None
    if spec.startswith("edyn:"):
        theta, gsq = (float(x) for x in spec[5:].split(","))
        return taming.electrodynamics_taming(theta, gsq), None
    data, inputs = _read_json(spec, list)
    return np.asarray(data, dtype=float), inputs


def cmd_dyon(args, tol):
    if args.action == "build":
        v = _parse_vector(args.v)
        vprime = _parse_vector(args.vprime) if args.vprime else [0.0] * len(v)
        t = _parse_type(args.type) if args.type else None
        J, inputs = _taming_from_spec(args.J, len(v) // 2)
    else:
        data, inputs = _read_json(args.infile, dict)
        v = data["v"]
        vprime = data.get("vprime", [0.0] * len(v))
        t = tuple(data["type"]) if "type" in data else None
        J = np.asarray(data["J"], dtype=float)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyons.NonIntegerVWarning)
        sol = dyons.dyon_construct(J, v, vprime, type_ctx=t)
    verify = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
    flux = dyons.flux_quantization(sol)
    report = {
        "status": "ok",
        "psi_at_1": sol.psi(1.0).tolist(),
        "curvature_coeff": sol.curvature_coeff().tolist(),
        "verify": verify,
        "flux": flux.flux.tolist(),
        "normalized": flux.normalized.tolist(),
        "lattice_member": flux.lattice_member,
        "realized_sign": flux.realized_sign,
        "manifest": _manifest(args, inputs, tol),
    }
    return _emit(report, 0 if flux.lattice_member else 1)


def cmd_edyn(args, tol):
    rep = dyons.electrodynamics_dyon(args.theta, args.gsq, args.qe, args.qm)
    ok_fiber, fiber = dyons.h_theta_fiber_check(
        rep["grid"], rep["E_vec"], rep["B_vec"], rep["Phi"], rep["Upsilon"],
        args.theta, args.gsq)
    ok = ok_fiber and all(v < 1e-6 for v in rep["maxwell"].values())
    return _emit({"status": "ok", "maxwell": rep["maxwell"],
                  "potential_gap": rep["potential_gap"],
                  "h_theta_fiber": fiber, "passes": ok,
                  "manifest": _manifest(args, None, tol)}, 0 if ok else 1)


def cmd_monodromy(args, tol):
    data, inputs = _read_json(args.infile, dict)
    manifest = _manifest(args, inputs, tol)
    if args.action == "validate":
        pres = monodromy.Presentation.make(data["presentation"]["generators"],
                                           data["presentation"]["relators"])
        rep = monodromy.Representation.make(
            [serialize.int_matrix_from_json(m) for m in data["images"]],
            tuple(data["type"]))
        ok = monodromy.validate_representation(pres, rep)
        return _emit({"status": "ok", "valid": ok, "manifest": manifest},
                     0 if ok else 1)
    if args.action == "dirac-verify":
        images = [serialize.rational_matrix_from_json(m) for m in data["images"]]
        L = serialize.rational_matrix_from_json(data["lattice"])
        ok, t = monodromy.verify_dirac_system(images, L)
        return _emit({"status": "ok", "preserved": ok,
                      "type": list(t) if t else None, "manifest": manifest},
                     0 if ok else 1)
    t = tuple(data["type"])
    rep1 = monodromy.Representation.make(
        [serialize.int_matrix_from_json(m) for m in data["rep1"]], t)
    rep2 = monodromy.Representation.make(
        [serialize.int_matrix_from_json(m) for m in data["rep2"]], t)
    gamma, cert = monodromy.conjugacy_test_bounded(rep1, rep2, args.bound)
    report = {"status": "ok", "certificate": cert, "manifest": manifest}
    if gamma is not None:
        report["conjugator"] = serialize.int_matrix_to_json(gamma)
    return _emit(report, 0 if gamma is not None else 1)


def cmd_selftest(args, tol):
    scope = args.scope
    if scope != "all" and scope not in selftest.SUITES:
        raise UsageError(f"unknown module {scope!r}; choose from "
                         f"{['all'] + sorted(selftest.SUITES)}")
    passed, report = selftest.run(scope, args.seed)
    out = {"status": "ok" if passed else "failed", "suites": report,
           "manifest": _manifest(args, None, tol, seed=args.seed)}
    return _emit(out, 0 if passed else 1)


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="sympforge")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the default tolerance (env SYMPFORGE_TOL)")
    sub = ap.add_subparsers(dest="group", required=True)

    lat = sub.add_parser("lattice")
    lat.add_argument("action", choices=["normal-form", "type"])
    lat.add_argument("--in", dest="infile", required=True)
    lat.set_defaults(func=cmd_lattice)

    grp = sub.add_parser("group")
    grp.add_argument("action", choices=["check", "min-type"])
    grp.add_argument("--matrix", required=True)
    grp.add_argument("--type", default=None)
    grp.set_defaults(func=cmd_group)

    aff = sub.add_parser("aff")
    aff.add_argument("action", choices=["compose"])
    aff.add_argument("--in", dest="infile", required=True)
    aff.set_defaults(func=cmd_aff)

    tam = sub.add_parser("taming")
    tam.add_argument("action", choices=["convert", "check"])
    tam.add_argument("--in", dest="infile", required=True)
    tam.set_defaults(func=cmd_taming)

    sd = sub.add_parser("selfdual")
    sd.add_argument("action", choices=["check"])
    sd.add_argument("--in", dest="infile", required=True)
    sd.set_defaults(func=cmd_selfdual)

    red = sub.add_parser("reduce")
    red.add_argument("action", choices=["astdec-check"])
    red.add_argument("--in", dest="infile", required=True)
    red.set_defaults(func=cmd_reduce)

    bog = sub.add_parser("bogomolny")
    bog.add_argument("action", choices=["residual"])
    bog.add_argument("--in", dest="infile", required=True)
    bog.add_argument("--threshold", type=float, default=None)
    bog.set_defaults(func=cmd_bogomolny)

    dy = sub.add_parser("dyon")
    dy.add_argument("action", choices=["build", "flux"])
    dy.add_argument("--in", dest="infile")
    dy.add_argument("--type", default=None)
    dy.add_argument("--v", default=None)
    dy.add_argument("--vprime", default=None)
    dy.add_argument("--J", default="std")
    dy.set_defaults(func=cmd_dyon)

    ed = sub.add_parser("edyn")
    ed.add_argument("action", choices=["build"])
    ed.add_argument("--theta", type=float, default=0.0)
    ed.add_argument("--gsq", type=float, default=4 * np.pi)
    ed.add_argument("--qe", type=int, default=0)
    ed.add_argument("--qm", type=int, default=0)
    ed.set_defaults(func=cmd_edyn)

    mon = sub.add_parser("monodromy")
    mon.add_argument("action", choices=["validate", "dirac-verify", "conjugacy"])
    mon.add_argument("--in", dest="infile", required=True)
    mon.add_argument("--bound", type=int, default=2)
    mon.set_defaults(func=cmd_monodromy)

    st = sub.add_parser("selftest")
    st.add_argument("scope", nargs="?", default="all")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            json.dump({"status": "usage_error"}, sys.stdout)
            sys.stdout.write("\n")
            return 2
        return 0
    try:
        tol = args.tol if args.tol is not None else default_tol()
        if args.group == "dyon" and args.action == "build" and not args.v:
            raise UsageError("dyon build requires --v")
        if args.group == "dyon" and args.action == "flux" and not args.infile:
            raise UsageError("dyon flux requires --in")
        return args.func(args, tol)
    except INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        json.dump({"status": "invalid_input", "error": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
