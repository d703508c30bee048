"""Command-line surface.

Every subcommand reads JSON, writes a single JSON report with a "status"
field to stdout, and exits 0 (success / verified true), 1 (verified
false), or 2 (invalid input).  Reports embed a reproducibility manifest:
argv, SHA-256 digests of the inputs (stdin under "-"), tolerances in effect,
seed, version.

Each handler cmd_* returns (report, exit code); main alone adds the manifest,
last or in the place of a "manifest": None the handler put in, and writes the
report.  _read_json records the digest of each file it reads in args.inputs.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

from . import __version__, lazy

# numpy and every layer run on first use, so a call runs only the layers its handler touches
(np, dyons, exactmat, forms4d, monodromy, reduction3d, selftest, serialize, siegel, symplattice,
 taming) = lazy("numpy", *(f"sympforge.{m}" for m in (
    "dyons", "exactmat", "forms4d", "monodromy", "reduction3d", "selftest", "serialize", "siegel",
    "symplattice", "taming")))


# every exception that means "invalid input", exit 2 with status invalid_input: each library
# refusal is a ValueError with its message (BoundTooLargeForBudget is one too), and so is
# json.JSONDecodeError; KeyError is a missing field of an input file
INVALID_INPUT = (ValueError, KeyError)


def default_tol():
    return float(os.environ.get("SYMPFORGE_TOL", "1e-9"))


def _read_json(args, path, kind):
    """Parse a JSON input file, or stdin for "-", and record its sha256 in args.inputs.

    kind, unless None, is the required type (dict or list) of the top-level value.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
    data = json.loads(text)
    if kind is not None:
        serialize.checked(data, kind, f"{path}: top-level JSON value")
    args.inputs[path] = hashlib.sha256(text.encode()).hexdigest()
    return data


def _manifest(args, tol):
    return {"command": args.argv, "inputs": args.inputs, "tolerances": {"tol": tol},
            "seed": getattr(args, "seed", None),  # only selftest takes a seed
            "version": __version__}


def _emit(report, code):
    # serialized first, field by field: a non-finite float raises before any output
    for key, value in report.items():
        try:
            json.dumps(value, default=str, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"report field {key!r}: {exc}") from None
    sys.stdout.write(json.dumps(report, indent=2, default=str, allow_nan=False) + "\n")
    return code


def _parse_type(text):
    return tuple(int(x) for x in str(text).split(","))


def _parse_vector(text):
    return serialize.float_array_from_json([float(x) for x in str(text).split(",")])


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_lattice(args, tol):
    G = serialize.int_matrix_from_json(_read_json(args, args.infile, list))
    res = symplattice.symplectic_normal_form(G)
    report = {"status": "ok", "type": list(res.type), "manifest": None}
    if args.action == "normal-form":
        report["U"] = serialize.int_matrix_to_json(res.basis_change)
    return report, 0


def cmd_group(args, tol):
    data = _read_json(args, args.infile, list)
    t = _parse_type(args.type) if args.type else None
    if args.action == "check":
        if t is None:
            raise ValueError("group check requires --type")
        member = siegel.is_member(serialize.int_matrix_from_json(data), t)
        return {"status": "ok", "member": member}, 0 if member else 1
    found = siegel.element_min_type(serialize.rational_matrix_from_json(data))
    if found is None:
        return {"status": "not_found"}, 1
    return {"status": "ok", "type": list(found)}, 0


def cmd_aff(args, tol):
    data = _read_json(args, args.infile, dict)
    g = siegel.aff_compose(serialize.aff_from_json(data["g1"]),
                           serialize.aff_from_json(data["g2"]))
    return {"status": "ok", "result": serialize.aff_to_json(g)}, 0


def cmd_taming(args, tol):
    data = _read_json(args, args.infile, list if args.action == "check" else None)
    if args.action == "check":
        ok, rep = taming.is_taming(serialize.float_array_from_json(data), tol=max(tol, 1e-10))
        return {"status": "ok", "taming": ok, "report": rep}, 0 if ok else 1
    if isinstance(data, dict) and "R" in data:
        J = taming.theta_forward(serialize.period_from_json(data))
        out = {"J": serialize.float_matrix_to_json(J)}
    else:
        J = serialize.float_array_from_json(data.get("J", data) if isinstance(data, dict)
                                            else data)
        out = {"N": serialize.period_to_json(taming.theta_inverse(J))}
    return {**out, "status": "ok"}, 0


def cmd_selfdual(args, tol):
    data = _read_json(args, args.infile, dict)
    p = forms4d.LorentzPoint(serialize.float_array_from_json(data["metric"]),
                             serialize.int_from_json(data.get("orientation", 1)))
    N = serialize.period_from_json(data["N"])
    V = serialize.two_form_from_json(data["V"])
    ok, F, rep = forms4d.check_polarized_selfdual(p, N, V, tol=tol)
    report = {"status": "ok", "selfdual": ok, "report": rep, "manifest": None}
    if ok:
        report["F"] = serialize.two_form_to_json(F)
    return report, 0 if ok else 1


def cmd_reduce(args, tol):
    data = _read_json(args, args.infile, dict)
    p = forms4d.LorentzPoint(serialize.float_array_from_json(data["metric"]),
                             serialize.int_from_json(data.get("orientation", 1)))
    omega = serialize.two_form_from_json(data["omega"])
    resid = reduction3d.star_decompose_check(p, omega)
    ok = resid < max(tol, 1e-10)
    return {"status": "ok", "residual": resid, "passes": ok}, 0 if ok else 1


def cmd_bogomolny(args, tol):
    data = _read_json(args, args.infile, dict)
    # payload names are relative to the header's directory (cwd for stdin)
    grid, fields = serialize.grid_field_from_json(data, os.path.dirname(args.infile) or ".")
    if "psi" not in fields or "V" not in fields:
        raise ValueError("grid payload must provide fields 'psi' and 'V'")
    J = serialize.float_array_from_json(data["J"])
    rep = reduction3d.bogomolny_residual(
        grid, J, reduction3d.BogomolnyPair(fields["psi"], fields["V"]))
    ok = rep["eq_residual"] < args.threshold and rep["closure_residual"] < args.threshold
    return {"status": "ok", "eq_residual": rep["eq_residual"],
            "closure_residual": rep["closure_residual"], "passes": ok}, 0 if ok else 1


def _taming_from_spec(args, n):
    """The taming J named by --J."""
    if args.J == "std":
        return taming.theta_forward(taming.PeriodMatrix(np.zeros((n, n)), np.eye(n)))
    if args.J.startswith("edyn:"):
        theta, gsq = (float(x) for x in args.J[5:].split(","))
        return taming.electrodynamics_taming(theta, gsq)
    return serialize.float_array_from_json(_read_json(args, args.J, list))


def cmd_dyon(args, tol):
    if args.action == "build":
        if not args.v:
            raise ValueError("dyon build requires --v")
        v = _parse_vector(args.v)
        vprime = _parse_vector(args.vprime) if args.vprime else [0.0] * len(v)
        t = _parse_type(args.type) if args.type else None
        J = _taming_from_spec(args, len(v) // 2)
    else:
        if not args.infile:
            raise ValueError("dyon flux requires --in")
        data = _read_json(args, args.infile, dict)
        v = serialize.float_array_from_json(data["v"])
        vprime = serialize.float_array_from_json(data.get("vprime", np.zeros_like(v)))
        t = serialize.int_tuple_from_json(data["type"]) if "type" in data else None
        J = serialize.float_array_from_json(data["J"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dyons.NonIntegerVWarning)
        sol = dyons.dyon_construct(J, v, vprime, type_ctx=t)
    verify = dyons.dyon_verify(sol, [0.1, 1.0, 10.0])
    flux = dyons.flux_quantization(sol)
    return {"status": "ok", "psi_at_1": sol.psi(1.0).tolist(),
            "curvature_coeff": sol.curvature_coeff().tolist(), "verify": verify,
            "flux": flux.flux.tolist(), "normalized": flux.normalized.tolist(),
            "lattice_member": flux.lattice_member,
            "realized_sign": flux.realized_sign}, 0 if flux.lattice_member else 1


def cmd_edyn(args, tol):
    qe, qm = serialize.float_array_from_json([args.qe, args.qm])  # refuses ints beyond float range
    rep = dyons.electrodynamics_dyon(args.theta, args.gsq, qe, qm)
    ok_fiber, fiber = dyons.h_theta_fiber_check(
        rep["grid"], rep["E_vec"], rep["B_vec"], rep["Phi"], rep["Upsilon"],
        args.theta, args.gsq)
    ok = ok_fiber and all(v < 1e-6 for v in rep["maxwell"].values())
    return {"status": "ok", "maxwell": rep["maxwell"], "potential_gap": rep["potential_gap"],
            "h_theta_fiber": fiber, "passes": ok}, 0 if ok else 1


def cmd_monodromy(args, tol):
    data = _read_json(args, args.infile, dict)
    if args.action == "validate":
        pres = serialize.checked(data["presentation"], dict, "presentation")
        pres = monodromy.Presentation.make(
            serialize.int_from_json(pres["generators"]),
            [serialize.int_tuple_from_json(word, "a relator")
             for word in serialize.checked(pres["relators"], list, "relators")])
        images = serialize.checked(data["images"], list, "images")
        rep = monodromy.Representation.make([serialize.int_matrix_from_json(m) for m in images],
                                            serialize.int_tuple_from_json(data["type"]))
        ok = monodromy.validate_representation(pres, rep)
        return {"status": "ok", "valid": ok}, 0 if ok else 1
    if args.action == "dirac-verify":
        images = [serialize.rational_matrix_from_json(m)
                  for m in serialize.checked(data["images"], list, "images")]
        L = serialize.rational_matrix_from_json(data["lattice"])
        ok, t = monodromy.verify_dirac_system(images, L)
        return {"status": "ok", "preserved": ok, "type": list(t) if t else None}, 0 if ok else 1
    t = serialize.int_tuple_from_json(data["type"])
    rep1, rep2 = (monodromy.Representation.make(
        [serialize.int_matrix_from_json(m) for m in serialize.checked(data[key], list, key)], t)
        for key in ("rep1", "rep2"))
    gamma, cert = monodromy.conjugacy_test_bounded(rep1, rep2, args.bound)
    report = {"status": "ok", "certificate": cert, "manifest": None}
    if gamma is not None:
        report["conjugator"] = serialize.int_matrix_to_json(gamma)
    return report, 0 if gamma is not None else 1


def cmd_selftest(args, tol):
    scope = args.scope
    if scope != "all" and scope not in selftest.SUITES:
        raise ValueError(f"unknown module {scope!r}; choose from "
                         f"{['all'] + sorted(selftest.SUITES)}")
    passed, report = selftest.run(scope, args.seed)
    return {"status": "ok" if passed else "failed", "suites": report}, 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="sympforge")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the default tolerance (env SYMPFORGE_TOL)")
    sub = ap.add_subparsers(dest="group", required=True)

    def add(name, actions, func, infile="--in"):
        p = sub.add_parser(name)
        p.add_argument("action", choices=actions)
        if infile:
            p.add_argument(infile, dest="infile", required=True)
        p.set_defaults(func=func)
        return p

    add("lattice", ["normal-form", "type"], cmd_lattice)
    add("group", ["check", "min-type"], cmd_group, "--matrix").add_argument("--type", default=None)
    add("aff", ["compose"], cmd_aff)
    add("taming", ["convert", "check"], cmd_taming)
    add("selfdual", ["check"], cmd_selfdual)
    add("reduce", ["astdec-check"], cmd_reduce)
    add("bogomolny", ["residual"], cmd_bogomolny).add_argument(
        "--threshold", type=float, default=1e-6)
    dy = add("dyon", ["build", "flux"], cmd_dyon, infile=None)
    dy.add_argument("--in", dest="infile", default=None)
    for flag in ("--type", "--v", "--vprime"):
        dy.add_argument(flag, default=None)
    dy.add_argument("--J", default="std")
    ed = add("edyn", ["build"], cmd_edyn, infile=None)
    ed.add_argument("--theta", type=float, default=0.0)
    ed.add_argument("--gsq", type=float, default=4 * math.pi)
    ed.add_argument("--qe", type=int, default=0)
    ed.add_argument("--qm", type=int, default=0)
    add("monodromy", ["validate", "dirac-verify", "conjugacy"], cmd_monodromy).add_argument(
        "--bound", type=int, default=2)

    st = sub.add_parser("selftest")
    st.add_argument("scope", nargs="?", default="all")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    ap.set_defaults(argv=argv, inputs={})  # recorded in the manifest
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
        for name, value in (("tolerance", tol), ("--threshold", getattr(args, "threshold", 0.0)),
                            ("--seed", getattr(args, "seed", 0))):
            if not 0 <= value < float("inf"):
                raise ValueError(f"{name} must be finite and non-negative, not {value}")
        with warnings.catch_warnings():  # np.errstate would load numpy for every group
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                    RuntimeWarning)  # numpy's: a non-finite report is refused
            report, code = args.func(args, tol)
            report["manifest"] = _manifest(args, tol)
            return _emit(report, code)
    except INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        json.dump({"status": "invalid_input", "error": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
