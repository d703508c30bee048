"""Workload ``cli``: one ``python -m sympforge.cli`` child per op, in sequence.

This is the end-to-end cost a user of the JSON CLI sees: interpreter
start, imports and the handler.  Imports dominate today, so the library
kernels barely move it.  The round covers every subcommand action, with
small inputs written during set-up, one stdin call and one binary grid
payload.  A share of the calls are invalid inputs that must exit 2 with
``status: invalid_input`` and no traceback; they include the known cases
where the CLI breaks that contract today, which count as failed ops.
"""

import json
import os
import random
import subprocess
import sys

import numpy as np

import calib
import ref
from grid import C_RES, SPACING, axes_points, dyon_fields
from harness import Op
from pointwise import close, lorentz_metric, period, ref_star, ref_taming, static_metric, two_form

TRACE_ROUNDS = 1
GRID_NODES = 7
CALL_TIMEOUT_S = 60


class Call:
    """argv for one CLI call plus the files it reads."""

    def __init__(self, key, argv, check, stdin=None, env=None, probe=False, reads=()):
        self.key, self.argv, self.check = key, argv, check
        self.stdin, self.env, self.probe, self.reads = stdin, env or {}, probe, reads


def _report(code, out, want_code):
    if code != want_code:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


def expect(want_code, pred):
    def check(res):
        code, out, _ = res
        rep = _report(code, out, want_code)
        return rep is not None and pred(rep)
    return check


def invalid_input(res):
    code, out, err = res
    rep = _report(code, out, 2)
    return rep is not None and rep.get("status") == "invalid_input" and "Traceback" not in err


def strs(M):
    return [[str(x) for x in row] for row in M]


def fracs(M):
    return [[[str(x.numerator), str(x.denominator)] for x in row] for row in M]


class Workload:
    name = "cli"
    trace_rounds = TRACE_ROUNDS
    kernel = staticmethod(calib.process_kernel)

    def __init__(self, seed, root, env):
        self.seed, self.root, self.env = seed, root, env
        self.children_maxrss_kb = 0
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # children run with this directory as their working directory, so
        # file arguments and binary payload names are relative to it
        self.dir = os.path.join(root, ".perfbench_run", f"cli-s{seed}")
        os.makedirs(os.path.join(self.dir, "sub"), exist_ok=True)

    def write(self, name, payload):
        with open(os.path.join(self.dir, name), "w") as fh:
            json.dump(payload, fh)
        return name

    def write_f64(self, name, arr):
        np.asarray(arr, dtype="<f8").tofile(os.path.join(self.dir, name))

    def calls(self, k):
        rng = random.Random(self.seed * 7_919 + k)
        nrng = np.random.default_rng([self.seed, k, 7])
        w, calls = self.write, []

        # lattice normal-form / type (type read from stdin)
        G = ref.random_antisymmetric(rng, 2, 20)
        calls.append(Call("lattice.normal-form", ["lattice", "normal-form", "--in", w("gram.json", strs(G))],
                          expect(0, lambda r, G=G: self._nf_ok(G, r))))
        t = ref.random_chain(rng, 2)
        W = ref.random_unimodular(rng, 4)
        Gt = ref.mul(ref.transpose(W), ref.mul(ref.std_gram(t), W))
        calls.append(Call("lattice.type", ["lattice", "type", "--in", "-"],
                          expect(0, lambda r, t=t: r["type"] == list(t)), stdin=json.dumps(Gt)))

        # group check / min-type
        t = ref.random_chain(rng, 2)
        S = ref.random_member(rng, t, 6)
        calls.append(Call("group.check", ["group", "check", "--matrix", w("member.json", strs(S)),
                                          "--type", ",".join(map(str, t))],
                          expect(0, lambda r: r["member"] is True)))
        tm = (2, 6)
        T = ref.conjugate_by_gamma(ref.random_member(rng, tm, 6), tm, (1, 1))
        calls.append(Call("group.min-type", ["group", "min-type", "--matrix", w("rational.json", fracs(T))],
                          expect(0, lambda r, T=T: self._min_type_ok(T, tuple(r["type"])))))

        # aff compose
        t = (1, 2)
        r1, r2 = ref.random_member(rng, t, 4), ref.random_member(rng, t, 4)
        a1 = [ref.Fraction(rng.randrange(6), 6) for _ in range(4)]
        a2 = [ref.Fraction(rng.randrange(4), 4) for _ in range(4)]
        moved = [sum(r1[i][j] * a2[j] for j in range(4)) for i in range(4)]
        want_a = [[str(x.numerator), str(x.denominator)] for x in ((p + q) % 1 for p, q in zip(a1, moved))]
        want_g = strs(ref.mul(r1, r2))
        pair = {f"g{i}": {"a": [[str(x.numerator), str(x.denominator)] for x in a],
                          "gamma": strs(r), "type": list(t)}
                for i, (a, r) in ((1, (a1, r1)), (2, (a2, r2)))}
        calls.append(Call("aff.compose", ["aff", "compose", "--in", w("aff.json", pair)],
                          expect(0, lambda r: r["result"]["a"] == want_a and r["result"]["gamma"] == want_g)))

        # taming convert / check
        R, I = period(nrng, 2)
        J = ref_taming(R, I)
        calls.append(Call("taming.convert", ["taming", "convert", "--in",
                                             w("period.json", {"R": R.tolist(), "I": I.tolist()})],
                          expect(0, lambda r, J=J: close(r["J"], J))))
        calls.append(Call("taming.check", ["taming", "check", "--in", w("taming.json", J.tolist())],
                          expect(0, lambda r: r["taming"] is True)))

        # selfdual check / reduce astdec-check
        g, s = lorentz_metric(nrng)
        R, I = period(nrng, 1)
        F = two_form(nrng, 1)
        Gf = -R[0, 0] * F - I[0, 0] * ref_star(g, s, F)
        point = {"metric": g.tolist(), "orientation": s, "N": {"R": R.tolist(), "I": I.tolist()},
                 "V": {"rank": 2, "coeffs": np.concatenate([F, Gf]).tolist()}}
        calls.append(Call("selfdual.check", ["selfdual", "check", "--in", w("selfdual.json", point)],
                          expect(0, lambda r: r["selfdual"] is True)))
        g, s = static_metric(nrng)
        om = two_form(nrng, 2)
        calls.append(Call("reduce.astdec-check",
                          ["reduce", "astdec-check", "--in",
                           w("astdec.json", {"metric": g.tolist(), "orientation": s,
                                             "omega": {"rank": 2, "coeffs": om.tolist()}})],
                          expect(0, lambda r: r["passes"] is True and r["residual"] < 1e-10)))

        # bogomolny residual: inline JSON and binary payload
        J2 = ref_taming(*period(nrng, 1))
        v = np.array([float(rng.randint(-2, 2)), float(rng.choice([-1, 1]))])
        origin = [1.5, 1.5, 1.5]
        X = axes_points(GRID_NODES, origin)
        psi, V = dyon_fields(X, J2, v, np.zeros(2))
        bound = C_RES * SPACING ** 2 * float(np.max(np.abs(J2 @ v))) / float(
            np.min(np.linalg.norm(X, axis=-1))) ** 4
        head = {"shape": [GRID_NODES] * 3, "spacing": [SPACING] * 3, "origin": origin,
                "metric": np.eye(3).tolist(), "J": J2.tolist()}
        inline = dict(head, fields={"psi": {"data": psi.tolist(), "shape": list(psi.shape)},
                                    "V": {"data": V.tolist(), "shape": list(V.shape)}})
        binary = dict(head, fields={"psi": {"file": "psi.f64", "shape": list(psi.shape)},
                                    "V": {"file": "V.f64", "shape": list(V.shape)}})
        self.write_f64("psi.f64", psi)
        self.write_f64("V.f64", V)
        self.write_f64("../psi.f64", psi)
        small = expect(0, lambda r: r["passes"] is True and r["eq_residual"] < bound)
        thr = f"--threshold={bound!r}"
        calls.append(Call("bogomolny.residual", ["bogomolny", "residual", "--in", w("grid.json", inline), thr],
                          small))
        calls.append(Call("bogomolny.residual", ["bogomolny", "residual", "--in", w("gridb.json", binary), thr],
                          small, reads=("psi.f64", "V.f64")))

        # dyon build / flux
        q = [rng.randint(-2, 2), rng.choice([-1, 1])]
        flux_ok = lambda r, q=q: (r["lattice_member"] is True
                                  and close(r["normalized"], [-x for x in q], 1e-8))
        calls.append(Call("dyon.build", ["dyon", "build", "--type", "1", f"--v={q[0]},{q[1]}",
                                         "--vprime=0,0", "--J", "std"], expect(0, flux_ok)))
        q2 = [rng.randint(-2, 2), rng.choice([-1, 1])]
        calls.append(Call("dyon.flux", ["dyon", "flux", "--in",
                                        w("dyon.json", {"v": q2, "vprime": [0.0, 0.0],
                                                        "J": J2.tolist(), "type": [1]})],
                          expect(0, lambda r, q2=q2: close(r["flux"], [-2 * np.pi * x for x in q2], 1e-8))))

        # edyn build
        theta, gsq = round(rng.uniform(-3, 3), 3), round(rng.uniform(4, 16), 3)
        calls.append(Call("edyn.build", ["edyn", "build", f"--theta={theta}", f"--gsq={gsq}",
                                         f"--qe={rng.randint(-1, 1)}", f"--qm={rng.choice([-1, 1])}"],
                          expect(0, lambda r: r["passes"] is True)))

        # monodromy validate / dirac-verify / conjugacy
        t = (1, 2)
        g0 = ref.random_member(rng, t, 4)
        g0i = ref.symp_inverse(g0, t)
        ims = []
        for _ in range(2):
            U = ref.ident(4)
            U[0][2], U[1][3] = rng.randint(-2, 2), rng.randint(-2, 2)
            ims.append(ref.mul(g0, ref.mul(U, g0i)))
        rep = {"presentation": {"generators": 2, "relators": [[1, 2, -1, -2]]},
               "images": [strs(m) for m in ims], "type": list(t)}
        calls.append(Call("monodromy.validate", ["monodromy", "validate", "--in", w("rep.json", rep)],
                          expect(0, lambda r: r["valid"] is True)))
        td = (2,)
        Sd = ref.random_member(rng, td, 4)
        wit = {"images": [fracs(ref.conjugate_by_gamma(Sd, td, (1,)))], "lattice": [[1, 0], [0, 2]]}
        calls.append(Call("monodromy.dirac-verify", ["monodromy", "dirac-verify", "--in", w("dirac.json", wit)],
                          expect(0, lambda r: r["preserved"] is True and r["type"] == [2])))
        A = ref.random_member(rng, (1,), 4)
        gam = ref.sl2_with_bound(rng, 2)
        B = ref.mul(gam, ref.mul(A, ref.symp_inverse(gam, (1,))))
        reps = {"rep1": [strs(A)], "rep2": [strs(B)], "type": [1]}
        calls.append(Call("monodromy.conjugacy", ["monodromy", "conjugacy", "--in", w("conj.json", reps),
                                                  "--bound", "2"],
                          expect(0, lambda r, A=A, B=B: self._conj_ok(A, B, r))))

        calls.append(Call("selftest", ["selftest", "taming", "--seed", str(self.seed)],
                          expect(0, lambda r: r["status"] == "ok")))

        # invalid inputs: each must exit 2 with status invalid_input and no traceback
        bad = lambda key, argv, **kw: calls.append(Call(key, argv, invalid_input, probe=True, **kw))
        bad("lattice.type", ["lattice", "type", "--in", w("nonanti.json", [[0, 1], [1, 0]])])
        bad("selfdual.check", ["selfdual", "check", "--in", w("list.json", [1, 2, 3])])
        bad("lattice.type", ["lattice", "type", "--in", w("gram2.json", [[0, 3], [-3, 0]])],
            env={"SYMPFORGE_TOL": "abc"})
        bad("group.min-type", ["group", "min-type", "--matrix", w("zero_den.json", [[1, ["1", "0"]], [0, 1]])])
        zpair = json.loads(json.dumps(pair))
        zpair["g1"]["a"][0] = ["1", "0"]
        bad("aff.compose", ["aff", "compose", "--in", w("aff_zero_den.json", zpair)])
        missing = dict(head, fields={"psi": {"file": "absent.f64", "shape": list(psi.shape)},
                                     "V": {"file": "V.f64", "shape": list(V.shape)}})
        bad("bogomolny.residual", ["bogomolny", "residual", "--in", w("grid_missing.json", missing)])
        outside = dict(head, fields={"psi": {"file": "../psi.f64", "shape": list(psi.shape)},
                                     "V": {"file": "V.f64", "shape": list(V.shape)}})
        bad("bogomolny.residual", ["bogomolny", "residual", "--in", w("sub/grid_outside.json", outside)])
        bad("monodromy.conjugacy", ["monodromy", "conjugacy", "--in", w("conj.json", reps), "--bound", "-1"])
        bad("lattice.type", ["lattice", "type", "--in", w("empty.json", [])])
        return calls

    @staticmethod
    def _nf_ok(G, r):
        U = [[int(x) for x in row] for row in r["U"]]
        t = tuple(r["type"])
        return (ref.is_chain(t) and ref.mul(ref.transpose(U), ref.mul(G, U)) == ref.std_gram(t)
                and abs(ref.bareiss_det(U)) == 1)

    @staticmethod
    def _min_type_ok(T, r):
        delta = (1,) * len(r)
        adm = lambda c: ref.integral(ref.conjugate_by_gamma(T, delta, c))
        return ref.is_chain(r) and adm(r) and not any(adm(c) for c in ref.chains_below(r))

    @staticmethod
    def _conj_ok(A, B, r):
        if r.get("certificate") != "found":
            return False
        g = [[int(x) for x in row] for row in r["conjugator"]]
        return ref.is_member(g, (1,)) and ref.mul(g, A) == ref.mul(B, g)

    def bytes_in(self, call):
        files = [a for a in call.argv if a.endswith(".json")] + list(call.reads)
        size = sum(os.path.getsize(os.path.join(self.dir, f)) for f in files)
        return size + len((call.stdin or "").encode())

    def spawn(self, argv, stdin, env):
        """Run one child through spawner.py; returns (exit code, stdout, stderr)."""
        req = {"argv": argv, "stdin": stdin, "env": env, "cwd": self.dir,
               "timeout": CALL_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        rep = json.loads(self.spawner.stdout.readline())
        self.children_maxrss_kb = rep["maxrss_kb"]
        if rep["code"] is None:
            raise subprocess.TimeoutExpired(argv, CALL_TIMEOUT_S)
        return rep["code"], rep["out"], rep["err"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()

    def op(self, call):
        env = dict(self.env, **call.env)
        argv = [sys.executable, "-m", "sympforge.cli", *call.argv]
        return Op(call.key, lambda: self.spawn(argv, call.stdin, env), call.check,
                  probe=call.probe, info={"call": call})

    def round(self, k):
        return [self.op(c) for c in self.calls(k)]

    def warmup(self):
        c = Call("lattice.type", ["lattice", "type", "--in", self.write("warm.json", [[0, 2], [-2, 0]])],
                 expect(0, lambda r: r["type"] == [2]))
        return [self.op(c)]

    @staticmethod
    def counters(ops):
        keys = [op.info["call"].key for op in ops]
        return {"dyons.quad_nodes": 32 * 64 * sum(k in ("dyon.build", "dyon.flux") for k in keys)}
