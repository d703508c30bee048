"""The traced run: the same seeded rounds untraced and traced, in one process.

Spans are recorded around every public function and method of the layer
modules by patching them from here; nothing under ``src/`` changes.  The
untraced pass gives the base for ``trace.overhead_ratio``.  For ``cli``
the children pass gives per-subcommand wall times and JSON bytes, and an
in-process replay of the same argv through ``cli.main`` splits handler
time from interpreter start and import time.
"""

import contextlib
import glob
import io
import os
import statistics
import subprocess
import sys
import time

from harness import Op, Tracer, execute, p50_us, summarize

LAYERS = ("exactmat", "symplattice", "siegel", "monodromy", "taming", "forms4d",
          "reduction3d", "dyons", "serialize", "cli")
CLI_KEYS = ("lattice.normal-form", "lattice.type", "group.check", "group.min-type",
            "aff.compose", "taming.convert", "taming.check", "selfdual.check",
            "reduce.astdec-check", "bogomolny.residual", "dyon.build", "dyon.flux",
            "edyn.build", "monodromy.validate", "monodromy.dirac-verify",
            "monodromy.conjugacy", "selftest")
PROBES = 3


def _nodes(grid):
    s = grid.shape
    return s[0] * s[1] * s[2]


def _nf_tag(omega):
    big = max(abs(int(x)) for row in omega for x in row) > 20
    return f"n{len(omega) // 2}.{'big' if big else 'small'}"


TAGS = {
    "exactmat.det": lambda A: f"d{len(A)}",
    "symplattice.symplectic_normal_form": _nf_tag,
    "reduction3d.bogomolny_residual": lambda grid, *a, **k: _nodes(grid),
    "reduction3d.lift_to_4d": lambda pair, grid, *a, **k: _nodes(grid),
    "reduction3d.em_static_residual": lambda grid, *a, **k: _nodes(grid),
    "dyons.DyonSolution.sample_pair": lambda sol, grid: _nodes(grid),
}


def _safe(tag):
    def call(*args, **kwargs):
        try:
            return tag(*args, **kwargs)
        except Exception:
            return None
    return call


def make_tracer():
    import sympforge.cli  # noqa: F401  (the cli layer is traced too)
    mods = {name: sys.modules[f"sympforge.{name}"] for name in LAYERS}
    return Tracer(mods, {k: _safe(v) for k, v in TAGS.items()})


def src_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _nodes_per_s(tracer, name):
    spans = [s for s in tracer.spans if s[0] == name and s[6]]
    busy = sum(s[2] - s[1] for s in spans)
    return sum(s[6] for s in spans) / busy if busy else 0.0


def _roundtrip_us(tracer, kinds):
    per_op = {}
    for s in tracer.spans:
        if (s[3] == -1 and s[0] in ("taming.theta_forward", "taming.theta_inverse")
                and kinds[s[4]] == "taming_roundtrip"):
            per_op[s[4]] = per_op.get(s[4], 0.0) + s[2] - s[1]
    return p50_us(list(per_op.values()))


def layer_metrics(tracer, kinds, counters, cli_extra, overhead, root):
    m = tracer.layer_metrics()
    for d in (8, 16):
        m[f"exactmat.det_p50_us.d{d}"] = p50_us(tracer.durations("exactmat.det", f"d{d}"))
    for n in (1, 2, 4, 8):
        for size in ("small", "big"):
            m[f"symplattice.nf_p50_us.n{n}.{size}"] = p50_us(
                tracer.durations("symplattice.symplectic_normal_form", f"n{n}.{size}"))
    m["siegel.inverse_p50_us"] = p50_us(tracer.durations("siegel.SiegelElement.inverse"))
    m["siegel.min_type_p50_us"] = p50_us(tracer.durations("siegel.element_min_type"))
    m["taming.roundtrip_p50_us"] = _roundtrip_us(tracer, kinds)
    m["forms4d.hodge_star2_p50_us"] = p50_us(tracer.durations("forms4d.hodge_star2"))
    m["forms4d.point_p50_us"] = p50_us(tracer.durations("forms4d.LorentzPoint.__post_init__"))
    for key, name in (("bogomolny", "reduction3d.bogomolny_residual"),
                      ("lift", "reduction3d.lift_to_4d"), ("em", "reduction3d.em_static_residual")):
        m[f"reduction3d.{key}_nodes_per_s"] = _nodes_per_s(tracer, name)
    m["dyons.sample_nodes_per_s"] = _nodes_per_s(tracer, "dyons.DyonSolution.sample_pair")
    m["dyons.flux_p50_us"] = p50_us(tracer.durations("dyons.flux_quantization"))
    for key in ("symplattice.u_max_bits", "monodromy.candidates", "monodromy.useful_ratio",
                "monodromy.refused", "reduction3d.grid_nodes", "dyons.quad_nodes",
                "serialize.bytes_in", "serialize.bytes_out", "cli.interp_start_s",
                "cli.import_s", "cli.handler_s"):
        m[key] = counters.get(key, cli_extra.get(key, 0))
    for key in CLI_KEYS:
        m[f"cli.call_p50_ms.{key}"] = cli_extra.get(f"cli.call_p50_ms.{key}", 0.0)
    m["src.lines"] = src_lines(root)
    m["trace.overhead_ratio"] = overhead
    return m


def _passes(rounds, tracer):
    """Run each round untraced and traced, alternating which goes first so
    that warm caches favour neither; returns both sample lists."""
    base, traced, first_id = [], [], 0
    for r, ops in enumerate(rounds):
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if not with_trace:
                base += [execute(op)[0] for op in ops]
                continue
            tracer.install()
            try:
                traced += [execute(op, tracer, first_id + k)[0] for k, op in enumerate(ops)]
            finally:
                tracer.uninstall()
        first_id += len(ops)
    return base, traced


def traced_run(wl, first, args):
    rounds = [first] + [wl.round(k) for k in range(1, wl.trace_rounds)]
    ops = [op for r in rounds for op in r]
    tracer = make_tracer()
    if wl.name == "cli":
        cli_extra, checked = cli_children_pass(wl, ops)
        base, traced = cli_replay(ops, tracer, wl.dir)
        cli_extra["cli.handler_s"] = statistics.median(s.seconds for s in base)
    else:
        cli_extra = {}
        base, traced = _passes(rounds, tracer)
        checked = base + traced
    counters = dict(wl.counters(ops))
    counters["monodromy.refused"] = sum(s.outcome == "refused" for s in base)
    overhead = sum(s.seconds for s in traced) / sum(s.seconds for s in base)
    path = os.path.join(args.root, ".perfbench_run", f"trace-{wl.name}-s{args.seed}.json")
    tracer.dump(path)
    kinds = [s.kind for s in traced]
    return {"summary": summarize(checked),
            "per_layer": layer_metrics(tracer, kinds, counters, cli_extra, overhead, args.root),
            "spans": len(tracer.spans), "trace_file": os.path.relpath(path, args.root)}


# ---------------------------------------------------------------------------
# cli: children, interpreter and import probes, in-process replay

def _child_seconds(argv, env, root):
    t0 = time.perf_counter()
    p = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=root, timeout=60)
    return time.perf_counter() - t0, p.stdout


def cli_children_pass(wl, ops):
    out = {"serialize.bytes_in": 0, "serialize.bytes_out": 0}
    per_key, samples = {}, []
    for op in ops:
        sample, res = execute(op)
        samples.append(sample)
        per_key.setdefault(op.kind, []).append(sample.seconds)
        out["serialize.bytes_in"] += wl.bytes_in(op.info["call"])
        if res and op.kind != "selftest":    # its report carries its own run time
            out["serialize.bytes_out"] += len(res[1].encode())
    for key, vals in per_key.items():
        out[f"cli.call_p50_ms.{key}"] = statistics.median(vals) * 1e3
    exe = sys.executable
    out["cli.interp_start_s"] = statistics.median(
        _child_seconds([exe, "-c", "pass"], wl.env, wl.root)[0] for _ in range(PROBES))
    code = ("import time; t = time.perf_counter(); import sympforge.cli; "
            "print(time.perf_counter() - t)")
    out["cli.import_s"] = statistics.median(
        float(_child_seconds([exe, "-c", code], wl.env, wl.root)[1]) for _ in range(PROBES))
    return out, samples


def _replay(call, cwd):
    """cli.main(argv) in this process with the call's stdin, environment and cwd."""
    from sympforge import cli
    saved_env = {k: os.environ.get(k) for k in call.env}
    os.environ.update(call.env)
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(call.stdin or "")
    saved_cwd = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(call.argv))
    finally:
        os.chdir(saved_cwd)
        sys.stdin = saved_stdin
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def cli_replay(ops, tracer, cwd):
    """Replay the calls in-process twice, untraced and traced in alternating
    order, for handler times and spans.

    The children pass has already checked the outputs, so these replays
    are timed only.
    """
    def as_op(op):
        call = op.info["call"]
        return Op(op.kind, lambda: _replay(call, cwd), lambda res: True, probe=op.probe)
    replay_ops = [as_op(op) for op in ops]
    return _passes([replay_ops, replay_ops], tracer)
