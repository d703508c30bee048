"""sympforge benchmark: four closed-loop workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact|pointwise|grid|cli|all \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs whole rounds of the workload's seeded mix for S seconds
in all, split over a few fresh child processes run one after another,
and reports the end-to-end metrics named in BENCHMARK.json, with times
scaled to a reference CPU speed (see calib.py).  ``--trace 1``
runs the traced pass instead and reports the per-layer metrics.  A table
with units, sample counts and the environment comes first; the last line
of output is one JSON object.  Scratch files go to ``.perfbench_run/``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calib
from harness import Sample, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sequential worker processes per timed run.  Speed differs from one
# process to the next on a shared machine, so pooling several processes
# keeps one unlucky process from setting a run's figures.
SEGMENTS = {"exact": 5, "pointwise": 5, "grid": 1, "cli": 1}
SETUP_SAMPLES = 3       # set-up-only workers make up the rest
DEADLINE_S = 170        # the whole run, children included


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client on one core: a second BLAS thread would spin on the other
    # core and make the figures depend on what else runs there
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    env.pop("SYMPFORGE_TOL", None)
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.perf_counter() + DEADLINE_S
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0
        calib.process_kernel()          # the first call pays one-time costs

    def spawn(self, role, seconds=0.0):
        """Run one worker child to completion; returns its JSON result.

        Each child runs pinned to one CPU, taking the CPUs in turn, so that
        its reference-kernel timings and its ops share a CPU (calib.py).
        The parent pins itself first, so the child starts on that CPU too,
        and times the process kernel there just before the spawn: set-up
        time is scaled by the mean of that and the child's timing of the
        same kernel right after set-up.
        """
        a = self.args
        cpu = self.cpus[self.spawned % len(self.cpus)]
        self.spawned += 1
        os.sched_setaffinity(0, {cpu})
        before = calib.kernel_seconds(calib.process_kernel)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", repr(seconds), "--role", role,
                "--root", ROOT]
        t0 = time.perf_counter()
        # its own process group, so that a stuck worker goes with everything it started
        proc = subprocess.Popen(argv + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"{role} worker did not finish in time")
        finally:
            os.sched_setaffinity(0, self.cpus)
        if proc.returncode != 0:
            fail(f"{role} worker exited with {proc.returncode}")
        res = json.loads(out.decode().strip().splitlines()[-1])
        res["setup_scaled_s"] = (res["setup_s"] * 2.0 * calib.process_kernel.ref_s
                                 / (before + res["kernel_s"]))
        return res

    def untraced(self):
        a = self.args
        segs = SEGMENTS[a.workload]
        parts = [self.spawn("setup") for _ in range(SETUP_SAMPLES - segs)]
        runs = [self.spawn("run", a.seconds / segs) for _ in range(segs)]
        setups = [p["setup_scaled_s"] for p in parts + runs]
        raw_setups = [p["setup_s"] for p in parts + runs]
        s = summarize([Sample(*x) for p in runs for x in p["samples"]],
                      sum(p["rounds"] for p in runs), [len(p["samples"]) for p in runs])
        s["raw_setup_s"] = statistics.median(raw_setups)
        values = {"setup_s": statistics.median(setups), "ops_per_s": s["ops_per_s"],
                  "op_p50_ms": s["op_p50_ms"], "op_tail_ms": s["op_tail_ms"],
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in runs),
                  "ok_ratio": (s["ops"] - s["failed"]) / s["ops"]}
        counts = {"setup_s": f"{len(setups)} set-ups {[round(x, 3) for x in setups]}",
                  "ops_per_s": f"{s['rounds']} rounds",
                  "op_p50_ms": f"{s['ops']} ops",
                  "op_tail_ms": (f"median over {segs} processes of p{s['tail_pct']:.2f}, "
                                 f">= {s['tail_beyond']} beyond"),
                  "peak_rss_mb": (f"{s['ops']} children" if a.workload == "cli"
                                  else f"{segs} processes"),
                  "ok_ratio": f"{s['ops']} ops, failed_ratio {s['failed'] / s['ops']:.6f}"}
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms"):
            counts[name] += f"; raw wall {s['raw_' + name]:.6g}"
        warm_failed = sum(p["warmup_failed"] for p in parts + runs)
        return s, values, counts, warm_failed, runs[0]["versions"], ""

    def traced(self):
        res = self.spawn("trace")
        note = f"# spans={res['spans']} written to {res['trace_file']}"
        return res["summary"], res["per_layer"], {}, res["warmup_failed"], res["versions"], note


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SEGMENTS) + ["all"], required=True,
                    help="'all' runs the four workloads one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sympforge", "__init__.py")):
        fail("src/sympforge not found next to perfbench/; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    for name in (SEGMENTS if args.workload == "all" else [args.workload]):
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)), units)


def run_workload(args, units):
    runner = Runner(args)
    s, values, counts, warm_failed, versions, note = (
        runner.traced() if args.trace else runner.untraced())
    missing = set(units) - set(values)
    if missing:
        fail(f"metrics not produced: {sorted(missing)}")

    env = {"nproc": os.cpu_count(), "cpu": cpu_model(), **versions,
           "blas_threads": runner.env["OPENBLAS_NUM_THREADS"]}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops={s['ops']} outcomes={s['outcomes']} "
          f"(failed = wrong + raised + refused, invalid-input probes included)")
    if note:
        print(note)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit:6s} {counts.get(name, '')}")
    result = {"correct": s["wrong"] == 0 and warm_failed == 0,
              "attempted": s["ops"], "failed": s["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    path = os.path.join(ROOT, ".perfbench_run",
                        f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, env=env, summary=s, workload=args.workload,
                       seed=args.seed, trace=args.trace), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
