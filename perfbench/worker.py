"""One workload process: set-up, then the timed closed loop or the traced run.

Started by run.py as a fresh child so that ``setup_s`` and ``peak_rss_mb``
belong to this workload alone; a timed run is split over several such
children, one segment each.  ``--t0`` is the parent's monotonic clock
reading just before the spawn (CLOCK_MONOTONIC is system-wide on Linux),
so set-up time includes interpreter start and imports.  ``kernel_s`` is
the process kernel's time right after set-up (see calib.py).  Prints one
JSON object as its last line of output.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

import calib
import harness

WALL_CAP = 3
MARK_EVERY_S = 0.05


def load(name, seed, root):
    if name == "cli":
        return importlib.import_module("clicalls").Workload(seed, root, dict(os.environ))
    return importlib.import_module(name).Workload(seed)


def run_rounds(rounds, tracer=None):
    samples = []
    for ops in rounds:
        for op in ops:
            samples.append(harness.execute(op, tracer, len(samples))[0])
    return samples


def timed_loop(wl, rounds, seconds, clock):
    """Whole rounds until the ops have taken ``seconds`` at the reference
    speed (see calib.py), so that the number of rounds, and with it the
    sample mix, does not depend on how fast the host happens to run; or
    until ``WALL_CAP`` times that has passed in wall time.

    ``rounds`` holds round 0, made during set-up.  Each round's inputs are
    dropped before the next round is made, so peak memory does not depend
    on how many rounds fit in the time.  The reference kernel runs after
    the first op that ends ``MARK_EVERY_S`` or more after its previous run,
    which closes a block; at the end every sample gets its block's scaled
    time.
    """
    blocks, block, k, scaled_s = [], [], 0, 0.0
    start = time.perf_counter()

    def close_block():
        nonlocal block, scaled_s
        clock.mark()
        blocks.append(block)
        # estimate from the latest kernel time; the factors the samples get
        # come from the whole window at the end
        scaled_s += sum(s.seconds for s in block) * wl.kernel.ref_s / clock.seconds[-1]
        block = []

    while True:
        for op in rounds.pop():
            block.append(harness.execute(op)[0])
            if time.perf_counter() - clock.times[-1] >= MARK_EVERY_S:
                close_block()
        k += 1
        if scaled_s >= seconds or time.perf_counter() - start >= WALL_CAP * seconds:
            break
        rounds.append(wl.round(k))
    if block:
        close_block()
    samples = []
    for block, f in zip(blocks, clock.factors()):
        for smp in block:
            smp.scaled = smp.seconds * f
        samples += block
    return samples, k


def peak_rss_mb(wl):
    """This process's peak RSS; for ``cli`` the largest of its CLI children."""
    if wl.name == "cli":
        return wl.children_maxrss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def measure(wl, args):
    rounds = [wl.round(0)]
    warm = run_rounds([wl.warmup()])
    setup_s = time.perf_counter() - args.t0
    calib.process_kernel()
    out = {"setup_s": setup_s, "kernel_s": calib.kernel_seconds(calib.process_kernel),
           "versions": versions(), "warmup_failed": sum(s.outcome != harness.OK for s in warm)}
    if args.role == "run":
        samples, done = timed_loop(wl, rounds, args.seconds, calib.Clock(wl.kernel))
        out.update(samples=[[s.kind, s.seconds, s.outcome, s.probe, s.scaled] for s in samples],
                   rounds=done, peak_rss_mb=peak_rss_mb(wl))
    elif args.role == "trace":
        import tracing
        out.update(tracing.traced_run(wl, rounds.pop(), args))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    import sympforge  # noqa: F401  (part of set-up time)
    wl = load(args.workload, args.seed, args.root)
    try:
        out = measure(wl, args)
    finally:
        if hasattr(wl, "close"):      # cli: stop its spawner process
            wl.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
