"""Scaling wall times to a reference CPU speed.

On a shared host the same code runs at very different speeds from one
second to the next: a vCPU slows by up to 1.8x for seconds at a time as
other tenants load the physical core, and no run is long enough to
average that out.  So every workload names a reference kernel: a fixed
piece of the benchmark's own code (``ref.py`` and the workloads'
closed-form references; never sympforge) with the instruction mix
of its ops, always on the same inputs.  The timed loop runs the kernel
on the CPU the ops run on, after the first op that ends 50 ms or more
after its previous run; the ops in between form a block.  It scales the
block's wall times by the kernel's reference time ``ref_s`` over the
median of the kernel times measured within half a second of the block.
Set-up time is scaled the same way by ``process_kernel`` timed just
before and just after it.

Scaled times read as wall times on a CPU at the reference speed, where
each kernel takes its ``ref_s``.  A change to the library moves them as
it moves wall time, while the host's speed changes cancel.  Raw wall
times are reported beside them.
"""

import bisect
import gc
import marshal
import random
import statistics
import time

import ref

REPEATS = 5             # kernel runs per measurement; the median is kept
WINDOW_S = 0.5          # measurements this close to a block scale it


def kernel(ref_s):
    """Mark a function as a reference kernel that takes ``ref_s`` seconds at
    the reference speed, about its time on a 2-vCPU Xeon host at the speed
    that host shows most of the time."""
    def mark(fn):
        fn.ref_s = ref_s
        return fn
    return mark


_RNG = random.Random(20_210_118)
_DET = [[_RNG.randint(-10 ** 6, 10 ** 6) for _ in range(10)] for _ in range(10)]
_MEMBER = ref.random_member(_RNG, (1, 2), 4)
# a fixed module text of about a thousand lines, for the compile step
_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n"
    f"    return [x * {i} for x in a if x % {i % 7 + 2}] + list(b)\n\n\n"
    f"class C{i}:\n    table = {{'k{i}': f{i}, 'n': {i}}}\n\n    def g(self, x):\n"
    f"        return self.table['n'] + x\n"
    for i in range(120))


@kernel(1.1e-3)
def python_kernel():
    """Big-integer and Fraction arithmetic on lists: the exact checks' own
    reference code on fixed inputs; the kernel of the ``exact`` workload."""
    for _ in range(2):
        ref.bareiss_det(_DET)
        for _ in range(3):
            ref.conjugate_by_gamma(_MEMBER, (1, 2), (2, 4))
        ref.mul(_DET, _DET)


@kernel(21e-3)
def process_kernel():
    """What starting a Python process is made of: fresh pages from the
    operating system, compiling and unmarshalling a fixed module, and
    running Python.  The kernel of the ``cli`` workload and of every
    workload's set-up."""
    for _ in range(4):
        bytearray(4 << 20)
    marshal.loads(marshal.dumps(compile(_SOURCE, "kernel", "exec")))
    python_kernel()


def kernel_seconds(kernel):
    """Median time of ``REPEATS`` kernel runs.  The garbage collector is
    off meanwhile, so that it does not charge the kernel for garbage the
    timed ops left behind."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_on:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Reference-kernel measurements taken between consecutive blocks of timed work."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel()                        # the first call pays one-time costs
        self.times, self.seconds = [], []
        self.mark()

    def mark(self):
        """Measure the kernel; the block since the previous mark ends here."""
        s = kernel_seconds(self.kernel)
        self.times.append(time.perf_counter())
        self.seconds.append(s)

    def factors(self):
        """Scale for each block between consecutive marks.

        The kernel's ``ref_s`` over the median kernel time of the marks within
        ``WINDOW_S`` of the block, its own two bounding marks included: a
        single measurement is noisier than the ops of a block, while the
        host's speed holds for seconds at a time.
        """
        ts, out = self.times, []
        for i in range(len(ts) - 1):
            lo = bisect.bisect_left(ts, ts[i] - WINDOW_S)
            hi = bisect.bisect_right(ts, ts[i + 1] + WINDOW_S)
            out.append(self.kernel.ref_s / statistics.median(self.seconds[lo:hi]))
        return out
