"""Closed-loop op runner, latency statistics and the span tracer.

One client, one process: each op starts when the previous one has
finished.  Only ``Op.run`` is inside the timed interval; the output check
runs after the clock has stopped.
"""

import functools
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field

OK, WRONG, RAISED, REFUSED = "ok", "wrong", "raised", "refused"


@dataclass
class Op:
    """One timed call into the library with its independent output check.

    ``check(result)`` returns True when the result agrees with the
    benchmark's own reference.  Exceptions listed in ``refusals`` count as
    the library declining the op (still a failed op).  ``probe`` marks an
    invalid-input op: its check tests the error contract, so a failure
    there counts as failed but is not a wrong answer to a valid input.
    """
    kind: str
    run: callable
    check: callable
    refusals: tuple = ()
    probe: bool = False
    info: dict = field(default_factory=dict)


@dataclass
class Sample:
    kind: str
    seconds: float
    outcome: str
    probe: bool
    scaled: float = None    # wall time at the reference CPU speed, see calib.py


def execute(op, tracer=None, op_id=None):
    """Run one op, timed, then check it untimed; returns (Sample, result)."""
    if tracer is not None:
        tracer.op_id = op_id
    result, outcome = None, None
    t0 = time.perf_counter()
    try:
        result = op.run()
    except op.refusals:
        outcome = REFUSED
    except Exception:
        outcome = RAISED
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op_id = None
    if outcome is None:
        try:
            outcome = OK if op.check(result) else WRONG
        except Exception:
            outcome = WRONG
    return Sample(op.kind, dt, outcome, op.probe), result


def tail_stat(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples_beyond).  With fewer than 21
    samples no rank above the median leaves ten beyond it; the rank just
    above the median is used then, with the true count beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)   # 1-based
    return xs[rank - 1], 100.0 * rank / n, n - rank


def _timings(lat, per_round, parts):
    busy = [sum(lat[i:i + per_round]) for i in range(0, len(lat), per_round)]
    tails, edge = [], 0
    for n in parts:
        tails.append(tail_stat(lat[edge:edge + n]))
        edge += n
    return {"ops_per_s": per_round / statistics.median(busy),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
            "tail_pct": statistics.median(t[1] for t in tails),
            "tail_beyond": min(t[2] for t in tails)}


def summarize(samples, rounds=1, parts=None):
    """End-to-end statistics of ``samples``, which hold ``rounds`` whole rounds.

    Every round has the same op mix, so throughput is ops per round over
    the median busy time of a round; the median keeps a burst of
    interference from other tenants of the machine out of the figure.
    ``parts`` gives the sample counts of the worker processes, in order;
    the tail is taken in each and the median over them is reported, so
    that a few stalls in one process do not set it.  Timings use the
    scaled times where the samples carry them; the same figures from raw
    wall times are kept under ``raw_`` names.
    """
    per_round = len(samples) // rounds
    parts = parts or [len(samples)]
    raw = [s.seconds for s in samples]
    lat = [s.seconds if s.scaled is None else s.scaled for s in samples]
    failed = sum(s.outcome != OK for s in samples)
    out = {"ops": len(samples), "rounds": rounds, "busy_s": sum(raw),
           **_timings(lat, per_round, parts)}
    out.update({f"raw_{k}": v for k, v in _timings(raw, per_round, parts).items()
                if k in ("ops_per_s", "op_p50_ms", "op_tail_ms")})
    out.update({
        "failed": failed,
        "wrong": sum(s.outcome == WRONG and not s.probe for s in samples),
        "outcomes": {o: sum(s.outcome == o for s in samples)
                     for o in (OK, WRONG, RAISED, REFUSED)},
    })
    return out


# ---------------------------------------------------------------------------
# tracing: wrap public functions and methods of the layer modules

EXTRA_METHODS = ("__matmul__", "__post_init__")


class Tracer:
    """Span recorder installed by monkeypatching module and class attributes.

    A span is [name, start, end, parent index, op id, raised, tag].  Spans
    stay in memory until ``dump``.  ``tags`` maps a span name to a function
    of the call's arguments that labels the span (for example by size).
    """

    def __init__(self, modules, tags=None):
        self.modules = modules          # {layer name: module}
        self.tags = tags or {}
        self.spans = []
        self.stack = []
        self.op_id = None
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, tag = self.spans, self.stack, self.tags.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False,
                   tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, attr, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in EXTRA_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self):
        selfs = self.self_times()
        out = {}
        for layer in self.modules:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for s, st in zip(self.spans, selfs):
            layer = s[0].split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += st
            out[f"{layer}.errors"] += s[5]
        return out

    def durations(self, name, tag=None):
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (tag is None or s[6] == tag)]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised", "tag"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def p50_us(values):
    return statistics.median(values) * 1e6 if values else 0.0
