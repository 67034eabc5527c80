"""Per-layer tracing of cliffrep from outside the package.

``Tracer.install`` replaces every public function of the cliffrep modules
(the layers) with a wrapper, in every cliffrep namespace that holds it,
so each call that crosses a module boundary opens a span.  A few
functions that run millions of times per op (``COUNT_ONLY``) only bump a
counter; their time stays in the caller's span.  Spans live in memory
(name, parent, start, end) and are reduced to per-name call counts and
self times by ``summary`` when the run ends.  A span's self time is its
duration minus the time its child spans cover.

Run as a script, this file is the traced stand-in for the ``cliffrep``
command: ``python3 benchmarks/tracing.py classify -p 1 -q 3``.  It runs
the CLI under a tracer (bracketed by host-speed loops, as
``hostspeed.py`` does) and appends the summary to stderr after
``TRACE_MARKER`` so the parent can merge it into the op's root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from hostspeed import Bracket

LAYERS = ("algebra", "tensor", "classify", "factorize", "gamma", "lorentz", "repsys", "checks", "cli")
TRACE_MARKER = "#cliffrep-trace "

# called per blade pair: a span each would dominate the op
COUNT_ONLY = {"algebra.blade_product", "algebra.as_signature", "algebra.grade", "algebra.metric_sign"}

# (layer, class or None, attribute) -> (name, count only)
EXTRA_TARGETS = {
    ("algebra", "Multivector", "__mul__"): ("algebra.mul", False),
    ("tensor", "GradedTensorProduct", "theta_blade"): ("tensor.theta_blade", True),
    ("tensor", "GradedTensorProduct", "psi_blade"): ("tensor.psi_blade", True),
    # private helper behind every commutator residual: two dense matmuls per call
    ("lorentz", None, "_comm"): ("lorentz.comm", True),
}

CALL_COUNTERS = COUNT_ONLY | {name for name, count_only in EXTRA_TARGETS.values() if count_only}


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


# name -> function of the call's arguments giving (counter, amount)
WORK_COUNTERS = {
    "algebra.mul": lambda a, b: ("algebra.mul.blade_pairs", _terms(a) * _terms(b)),
    "gamma.faithfulness_rank": lambda gen: (
        "gamma.faithfulness_rank.bytes_computed",
        (1 << gen.sig.n) * 2 * gen.dim**2 * 8,
    ),
    # a complex multiply-add is 8 real flops
    "lorentz.comm": lambda x, y: ("lorentz.matmul_flops_computed", 2 * 8 * x.shape[0] ** 3),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.op_ids: dict[int, str] = {}  # root span index -> op id
        self.merged_calls: Counter = Counter()
        self.merged_self: defaultdict = defaultdict(float)
        self.merged_cover: defaultdict = defaultdict(float)  # span index -> seconds covered in a child
        self._undo: list = []

    # ---- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        work = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work:
                key, amount = work(*args, **kwargs)
                counts[key] += amount
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        work = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if work:
                key, amount = work(*args, **kwargs)
                counts[key] += amount
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn, count_only: bool):
        return self._count(name, fn) if count_only else self._span(name, fn)

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    # ---- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap the layers that are already imported (importing none)."""
        mods = {layer: sys.modules[f"cliffrep.{layer}"] for layer in LAYERS if f"cliffrep.{layer}" in sys.modules}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__) or attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, name in COUNT_ONLY)
                for other in mods.values():
                    for attr2, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, attr2, wrapped)
        for (layer, cls, attr), (name, count_only) in EXTRA_TARGETS.items():
            if layer in mods:
                target = getattr(mods[layer], cls) if cls else mods[layer]
                self._set(target, attr, self._wrap(name, getattr(target, attr), count_only))
        if "checks" in mods:
            registry = mods["checks"].ALL_CHECKS
            self._undo.append((registry, None, list(registry)))
            registry[:] = [(check, self._span(f"checks.{check}", fn)) for check, fn in registry]

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if attr is None:
                target[:] = original
            else:
                setattr(target, attr, original)

    # ---- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Root span of one op."""
        idx = len(self.spans)
        self.spans.append(None)
        self.op_ids[idx] = op_id
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[idx] = ("op", -1, t0, t1)

    def merge_child(self, summary: dict) -> None:
        """Fold a child process's summary into the current span."""
        self.merged_calls.update(summary["calls"])
        for name, value in summary["self_s"].items():
            self.merged_self[name] += value
        self.counts.update(summary["counts"])
        self.merged_cover[self.stack[-1]] += summary["covered_s"]

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus counters."""
        covered = defaultdict(float, self.merged_cover)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls = Counter(self.merged_calls)
        self_s = defaultdict(float, self.merged_self)
        top_s = 0.0
        for idx, (name, parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered[idx]
            if parent < 0:
                top_s += t1 - t0
        return {
            "ops": len(self.op_ids),
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "covered_s": top_s,
        }


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-op metrics by function name and by layer.

    ``<name>.calls`` and ``<name>.self_s`` per span name (the root span is
    reported as ``harness``), ``<counter>`` per work counter, and
    ``<layer>.calls`` / ``<layer>.self_s`` summed over each layer.
    """
    n_ops = summary["ops"]
    out: dict[str, float] = {}
    layer_calls: Counter = Counter()
    layer_self: defaultdict = defaultdict(float)
    for name, calls in summary["calls"].items():
        label = "harness" if name == "op" else name
        out[f"{label}.calls"] = calls / n_ops
        out[f"{label}.self_s"] = summary["self_s"][name] / n_ops
        if name != "op":
            layer_calls[name.split(".")[0]] += calls
            layer_self[name.split(".")[0]] += summary["self_s"][name]
    for name, value in summary["counts"].items():
        if name in CALL_COUNTERS:
            out[f"{name}.calls"] = value / n_ops
            layer_calls[name.split(".")[0]] += value
        else:
            out[name] = value / n_ops
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer] / n_ops
        out[f"{layer}.self_s"] = layer_self[layer] / n_ops
    return out


def _child_main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import cliffrep.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        with Bracket() as speed:
            code = cliffrep.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["loop_s"] = speed.loop
    summary["calls"]["cli.import"] = 1
    summary["self_s"]["cli.import"] = import_s
    summary["covered_s"] += import_s
    print(TRACE_MARKER + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
