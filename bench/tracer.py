"""Span tracing from outside the program.

The tracer wraps public functions of the softtilt modules and patches every
module global that names them, so calls made through `from .x import f`
are seen too. Each call records a span (name, parent, start, end) in
memory; counters that need work of their own (support sizes, byte counts)
run in a separate `trace.accounting` span beside the call, so they are
excluded from every layer's self time. Self time is a span's duration minus
the durations of its child spans, so the self times of one invocation sum to
its root span exactly.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "softtilt"
ACCOUNTING = "trace.accounting"


def _bytes_in(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("io.bytes_in", os.path.getsize(path))


def _bytes_out(tracer, args, kwargs, result):
    tracer.count("io.bytes_out", len(result.encode("utf-8")))


def _marginal_cells(tracer, args, kwargs, result):
    joint = args[0] if args else kwargs["joint"]
    keep = args[1] if len(args) > 1 else kwargs["keep"]
    tracer.count("dist.cells_scanned", tracer.support(joint))
    tracer.marginal_keys.add((tracer.invocation, id(joint), frozenset(keep)))


def _event_mass_cells(tracer, args, kwargs, result):
    table = args[0]
    event = args[1] if len(args) > 1 else kwargs["event"]
    if len(event) < len(table.variables):  # a partial event sums over the support
        tracer.count("dist.cells_scanned", tracer.support(table))


def _terms(tracer, args, kwargs, result):
    tracer.count("countable.terms", result[1].N)


# (module, attribute, counter); "Class.method" patches the class itself.
# "dist.JointTable" names the constructor.
TARGETS = (
    ("io", "load_json", _bytes_in),
    ("io", "joint_from_doc", None),
    ("io", "reward_from_doc", None),
    ("io", "interaction_from_doc", None),
    ("io", "family_from_doc", None),
    ("io", "dumps_report", _bytes_out),
    ("dist", "JointTable", None),
    ("dist", "marginal", _marginal_cells),
    ("dist", "conditional", None),
    ("dist", "JointTable.event_mass", _event_mass_cells),
    ("identify", "identify_interaction", None),
    ("identify", "calibrate_rewards", None),
    ("identify", "check_admissibility", None),
    ("identify", "gauge_equivalent", None),
    ("identify", "construct_posterior", None),
    ("tilt", "solve_tilt", None),
    ("tilt", "kl_decomposition_residual", None),
    ("tilt", "logsumexp", None),
    ("coherence", "build_problem", None),
    ("coherence", "order_independence_check", None),
    ("coherence", "commutativity_residual", None),
    ("countable", "log_normalizer_truncated", _terms),
    ("cli", "main", None),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)
COUNTERS = ("io.bytes_in", "io.bytes_out", "dist.cells_scanned", "countable.terms")


class Tracer:
    """Installs span wrappers; keeps spans in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, invocation]
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._support: dict[int, tuple[object, int]] = {}
        self.marginal_keys: set = set()
        self.counts: dict[str, int] = defaultdict(int)

    # ----------------------------------------------------------- counters

    def reset_counts(self) -> None:
        self.counts.clear()
        self.marginal_keys.clear()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def support(self, table) -> int:
        """Support size of a table, memoized per object within one invocation."""
        hit = self._support.get(id(table))
        if hit is None:
            hit = self._support[id(table)] = (table, len(table.masses()))
        return hit[1]

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0, 0, self.invocation]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                acc = tracer._open(ACCOUNTING)
                try:
                    counter(tracer, args, kwargs, result)
                finally:
                    tracer._close(acc)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_invocation(self) -> None:
        self.invocation += 1
        self._support.clear()

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, counter in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), counter))
                continue
            fn = getattr(owner, attr)
            if isinstance(fn, type):  # a class: trace its constructor
                self._patch(fn, "__init__", self._wrap(name, fn.__init__, counter))
                continue
            wrapper = self._wrap(name, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key: str, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)

    # ---------------------------------------------------------- analysis

    def self_times(self, first: int = 0) -> list[int]:
        """Self time in ns of spans[first:], aligned with them."""
        spans = self.spans[first:]
        child = [0] * len(spans)
        for span in spans:
            if span[1] >= first:
                child[span[1] - first] += span[3] - span[2]
        return [s[3] - s[2] - c for s, c in zip(spans, child)]

    def write(self, path) -> None:
        """Write all spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "start_ns", "end_ns", "invocation"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
