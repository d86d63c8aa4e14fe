"""Spans around the library's public functions, installed from outside.

`install` replaces each function in SPANS and COUNTS by a wrapper at every place
it is bound: the defining module, every `dilatations` module that
imported it by name, and the class for methods.  The library itself is
not changed.  Each call of a wrapped function records one span (name,
start, end, parent span, request id) in flat in-memory lists; `write`
saves them when the run ends and `summarize` turns them into per-layer
metrics, with self time derived from the spans.

Two functions are counted without spans, because their calls are too
many and too short for a span each: `groebner.normal_form` (counted only
while a Buchberger span is innermost, as `groebner.reductions`) and
`congruence.mat_mul`.  `poly` is not wrapped at all; its time shows as
Buchberger self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


def _colon_name(a, f, saturate=False):
    return "ideals.saturate" if saturate else "ideals.colon"


# (module, attribute, span name or a function of the call's arguments)
SPANS = [
    ("dilatations.cli", "parse", "cli.parse"),
    ("dilatations.dilatation", "dilate", "dilatation.dilate"),
    ("dilatations.dilatation", "check_exceptional", "dilatation.check_exceptional"),
    ("dilatations.dilatation", "monopoly_iso", "dilatation.monopoly_iso"),
    ("dilatations.dilatation", "two_stage_iso", "dilatation.two_stage_iso"),
    ("dilatations.dilatation", "localize_compare", "dilatation.localize_compare"),
    ("dilatations.dilatation", "forget_map", "dilatation.forget_map"),
    ("dilatations.dilatation", "conic_iso", "dilatation.conic_iso"),
    ("dilatations.dilatation", "iterate_iso", "dilatation.iterate_iso"),
    ("dilatations.dilatation", "universal_factor", "dilatation.universal_factor"),
    ("dilatations.ideals", "colon", _colon_name),
    ("dilatations.ideals", "intersect", "ideals.intersect"),
    ("dilatations.ideals", "eliminate", "ideals.eliminate"),
    ("dilatations.ideals", "IdealHandle.radical_contains", "ideals.radical_contains"),
    ("dilatations.ideals", "IdealHandle.groebner", "ideals.groebner"),
    ("dilatations.groebner", "buchberger_reduced", "groebner.buchberger"),
    ("dilatations.groebner", "ideal_cofactors", "groebner.cofactors"),
    ("dilatations.algebras", "hom_kernel", "algebras.hom_kernel"),
    ("dilatations.algebras", "is_nzd", "algebras.is_nzd"),
    ("dilatations.algebras", "check_hom", "algebras.check_hom"),
    ("dilatations.oracle", "from_presented", "oracle.from_presented"),
    ("dilatations.oracle", "dilate_oracle_fractions", "oracle.fractions"),
    ("dilatations.oracle", "dilate_oracle_subring", "oracle.subring"),
    ("dilatations.oracle", "compare_with_symbolic", "oracle.bridge"),
    ("dilatations.oracle", "universal_property_scan", "oracle.hom_scan"),
    ("dilatations.congruence", "group_points", "congruence.group_points"),
    ("dilatations.congruence", "lie_points", "congruence.lie_points"),
    ("dilatations.congruence", "congruent_iso_check", "congruence.iso"),
    ("dilatations.congruence", "normalizer_check", "congruence.normalizer"),
    ("dilatations.rost", "rost_space", "rost.space"),
    ("dilatations.rost", "rost_subalgebra_check", "rost.subalgebra_check"),
]

# (module, attribute, counter name): counted, no span
COUNTS = [
    ("dilatations.groebner", "normal_form", "groebner.reductions"),
    ("dilatations.congruence", "mat_mul", "congruence.mat_mul.calls"),
]

BUCHBERGER = "groebner.buchberger"
IDEAL_GROEBNER = "ideals.groebner"


def original(module: str, attr: str):
    """The function object that (module, attr) names."""
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(owner, cls))[meth]
    return getattr(owner, attr)


def center_key(center) -> tuple:
    """A multi-center by content: ring, relations and the center pairs."""
    alg = center.algebra
    return (
        alg.ring,
        tuple(str(g) for g in alg.relations.gens),
        tuple((tuple(str(g) for g in c.ideal.gens), str(c.elem)) for c in center.centers),
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, list[int]] = {}
        self.dilate_keys: set = set()
        self.sites: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a block; yields the
        span's index, so that the block's owner can rename it."""
        idx = self._open(name)
        self.starts[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap_span(self, name, fn):
        tracer = self
        clock = time.perf_counter
        stack, starts, ends = self.stack, self.starts, self.ends
        is_dilate = name == "dilatation.dilate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(*args, **kwargs))
            if is_dilate:
                tracer.dilate_keys.add(center_key(args[0]))
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_count(self, counter, fn):
        cell = self.counts.setdefault(counter, [0])
        stack, names = self.stack, self.names

        if counter != "groebner.reductions":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def in_buchberger(*args, **kwargs):
            if stack and names[stack[-1]] == BUCHBERGER:
                cell[0] += 1
            return fn(*args, **kwargs)

        return in_buchberger

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dilatations" or n.startswith("dilatations.")]
        jobs = [(m, a, n, self._wrap_span) for m, a, n in SPANS]
        jobs += [(m, a, n, self._wrap_count) for m, a, n in COUNTS]
        for module, attr, name, make in jobs:
            fn = original(module, attr)
            wrapper = make(name, fn)
            label = name if isinstance(name, str) else attr
            if "." in attr:
                cls, meth = attr.split(".")
                setattr(getattr(sys.modules[module], cls), meth, wrapper)
                self.sites[label] += 1
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self.sites[label] += 1

    def write(self, path: str) -> None:
        """Save the spans as JSON: span names once, then one row per span."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [
            [index[n], s, e, p, r]
            for n, s, e, p, r in zip(self.names, self.starts, self.ends, self.parents, self.requests)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "names": table, "spans": rows}, fh)

    def summarize(self) -> dict:
        """Per-layer metrics: calls, inclusive and self seconds per span
        name, plus the counters.  A span nested in a span of the same name
        adds to calls and self time but not again to inclusive time."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        builds = 0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            if name == BUCHBERGER and self.parents[i] >= 0 and self.names[self.parents[i]] == IDEAL_GROEBNER:
                builds += 1
        out["ideals.groebner.builds"] = builds
        out["dilatation.dilate.distinct"] = len(self.dilate_keys)
        for name, cell in self.counts.items():
            out[name] = cell[0]
        out["trace.spans"] = n
        return out

