"""Per-layer tracing from outside the package.

``Tracer.patched()`` wraps the entry points of each layer for the duration
of a ``with`` block and restores the originals afterwards; ``src/`` is never
edited.  A function is replaced under every name it is bound to in the
loaded ``twisted_hecke`` modules, because ``from .group import alpha_exp``
gives the importing module its own reference that patching ``group`` alone
would miss.

Every wrapped call is a span: name, start, end, the span it ran inside and
the verdict it belongs to.  Self time is a span's duration minus the time
covered by its child spans; it is accumulated for every call.  Spans are
kept in memory up to ``max_spans`` and written out by ``write_spans`` at
the end of the run.  A span that finishes after the store is full is still
counted and timed, but not stored.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from twisted_hecke import (
    Cyclotomic,
    GroupElem,
    HeckeAlgebra,
    HeckeElem,
    LaurentAlgebra,
    LaurentElem,
    ParamPoly,
)
from twisted_hecke import chebyshev, exprs, group

# (span name, owner, attribute).  The layer is the span name up to the first
# dot.  ``__rmul__`` / ``__radd__`` are the same functions under another
# slot, so they are wrapped as the same span.
CLASS_ENTRY_POINTS = (
    ("cyclotomic.mul", Cyclotomic, "__mul__"),
    ("cyclotomic.mul", Cyclotomic, "__rmul__"),
    ("cyclotomic.add", Cyclotomic, "__add__"),
    ("cyclotomic.add", Cyclotomic, "__radd__"),
    ("cyclotomic.inv", Cyclotomic, "inv"),
    ("coeffring.mul", ParamPoly, "__mul__"),
    ("coeffring.scale", ParamPoly, "scale"),
    ("group.init", GroupElem, "__init__"),
    ("group.mul", GroupElem, "__mul__"),
    ("hecke.mul", HeckeAlgebra, "mul"),
    ("hecke.normal_product", HeckeAlgebra, "_normal_product"),
    ("hecke.insert", HeckeAlgebra, "_insert"),
    ("laurent.lmul", LaurentAlgebra, "lmul"),
    ("laurent.theta", LaurentAlgebra, "theta"),
    ("laurent.injectivity_spotcheck", LaurentAlgebra, "injectivity_spotcheck"),
    ("render.hecke", HeckeElem, "render"),
    ("render.laurent", LaurentElem, "render"),
)

FUNCTION_ENTRY_POINTS = (
    ("group.alpha_exp", group.alpha_exp),
    ("group.action_char_exp", group.action_char_exp),
    ("exprs.parse", exprs.parse),
    ("exprs.eval_hecke", exprs.eval_hecke),
    ("exprs.eval_laurent", exprs.eval_laurent),
    ("chebyshev.nu", chebyshev.nu),
    ("chebyshev.chebyshev_T", chebyshev.chebyshev_T),
    ("chebyshev.identity_che1", chebyshev.identity_che1),
    ("chebyshev.identity_che2", chebyshev.identity_che2),
    ("chebyshev.identity_rho", chebyshev.identity_rho),
)

# method -> the cache dict it fills; a call that grows the dict is a miss
CACHE_ATTRS = {"hecke.insert": "_insert_cache", "hecke.normal_product": "_product_cache"}
# the layer whose results' term counts feed "<layer>.max_terms"
TERM_COUNTED = {"coeffring.mul": "coeffring", "hecke.mul": "hecke", "laurent.lmul": "laurent"}

SPAN_FIELDS = ("id", "verdict", "parent", "name", "start", "end")
LAYERS = ("cyclotomic", "coeffring", "group", "hecke", "laurent", "exprs", "render", "chebyshev")


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []  # SPAN_FIELDS
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.misses: Counter = Counter()
        self.max_terms: Counter = Counter()
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._verdict_id = 0

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, self._verdict_id, parent, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def verdict(self, name: str):
        """Root span of one verdict; every span inside carries its id."""
        outer = self._verdict_id
        frame = self._open()
        self._verdict_id = frame[0]
        try:
            yield
        finally:
            self._close("verdict." + name, frame)
            self._verdict_id = outer

    def _wrap(self, name: str, fn):
        open_, close = self._open, self._close
        cache_attr = CACHE_ATTRS.get(name)
        counted = TERM_COUNTED.get(name)
        max_terms, misses = self.max_terms, self.misses

        if cache_attr is not None:

            def wrapper(alg, *args):
                cache = getattr(alg, cache_attr)
                before = len(cache)
                frame = open_()
                try:
                    return fn(alg, *args)
                finally:
                    close(name, frame)
                    misses[name] += len(cache) - before

        elif counted is not None:

            def wrapper(*args, **kwargs):
                frame = open_()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(name, frame)
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > max_terms[counted]:
                    max_terms[counted] = len(terms)
                return result

        else:

            def wrapper(*args, **kwargs):
                frame = open_()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, frame)

        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every layer entry point; restore the originals on exit."""
        undo = []
        try:
            for name, owner, attr in CLASS_ENTRY_POINTS:
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            modules = [
                m for key, m in sys.modules.items()
                if m is not None and (key == "twisted_hecke" or key.startswith("twisted_hecke."))
            ]
            for name, original in FUNCTION_ENTRY_POINTS:
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def hit_ratio(self, name: str) -> float:
        """1 - (cache growth / calls); 0 when the method was never called."""
        calls = self.calls[name]
        return 1.0 - self.misses[name] / calls if calls else 0.0

    def write_spans(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=SPAN_FIELDS, dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
