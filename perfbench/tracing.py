"""Spans around e2sieve's public calls, recorded from outside the package.

`Tracer.install()` replaces every binding of a listed function inside the
`e2sieve` modules (and a few class attributes) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Spans stay in
memory; `self_times()` turns them into per-layer self time, which is a span's
duration minus the part covered by its child spans, so that summing self
times over all spans never counts an interval twice.  `uninstall()` puts the
original objects back and stops the wrappers recording, so that the
correctness checks that follow a pass are not traced, even through a
reference to a wrapper taken while it was installed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  A function imported by name into several
# modules is patched in each of them, because callers look it up in their own
# module's globals.
FUNCTION_SPANS = [
    ("e2sieve.algebra", "parse_poly", "algebra.parse"),
    ("e2sieve.algebra", "loglinear_eval", "algebra.loglinear_eval"),
    ("e2sieve.simplex", "I_k", "simplex.I"),
    ("e2sieve.simplex", "J_k_m", "simplex.J"),
    ("e2sieve.simplex", "mc_simplex_integral", "simplex.mc"),
    ("e2sieve.functionals", "inner_L", "functionals.inner"),
    ("e2sieve.functionals", "inner_M", "functionals.inner"),
    ("e2sieve.functionals", "outer_L", "functionals.outer"),
    ("e2sieve.functionals", "outer_M", "functionals.outer"),
    ("e2sieve.functionals", "leading_coefficient", "functionals.lc"),
    ("e2sieve.functionals", "quad_outer", "functionals.quad"),
    ("e2sieve.numth", "gap_scan", "numth.gap_scan"),
    ("e2sieve.numth", "tuple_hit_count", "numth.tuple_hits"),
    ("e2sieve.numth", "bv_table", "numth.bv_table"),
    # pi_beta counts the cached beta-number list; bv_table reads that list
    # directly, so the span sits on the list builder itself.
    ("e2sieve.numth", "_beta_numbers", "numth.pi_beta"),
    ("e2sieve.sieveweights", "s_sums", "sieveweights.s_sums"),
    ("e2sieve.cli", "main", "cli.self"),
]

# Sequence sieves are also called per n (beta() sieves up to sqrt(n)), so they
# get a span only when a scan called them directly or through another sieve.
SEQUENCE_FUNCTIONS = ["e2_sequence", "p2_sequence", "primes_up_to", "primes_in_range"]
SEQUENCE_PARENTS = {"numth.gap_scan", "numth.tuple_hits", "numth.bv_table", "numth.sequence"}

# (module, class, method) -> span name.
METHOD_SPANS = [
    ("e2sieve.algebra", "LogLinear", "evaluate_decimal", "algebra.loglinear_eval"),
    ("e2sieve.sieveweights", "SieveContext", "__init__", "sieveweights.context"),
]

SPAN_NAMES = list(dict.fromkeys([name for *_, name in FUNCTION_SPANS] + ["numth.sequence"]
                                + [name for *_, name in METHOD_SPANS]))


class Tracer:
    """Records spans around the calls listed above while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, name: str, parents: set[str] | None = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (parents is not None
                                   and (not stack or spans[stack[-1]][0] not in parents)):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "e2sieve" and not modname.startswith("e2sieve."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for modname, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            self._patch_everywhere(original, self._wrap(original, name))
        numth = sys.modules["e2sieve.numth"]
        for attr in SEQUENCE_FUNCTIONS:
            original = getattr(numth, attr)
            self._patch_everywhere(original, self._wrap(original, "numth.sequence", SEQUENCE_PARENTS))
        for modname, clsname, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)
