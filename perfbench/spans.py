"""Span recorder for the traced benchmark run.

The tracer replaces the library's public functions by wrappers that record
one span (name, start, end, parent) per call, in memory. Every module of the
package that imported a function by name gets the wrapper too, so calls
through `soapfilm.energetics.solve_branches` or
`soapfilm.direct_min.negative_direction` are seen as well as calls through
the defining module. A layer's self time is its span duration minus the
time its direct child spans cover.

Spans are tagged with the harness phase that was active ("op" while the
workload's ops run, "check" while reference checks run), so oracle calls in
the checks never count against the ops.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name); shoot and the rootfind callback are spans
# too, so rootfind's self time excludes the function it is solving.
SPANNED = [
    ("soapfilm.rootfind", "find_root_bracketed", "rootfind"),
    ("soapfilm.extremals", "solve_branches", "extremals.solve_branches"),
    ("soapfilm.energetics", "force", "energetics.force"),
    ("soapfilm.spectrum", "eigenvalues", "spectrum.eigenvalues"),
    ("soapfilm.spectrum", "shoot", "spectrum.shoot"),
    ("soapfilm.spectrum", "dense_eigenvalues", "spectrum.dense_eigenvalues"),
    ("soapfilm.spectrum", "negative_direction", "spectrum.negative_direction"),
    ("soapfilm.variation", "third_variation", "variation.third_variation"),
    ("soapfilm.direct_min", "minimize", "direct_min.minimize"),
]
# phi runs ~100 times per branch solve: a count is enough and keeps the
# traced run close to the untraced one.
COUNTED = [("soapfilm.extremals", "phi", "extremals.phi")]

ROOT_F = "rootfind.f"


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "error")

    def __init__(self, name: str, parent: int, phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.error: Optional[str] = None


class Tracer:
    """Records spans and counts for wrapped library functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.iterations: Counter = Counter()
        self.phase = "op"
        self._rebound: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _call(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        span = Span(name, self.stack[-1] if self.stack else -1, self.phase)
        self.spans.append(span)
        self.stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if name == "direct_min.minimize":
            self.iterations[(self.phase, "iterations")] += int(result.iterations)
            if result.outcome.value == "IterationLimit":
                self.iterations[(self.phase, "iteration_limits")] += 1
        return result

    def _spanned(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name == "rootfind":
            def wrapper(*args, **kwargs):
                # evaluations of the function being solved are spans of their own
                f = args[0] if args else kwargs.pop("f")

                def counted_f(x):
                    return tracer._call(ROOT_F, f, (x,), {})
                return tracer._call(name, fn, (counted_f,) + args[1:], kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every package-level reference to a traced function."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "soapfilm" or n.startswith("soapfilm."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    # a silent skip would read as a layer whose work fell to 0
                    print(f"perfbench: {module_name}.{attr} is gone; update SPANNED/COUNTED "
                          "in spans.py", file=sys.stderr)
                    raise SystemExit(2)
                wrapper = make(name, original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._rebound):
            setattr(mod, key, value)
        self._rebound.clear()

    # -- summaries -------------------------------------------------------

    def layer_totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, errors by type."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, Dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span.phase != phase:
                continue
            row = totals.setdefault(span.name, Counter())
            duration = span.end - span.start
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_time[i]
            if span.error:
                row["error:" + span.error] += 1
        return totals

    def deterministic_counts(self, phase: str) -> Dict[str, int]:
        """Counts that depend only on the inputs, never on the machine."""
        layers = self.layer_totals(phase)

        def calls(name):
            return int(layers.get(name, {}).get("calls", 0))

        return {
            "rootfind.calls": calls("rootfind"),
            "rootfind.evals": calls(ROOT_F),
            "extremals.solve_branches.calls": calls("extremals.solve_branches"),
            "extremals.phi.calls": self.counts[(phase, "extremals.phi")],
            "spectrum.shoot.calls": calls("spectrum.shoot"),
            "direct_min.iterations": self.iterations[(phase, "iterations")],
            "direct_min.iteration_limits": self.iterations[(phase, "iteration_limits")],
        }

    def count_children(self, phase: str, child: str, parent: str) -> int:
        """Spans named child whose direct parent span is named parent."""
        return sum(
            1 for s in self.spans
            if s.phase == phase and s.name == child and s.parent >= 0
            and self.spans[s.parent].name == parent
        )

    def count_under(self, phase: str, child: str, ancestor: str) -> int:
        """Spans named child that have a span named ancestor above them."""
        n = 0
        for s in self.spans:
            if s.phase != phase or s.name != child:
                continue
            p = s.parent
            while p >= 0:
                if self.spans[p].name == ancestor:
                    n += 1
                    break
                p = self.spans[p].parent
        return n
