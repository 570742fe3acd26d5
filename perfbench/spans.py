"""Layer spans for ``loopgas``, recorded from outside the package.

`Tracer.install` replaces every function that one ``loopgas`` module imports
from another with a timing wrapper, in the importing module's namespace. A
call from ``cli`` into ``loops.enumerate_polymers`` therefore opens a span of
layer ``loops``; a call that ``expansion`` makes into the same function opens
a ``loops`` span nested in the ``expansion`` one. Calls inside one module, and
methods such as ``ActivityEvaluator.value``, stay in the caller's self time.
Nothing is wrapped by name, so a renamed or new function is picked up as is.

Spans are not stored one by one: each closing span adds its self time (its
duration minus the time its child spans cover) and its counts to per-layer
totals, so self times over all layers add up to the time spent inside the
outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "loopgas"


class Tracer:
    def __init__(self) -> None:
        from loopgas import bp, errors, exact, expansion, graphs, loops

        self._error_type = errors.LoopGasError
        # Result records whose fields count work done inside a layer.
        self._records = {
            "loops": getattr(loops, "LoopSumResult", None),
            "polymer": getattr(loops, "Polymer", None),
            "series": getattr(expansion, "SeriesResult", None),
            "q": getattr(expansion, "QReport", None),
            "bp": getattr(bp, "BPResult", None),
            "exact": getattr(exact, "PartitionReport", None),
            "graph": getattr(graphs, "FactorGraph", None),
        }
        self._wrappers: dict = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        """Start new totals (one traced pass)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[int, object] = {}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, module in sorted(sys.modules.items()):
            if not name.startswith(PACKAGE + ".") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith(PACKAGE + ".")
                    and obj.__module__ != name
                ):
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, self.wrap(obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def wrap(self, fn):
        """Timing wrapper for fn, one per function, span layer = fn's module."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = fn.__module__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.counts[layer + ".errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[layer] += elapsed - children[0]
                self.counts[layer + ".calls"] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            self._count(args, kwargs, result)
            return result

        self._wrappers[fn] = traced
        return traced

    # -- work counters -----------------------------------------------------

    def _is(self, obj, record: str) -> bool:
        cls = self._records[record]
        return cls is not None and isinstance(obj, cls)

    def _count(self, args, kwargs, result) -> None:
        if id(result) in self._seen:  # a record passed through an outer layer
            return
        counts = self.counts
        if self._is(result, "loops"):
            counts["loops.loop_count"] += result.loop_count
        elif isinstance(result, list) and result and self._is(result[0], "polymer"):
            counts["loops.polymers"] += len(result)
        elif self._is(result, "series"):
            counts["expansion.polymer_count"] += result.polymer_count
            counts["expansion.series_orders"] += len(result.terms)
        elif self._is(result, "q"):
            counts["expansion.polymer_count"] += len(kwargs.get("polymers") or ())
        elif self._is(result, "exact"):
            counts["exact.configs"] += 1 << result.n
        elif self._is(result, "bp"):
            graph = args[0] if args else kwargs.get("graph")
            counts["bp.sweeps"] += result.iterations
            counts["bp.unconverged"] += not result.converged
            if self._is(graph, "graph"):
                counts["bp.edge_sweeps"] += result.iterations * graph.edge_count
        else:
            return
        self._seen[id(result)] = result
