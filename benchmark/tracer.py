"""Layer spans for the traced benchmark run, installed from outside vfblock.

Each traced public function is replaced by a wrapper in every loaded module
that holds a reference to it: ``from .certify import min_norm_on_boundary``
copies the function object into ``index``, so patching only the defining
module would miss those calls.  Spans are aggregated in memory as they close:
call count, inclusive seconds (outermost call of a name only, so recursion is
not counted twice) and self seconds (duration minus direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _enclosure_counters(counters, enc):
    counters["certify.cells_examined"] += enc.cells_examined
    counters["certify.boxes_kept"] += len(enc.boxes)
    counters["certify.discarded_interval"] += enc.cells_discarded_interval
    counters["certify.discarded_geometry"] += enc.cells_discarded_geometry


def _winding_counters(counters, stats):
    counters["index.winding_samples"] += stats.samples


@dataclass(frozen=True)
class SpanSpec:
    """Span `name` around `module.attr`, or around the method `module.cls.attr`."""

    name: str
    module: str
    attr: str
    cls: str | None = None
    on_result: Callable | None = None


SPANS = (
    SpanSpec("certify.enclosure", "vfblock.certify", "zero_enclosure_scalars",
             on_result=_enclosure_counters),
    SpanSpec("certify.margin", "vfblock.certify", "min_norm_on_boundary"),
    SpanSpec("certify.certify_block", "vfblock.certify", "certify_block"),
    SpanSpec("certify.restrict_block", "vfblock.certify", "restrict_block"),
    SpanSpec("certify.components", "vfblock.certify", "components"),
    SpanSpec("regions.box_intersects_closure", "vfblock.regions", "box_intersects_closure"),
    SpanSpec("regions.box_clears_boundary", "vfblock.regions", "box_clears_boundary"),
    SpanSpec("regions.box_dist_sq", "vfblock.regions", "box_min_dist_sq"),
    SpanSpec("regions.box_dist_sq", "vfblock.regions", "box_max_dist_sq"),
    SpanSpec("poly.eval_interval", "vfblock.poly", "eval_interval", cls="Poly2"),
    SpanSpec("trig.eval_interval", "vfblock.trig", "eval_interval", cls="TrigPoly2"),
    SpanSpec("fields.lie_bracket", "vfblock.fields", "lie_bracket"),
    SpanSpec("index.winding", "vfblock.index", "winding_stats",
             on_result=_winding_counters),
    SpanSpec("index.lipschitz", "vfblock.index", "interval_lipschitz"),
    SpanSpec("index.lipschitz", "vfblock.index", "sampled_lipschitz"),
    SpanSpec("index.double_cover", "vfblock.index", "lift_double_cover"),
    SpanSpec("flows.integrate", "vfblock.flows", "integrate"),
    SpanSpec("flows.flowbox_build", "vfblock.flows", "flowbox_build"),
    SpanSpec("linefield.flowbox_line_field", "vfblock.linefield", "flowbox_line_field"),
    SpanSpec("tracking.tracks_symbolic", "vfblock.tracking", "tracks_symbolic"),
    SpanSpec("tracking.polish_zero", "vfblock.tracking", "polish_zero"),
    SpanSpec("liealg.structure_constants", "vfblock.liealg", "structure_constants"),
    SpanSpec("liealg.supersolvable_flag", "vfblock.liealg", "supersolvable_flag"),
    SpanSpec("liealg.common_zero_set", "vfblock.liealg", "common_zero_set"),
    SpanSpec("exactlin.kernel", "vfblock.exactlin", "kernel"),
    SpanSpec("exactlin.intersect_subspaces", "vfblock.exactlin", "intersect_subspaces"),
    SpanSpec("upoly.rational_roots", "vfblock.upoly", "rational_roots"),
    SpanSpec("verifier.theorem", "vfblock.verifier", "verify_main"),
    SpanSpec("verifier.theorem", "vfblock.verifier", "verify_mainbis"),
    SpanSpec("verifier.theorem", "vfblock.verifier", "verify_liealg"),
    SpanSpec("scenario.parse", "vfblock.scenario", "parse_scenario"),
    SpanSpec("corpus.generate", "vfblock.corpus", "random_tracking_scenario"),
)


class Tracer:
    """Aggregates spans and counters; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, inclusive s, self s
        self.counters = defaultdict(int)
        self._stack: list[list[float]] = []               # child seconds per open span
        self._depth = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not depth[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    def install(self):
        """Wrap every SPANS target: methods on their class, functions in every
        loaded module (vfblock's and its callers') that holds a reference."""
        functions = {}
        for spec in SPANS:
            owner = importlib.import_module(spec.module)
            if spec.cls is not None:
                owner = getattr(owner, spec.cls)
            original = vars(owner)[spec.attr]
            wrapper = self.wrap(spec.name, original, spec.on_result)
            if spec.cls is not None:
                self._patch(owner, spec.attr, original, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                found = functions.get(id(value))
                if found is not None and found[0] is value:
                    self._patch(module, attr, *found)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
