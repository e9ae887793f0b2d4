"""Spans around lomlab's layer boundaries, installed from outside the library.

``Tracer.install`` replaces the module attributes through which one lomlab
module calls the next with wrappers that record a span per call: name, start,
end and the index of the enclosing span.  Spans stay in a list until the run
ends; ``Tracer.layers`` then folds them into per-function call counts,
inclusive time and self time (a span's duration minus the part covered by its
child spans).  ``Tracer.uninstall`` puts the original attributes back.

Pool workers forked after ``install`` inherit the wrappers, but their spans
stay in the worker, so only the parent side of a pool survey is recorded.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import math
import os
import time

# (module, attribute, span name).  ``survey`` imports ``_representative_entries``
# by name, so the survey's copy and chessboard's own global are both wrapped.
BOUNDARIES = (
    ("survey", "_representative_entries", "chessboard.representative"),
    ("chessboard", "_representative_entries", "chessboard.representative"),
    ("sign_core", "_circuit_masks_from_entries", "sign_core.masks"),
    ("sign_core", "_count_from_masks", "sign_core.count"),
    ("sign_core", "_mask_context", "sign_core.context"),
    ("sign_core", "_half_reorientation_masks", "sign_core.context"),
    ("survey", "save_checkpoint", "survey.checkpoint_write"),
    ("survey", "load_checkpoint", "survey.checkpoint_read"),
    ("formulas", "c_value", "formulas.c_value"),
    ("travels", "f_via_travels", "travels.f"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: collections.Counter = collections.Counter()
        self.maxima: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter())

    def _wrap(self, original, name: str, observe):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open()
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx, name, start, clock())
                if observe is not None:
                    observe(args)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in BOUNDARIES that exists in the imported lomlab."""
        from lomlab import sign_core, survey

        r_block = getattr(sign_core, "_R_BLOCK", 1 << 13)

        # Counts taken from each call's arguments, after its span has closed.
        def count_observer(args):
            pos, _, n = args[:3]  # _count_from_masks(pos_masks, support_masks, n, r, k)
            half = 1 << (n - 1)
            self.counts["count_pairs"] += len(pos) * half
            self.maxima["block_bytes"] = max(
                self.maxima["block_bytes"], len(pos) * min(r_block, half) * 4
            )

        def write_observer(args):
            self.counts["checkpoint_bytes_written"] += os.path.getsize(args[0])

        def travels_observer(args):
            A = args[0]
            self.counts["plain_travels"] += sum(math.comb(A.cols - 1, i) for i in range(A.rows))

        observers = {
            "sign_core.count": count_observer,
            "survey.checkpoint_write": write_observer,
            "travels.f": travels_observer,
        }
        seen: dict[int, object] = {}
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(f"lomlab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(original) not in seen:
                seen[id(original)] = self._wrap(original, name, observers.get(name))
            self._restore.append((module, attr, original))
            setattr(module, attr, seen[id(original)])

        # The histogram merge happens inside run_survey, in Counter.update on
        # the checkpoint's histogram; a Counter whose update records a span
        # stands in for collections.Counter inside the survey module only.
        tracer = self

        class MergeCounter(collections.Counter):
            def __init__(self, iterable=None, /, **kwds):
                dict.__init__(self)
                collections.Counter.update(self, iterable, **kwds)

            def update(self, iterable=None, /, **kwds):
                with tracer.span("survey.merge"):
                    collections.Counter.update(self, iterable, **kwds)

        self._restore.append((survey, "Counter", survey.Counter))
        survey.Counter = MergeCounter

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._restore):
            setattr(target, leaf, original)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child_time):
            name, start, end, _ = span
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out
