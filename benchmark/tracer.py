"""Spans around calls into the nsw package, recorded from the benchmark's side.

``install`` rebinds chosen functions and methods of nsw to timing wrappers for
the length of a ``with`` block and restores the originals when it ends, so the
package itself carries no timers. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Spans as ``[name, start, end, parent index or -1, note]`` lists, in call
    order, plus the number of exceptions each wrapped name let escape."""

    def __init__(self):
        self.spans: list[list] = []
        self.raised: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        """Timing wrapper for ``fn``; ``note(args, result)`` may attach a
        value (a bar count, an iteration count) to each successful call."""
        spans, open_, raised = self.spans, self._open, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[name] = raised.get(name, 0) + 1
                raise
            finally:
                span[END] = perf_counter()
                open_.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans, "raised": self.raised}, fh)


@contextmanager
def install(tracer: Tracer, targets: dict):
    """Wrap every ``"module:qualname"`` in ``targets`` (mapped to its note
    function or None) for the duration of the block.

    A method is rebound on its class. A function is rebound in every loaded
    ``nsw`` module that holds it, because modules such as ``nsw.signals``
    import the names they call.
    """
    undo = []
    try:
        for target, note in targets.items():
            modname, qualname = target.split(":")
            module = importlib.import_module(modname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(qualname, original, note))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(qualname, original, note)
            holders = [m for n, m in list(sys.modules.items()) if n == "nsw" or n.startswith("nsw.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
