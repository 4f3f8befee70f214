"""In-memory span tracing, installed on the program from outside it.

A hook rebinds one module-level function, or a method of a module-level
class, to a wrapper that records a span: name, start, end, parent span,
thread, and optional counts taken from the call's arguments and result.
Every alias of the function in the sosbeam modules is rebound as well,
because `from .x import f` copies the binding into the importing module.
A hook whose target no longer exists is listed in `absent` and never raises.

A span opened on a pool thread with no open span of its own takes the main
thread's innermost open span as its parent: beamform_image is the only code
that starts threads, and it waits for them inside its own span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
ID, NAME, START, END, PARENT, THREAD, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, name, start, parent):
        end = time.perf_counter()
        stack.pop()
        record = [sid, name, start, end, parent, threading.get_ident(), None]
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, name, start, parent)

    def _call(self, name, fn, info, args, kwargs):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record = self._close(stack, sid, name, start, parent)
        if info is not None:
            record[INFO] = info(args, kwargs, result, record[END] - start)
        return result

    def hook(self, target: str, name: str, info=None) -> None:
        """Trace calls to `module:attr` or `module:Class.attr` as spans called `name`."""
        module_name, _, path = target.partition(":")
        owner = sys.modules.get(module_name)
        *outer, leaf = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            self.absent.append(name)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, info, args, kwargs)

        sites = [(owner, leaf)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sosbeam" or mod_name.startswith("sosbeam."):
                sites += [(mod, key) for key, value in list(vars(mod).items())
                          if value is fn and (mod, key) != (owner, leaf)]
        for obj, key in sites:
            setattr(obj, key, wrapper)
            self._undo.append((obj, key, fn))

    def unhook_all(self) -> None:
        for obj, key, fn in reversed(self._undo):
            setattr(obj, key, fn)
        self._undo.clear()

    def open_spans(self) -> int:
        return len(self._main_stack)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON, times in seconds from the first start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(s[START] for s in self.spans)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
                       "spans": [[s[ID], s[NAME], s[START] - origin, s[END] - origin,
                                  s[PARENT], s[THREAD]] for s in self.spans],
                       "absent": self.absent}, fh)


def _union_gaps(start, end, intervals):
    """Parts of [start, end] that no interval in `intervals` covers."""
    gaps = []
    cursor = start
    for a, b in sorted(intervals):
        if a > cursor:
            gaps.append((cursor, a))
        cursor = max(cursor, b)
    if end > cursor:
        gaps.append((cursor, end))
    return gaps


def analyze(spans, root_name):
    """Per-name span statistics and the wall-time accounting of a traced run.

    Returns (stats, accounting). stats maps span name to count, inclusive
    time `incl`, self time `self` (thread time not covered by child spans)
    and summed `info` counts. accounting splits the root span's wall time
    over layers (the span-name prefix): at each instant the time goes to the
    spans running then, shared equally between threads, so the layer times
    add up to the wall time. Time in the benchmark's own spans is reported
    as `unattributed`.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    root = next(s for s in spans if s[NAME] == root_name and s[PARENT] is None)
    orphans = sum(1 for s in spans if s[PARENT] is None and s is not root)
    escapes = 0
    stats = defaultdict(lambda: {"count": 0, "incl": 0.0, "self": 0.0,
                                 "info": defaultdict(float)})
    events = []
    for s in spans:
        kids = children[s[ID]]
        escapes += sum(1 for c in kids if c[START] < s[START] or c[END] > s[END])
        gaps = _union_gaps(s[START], s[END], [(c[START], c[END]) for c in kids])
        st = stats[s[NAME]]
        st["count"] += 1
        st["incl"] += s[END] - s[START]
        st["self"] += sum(b - a for a, b in gaps)
        for key, value in (s[INFO] or {}).items():
            st["info"][key] += value
        for a, b in gaps:
            events.append((a, 1, s[NAME]))
            events.append((b, 0, s[NAME]))
    events.sort()
    share = defaultdict(float)
    active = []
    prev = None
    for t, opening, name in events:
        if active and t > prev:
            dt = (t - prev) / len(active)
            for running in active:
                share[running] += dt
        prev = t
        if opening:
            active.append(name)
        else:
            active.remove(name)
    layers = defaultdict(float)
    for name, seconds in share.items():
        layers[name.split(".", 1)[0]] += seconds
    wall = root[END] - root[START]
    unattributed = layers.pop("bench", 0.0)
    total = sum(layers.values()) + unattributed
    accounting = {
        "wall_s": wall,
        "layers_s": dict(sorted(layers.items())),
        "unattributed_s": unattributed,
        "residual_s": total - wall,
        "orphan_spans": orphans,
        "escaped_spans": escapes,
        "ok": orphans == 0 and escapes == 0 and abs(total - wall) <= 1e-6 * max(wall, 1.0),
    }
    return stats, accounting
