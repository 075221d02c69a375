"""Wall-clock spans recorded around the public entry points of each layer.

Only the traced run builds a :class:`Tracer` and installs its wrappers; the
untraced run calls the program exactly as shipped. A wrapper replaces a
function under every name it is looked up by (a function imported by name
into another module is patched there too) and a method on the class that
defines it. Each span holds its name, start, end, parent span and the
request it served; spans stay in memory until :meth:`Tracer.write_chrome`.

A span's *self time* is its duration minus the part of it that its child
spans cover, so per-layer seconds add up without double counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

#: positions inside one span record
NAME, START, END, PARENT, REQ = range(5)


def union_length(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans: list) -> list:
    """Self time of every span: duration minus what its children cover."""
    children: dict = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        covered = union_length(children.get(i, []), span[START], span[END])
        out.append(duration - covered)
    return out


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index, request id]`` per span
        self.spans: list = []
        #: ``(start, end)`` of every window the benchmark measured
        self.windows: list = []
        #: record only while True (the benchmark turns it off around set-up
        #: and verification)
        self.enabled = False
        #: request id the benchmark is serving; spans without a request of
        #: their own inherit it
        self.request = None
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------ record
    def open(self, name: str, req=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if req is None:
            req = self.spans[parent][REQ] if parent >= 0 else self.request
        self.spans.append([name, self.clock(), None, parent, req])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def window(self, start: float, end: float) -> None:
        self.windows.append((start, end))

    def wrap(
        self,
        name: str,
        fn: Callable,
        req_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``req_of(args)`` names its request and
        ``after(args, result)`` counts what the call did."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name, req_of(args) if req_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------- patch
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Wrap ``fn`` under every name a loaded ``repro`` module binds it to."""
        traced = self.wrap(name, fn, **kw)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_method(self, classes, attr: str, name: str, **kw) -> None:
        """Wrap ``attr`` on each class of ``classes`` resolves it from."""
        done = set()
        for cls in classes:
            owner = next(k for k in cls.__mro__ if attr in k.__dict__)
            if owner in done:
                continue
            done.add(owner)
            self._set(owner, attr, self.wrap(name, owner.__dict__[attr], **kw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- summary
    def layer_totals(self) -> dict:
        """``name -> {"calls", "self_s"}`` over every recorded span."""
        totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[NAME]]["calls"] += 1
            totals[span[NAME]]["self_s"] += own
        return dict(totals)

    def wall(self) -> float:
        return sum(end - start for start, end in self.windows)

    def unattributed(self) -> float:
        """Measured wall time that no top-level span covers."""
        roots = [(s[START], s[END]) for s in self.spans if s[PARENT] < 0]
        return sum(
            (end - start) - union_length(roots, start, end)
            for start, end in self.windows
        )

    def chrome_events(self) -> list:
        """Spans as Chrome-trace complete events (microseconds), the format
        ``repro.sim.trace.TraceRecorder.to_chrome_trace`` emits for
        simulated time; pid 1 keeps the two side by side in one viewer."""
        t0 = self.windows[0][0] if self.windows else 0.0
        events = [
            {
                "name": "host wall clock",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "cat": "meta",
                "args": {"name": "host wall clock"},
            }
        ]
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 0,
                    "cat": name.split(".")[0],
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"span": i, "parent": parent, "req": req},
                }
            )
        return events

    def write_chrome(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_events(), fh)
