"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the program from outside, by
replacing module or class attributes, and restores them afterwards. Each
call becomes a span: name, start, end, parent span and the operation
(query or substep) it belongs to. Spans stay in compact arrays until the
run ends and are written out in one go. Per-name busy time counts only
the outermost span of a name, so re-entrant calls are not counted twice;
self time is a span's duration minus the time its child spans cover.
"""

import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.active = False
        self._stack = []  # [span index, name, child time]
        self._depth = Counter()
        self._patches = []
        self.reset_stats()

    def reset_stats(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def snapshot(self):
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- installing wrappers --------------------------------------------------

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a wrapper that records a span named `name`
        around each call. on_result(counts, result) runs after a call that
        returned normally."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._depth[name] += 1
        frame = [idx, name, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        idx, name, child = frame
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def write(self, path):
        """Write every span recorded so far as arrays in one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
