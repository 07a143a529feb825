"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into hyprig's public functions, at the
module attributes their callers look up: ``hyprig.smear.sample_haar`` is
the name ``volume_ratio`` resolves at call time, so replacing that
attribute traces every call the smearing path makes into the sampler
without touching the package.  Each span stores its name, start, end,
parent span and the operation it belongs to; spans stay in memory until
the run ends, when self times (duration minus the time child spans
cover) are aggregated by name.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self.raised: list = []
        self.counters = defaultdict(float)
        self.haar_calls: list = []    # (n_samples, ess_frac, max_weight)
        self.current_op = -1
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """A callable that records a span around every call of fn."""
        names, start, end = self.names, self.start, self.end
        parent, op, raised, stack = self.parent, self.op, self.raised, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            raised.append(False)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, module, attr, name, on_result=None, adapt=None):
        """Replace module.attr by its traced wrapper until unpatch_all;
        ``adapt`` maps the original function to the body to trace."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        body = original if adapt is None else adapt(original)
        setattr(module, attr, self.wrap(name, body, on_result))

    def unpatch_all(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def clear(self):
        for lst in (self.names, self.start, self.end, self.parent, self.op,
                    self.raised, self.haar_calls):
            lst.clear()
        self.counters.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total duration, self time, and the self
        time of calls that raised."""
        if not self.start:
            return {}
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered
        raised = np.array(self.raised)
        out = {}
        names = np.array(self.names)
        for name in np.unique(names):
            sel = names == name
            out[str(name)] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "raised_self_s": float(self_t[sel & raised].sum()),
            }
        return out
