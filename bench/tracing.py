"""Spans around calls into the library, recorded from outside it.

``Tracer.install`` rebinds module-level names at layer boundaries (the
names a caller looks up at call time) and the ``forward``/``backward``
methods of each layer object, so the library itself is unchanged. Every
call through a rebound name records one span: id, parent id, name, start,
end and the batch it belongs to (-1 during set-up). Spans stay in memory
until ``write`` at exit.

A span's self time is its duration minus the time its direct children
cover; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict

import logpolar.baselines
import logpolar.lpsc
import logpolar.network
import logpolar.ops
from logpolar.network import Network

# (owner, attribute, span name). Several names may share a span name; the
# lpsc module's conv2d_raw is the LPSC block convolution, the network and
# baselines modules' conv2d_raw are the conventional layers.
TARGETS = (
    (logpolar.lpsc, "log_polar_pool", "lpsc.pool"),
    (logpolar.lpsc, "conv2d_raw", "lpsc.block_conv"),
    (logpolar.lpsc, "conv2d_raw_backward", "lpsc.block_conv_bwd"),
    (logpolar.lpsc, "build_mask", "geometry.mask"),
    (logpolar.network, "lpsc_forward_fast", "lpsc.forward"),
    (logpolar.network, "lpsc_backward", "lpsc.backward"),
    (logpolar.network, "conv2d_raw", "conv.fwd"),
    (logpolar.network, "conv2d_raw_backward", "conv.bwd"),
    (logpolar.baselines, "conv2d_raw", "conv.fwd"),
    (logpolar.baselines, "conv2d_raw_backward", "conv.bwd"),
    (logpolar.ops, "relu", "ops.relu"),
    (logpolar.ops, "relu_backward", "ops.relu"),
    (logpolar.ops, "max_pool", "ops.maxpool_fwd"),
    (logpolar.ops, "max_pool_backward", "ops.maxpool_bwd"),
    (logpolar.ops, "mean_pool", "ops.meanpool"),
    (logpolar.ops, "mean_pool_backward", "ops.meanpool"),
    (logpolar.ops, "dense", "ops.dense"),
    (logpolar.ops, "dense_backward", "ops.dense"),
    (logpolar.ops, "softmax_cross_entropy", "ops.loss"),
    (logpolar.ops, "softmax_cross_entropy_backward", "ops.loss"),
    (Network, "forward", "network.forward"),
    (Network, "backward", "network.backward"),
    (Network, "sgd_step", "network.sgd"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, batch)
        self.batch = -1
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.batch))

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.batch))

    def install(self, layers):
        """Rebind every target name and the given layers' methods."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for layer in layers:
            for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                self._saved.append((layer, method, None))
                name = f"layer.{layer.index}.{layer.kind}.{suffix}"
                setattr(layer, method, self._wrap(getattr(layer, method), name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)  # drop the instance attribute, back to the class method
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def totals(self, scale):
        """{name: (calls, inclusive seconds, self seconds)} over the spans of
        the batches in *scale*, each span's times multiplied by its batch's factor."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, batch in self.spans:
            if parent and batch in scale:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, start, end, batch in self.spans:
            factor = scale.get(batch)
            if factor is not None:
                entry = out[name]
                entry[0] += 1
                entry[1] += factor * (end - start)
                entry[2] += factor * (end - start - child_time[sid])
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path, header):
        """Write *header* plus every span as JSON; times in seconds from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [[sid, parent, name, round(start - t0, 9), round(end - t0, 9), batch]
                for sid, parent, name, start, end, batch in self.spans]
        payload = dict(header, span_fields=["id", "parent", "name", "start_s", "end_s", "batch"],
                       spans=rows)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
