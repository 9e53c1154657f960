"""The traced run: spans around calls into each layer, and the cost ledger.

Tracing patches the public functions of each layer at run time — module
attributes such as ``repro.serve.protocol.decode_request``, class attributes
such as ``QueryEngine.batch_query``, and the active kernel backend's bound
``batch_query`` — with wrappers that record a span per call.  Nothing inside
the program changes; the patches are undone when the traced phase ends.

A span is ``(id, layer, start, end, parent id, chunk)``.  Spans of one
thread nest (every wrapped function is synchronous, so none is open across
an ``await``), which makes a layer's *self time* its span's duration minus
the durations of its direct children.  Self times are summed per chunk and
scaled by that chunk's calibration factor, like every other timing.
"""

from __future__ import annotations

import json
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

#: layers of the ledger; :meth:`SpanRecorder.installed` says what each wraps
LAYERS = (
    "core.encode",
    "store.pack",
    "encoding.to_bits",
    "store.engine",
    "core.parse",
    "kernels.batch",
    "serve.client_encode",
    "serve.frame_split",
    "serve.decode_request",
    "serve.encode_result",
    "serve.client_decode",
)

#: spans kept for the written trace; self times keep accumulating beyond it
MAX_SPANS = 1_000_000


class SpanRecorder:
    """Records spans while a chunk is open; a :class:`ChunkTimer` listener."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        count = len(self.layers)
        self.chunk = -1
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._chunk_self = [0.0] * count
        self._chunk_incl = [0.0] * count
        #: reference-host seconds per layer over all closed chunks
        self.self_s = [0.0] * count
        self.incl_s = [0.0] * count
        self.calls = [0] * count
        #: ``batch_query`` calls the kernel backend declined (returned None)
        self.declined = 0
        self.dropped = 0
        self.ids = array("q")
        self.layer_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.chunks = array("i")

    # -- ChunkTimer listener ---------------------------------------------------

    def open_chunk(self, index: int) -> None:
        self.chunk = index
        count = len(self.layers)
        self._chunk_self = [0.0] * count
        self._chunk_incl = [0.0] * count

    def close_chunk(self, factor: float) -> None:
        self.chunk = -1
        for slot, value in enumerate(self._chunk_self):
            self.self_s[slot] += value * factor
        for slot, value in enumerate(self._chunk_incl):
            self.incl_s[slot] += value * factor

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, layer: str, fn, on_result=None):
        slot = self.layers.index(layer)
        recorder = self

        def traced(*args, **kwargs):
            if recorder.chunk < 0:
                return fn(*args, **kwargs)
            stack = recorder._stack
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                recorder._chunk_self[slot] += duration - frame[1]
                recorder._chunk_incl[slot] += duration
                recorder.calls[slot] += 1
                recorder._keep(span_id, slot, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _keep(self, span_id, slot, start, end, parent) -> None:
        if len(self.ids) >= MAX_SPANS:
            self.dropped += 1
            return
        self.ids.append(span_id)
        self.layer_ids.append(slot)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.chunks.append(self.chunk)

    def _count_decline(self, result) -> None:
        if result is None:
            self.declined += 1

    @contextmanager
    def installed(self):
        """Patch every layer's entry point for the duration of the block."""
        from repro import kernels
        from repro.core.freedman import FreedmanLabel, FreedmanScheme
        from repro.serve import protocol
        from repro.store.label_store import LabelStore
        from repro.store.query_engine import QueryEngine

        backend = kernels.backend()
        patches = [
            (FreedmanScheme, "encode", self.wrap("core.encode", FreedmanScheme.encode)),
            (
                LabelStore,
                "from_labels",
                classmethod(self.wrap("store.pack", LabelStore.from_labels.__func__)),
            ),
            (FreedmanLabel, "to_bits", self.wrap("encoding.to_bits", FreedmanLabel.to_bits)),
            (QueryEngine, "batch_query", self.wrap("store.engine", QueryEngine.batch_query)),
            (
                FreedmanScheme,
                "parse_many",
                self.wrap("core.parse", FreedmanScheme.parse_many),
            ),
            (
                backend,
                "batch_query",
                self.wrap("kernels.batch", backend.batch_query, self._count_decline),
            ),
            (protocol, "encode_query", self.wrap("serve.client_encode", protocol.encode_query)),
            (
                protocol.FrameDecoder,
                "frames",
                self.wrap("serve.frame_split", protocol.FrameDecoder.frames),
            ),
            (
                protocol,
                "decode_request",
                self.wrap("serve.decode_request", protocol.decode_request),
            ),
            (
                protocol,
                "encode_result_block",
                self.wrap("serve.encode_result", protocol.encode_result_block),
            ),
            (
                protocol,
                "decode_response",
                self.wrap("serve.client_decode", protocol.decode_response),
            ),
        ]
        saved = []
        try:
            for owner, attribute, replacement in patches:
                saved.append((owner, attribute, owner.__dict__.get(attribute, _ABSENT)))
                setattr(owner, attribute, replacement)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------------

    def self_us_per(self, layer: str, ops: int) -> float:
        return self.self_s[self.layers.index(layer)] * 1e6 / ops if ops else 0.0

    def incl_us_per(self, layer: str, ops: int) -> float:
        return self.incl_s[self.layers.index(layer)] * 1e6 / ops if ops else 0.0

    def covered_us_per(self, ops: int) -> float:
        """Time covered by any span (the sum of all self times) per op."""
        return sum(self.self_s) * 1e6 / ops if ops else 0.0

    def write(self, path: str, header: dict) -> None:
        """Write the kept spans: one JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        meta = dict(header)
        meta.update(
            layers=self.layers,
            spans=len(self.ids),
            dropped=self.dropped,
            arrays=[
                ["id", "q"],
                ["layer", "h"],
                ["start", "d"],
                ["end", "d"],
                ["parent", "q"],
                ["chunk", "i"],
            ],
        )
        with open(path, "wb") as handle:
            handle.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
            for column in (
                self.ids,
                self.layer_ids,
                self.starts,
                self.ends,
                self.parents,
                self.chunks,
            ):
                column.tofile(handle)


_ABSENT = object()


def read_spans(path: str) -> tuple[dict, dict]:
    """Load a file written by :meth:`SpanRecorder.write`: ``(header, columns)``."""
    with open(path, "rb") as handle:
        meta = json.loads(handle.readline())
        columns = {}
        for name, code in meta["arrays"]:
            column = array(code)
            column.fromfile(handle, meta["spans"])
            columns[name] = column
    return meta, columns
