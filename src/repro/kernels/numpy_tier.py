"""The numpy middle tier: vectorised hld-fixed batch/matrix distance.

hld-fixed is the one scheme whose decoded labels are fixed-width arrays
(per-level path ids and exit distances), so its query loop vectorises
cleanly: pad every label's id row to a rectangle with a per-slot sentinel,
find the first mismatching level with one ``argmax`` over the comparison
mask, gather the exits at the level below it and finish with the
``rd(u) + rd(v) - 2 min(exit)`` formula — all without per-pair Python.

Parsing still happens in packed Python (there is nothing fixed-width about
the serialised form), so this tier accelerates the O(pairs) / O(n²) part
only; the native tier accelerates both.  Like every kernel backend, any
input outside the supported envelope (mixed widths, very wide fields,
foreign-tree pairs) returns ``None`` and the caller falls back.
"""

from __future__ import annotations

import numpy as np

from repro.core.hld import HLDScheme
from repro.kernels.python_tier import fold_checksum

#: widest field the int64 tableau handles without overflow risk
_MAX_WIDTH = 48
#: per-slot id padding: above any real path id, distinct per slot so two
#: different slots always mismatch by the end of the shorter real row
_PAD_BASE = 1 << 50
#: matrix rows vectorised per block (bounds the (rows, m, levels) mask)
_ROW_BLOCK = 64


class NumpyBackend:
    """Vectorised hld-fixed queries over labels parsed by the Python tier."""

    name = "numpy"
    #: below this many pairs the tableau build beats the vectorisation win
    min_batch = 64
    #: ``batch_query`` consumes labels the Python tier parsed
    decodes_store = False

    def tier_for(self, scheme, op: str = "batch_query") -> str:
        return "numpy" if type(scheme) is HLDScheme else "python"

    # -- label tableau -------------------------------------------------------

    @staticmethod
    def _tableau(labels):
        """Pack labels into ``(ids, exits, root_distances, counts)`` arrays."""
        first = labels[0]
        id_width = first.id_width
        distance_width = first.distance_width
        if id_width > _MAX_WIDTH or distance_width > _MAX_WIDTH:
            return None
        m = len(labels)
        counts = np.empty(m, dtype=np.int64)
        root_distances = np.empty(m, dtype=np.int64)
        for i, label in enumerate(labels):
            if (
                label.id_width != id_width
                or label.distance_width != distance_width
            ):
                return None
            counts[i] = label._count
            root_distances[i] = label.root_distance
        max_count = int(counts.max())
        if max_count == 0 or max_count > 1 << 12:
            return None
        ids = np.empty((m, max_count), dtype=np.int64)
        exits = np.zeros((m, max_count), dtype=np.int64)
        for i, label in enumerate(labels):
            count = int(counts[i])
            if count:
                ids[i, :count] = label.path_ids
                exits[i, :count] = label.exits
            ids[i, count:] = _PAD_BASE + i
        return ids, exits, root_distances, counts

    def _labels_for(self, store, scheme, nodes, parsed):
        if parsed is not None:
            try:
                return [parsed[node] for node in nodes]
            except KeyError:
                return None
        by_node = scheme.parse_many(store, list(dict.fromkeys(nodes)))
        return [by_node[node] for node in nodes]

    # -- fused entry points --------------------------------------------------

    def batch_query(self, store, scheme, pairs, parsed=None):
        if type(scheme) is not HLDScheme or not pairs:
            return None
        nodes = list(dict.fromkeys(node for pair in pairs for node in pair))
        labels = self._labels_for(store, scheme, nodes, parsed)
        if labels is None:
            return None
        tableau = self._tableau(labels)
        if tableau is None:
            return None
        ids, exits, root_distances, counts = tableau
        slot = {node: i for i, node in enumerate(nodes)}
        n_pairs = len(pairs)
        ui = np.fromiter((slot[u] for u, _ in pairs), dtype=np.int64, count=n_pairs)
        vi = np.fromiter((slot[v] for _, v in pairs), dtype=np.int64, count=n_pairs)
        ids_u = ids[ui]
        ids_v = ids[vi]
        mismatch = ids_u != ids_v
        any_mismatch = mismatch.any(axis=1)
        # first differing level; rows with none (u == v slot) use min(count):
        # the per-slot pads guarantee distinct slots mismatch by then
        first = np.where(
            any_mismatch, mismatch.argmax(axis=1), np.minimum(counts[ui], counts[vi])
        )
        deepest = first - 1
        if (deepest < 0).any():
            return None  # foreign-tree pair: Python path raises the ValueError
        exit_u = np.take_along_axis(exits[ui], deepest[:, None], axis=1)[:, 0]
        exit_v = np.take_along_axis(exits[vi], deepest[:, None], axis=1)[:, 0]
        result = (
            root_distances[ui] + root_distances[vi] - 2 * np.minimum(exit_u, exit_v)
        )
        return result.tolist()

    def matrix_flat(self, store, scheme, targets, labels=None):
        if type(scheme) is not HLDScheme or not targets:
            return None
        if labels is None:
            labels = self._labels_for(store, scheme, list(targets), None)
        tableau = self._tableau(labels)
        if tableau is None:
            return None
        ids, exits, root_distances, counts = tableau
        m = len(labels)
        flat: list[int] = []
        column_index = np.arange(m)[None, :]
        for start in range(0, m, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, m)
            mismatch = ids[start:stop, None, :] != ids[None, :, :]
            any_mismatch = mismatch.any(axis=2)
            first = np.where(
                any_mismatch,
                mismatch.argmax(axis=2),
                np.minimum(counts[start:stop, None], counts[None, :]),
            )
            deepest = first - 1
            if (deepest < 0).any():
                return None
            exit_rows = np.take_along_axis(exits[start:stop], deepest, axis=1)
            exit_cols = exits[column_index, deepest]
            block = (
                root_distances[start:stop, None]
                + root_distances[None, :]
                - 2 * np.minimum(exit_rows, exit_cols)
            )
            flat.extend(block.reshape(-1).tolist())
        return flat

    # -- parity helpers ------------------------------------------------------

    def varint_many(self, data, start, count):
        return None

    def parse_checksum(self, store, scheme, nodes):
        """Checksum over this tier's parse supply (the packed-Python parser)."""
        if not nodes:
            return None
        labels = scheme.parse_many(store, list(dict.fromkeys(nodes)))
        return fold_checksum(scheme, [labels[node] for node in nodes])
