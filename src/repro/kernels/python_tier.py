"""The always-available floor tier: the packed-Python paths themselves.

This backend accelerates nothing — every fused entry point returns ``None``
so callers use the existing word-level Python code — but it carries the
reference implementation of the parse checksum the differential suites and
the kernel benchmark compare the other tiers against.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211


def _kind(scheme) -> str | None:
    from repro.core.freedman import FreedmanScheme
    from repro.core.hld import HLDScheme

    if type(scheme) is HLDScheme:
        return "hld"
    if type(scheme) is FreedmanScheme:
        return "freedman"
    return None


def fold_checksum(scheme, labels) -> int | None:
    """FNV-1a-style fold over every decoded field of ``labels`` (in order).

    The C kernels compute the identical fold over their own decode
    (``repro_hld_checksum`` / ``repro_freedman_checksum``), so an equal
    checksum certifies field-for-field agreement between the decoders.
    Returns ``None`` for scheme families without a native decoder.
    """
    kind = _kind(scheme)
    if kind is None:
        return None
    h = _FNV_OFFSET
    if kind == "hld":
        for label in labels:
            h = ((h ^ label.root_distance) * _FNV_PRIME) & _MASK64
            h = ((h ^ label._count) * _FNV_PRIME) & _MASK64
            for path_id, exit_distance in zip(label.path_ids, label.exits):
                h = ((h ^ path_id) * _FNV_PRIME) & _MASK64
                h = ((h ^ exit_distance) * _FNV_PRIME) & _MASK64
        return h
    for label in labels:
        h = ((h ^ label.node_id) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.root_distance) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.domination) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.light_depth) * _FNV_PRIME) & _MASK64
        for level in range(label.light_depth):
            h = ((h ^ len(label.codewords[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.codewords[level].to_int()) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.light_weights[level]) * _FNV_PRIME) & _MASK64
            h = ((h ^ int(label.entry_skip[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ len(label.entry_kept[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.entry_kept[level].to_int()) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.entry_pushed[level]) * _FNV_PRIME) & _MASK64
        for value in label.fragment_refs:
            h = ((h ^ value) * _FNV_PRIME) & _MASK64
        for value in label.fragment_distances:
            h = ((h ^ value) * _FNV_PRIME) & _MASK64
        for level in range(label.light_depth):
            accumulator = label.accumulators[level]
            h = ((h ^ len(accumulator)) * _FNV_PRIME) & _MASK64
            h = ((h ^ (accumulator.to_int() & _MASK64)) * _FNV_PRIME) & _MASK64
    return h


class PythonBackend:
    """The packed-Python floor: fused entry points decline, callers fall back."""

    name = "python"

    def tier_for(self, scheme) -> str:
        return "python"

    def arena(self, store, scheme, budget):
        """No decoded-label arena: the engine keeps parsed labels itself."""
        return None

    def batch_query(self, arena, pairs):
        return None

    def matrix_flat(self, store, scheme, targets):
        return None

    def varint_many(self, data, start, count):
        return None

    def parse_checksum(self, store, scheme, nodes):
        """The reference checksum, from the packed-Python ``parse_many``."""
        if not nodes:
            return None
        labels = scheme.parse_many(store, list(dict.fromkeys(nodes)))
        return fold_checksum(scheme, [labels[node] for node in nodes])
