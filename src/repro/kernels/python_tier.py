"""The always-available floor tier: the packed-Python paths themselves.

This backend accelerates nothing: every fused entry point returns ``None``,
so callers parse with ``scheme.parse_many`` (each label class's one
``read``) and answer with ``scheme.query``.
"""

from __future__ import annotations


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

    def decode_index(self, data, start, count):
        """No native index decoder: the store's Python loop reads the index."""
        return None

    def encode_index(self, lengths):
        """No native index encoder: the store joins Python varints."""
        return None

    def wire_codec(self):
        """No native wire codec: the server and client keep the reference
        codec of :mod:`repro.serve.protocol`."""
        return None

    def encode_freedman(self, scheme, tree):
        """No native encoder: the scheme's Python encoder writes the labels."""
        return None
