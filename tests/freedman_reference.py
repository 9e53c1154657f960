"""Reference codec for Freedman labels: the field-by-field reader/writer form.

``FreedmanLabel.to_bits`` shifts every field into one integer and
``FreedmanLabel.from_bits`` decodes with shifts and masks on that integer.
This module keeps the straightforward codec they replaced — a
:class:`BitWriter`/:class:`BitReader` pass that goes through the Elias
helpers and builds a :class:`MonotoneSequence` per fragment array — so the
differential tests can hold the word-level codec to it, bit for bit and
exception type for exception type.
"""

from __future__ import annotations

from repro.core.freedman import FreedmanLabel
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.encoding.elias import decode_delta, decode_gamma, encode_delta, encode_gamma
from repro.encoding.monotone import MonotoneSequence


def reference_to_bits(label: FreedmanLabel) -> Bits:
    """Serialise ``label`` field by field through a :class:`BitWriter`."""
    writer = BitWriter()
    encode_delta(writer, label.node_id)
    encode_delta(writer, label.root_distance)
    encode_delta(writer, label.domination)
    encode_gamma(writer, label.light_depth)
    for word in label.codewords:
        encode_gamma(writer, len(word))
        writer.write_bits(word)
    for weight in label.light_weights:
        encode_gamma(writer, weight)
    MonotoneSequence(label.fragment_refs).write(writer)
    MonotoneSequence(label.fragment_distances).write(writer)
    for level in range(label.light_depth):
        writer.write_bit(1 if label.entry_skip[level] else 0)
        if not label.entry_skip[level]:
            encode_gamma(writer, len(label.entry_kept[level]))
            writer.write_bits(label.entry_kept[level])
            encode_gamma(writer, label.entry_pushed[level])
    for level in range(label.light_depth):
        encode_gamma(writer, len(label.accumulators[level]))
        writer.write_bits(label.accumulators[level])
    return writer.getvalue()


def reference_from_bits(bits: Bits) -> FreedmanLabel:
    """Parse a serialised label field by field through a :class:`BitReader`."""
    reader = BitReader(bits)
    node_id = decode_delta(reader)
    root_distance = decode_delta(reader)
    domination = decode_delta(reader)
    depth = decode_gamma(reader)
    codewords = []
    for _ in range(depth):
        length = decode_gamma(reader)
        codewords.append(reader.read_bits(length))
    light_weights = [decode_gamma(reader) for _ in range(depth)]
    fragment_refs = MonotoneSequence.read(reader).to_list()
    fragment_distances = MonotoneSequence.read(reader).to_list()
    entry_skip, entry_kept, entry_pushed = [], [], []
    for _ in range(depth):
        skip = reader.read_bit() == 1
        entry_skip.append(skip)
        if skip:
            entry_kept.append(Bits(""))
            entry_pushed.append(0)
        else:
            length = decode_gamma(reader)
            entry_kept.append(reader.read_bits(length))
            entry_pushed.append(decode_gamma(reader))
    accumulators = []
    for _ in range(depth):
        length = decode_gamma(reader)
        accumulators.append(reader.read_bits(length))
    return FreedmanLabel(
        node_id=node_id,
        root_distance=root_distance,
        domination=domination,
        codewords=codewords,
        light_weights=light_weights,
        fragment_refs=fragment_refs,
        fragment_distances=fragment_distances,
        entry_skip=entry_skip,
        entry_kept=entry_kept,
        entry_pushed=entry_pushed,
        accumulators=accumulators,
    )
