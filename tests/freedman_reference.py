"""Reference encoder and codec for Freedman labels, in the object-building form.

``FreedmanScheme.encode_stream`` builds each label's fields from per-path
rows, ``FreedmanLabel.write`` writes the fields of a label with the field
encoders of ``BitWriter``, and ``FreedmanLabel.read`` decodes it with the
field decoders of ``BitReader``.  This module keeps straightforward forms
of all three, so the differential tests can hold the library's code to
them, bit for bit and exception type for exception type:

* :func:`reference_encode` builds every label field by field — a
  :class:`Bits` per codeword, kept entry and accumulator slice — from the
  scheme's shared Section 3 structure;
* :func:`reference_to_bits` writes on the string-backed writer of
  :mod:`bitio_reference`, with its field-by-field encoders;
* :func:`reference_from_bits` parses on the string-backed reader of
  :mod:`bitio_reference`, with its bit-by-bit field decoders,

so neither the one encode layer nor the one decode layer of ``src/`` is
checked against itself.
"""

from __future__ import annotations

import math

import bitio_reference as ref
from repro.core.freedman import THIN_FACTOR, FreedmanLabel, FreedmanScheme
from repro.encoding.bitio import BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.transform import prepare_for_leaf_queries
from repro.trees.tree import RootedTree
from tree_reference import branch_node


def reference_encode(
    scheme: FreedmanScheme, tree: RootedTree
) -> tuple[dict[int, FreedmanLabel], dict[str, int]]:
    """Every node's label built field by field, and the encoding statistics.

    Shares the transform, the decomposition and the light codes with the
    scheme (``tree_reference`` checks those row by row); the fragments, the
    entries, the accumulators and the label assembly are computed here
    independently.
    """
    params = scheme.params()
    transform = prepare_for_leaf_queries(tree, binarize_tree=params["binarize"])
    working = transform.tree
    collapsed = CollapsedTree(HeavyPathDecomposition(working))
    light = LightDepthLabeling(working, collapsed)
    boundaries, fragment_ref, entry_value = _reference_fragments(
        params["use_fragments"], working, collapsed
    )
    entries, accumulator, stats = _reference_entries(
        params["use_accumulators"], working, collapsed, entry_value
    )
    labels = {}
    for original in range(tree.n):
        leaf = transform.query_node[original]
        sequence = [path for path, _ in collapsed.root_path_levels(leaf)]
        own_path = sequence[-1]
        codewords, light_weights, fragment_refs = [], [], []
        entry_skip, entry_kept, entry_pushed, accumulators = [], [], [], []
        for parent_path, path in zip(sequence, sequence[1:]):
            codewords.append(light.codeword(path))
            light_weights.append(collapsed.light_edge_weight(path))
            fragment_refs.append(fragment_ref[path])
            skip, kept, pushed, prefix_length = entries[path]
            entry_skip.append(skip)
            entry_kept.append(kept)
            entry_pushed.append(pushed)
            accumulators.append(accumulator[parent_path][:prefix_length])
        labels[original] = FreedmanLabel(
            node_id=original,
            root_distance=working.root_distance(leaf),
            domination=collapsed.domination_number(own_path),
            codewords=codewords,
            light_weights=light_weights,
            fragment_refs=fragment_refs,
            fragment_distances=list(boundaries[own_path]),
            entry_skip=entry_skip,
            entry_kept=entry_kept,
            entry_pushed=entry_pushed,
            accumulators=accumulators,
        )
    return labels, stats


def _reference_fragments(use_fragments, working, collapsed):
    """Per path: its full boundary tuple, its fragment ref and its entry value."""
    n = working.n
    block = max(1, math.ceil(math.sqrt(max(1.0, math.log2(max(n, 2))))))
    boundaries = {}
    fragment_ref = {}
    entry_value = {}
    root_path = collapsed.root
    boundaries[root_path] = (working.root_distance(collapsed.head(root_path)),)
    order = [root_path]
    stack = list(collapsed.children(root_path))
    while stack:
        path = stack.pop()
        order.append(path)
        stack.extend(collapsed.children(path))
    for path in order[1:]:
        blist = boundaries[collapsed.parent(path)]
        head = collapsed.head(path)
        head_distance = working.root_distance(head)
        if use_fragments:
            while working.subtree_size(head) * (2 ** (len(blist) * block)) <= n:
                blist = blist + (head_distance,)
        boundaries[path] = blist
        fragment_ref[path] = len(blist) - 1
        entry_value[path] = head_distance - blist[-1]
    return boundaries, fragment_ref, entry_value


def _reference_entries(use_accumulators, working, collapsed, entry_value):
    """Per hanging subtree: (skip, kept bits, pushed count, accumulator prefix length).

    Returns those per-path tuples, the full accumulator of every parent
    path as :class:`Bits`, and the statistics ``encode`` records.
    """
    entries = {}
    accumulator = {}
    total_pushed = fat = thin = skipped = 0
    for parent_path in range(len(collapsed)):
        children = collapsed.children(parent_path)
        if not children:
            continue
        accumulated = BitWriter()
        for index, child in enumerate(children):
            prefix_length = len(accumulated)
            if index == len(children) - 1:
                entries[child] = (True, Bits(""), 0, prefix_length)
                skipped += 1
                continue
            value = entry_value[child]
            full_bits = value.bit_length()
            hanging_size = working.subtree_size(collapsed.head(child))
            branch_size = working.subtree_size(branch_node(collapsed, child))
            is_thin = hanging_size * THIN_FACTOR <= branch_size
            if is_thin or not use_accumulators:
                length = full_bits
                thin += 1 if is_thin else 0
            else:
                fat += 1
                slack = 0.5 * math.log2(branch_size / hanging_size) * math.log2(
                    max(branch_size, 2)
                )
                length = min(full_bits, int(math.ceil(slack)) + 1)
            pushed = full_bits - length
            kept = Bits.from_int(value >> pushed, length)
            entries[child] = (False, kept, pushed, prefix_length)
            if pushed:
                accumulated.write_int(value & ((1 << pushed) - 1), pushed)
                total_pushed += pushed
        accumulator[parent_path] = accumulated.getvalue()
    stats = {
        "pushed_bits": total_pushed,
        "fat_subtrees": fat,
        "thin_subtrees": thin,
        "skipped_entries": skipped,
    }
    return entries, accumulator, stats


def reference_to_bits(label: FreedmanLabel) -> Bits:
    """Serialise ``label`` field by field on the string-backed writer.

    Every field goes through the encoders of :mod:`bitio_reference`, none
    through :mod:`repro.encoding`.
    """
    writer = ref.BitWriter()
    ref.encode_delta(writer, label.node_id)
    ref.encode_delta(writer, label.root_distance)
    ref.encode_delta(writer, label.domination)
    ref.encode_gamma(writer, label.light_depth)
    for word in label.codewords:
        ref.encode_gamma(writer, len(word))
        writer.write_bits(word.data)
    for weight in label.light_weights:
        ref.encode_gamma(writer, weight)
    ref.encode_monotone(writer, label.fragment_refs)
    ref.encode_monotone(writer, label.fragment_distances)
    for level in range(label.light_depth):
        writer.write_bit(1 if label.entry_skip[level] else 0)
        if not label.entry_skip[level]:
            ref.encode_gamma(writer, len(label.entry_kept[level]))
            writer.write_bits(label.entry_kept[level].data)
            ref.encode_gamma(writer, label.entry_pushed[level])
    for level in range(label.light_depth):
        ref.encode_gamma(writer, len(label.accumulators[level]))
        writer.write_bits(label.accumulators[level].data)
    return Bits(writer.getvalue().data)


def reference_from_bits(bits: Bits) -> FreedmanLabel:
    """Parse a serialised label field by field on the string-backed reader.

    Every field goes through the bit-by-bit decoders of
    :mod:`bitio_reference`, none through :mod:`repro.encoding`.
    """
    reader = ref.BitReader(bits.data)

    def prefixed() -> Bits:
        return Bits(ref.decode_prefixed_bits(reader).data)

    node_id = ref.decode_delta(reader)
    root_distance = ref.decode_delta(reader)
    domination = ref.decode_delta(reader)
    depth = ref.decode_gamma(reader)
    codewords = [prefixed() for _ in range(depth)]
    light_weights = [ref.decode_gamma(reader) for _ in range(depth)]
    fragment_refs = ref.decode_monotone(reader)
    fragment_distances = ref.decode_monotone(reader)
    entry_skip, entry_kept, entry_pushed = [], [], []
    for _ in range(depth):
        skip = reader.read_bit() == 1
        entry_skip.append(skip)
        if skip:
            entry_kept.append(Bits(""))
            entry_pushed.append(0)
        else:
            entry_kept.append(prefixed())
            entry_pushed.append(ref.decode_gamma(reader))
    accumulators = [prefixed() for _ in range(depth)]
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
