"""The paper's main contribution: 1/4 log² n + o(log² n) distance labels.

Section 3 structure, mirrored here:

1. **Transform** (Section 2): attach a 0-weight pendant leaf to every node
   and binarize; queries are asked on the pendant leaves, whose pairwise
   distances equal the original distances.
2. **Heavy path decomposition + collapsed tree** (Section 2/Fig. 1) with the
   paper's ``>= |T|/2`` descent rule.
3. **Modified distance arrays** (Section 3.2): for every light edge on a
   node's root path the label stores a *truncated distance* (the most
   significant bits of the edge's head-to-head distance) plus an
   *accumulator* holding the least significant bits pushed over from the
   edges of *dominating* sibling subtrees.  Thin subtrees store their entry
   in full; the exceptional (last-ordered) subtree stores nothing.
4. **Fragment distance arrays** (Section 3.3): entries are stored relative
   to O(sqrt(log n)) fragment heads whose absolute root distances the label
   keeps explicitly, so a single entry (not a prefix sum) suffices to answer
   a query.
5. **Query** (Lemma 3.1 / Section 3.4): compute ``lightdepth(u, v)`` from the
   light codes, decide who dominates via the collapsed-tree postorder
   number, reconstruct the dominating side's critical entry from its
   truncated bits and the dominated side's accumulator, and finish with
   ``rd(u) + rd(v) - 2 rd(NCA)``.

Ablation switches (`use_fragments`, `use_accumulators`, `binarize`) let the
benchmarks quantify each ingredient's contribution to the label size (the
``freedman-no-*`` specs of README "Scheme specs").

Both encoders write one format, the store's payload layout: a label's
bits MSB-first, zero-padded to a byte, beside its bit length.
:meth:`FreedmanScheme.encode_stream` asks the selected kernel backend
first: on the native tier ``_kernels.c`` computes the whole chain above
from the tree's rows and writes every label in that layout, in runs of
whole labels, and the bit lengths and byte offsets of the store's index
beside them (a :class:`~repro.store.label_store.LabelRuns`), so a store
is built with no Python step per label.  :meth:`FreedmanScheme.encode`
returns that store as a read-only mapping of lazy labels
(:class:`~repro.store.label_store.StoredLabels`).  The python tier runs
:meth:`FreedmanScheme._python_encode_stream`, the reference those bytes
are held to.  It computes the shared structure once as rows indexed by
collapsed path id (light codewords, light-edge weights, fragment refs,
each hanging subtree's entry fields and accumulator prefix) and shares,
top-down, the levels of every collapsed path with children: one tuple of
field values per light edge.  Every label's own path is childless and
hangs off such a path, so a label's fields are its parent path's levels
plus its own, with no walk of its collapsed root path, and
:meth:`FreedmanLabel.write` serialises them into one word, the only
Python code that lays out a label; the word becomes the payload once.
Either way a label handed out is *lazy*: it holds only ``(bit_length,
payload)``, which :meth:`FreedmanLabel.packed` hands the store's payload
loop as it is, and the first read of a field parses the payload with
:meth:`FreedmanLabel.read` (the one parser) and drops it.  ``write`` and
``read`` are mirrors on the one :class:`~repro.encoding.bitio.BitWriter`
and :class:`~repro.encoding.bitio.BitReader`.
``tests/freedman_reference.py`` keeps the field-by-field encoder and codec
the differential tests compare with.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import BitReader, BitWriter, Bits
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.transform import prepare_for_leaf_queries
from repro.trees.tree import RootedTree

#: a hanging subtree is *thin* when it is at most 1/2^8 of the subtree rooted
#: at its branch node (Lemma 3.4)
THIN_FACTOR = 256

@dataclass
class FreedmanLabel(Label):
    """Label of one (original) node.

    All per-level lists are indexed by the light-edge index ``0 .. L-1``
    where ``L`` is the light depth of the node's pendant leaf in the
    transformed tree.  A label the encoder yields is only its serialised
    payload until the first read (or assignment) of a field parses it and
    drops it.
    """

    node_id: int
    root_distance: int
    domination: int
    codewords: list[Bits]
    light_weights: list[int]
    fragment_refs: list[int]
    fragment_distances: list[int]
    entry_skip: list[bool]
    entry_kept: list[Bits]
    entry_pushed: list[int]
    accumulators: list[Bits] = field(default_factory=list)

    #: ``(bit_length, payload)``, the serialised label in the store's
    #: payload layout, while no field has been read (an instance attribute
    #: then); ``None`` once it holds fields
    _packed = None

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: the fields of a
        # label that is still its payload, or was until another thread's
        # first read replaced it
        if name in _FIELD_NAMES:
            self._fields_from_packed()
            state = self.__dict__
            if name in state:
                return state[name]
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if "_packed" in self.__dict__:
            self._fields_from_packed()
        object.__setattr__(self, name, value)

    def _fields_from_packed(self) -> None:
        """Replace the payload, if still held, by its fields (fields first,
        so a reader in another thread always finds one of the two)."""
        state = self.__dict__
        packed = state.get("_packed")
        if packed is not None:
            length, payload = packed
            # the padding bits below the label are shifted out
            value = int.from_bytes(payload, "big") >> (-length & 7)
            state.update(FreedmanLabel.read(BitReader.from_word(value, length)).__dict__)
            state.pop("_packed", None)

    @property
    def light_depth(self) -> int:
        """Number of light edges on the pendant leaf's root path."""
        return len(self.codewords)

    # -- serialisation ------------------------------------------------------

    def to_bits(self) -> Bits:
        """Serialise the label: the encoder's payload as it is while the
        label holds one, else through :meth:`write`."""
        packed = self._packed
        if packed is None:
            return super().to_bits()
        return Bits.from_bytes(packed[1], packed[0])

    def bit_length(self) -> int:
        """Size of the serialised label in bits (no writer for a payload)."""
        packed = self._packed
        if packed is None:
            return super().bit_length()
        return packed[0]

    def packed(self) -> tuple[int, bytes]:
        """``(bit_length, payload)``: the encoder's pair as it is while the
        label holds it, else through :meth:`write`."""
        packed = self._packed
        if packed is None:
            return super().packed()
        return packed

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``: the mirror of :meth:`read`.

        Elias inputs must be non-negative, and each monotone sequence
        non-decreasing and non-negative; the writer raises ``ValueError``
        otherwise.
        """
        delta = writer.write_delta
        gamma = writer.write_gamma
        prefixed = writer.write_prefixed_bits
        delta(self.node_id)
        delta(self.root_distance)
        delta(self.domination)
        depth = len(self.codewords)
        gamma(depth)
        for bits in self.codewords:
            prefixed(bits)
        for weight in self.light_weights:
            gamma(weight)
        writer.write_monotone(self.fragment_refs)
        writer.write_monotone(self.fragment_distances)
        entry_skip = self.entry_skip
        entry_kept = self.entry_kept
        entry_pushed = self.entry_pushed
        for level in range(depth):
            if entry_skip[level]:
                writer.write_bit(1)
            else:
                writer.write_bit(0)
                prefixed(entry_kept[level])
                gamma(entry_pushed[level])
        accumulators = self.accumulators
        for level in range(depth):
            prefixed(accumulators[level])

    @classmethod
    def read(cls, reader: BitReader) -> "FreedmanLabel":
        """Parse one serialised label (the inverse of :meth:`write`).

        The field grammar: three delta-coded integers, the gamma-coded
        light depth, per level a length-prefixed codeword and a gamma light
        weight, the two Lemma 2.2 monotone sequences (read straight to
        lists), per level an entry (a skip bit, or the kept bits and a
        gamma pushed count), then per level an accumulator.  A truncated
        label raises :class:`BitError`; a decreasing monotone sequence
        raises ``ValueError``, as the C decoder's fallback does.
        """
        delta = reader.read_delta
        gamma = reader.read_gamma
        prefixed = reader.read_prefixed_bits
        node_id = delta()
        root_distance = delta()
        domination = delta()
        depth = gamma()
        codewords = [prefixed() for _ in range(depth)]
        light_weights = [gamma() for _ in range(depth)]
        fragment_refs = reader.read_monotone()
        fragment_distances = reader.read_monotone()
        entry_skip: list[bool] = []
        entry_kept: list[Bits] = []
        entry_pushed: list[int] = []
        read_bit = reader.read_bit
        for _ in range(depth):
            if read_bit():
                entry_skip.append(True)
                entry_kept.append(_EMPTY)
                entry_pushed.append(0)
            else:
                entry_skip.append(False)
                entry_kept.append(prefixed())
                entry_pushed.append(gamma())
        accumulators = [prefixed() for _ in range(depth)]
        # filled in place: the constructor routes fields through ``__setattr__``
        label = _new_label(cls)
        label.__dict__.update(
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
        return label

    def distance_array_bits(self) -> int:
        """Bits of the *modified distance array* (Section 3.2 core term).

        This is the quantity whose leading term the paper reduces from
        ``1/2 log² n`` to ``1/4 log² n``: the truncated distances plus the
        accumulators a label carries.  The benchmarks report it alongside
        the full label size because at practical ``n`` the lower-order terms
        (fragment arrays, light codes, length headers) dominate the total.
        """
        kept = sum(len(bits) for bits in self.entry_kept)
        accumulated = sum(len(bits) for bits in self.accumulators)
        return kept + accumulated

    def field_breakdown(self) -> dict[str, int]:
        """Bits used by each label component, measured on the writer."""

        def size(write, values) -> int:
            writer = BitWriter()
            for value in values:
                write(writer, value)
            return len(writer)

        identity = (self.node_id, self.root_distance, self.domination)
        fragments = (self.fragment_refs, self.fragment_distances)
        parts = {
            "identity": size(BitWriter.write_delta, identity),
            "light_code": size(BitWriter.write_prefixed_bits, self.codewords),
            "light_weights": size(BitWriter.write_gamma, self.light_weights),
            "fragments": size(BitWriter.write_monotone, fragments),
            "truncated_distances": sum(len(bits) for bits in self.entry_kept),
            "accumulators": sum(len(bits) for bits in self.accumulators),
        }
        parts["entry_headers"] = self.bit_length() - sum(parts.values())
        return parts


_FIELD_NAMES = frozenset(item.name for item in fields(FreedmanLabel))

#: the fields that hold one value per light edge, in :meth:`FreedmanLabel.write` order
_LEVEL_FIELDS = (
    "codewords", "light_weights", "fragment_refs", "entry_skip", "entry_kept",
    "entry_pushed", "accumulators",
)

_new_label = object.__new__

#: sets an attribute of a fresh label past ``FreedmanLabel.__setattr__``
#: (and without materialising the instance ``__dict__``)
_hold = object.__setattr__

_EMPTY = Bits._pack(0, 0)


def _unread(length: int, payload: bytes) -> FreedmanLabel:
    """A lazy label: the serialised ``(bit_length, payload)`` pair alone."""
    label = _new_label(FreedmanLabel)
    _hold(label, "_packed", (length, payload))
    return label


class FreedmanScheme(DistanceLabelingScheme):
    """The 1/4 log² n + o(log² n) exact distance labeling scheme."""

    name = "freedman"
    label_type = FreedmanLabel

    def __init__(
        self,
        binarize: bool = True,
        use_fragments: bool = True,
        use_accumulators: bool = True,
    ) -> None:
        self._binarize = binarize
        self._use_fragments = use_fragments
        self._use_accumulators = use_accumulators
        #: statistics of the most recent :meth:`encode` call (for ablations)
        self.encoding_stats: dict[str, int] = {}

    def params(self) -> dict:
        return {
            "binarize": self._binarize,
            "use_fragments": self._use_fragments,
            "use_accumulators": self._use_accumulators,
        }

    # -- encoding ------------------------------------------------------------

    def encode(self, tree: RootedTree) -> Mapping[int, FreedmanLabel]:
        """Every node's label, as a read-only mapping over their store.

        The labels are encoded into a :class:`~repro.store.LabelStore`
        (:meth:`~repro.store.LabelStore.encode_tree`), and a label is made,
        lazy, on its first access; ``LabelStore.from_labels`` returns the
        store as it is while none has been.
        """
        from repro.store.label_store import LabelStore, StoredLabels

        return StoredLabels(LabelStore.encode_tree(self, tree), _unread)

    def encode_stream(self, tree: RootedTree):
        """Each original node's label in node order.

        The selected kernel backend encodes first, as on the query path:
        the native tier's C encoder writes every label from the tree's
        rows in runs of whole labels, returned as a
        :class:`~repro.store.label_store.LabelRuns` that the store's
        payload loop (:func:`repro.store.label_store.pack_labels`) takes
        run by run, and that yields lazy labels when iterated.  The python
        tier (and a subclass of this scheme) runs
        :meth:`_python_encode_stream`, the reference the C encoder is held
        to.  Either way the full label dict is never materialised.
        """
        from repro import kernels
        from repro.store.label_store import LabelRuns

        encoded = kernels.backend().encode_freedman(self, tree)
        if encoded is None:
            return self._python_encode_stream(tree)
        self.encoding_stats, lengths, offsets, drain = encoded
        return LabelRuns(lengths, offsets, drain, _unread)

    def _python_encode_stream(self, tree: RootedTree):
        """The Python encoder: every label of ``tree``, in node order.

        Section 3's shared structure is computed once, as rows indexed by
        collapsed path id: light codewords and light-edge weights, the
        fragment rows of :meth:`_compute_fragments` and the entry rows of
        :meth:`_compute_entries`.  A path's *level* is its own value of
        every field that holds one per light edge; a label's levels are
        its own collapsed path's parent's plus its own path's, so they are
        shared top-down by every collapsed path with children.  A label is
        its three identity fields, its levels and its fragment distances,
        serialised by :meth:`FreedmanLabel.write`.
        """
        transform = prepare_for_leaf_queries(tree, binarize_tree=self._binarize)
        working = transform.tree
        decomposition = HeavyPathDecomposition(working)
        collapsed = CollapsedTree(decomposition)
        light = LightDepthLabeling(working, collapsed)
        codeword_value, codeword_length = light.codeword_value, light.codeword_length
        light_weight = array("q", map(working._weights.__getitem__, collapsed._head))
        head_distance = array("q", map(working._root_distance.__getitem__, collapsed._head))
        boundaries, fragment_ref, entry_value = self._compute_fragments(
            working, collapsed, head_distance
        )
        skip, kept_value, kept_length, pushed, prefixes = self._compute_entries(
            working, collapsed, entry_value
        )
        del entry_value

        # only these rows are read from here on: dropping the trees behind
        # them keeps the generator from holding them for the whole stream
        query_node = transform.query_node
        path_of = decomposition._path_of
        root_distance = working._root_distance
        collapsed_parent = collapsed._parent
        child_start = collapsed._child_start
        domination_number = collapsed._postorder_number
        root_path = collapsed.root
        del transform, working, decomposition, collapsed, light

        def level(path: int) -> tuple:
            """``path``'s own value of each field in ``_LEVEL_FIELDS``."""
            return (
                Bits._pack(codeword_value[path], codeword_length[path]),
                light_weight[path],
                fragment_ref[path],
                bool(skip[path]),
                Bits._pack(kept_value[path], kept_length[path]),
                pushed[path],
                prefixes.get(path, _EMPTY),
            )

        # the levels of the root path and of every path with children: a
        # label's own path is childless (its pendant leaf is its own path,
        # or the tail of a two-node path whose head is an original leaf), so
        # its levels are built when it is emitted; a parent path's id is
        # below its children's, so id order is top-down
        states: list = [None] * len(collapsed_parent)
        states[root_path] = ()
        for path in range(len(states)):
            if path != root_path and child_start[path] != child_start[path + 1]:
                states[path] = states[collapsed_parent[path]] + (level(path),)

        # one label holding fields, refilled per node and never yielded
        staged = _new_label(FreedmanLabel)
        state = staged.__dict__
        for original in range(tree.n):
            leaf = query_node[original]
            own_path = path_of[leaf]
            levels = states[own_path]
            distances = boundaries[own_path]
            if levels is None:
                parent = collapsed_parent[own_path]
                levels = states[parent] + (level(own_path),)
                # a path without children: its parent's boundaries, then
                # its own head distance once per boundary it added
                distances = boundaries[parent]
                added = fragment_ref[own_path] + 1 - len(distances)
                if added:
                    distances += (head_distance[own_path],) * added
            columns = zip(*levels) if levels else ((),) * len(_LEVEL_FIELDS)
            state.update(
                zip(_LEVEL_FIELDS, columns),
                node_id=original,
                root_distance=root_distance[leaf],
                domination=domination_number[own_path],
                fragment_distances=distances,
            )
            writer = BitWriter()
            staged.write(writer)
            yield _unread(*writer.packed())

    def _compute_fragments(
        self, working: RootedTree, collapsed: CollapsedTree, head_distance: "array"
    ) -> tuple[list, "array", "array"]:
        """Fragment boundaries along every collapsed root path (Section 3.3).

        Rows are indexed by collapsed path id: ``boundaries`` is a list of
        (widely shared) boundary tuples, ``fragment_ref`` and
        ``entry_value`` are packed arrays — a dict entry per path costs an
        order of magnitude more, which the 10⁷-node streaming builds of
        :mod:`repro.scale` cannot afford.  A path's boundaries are its
        parent's, extended by its own head distance while its head's
        subtree is small enough; only the root path and paths with
        children keep their tuple (``None`` elsewhere): a childless path's
        is rebuilt from its parent's and ``fragment_ref`` when its label is
        emitted, so one per pendant leaf is never held at once.
        ``head_distance`` is the root distance of every path's head.
        """
        n = working.n
        block = max(1, math.ceil(math.sqrt(max(1.0, math.log2(max(n, 2))))))

        path_count = len(collapsed)
        boundaries: list = [None] * path_count
        fragment_ref = array("i", bytes(4 * path_count))
        entry_value = array("q", bytes(8 * path_count))
        parent_row = collapsed._parent
        child_start = collapsed._child_start
        head_size = array("i", map(working._subtree_size.__getitem__, collapsed._head))
        use_fragments = self._use_fragments

        root_path = collapsed.root
        boundaries[root_path] = (head_distance[root_path],)
        # a parent path's id is below its children's (the decomposition
        # numbers a path after the walk of its parent path pushed its head),
        # so id order is top-down
        for path in range(path_count):
            if path == root_path:
                continue
            blist = boundaries[parent_row[path]]
            count = len(blist)
            if use_fragments:
                size = head_size[path]
                while size << count * block <= n:
                    count += 1
            fragment_ref[path] = count - 1
            added = count - len(blist)
            has_children = child_start[path] != child_start[path + 1]
            if not added:
                entry_value[path] = head_distance[path] - blist[-1]
            elif has_children:
                # the entry is 0: the head is its own last boundary
                blist += (head_distance[path],) * added
            if has_children:
                boundaries[path] = blist
        return boundaries, fragment_ref, entry_value

    def _compute_entries(self, working: RootedTree, collapsed: CollapsedTree, entry_value):
        """Per hanging subtree: its entry's fields and accumulator prefix.

        Rows indexed by collapsed path id: ``skip`` marks the exceptional
        (last-ordered) child, whose entry is skipped; otherwise the entry
        keeps the top ``kept_length`` bits of its value, ``kept_value``,
        and pushes its ``pushed`` low bits to the parent path's
        accumulator.  ``prefixes`` maps a child whose dominating siblings
        pushed bits before its turn to those bits, its accumulator.
        """
        path_count = len(collapsed)
        skip = bytearray(path_count)
        kept_value = array("q", bytes(8 * path_count))
        kept_length = bytearray(path_count)
        pushed_row = bytearray(path_count)
        prefixes: dict = {}
        total_pushed = fat = thin = 0
        start, data = collapsed._child_start, collapsed._child_data
        heads, branches = collapsed._head, collapsed._branch_node
        size = working._subtree_size
        use_accumulators = self._use_accumulators

        for parent_path in range(path_count):
            first, last = start[parent_path], start[parent_path + 1] - 1
            if last < first:
                continue
            accumulated = 0
            accumulated_bits = 0
            for index in range(first, last + 1):
                child = data[index]
                if accumulated_bits:
                    prefixes[child] = Bits._pack(accumulated, accumulated_bits)
                if index == last:
                    # the last (exceptional) child's entry is skipped
                    skip[child] = 1
                    break
                value = entry_value[child]
                full_bits = value.bit_length()
                hanging_size = size[heads[child]]
                branch_size = size[branches[child]]
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
                kept_value[child] = value >> pushed
                kept_length[child] = length
                pushed_row[child] = pushed
                if pushed:
                    accumulated = accumulated << pushed | value & ((1 << pushed) - 1)
                    accumulated_bits += pushed
                    total_pushed += pushed

        self.encoding_stats = {
            "pushed_bits": total_pushed,
            "fat_subtrees": fat,
            "thin_subtrees": thin,
            "skipped_entries": skip.count(1),
        }
        return skip, kept_value, kept_length, pushed_row, prefixes

    # -- decoding ------------------------------------------------------------

    def distance(self, label_u: FreedmanLabel, label_v: FreedmanLabel) -> int:
        if label_u.node_id == label_v.node_id:
            return 0
        level = common_codeword_prefix(label_u.codewords, label_v.codewords)
        if label_u.domination < label_v.domination:
            dominating, dominated = label_u, label_v
        else:
            dominating, dominated = label_v, label_u
        if level >= dominating.light_depth or level >= dominated.light_depth:
            raise ValueError(
                "labels are inconsistent: the critical level is missing "
                "(were they produced by the same encoding?)"
            )
        if dominating.entry_skip[level]:
            raise ValueError(
                "labels are inconsistent: the dominating side's entry was skipped"
            )
        value = dominating.entry_kept[level].to_int()
        pushed = dominating.entry_pushed[level]
        if pushed:
            start = len(dominating.accumulators[level])
            segment = dominated.accumulators[level][start : start + pushed]
            if len(segment) != pushed:
                raise ValueError(
                    "labels are inconsistent: accumulator is shorter than expected"
                )
            value = (value << pushed) | segment.to_int()
        refs, distances = dominating.fragment_refs, dominating.fragment_distances
        if level >= len(refs) or not 0 <= refs[level] < len(distances):
            raise ValueError("labels are inconsistent: the fragment ref is out of range")
        nca_distance = distances[refs[level]] + value - dominating.light_weights[level]
        return (
            label_u.root_distance + label_v.root_distance - 2 * nca_distance
        )
