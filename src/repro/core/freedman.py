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

Encoding is word-level, and on the native kernel tier it runs in C.
:meth:`FreedmanScheme.encode_stream` asks the selected kernel backend
first: ``_kernels.c`` computes the whole chain above from the tree's rows
and writes every label's bits, in chunks of whole labels, each as the
big-endian bytes of its word (the label behind a leading ``1`` bit).  The
python tier runs :meth:`FreedmanScheme._python_encode_stream`, the
reference those bytes are held to.  It computes the shared structure once
as integer rows indexed by collapsed path id (light codewords, light-edge
weights, fragment refs, each hanging subtree's entry already serialised,
one accumulator per parent path).  From them it builds, top-down, the
field groups of every collapsed path with children: one per field that
holds a value per level (codewords, light-edge weights, entries,
accumulator prefixes, and the code of the fragment refs, memoised per
distinct sequence).  Every label's own path is childless and hangs off
such a path, so each label is shifted straight into one integer from its
parent path's groups plus one level, with no walk of its collapsed root
path.  Either way the label yielded is *lazy*: it holds only that word,
which :meth:`FreedmanLabel.to_bits` packs as it is, and the first read of
a field parses the word with :meth:`FreedmanLabel.read` (the one parser)
and drops it.  A label built from fields (or read once) is serialised by
:meth:`FreedmanLabel.write`, the mirror of ``read``, on the one
:class:`~repro.encoding.bitio.BitWriter`; the encoder shifts its two
monotone sequences with the writer's own
:func:`~repro.encoding.bitio.append_monotone`.
``tests/freedman_reference.py`` keeps the field-by-field encoder and codec
the differential tests compare with.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import GAMMA_WIDTH, BitReader, BitWriter, Bits, append_monotone
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
    transformed tree.  A label the encoder yields is only its word until
    the first read (or assignment) of a field parses it and drops it.
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

    #: the serialised label behind a leading ``1`` bit while no field has
    #: been read (an instance attribute then); ``None`` once it holds fields
    _word = None

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks: the fields of a
        # label that is still its word, or was until another thread's
        # first read replaced it
        if name in _FIELD_NAMES:
            self._fields_from_word()
            state = self.__dict__
            if name in state:
                return state[name]
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        if "_word" in self.__dict__:
            self._fields_from_word()
        object.__setattr__(self, name, value)

    def _fields_from_word(self) -> None:
        """Replace the word, if still held, by its fields (fields first, so a
        reader in another thread always finds one of the two)."""
        state = self.__dict__
        word = state.get("_word")
        if word is not None:
            # the reader never looks above ``length``: the sentinel stays
            reader = BitReader.from_word(word, word.bit_length() - 1)
            state.update(FreedmanLabel.read(reader).__dict__)
            state.pop("_word", None)

    @property
    def light_depth(self) -> int:
        """Number of light edges on the pendant leaf's root path."""
        return len(self.codewords)

    # -- serialisation ------------------------------------------------------

    def to_bits(self) -> Bits:
        """Serialise the label: the encoder's word as it is while the label
        holds one, else through :meth:`write`."""
        word = self._word
        if word is None:
            return super().to_bits()
        length = word.bit_length() - 1
        return Bits._pack(word ^ (1 << length), length)

    def bit_length(self) -> int:
        """Size of the serialised label in bits (no writer for a word)."""
        word = self._word
        if word is None:
            return super().bit_length()
        return word.bit_length() - 1

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

_new_label = object.__new__

_EMPTY = Bits._pack(0, 0)


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

    def encode(self, tree: RootedTree) -> dict[int, FreedmanLabel]:
        return dict(enumerate(self.encode_stream(tree)))

    def encode_stream(self, tree: RootedTree):
        """Yield each original node's label in node order, one at a time.

        The selected kernel backend encodes first, as on the query path:
        the native tier's C encoder writes every label's bits from the
        tree's rows, in chunks of whole labels, and each label yielded is
        the lazy word read from its bytes.  The python tier (and a subclass
        of this scheme) runs :meth:`_python_encode_stream`, the reference
        the C encoder is held to.  Either way the store's payload loop
        (:func:`repro.store.label_store.pack_labels`) never materialises
        the full label dict.
        """
        from repro import kernels

        encoded = kernels.backend().encode_freedman(self, tree)
        if encoded is None:
            yield from self._python_encode_stream(tree)
            return
        self.encoding_stats, chunks = encoded
        from_bytes = int.from_bytes
        for buffer, ends in chunks:
            start = 0
            for end in ends:
                label = _new_label(FreedmanLabel)
                label.__dict__["_word"] = from_bytes(buffer[start:end], "big")
                start = end
                yield label

    def _python_encode_stream(self, tree: RootedTree):
        """The Python encoder: every label of ``tree``, in node order.

        Section 3's shared structure is computed once, as integer rows
        indexed by collapsed path id.  Every label's levels are those of its
        own collapsed path's parent plus one, so the field groups (light
        codewords, light-edge weights, the code of the fragment refs,
        entries and accumulator prefixes, each behind a leading ``1`` bit)
        are built once per collapsed path with children, top-down.  A label
        is then its three identity fields, its parent path's groups each
        extended by its own path's level, and the fragment distances,
        shifted into its word in :meth:`FreedmanLabel.write` order.
        """
        transform = prepare_for_leaf_queries(tree, binarize_tree=self._binarize)
        working = transform.tree
        decomposition = HeavyPathDecomposition(working, variant="paper")
        collapsed = CollapsedTree(decomposition)
        light = LightDepthLabeling(working, collapsed)
        codeword_value = light.codeword_value
        codeword_length = light.codeword_length
        head_distance = array("q", map(working._root_distance.__getitem__, collapsed._head))
        boundaries, fragment_ref, entry_value = self._compute_fragments(
            working, collapsed, head_distance
        )
        entry_segment, entry_width, prefix_length, accumulator = self._compute_entries(
            working, collapsed, entry_value
        )
        del entry_value
        # the gamma code of the light-edge weight into every path
        light_weights = map(working._weights.__getitem__, collapsed._head)
        weight_code = array("Q", map((1).__add__, light_weights))
        weight_width = array("B", (2 * code.bit_length() - 1 for code in weight_code))

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

        table = GAMMA_WIDTH
        limit = len(table)
        # the monotone code of each distinct fragment refs sequence, behind
        # a leading ``1`` bit: its sequence, and the code one ref longer
        no_refs = append_monotone(1, ())
        refs_sequence = {no_refs: ()}
        refs_extended: dict = {}

        def extend(state: tuple, path: int) -> tuple:
            """The field groups of ``path``: its parent path's ``state``
            plus one level."""
            depth, codewords, weights, refs, entries, acc = state
            length = codeword_length[path]
            codeword = (length + 1) << length | codeword_value[path]
            codewords = codewords << table[length] + length | codeword
            weights = weights << weight_width[path] | weight_code[path]
            ref = fragment_ref[path]
            extended = refs_extended.get((refs, ref))
            if extended is None:
                sequence = refs_sequence[refs] + (ref,)
                extended = refs_extended[refs, ref] = append_monotone(1, sequence)
                refs_sequence[extended] = sequence
            refs = extended
            entries = entries << entry_width[path] | entry_segment[path]
            length = prefix_length[path]
            if length:
                value, total = accumulator[collapsed_parent[path]]
                code = table[length] if length < limit else 2 * (length + 1).bit_length() - 1
                acc = ((acc << code | length + 1) << length) | value >> total - length
            else:
                acc = acc << 1 | 1
            return depth + 1, codewords, weights, refs, entries, acc

        # held only for the root path and paths with children: a label's
        # own path is childless (its pendant leaf is its own path, or the
        # tail of a two-node path whose head is an original leaf), so its
        # groups are built when it is emitted; a parent path's id is below
        # its children's, so id order is top-down
        path_count = len(collapsed_parent)
        states: list = [None] * path_count
        states[root_path] = (0, 1, 1, no_refs, 1, 1)
        # few paths differ in their weight and accumulator groups: one
        # shared object per value
        share = {}.setdefault
        for path in range(path_count):
            if path != root_path and child_start[path] != child_start[path + 1]:
                depth, codewords, weights, refs, entries, acc = extend(
                    states[collapsed_parent[path]], path
                )
                weights = share(weights, weights)
                states[path] = depth, codewords, weights, refs, entries, share(acc, acc)

        for original in range(tree.n):
            leaf = query_node[original]
            own_path = path_of[leaf]
            word = 1
            for value in (original, root_distance[leaf], domination_number[own_path]):
                # Elias delta: gamma(width), then the low ``width`` bits
                shifted = value + 1
                width = shifted.bit_length() - 1
                word = ((word << table[width] | width + 1) << width) | (shifted ^ (1 << width))
            state = states[own_path]
            distances = boundaries[own_path]
            if state is None:
                parent = collapsed_parent[own_path]
                state = extend(states[parent], own_path)
                # a path without children: its parent's boundaries, then
                # its own head distance once per boundary it added
                distances = boundaries[parent]
                added = fragment_ref[own_path] + 1 - len(distances)
                if added:
                    distances += (head_distance[own_path],) * added
            depth, codewords, weights, refs, entries, acc = state
            word = word << table[depth] | depth + 1
            for group in (codewords, weights, refs):
                width = group.bit_length() - 1
                word = word << width | group ^ 1 << width
            word = append_monotone(word, distances)
            for group in (entries, acc):
                width = group.bit_length() - 1
                word = word << width | group ^ 1 << width
            label = _new_label(FreedmanLabel)
            label.__dict__["_word"] = word
            yield label

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

    def _compute_entries(
        self,
        working: RootedTree,
        collapsed: CollapsedTree,
        entry_value,
    ) -> tuple:
        """Per hanging subtree: its serialised entry and accumulator prefix.

        Rows indexed by collapsed path id.  ``segment``/``width`` is the
        entry as serialised: the bit ``1`` for the skipped exceptional
        child, else a ``0`` bit, the gamma-coded kept length, the kept bits
        and the gamma-coded pushed count (an ``array('Q')``, or a list once
        some entry is wider than 64 bits).  ``accumulator`` maps a parent
        path that received pushed bits to its *full* accumulator
        ``(value, length)``; a child's prefix (what its dominating siblings
        pushed before its turn) is its top ``prefix_length[child]`` bits.
        """
        path_count = len(collapsed)
        segment = array("Q", bytes(8 * path_count))
        # a skipped entry is the single bit 1
        width = array("B", [1]) * path_count
        prefix_length = array("i", bytes(4 * path_count))
        accumulator: dict = {}
        total_pushed = 0
        fat = 0
        thin = 0
        skipped = 0
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
            for index in range(first, last):
                child = data[index]
                prefix_length[child] = accumulated_bits
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
                # flag bit 0, gamma(length), the kept bits, gamma(pushed)
                pushed_width = GAMMA_WIDTH[pushed]
                bits = 1 + GAMMA_WIDTH[length] + length + pushed_width
                if bits > 64 and not isinstance(segment, list):
                    segment = segment.tolist()
                segment[child] = (
                    ((length + 1) << length | value >> pushed) << pushed_width
                ) | pushed + 1
                width[child] = bits
                if pushed:
                    accumulated = accumulated << pushed | value & ((1 << pushed) - 1)
                    accumulated_bits += pushed
                    total_pushed += pushed
            # the last (exceptional) child's entry is skipped
            child = data[last]
            prefix_length[child] = accumulated_bits
            segment[child] = 1
            skipped += 1
            if accumulated_bits:
                accumulator[parent_path] = (accumulated, accumulated_bits)

        self.encoding_stats = {
            "pushed_bits": total_pushed,
            "fat_subtrees": fat,
            "thin_subtrees": thin,
            "skipped_entries": skipped,
        }
        return segment, width, prefix_length, accumulator

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
        reference = dominating.fragment_distances[dominating.fragment_refs[level]]
        nca_distance = reference + value - dominating.light_weights[level]
        return (
            label_u.root_distance + label_v.root_distance - 2 * nca_distance
        )
