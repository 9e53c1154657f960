"""Heavy-path distance labels with fixed-width fields (Section 3.1 framework).

The label of ``u`` stores, for every heavy path on its root path, the
preorder number of the path's head (a path identifier) and the weighted root
distance of the node where ``u``'s path leaves it (its *exit*: the branch
node of the next path, or ``u`` itself on its own path), both read from
the one root-path walk
:meth:`~repro.trees.collapsed.CollapsedTree.root_path_levels`.  Given two
labels the decoder finds the deepest common heavy path ``t`` and applies

    rd(NCA(u, v)) = min(exit_u[t], exit_v[t]),
    d(u, v)       = rd(u) + rd(v) - 2 rd(NCA(u, v)).

Every field is stored with a fixed width of ``ceil(log2 n)`` /
``ceil(log2 (max distance + 1))`` bits, so the label size is about
``2 log² n`` — this is the framework of Section 3.1 *before* any of the
paper's size optimisations, and serves as the reference point in the
label-size benchmarks.

Because the fields are fixed-width, a parsed label keeps them *packed*: the
path identifiers live in one integer (level 0 at the least significant
field) and the exits in another.  The decoder finds the deepest common
heavy path with one XOR and one lowest-set-bit instead of walking two
Python lists, and :meth:`HLDLabel.read` reads all level pairs as one
integer and splits it with shifts.
"""

from __future__ import annotations

from repro.core.base import DistanceLabelingScheme, Label
from repro.encoding.bitio import BitError, BitReader, BitWriter
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


class HLDLabel(Label):
    """Fixed-width heavy-path label.

    ``path_ids``/``exits`` are exposed as lists (level 0 first) for
    inspection and encoding; internally both sequences are packed into
    single integers, which is what the decoder operates on.
    """

    __slots__ = (
        "root_distance",
        "id_width",
        "distance_width",
        "_count",
        "_sig",
        "_exits_packed",
        "_path_ids",
        "_exits",
    )

    def __init__(
        self,
        root_distance: int,
        path_ids: list[int],
        exits: list[int],
        id_width: int,
        distance_width: int,
    ) -> None:
        self.root_distance = root_distance
        self.id_width = id_width
        self.distance_width = distance_width
        self._path_ids = list(path_ids)
        self._exits = list(exits)
        self._count = len(self._path_ids)
        sig = 0
        for level, path_id in enumerate(self._path_ids):
            if path_id >> id_width or path_id < 0:
                raise BitError(f"value {path_id} does not fit in {id_width} bits")
            sig |= path_id << (level * id_width)
        packed = 0
        for level, exit_distance in enumerate(self._exits):
            if exit_distance >> distance_width or exit_distance < 0:
                raise BitError(
                    f"value {exit_distance} does not fit in {distance_width} bits"
                )
            packed |= exit_distance << (level * distance_width)
        self._sig = sig
        self._exits_packed = packed

    @property
    def path_ids(self) -> list[int]:
        """Per-level heavy-path identifiers (unpacked on demand)."""
        if self._path_ids is None:
            width, mask = self.id_width, (1 << self.id_width) - 1
            sig = self._sig
            self._path_ids = [
                (sig >> (level * width)) & mask for level in range(self._count)
            ]
        return self._path_ids

    @property
    def exits(self) -> list[int]:
        """Per-level exit distances (unpacked on demand)."""
        if self._exits is None:
            width, mask = self.distance_width, (1 << self.distance_width) - 1
            packed = self._exits_packed
            self._exits = [
                (packed >> (level * width)) & mask for level in range(self._count)
            ]
        return self._exits

    def __eq__(self, other) -> bool:
        if isinstance(other, HLDLabel):
            return (
                self.root_distance == other.root_distance
                and self.id_width == other.id_width
                and self.distance_width == other.distance_width
                and self._count == other._count
                and self._sig == other._sig
                and self._exits_packed == other._exits_packed
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HLDLabel(root_distance={self.root_distance}, "
            f"path_ids={self.path_ids}, exits={self.exits}, "
            f"id_width={self.id_width}, distance_width={self.distance_width})"
        )

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_gamma(self.id_width)
        writer.write_gamma(self.distance_width)
        writer.write_gamma(self._count)
        writer.write_int(self.root_distance, self.distance_width)
        # emit the packed fields level by level, root (level 0) first
        id_width, distance_width = self.id_width, self.distance_width
        id_mask = (1 << id_width) - 1
        distance_mask = (1 << distance_width) - 1
        sig, exits_packed = self._sig, self._exits_packed
        for level in range(self._count):
            writer.write_int((sig >> (level * id_width)) & id_mask, id_width)
            writer.write_int(
                (exits_packed >> (level * distance_width)) & distance_mask,
                distance_width,
            )

    @classmethod
    def read(cls, reader: BitReader) -> "HLDLabel":
        """Parse one serialised label (the inverse of :meth:`write`).

        Three gamma codes (``id_width``, ``distance_width``, level count),
        then the root distance and the fixed-width ``(path id, exit)``
        pairs, all read as one integer and repacked level 0 lowest.
        """
        gamma = reader.read_gamma
        id_width = gamma()
        distance_width = gamma()
        count = gamma()
        pair_width = id_width + distance_width
        if count and not pair_width:
            # levels of no bits: nothing bounds ``count`` by the label size
            raise BitError("zero-width label levels")
        shift = count * pair_width
        tail = reader.read_int(distance_width + shift)
        root_distance = tail >> shift
        id_mask = (1 << id_width) - 1
        distance_mask = (1 << distance_width) - 1
        sig = exits_packed = id_shift = distance_shift = 0
        for _ in range(count):
            shift -= pair_width
            pair = tail >> shift
            sig |= ((pair >> distance_width) & id_mask) << id_shift
            exits_packed |= (pair & distance_mask) << distance_shift
            id_shift += id_width
            distance_shift += distance_width
        # fields stay packed; the lists are unpacked on demand
        label = object.__new__(cls)
        label.root_distance = root_distance
        label.id_width = id_width
        label.distance_width = distance_width
        label._count = count
        label._sig = sig
        label._exits_packed = exits_packed
        label._path_ids = None
        label._exits = None
        return label


class HLDScheme(DistanceLabelingScheme):
    """Fixed-width heavy-path labels (the unoptimised Section 3.1 framework)."""

    name = "hld-fixed"
    label_type = HLDLabel

    def __init__(self) -> None:
        # ``query`` is definitionally ``distance`` for exact schemes, so
        # when neither hook is overridden, binding the bound method as an
        # instance attribute saves the base class's dispatch frame on the
        # engine's per-pair hot loop; any subclass overriding either hook
        # keeps the normal class-level dispatch
        if (
            type(self).query is DistanceLabelingScheme.query
            and type(self).distance is HLDScheme.distance
        ):
            self.query = self.distance

    def encode(self, tree: RootedTree) -> dict[int, HLDLabel]:
        return dict(enumerate(self.encode_stream(tree)))

    def encode_stream(self, tree: RootedTree):
        """Yield each node's label in node order, one at a time.

        The decomposition/collapsed-tree precompute is shared; each label
        is an independent assembly over the node's root-path levels, so
        the store's payload loop (:func:`repro.store.label_store.pack_labels`)
        holds one label at a time instead of the whole ``dict``.
        """
        collapsed = CollapsedTree(HeavyPathDecomposition(tree))
        id_width = max(1, (tree.n - 1).bit_length())
        max_distance = max(tree.root_distance(v) for v in tree.nodes())
        distance_width = max(1, max_distance.bit_length())

        for node in tree.nodes():
            levels = collapsed.root_path_levels(node)
            yield HLDLabel(
                root_distance=tree.root_distance(node),
                path_ids=[tree.preorder_index(collapsed.head(path)) for path, _ in levels],
                exits=[tree.root_distance(exit_node) for _, exit_node in levels],
                id_width=id_width,
                distance_width=distance_width,
            )

    def distance(self, label_u: HLDLabel, label_v: HLDLabel) -> int:
        id_width = label_u.id_width
        distance_width = label_u.distance_width
        if (
            id_width != label_v.id_width
            or distance_width != label_v.distance_width
        ):
            return self._distance_unpacked(label_u, label_v)
        # Deepest common heavy path: the lowest differing packed field.  A
        # path id is 0 only at level 0 (the root's preorder number), so when
        # the XOR is zero the shorter sequence is a prefix of the longer.
        diff = label_u._sig ^ label_v._sig
        if diff:
            deepest_common = ((diff & -diff).bit_length() - 1) // id_width - 1
            if deepest_common < 0:
                raise ValueError("labels do not come from the same tree")
        else:
            count_u, count_v = label_u._count, label_v._count
            deepest_common = (count_u if count_u < count_v else count_v) - 1
            if deepest_common < 0:
                raise ValueError("labels do not come from the same tree")
        shift = deepest_common * distance_width
        mask = (1 << distance_width) - 1
        exit_u = (label_u._exits_packed >> shift) & mask
        exit_v = (label_v._exits_packed >> shift) & mask
        nca_distance = exit_u if exit_u < exit_v else exit_v
        return label_u.root_distance + label_v.root_distance - 2 * nca_distance

    @staticmethod
    def _distance_unpacked(label_u: HLDLabel, label_v: HLDLabel) -> int:
        """Field-by-field fallback for labels with differing widths."""
        deepest_common = -1
        for index, (a, b) in enumerate(zip(label_u.path_ids, label_v.path_ids)):
            if a != b:
                break
            deepest_common = index
        if deepest_common < 0:
            raise ValueError("labels do not come from the same tree")
        nca_distance = min(label_u.exits[deepest_common], label_v.exits[deepest_common])
        return label_u.root_distance + label_v.root_distance - 2 * nca_distance
