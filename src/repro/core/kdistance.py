"""k-distance labeling (Section 4, Theorem 1.3 upper bound).

Given the labels of ``u`` and ``v`` the decoder reports ``d(u, v)`` when it
is at most ``k`` and "further than k" (``None``) otherwise.

Label contents (Section 4.3), per node ``u``:

* ``pre(u)`` (preorder number with the heavy child visited last) and
  ``lightdepth(u)``;
* for the significant ancestors ``u_0 = u, u_1, ..., u_r`` within distance
  ``k``: the trie heights of their light ranges ``L`` (from which the range
  identifiers ``id(L)`` of Observation 4.2 are recomputed out of ``pre(u)``),
  and the distances ``d(u, u_i)`` — both monotone sequences stored with
  Lemma 2.2;
* ``alpha``: the distance from the top significant ancestor to the head of
  its heavy path, capped at ``2k + 1`` in the compact (``k < log n``) regime
  and stored exactly in the simple (``k >= log n``) regime;
* in the compact regime, the Lemma 4.5 machinery for the top heavy path:
  the top ancestor's position modulo ``k`` and the forward/backward
  2-approximation tables of the id differences along the path.

Implementation additions beyond Section 4 (asymptotically free): the label
also stores the light-range height of *one* significant ancestor beyond the
distance cutoff and the trie heights of the child-subtree ranges along the
chain.  They let the decoder distinguish every query configuration
(same-child vs different-child at the nearest common significant ancestor,
the mixed top cases, and the "no common significant ancestor" case) without
any information the paper's labels do not already determine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.base import BoundedDistanceLabelingScheme, Label
from repro.encoding.bitio import BitReader, BitWriter
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree

COMPACT = "compact"
SIMPLE = "simple"
AUTO = "auto"


def range_height(low: int, high: int) -> int:
    """Height of the lowest binary-trie node covering ``[low, high]``."""
    if low == high:
        return 0
    return (low ^ high).bit_length()


def range_identifier(member: int, height: int) -> int:
    """The Section 4.3 identifier of a range, recomputed from one member.

    Truncate the ``height`` low bits of ``member`` and set the
    ``height``-th bit (so identifiers of nodes at different trie heights
    never collide).
    """
    if height == 0:
        return member
    return ((member >> height) << height) | (1 << (height - 1))


def floor_log2(value: int) -> int:
    """``floor(log2(value))`` for a positive integer."""
    if value <= 0:
        raise ValueError("floor_log2 expects a positive value")
    return value.bit_length() - 1


@dataclass
class KDistanceLabel(Label):
    """Label of one node for k-distance queries."""

    pre: int
    light_depth: int
    heights: list[int]
    child_heights: list[int]
    distances: list[int]
    has_extension: bool
    alpha: int
    compact: bool
    position_mod: int
    forward: list[int]
    backward: list[int]

    # -- derived views -------------------------------------------------------

    @property
    def stored_entries(self) -> int:
        """Number of significant-ancestor entries (including the extension)."""
        return len(self.heights)

    @property
    def top_index(self) -> int:
        """Index of the top significant ancestor (the last one with a distance)."""
        return len(self.distances) - 1

    def entry_identifier(self, index: int) -> int:
        """``id(L)`` of the ``index``-th significant ancestor."""
        return range_identifier(self.pre, self.heights[index])

    def child_identifier(self, index: int) -> tuple[int, int]:
        """Identifier of the subtree range of the child taken at entry ``index``.

        The trie height is included so identifiers of ranges at different
        heights can never be confused (ranges of two different children of
        the same node are disjoint, so by Observation 4.2 equal
        (height, identifier) pairs imply the same child).
        """
        height = self.child_heights[index - 1]
        return height, range_identifier(self.pre, height)

    def chain_exhausted(self) -> bool:
        """Whether every significant ancestor is stored with its distance."""
        return len(self.distances) == self.light_depth + 1

    # -- serialisation -------------------------------------------------------

    def write(self, writer: BitWriter) -> None:
        """Append the label to ``writer``."""
        writer.write_delta(self.pre)
        writer.write_gamma(self.light_depth)
        writer.write_bit(1 if self.has_extension else 0)
        writer.write_bit(1 if self.compact else 0)
        writer.write_monotone(self.heights)
        writer.write_monotone(self.child_heights)
        writer.write_monotone(self.distances)
        writer.write_delta(self.alpha)
        if self.compact:
            writer.write_gamma(self.position_mod)
            writer.write_monotone(self.forward)
            writer.write_monotone(self.backward)

    @classmethod
    def read(cls, reader: BitReader) -> "KDistanceLabel":
        """Parse one serialised label (the inverse of :meth:`write`)."""
        gamma = reader.read_gamma
        monotone = reader.read_monotone
        pre = reader.read_delta()
        light_depth = gamma()
        has_extension = reader.read_bit() == 1
        compact = reader.read_bit() == 1
        heights = monotone()
        child_heights = monotone()
        distances = monotone()
        alpha = reader.read_delta()
        position_mod = 0
        forward: list[int] = []
        backward: list[int] = []
        if compact:
            position_mod = gamma()
            forward = monotone()
            backward = monotone()
        return cls(
            pre=pre,
            light_depth=light_depth,
            heights=heights,
            child_heights=child_heights,
            distances=distances,
            has_extension=has_extension,
            alpha=alpha,
            compact=compact,
            position_mod=position_mod,
            forward=forward,
            backward=backward,
        )


class KDistanceScheme(BoundedDistanceLabelingScheme):
    """The Section 4.3 k-distance labeling scheme."""

    name = "k-distance"
    label_type = KDistanceLabel

    def __init__(self, k: int, mode: str = AUTO) -> None:
        super().__init__(k)
        if mode not in (AUTO, COMPACT, SIMPLE):
            raise ValueError(f"unknown mode {mode!r}")
        self._mode = mode

    def params(self) -> dict:
        return {"k": self.k, "mode": self._mode}

    # -- encoding ------------------------------------------------------------

    def _resolve_mode(self, n: int) -> str:
        if self._mode != AUTO:
            return self._mode
        return COMPACT if self.k < math.log2(max(n, 2)) else SIMPLE

    def encode(self, tree: RootedTree) -> dict[int, KDistanceLabel]:
        if not tree.is_unit_weighted():
            raise ValueError("KDistanceScheme expects an unweighted (unit-weight) tree")
        k = self.k
        mode = self._resolve_mode(tree.n)
        decomposition = HeavyPathDecomposition(tree)

        order = decomposition.preorder_with_heavy_child_last()
        pre = [0] * tree.n
        for index, node in enumerate(order):
            pre[node] = index

        light_range_height = [0] * tree.n
        subtree_range_height = [0] * tree.n
        identifier = [0] * tree.n
        for node in tree.nodes():
            heavy = decomposition.heavy_child(node)
            light_size = tree.subtree_size(node) - (
                tree.subtree_size(heavy) if heavy is not None else 0
            )
            light_range_height[node] = range_height(pre[node], pre[node] + light_size - 1)
            subtree_range_height[node] = range_height(
                pre[node], pre[node] + tree.subtree_size(node) - 1
            )
            identifier[node] = range_identifier(pre[node], light_range_height[node])

        top_table_cache: dict[int, tuple[int, list[int], list[int]]] = {}

        def top_tables(top: int) -> tuple[int, list[int], list[int]]:
            """Lemma 4.5 data for a node on its heavy path (cached per node)."""
            cached = top_table_cache.get(top)
            if cached is not None:
                return cached
            path = decomposition.path_nodes(decomposition.path_of(top))
            position = decomposition.position_on_path(top)  # 0-based
            forward: list[int] = []
            for step in range(1, k + 1):
                if position + step >= len(path):
                    break
                forward.append(
                    floor_log2(identifier[path[position + step]] - identifier[top])
                )
            backward: list[int] = []
            for step in range(1, k + 1):
                if position - step < 0:
                    break
                backward.append(
                    floor_log2(identifier[top] - identifier[path[position - step]])
                )
            result = ((position + 1) % k, forward, backward)
            top_table_cache[top] = result
            return result

        labels: dict[int, KDistanceLabel] = {}
        for node in tree.nodes():
            chain = self._significant_ancestors(tree, decomposition, node)
            distances = []
            heights = []
            child_heights = []
            top_index = 0
            for index, ancestor in enumerate(chain):
                distance = tree.depth(node) - tree.depth(ancestor)
                if distance > k:
                    break
                top_index = index
                distances.append(distance)
                heights.append(light_range_height[ancestor])
                if index >= 1:
                    # the child of this ancestor on the path towards the node
                    # is the head of the previous chain element's heavy path
                    child = decomposition.head_of(chain[index - 1])
                    child_heights.append(subtree_range_height[child])
            has_extension = top_index + 1 < len(chain)
            if has_extension:
                ancestor = chain[top_index + 1]
                heights.append(light_range_height[ancestor])
                child = decomposition.head_of(chain[top_index])
                child_heights.append(subtree_range_height[child])

            top = chain[top_index]
            alpha_exact = tree.depth(top) - tree.depth(decomposition.head_of(top))
            if mode == COMPACT:
                alpha = min(alpha_exact, 2 * k + 1)
                position_mod, forward, backward = top_tables(top)
            else:
                alpha = alpha_exact
                position_mod, forward, backward = 0, [], []

            labels[node] = KDistanceLabel(
                pre=pre[node],
                light_depth=decomposition.light_depth(node),
                heights=heights,
                child_heights=child_heights,
                distances=distances,
                has_extension=has_extension,
                alpha=alpha,
                compact=(mode == COMPACT),
                position_mod=position_mod,
                forward=forward,
                backward=backward,
            )
        return labels

    @staticmethod
    def _significant_ancestors(
        tree: RootedTree, decomposition: HeavyPathDecomposition, node: int
    ) -> list[int]:
        """``node`` followed by the branch nodes above each heavy path head."""
        chain = [node]
        current = node
        while True:
            head = decomposition.head_of(current)
            parent = tree.parent(head)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain

    # -- decoding ------------------------------------------------------------

    def bounded_distance(
        self, label_u: KDistanceLabel, label_v: KDistanceLabel
    ) -> int | None:
        k = self.k
        self._check_entries(label_u)
        self._check_entries(label_v)
        if label_u.pre == label_v.pre:
            return 0

        match = self._deepest_common_entry(label_u, label_v)
        if match is not None:
            i, j = match
            return self._distance_with_match(label_u, i, label_v, j)

        # no common significant ancestor among the stored entries
        if label_u.chain_exhausted() and label_v.chain_exhausted():
            # both top ancestors lie on the root heavy path (NCSA = nil)
            between = self._top_path_distance(
                label_u, label_u.top_index, label_v, label_v.top_index
            )
            if between is None:
                return None
            total = label_u.distances[-1] + label_v.distances[-1] + between
            return total if total <= k else None
        return None

    # .. helpers ..............................................................

    @staticmethod
    def _check_entries(label: KDistanceLabel) -> None:
        """Raise the ``ValueError`` of inconsistent labels unless the entry
        lists have the lengths every index below relies on: one distance
        at least, one height per distance plus at most the extension's,
        and one child height per entry above the node itself."""
        entries = len(label.heights)
        if not (
            0 <= entries - len(label.distances) <= 1
            and label.distances
            and len(label.child_heights) == entries - 1
        ):
            raise ValueError(
                "labels are inconsistent: the k-distance entry lists disagree "
                "in length (were they produced by the same encoding?)"
            )

    @staticmethod
    def _deepest_common_entry(
        label_u: KDistanceLabel, label_v: KDistanceLabel
    ) -> tuple[int, int] | None:
        """Indices of the nearest common significant ancestor, if stored."""
        max_depth = min(label_u.light_depth, label_v.light_depth)
        for light_depth in range(max_depth, -1, -1):
            i = label_u.light_depth - light_depth
            j = label_v.light_depth - light_depth
            if i >= label_u.stored_entries or j >= label_v.stored_entries:
                continue
            if (
                label_u.heights[i] == label_v.heights[j]
                and label_u.entry_identifier(i) == label_v.entry_identifier(j)
            ):
                return i, j
        return None

    def _distance_with_match(
        self, label_u: KDistanceLabel, i: int, label_v: KDistanceLabel, j: int
    ) -> int | None:
        k = self.k
        u_has_distance = i < len(label_u.distances)
        v_has_distance = j < len(label_v.distances)

        if u_has_distance and v_has_distance:
            if i == 0:
                return label_v.distances[j] if label_v.distances[j] <= k else None
            if j == 0:
                return label_u.distances[i] if label_u.distances[i] <= k else None
            if label_u.child_identifier(i) == label_v.child_identifier(j):
                du = label_u.distances[i] - label_u.distances[i - 1]
                dv = label_v.distances[j] - label_v.distances[j - 1]
                total = (
                    label_u.distances[i - 1]
                    + label_v.distances[j - 1]
                    + abs(du - dv)
                )
            else:
                total = label_u.distances[i] + label_v.distances[j]
            return total if total <= k else None

        if not u_has_distance and not v_has_distance:
            # both matched at their extension entry: both tops are on the
            # nearest common heavy path (if they hang off the same child)
            if label_u.child_identifier(i) != label_v.child_identifier(j):
                return None
            between = self._top_path_distance(
                label_u, i - 1, label_v, j - 1
            )
            if between is None:
                return None
            total = label_u.distances[i - 1] + label_v.distances[j - 1] + between
            return total if total <= k else None

        # mixed case: exactly one side matched at its extension entry
        if u_has_distance:
            far, far_index = label_v, j
            near, near_index = label_u, i
        else:
            far, far_index = label_u, i
            near, near_index = label_v, j
        # ``far`` matched at its extension: its significant ancestor on the
        # common heavy path is its top; ``near`` has the NCSA stored.
        if near_index == 0:
            # the near node *is* the NCSA, i.e. an ancestor of the far node,
            # and the far node is further than k from it
            return None
        if far.child_identifier(far_index) != near.child_identifier(near_index):
            return None
        beta = near.distances[near_index] - near.distances[near_index - 1]
        if far.compact and far.alpha >= 2 * k + 1:
            return None
        between = abs((far.alpha + 1) - beta)
        total = far.distances[-1] + near.distances[near_index - 1] + between
        return total if total <= k else None

    def _top_path_distance(
        self,
        label_u: KDistanceLabel,
        index_u: int,
        label_v: KDistanceLabel,
        index_v: int,
    ) -> int | None:
        """Distance between the two top significant ancestors.

        Both are assumed to lie on the same heavy path; returns ``None``
        when the distance provably exceeds ``k`` (Lemma 4.5).
        """
        k = self.k
        capped = 2 * k + 1
        alpha_u, alpha_v = label_u.alpha, label_v.alpha
        if not label_u.compact or (alpha_u < capped and alpha_v < capped):
            return abs(alpha_u - alpha_v)

        id_u = label_u.entry_identifier(index_u)
        id_v = label_v.entry_identifier(index_v)
        if id_u == id_v:
            return 0
        if id_u < id_v:
            lower, higher = label_u, label_v
            lower_id, higher_id = id_u, id_v
        else:
            lower, higher = label_v, label_u
            lower_id, higher_id = id_v, id_u
        step = (higher.position_mod - lower.position_mod) % k
        if step == 0:
            step = k
        if step > len(lower.forward) or step > len(higher.backward):
            return None
        direct = floor_log2(higher_id - lower_id)
        if lower.forward[step - 1] == direct and higher.backward[step - 1] == direct:
            return step
        return None
