"""The rooted tree data structure.

Nodes are integers ``0 .. n-1``.  Every node except the root has a parent and
a non-negative integer weight on the edge to its parent (default 1, the
unweighted case).  The structure is immutable after construction; derived
quantities (subtree sizes, depths, root distances, traversal orders) are
computed once and cached.

Storage is compact: every node-valued quantity lives in an ``array('i')``
(4 bytes per node instead of a pointer to a Python ``int`` object each;
node ids fit ``int32`` up to the 2·10⁹-node mark, far past the 10⁸ ceiling
of :mod:`repro.scale`), weighted quantities (edge weights, root distances)
in an ``array('q')``, and the children adjacency is CSR — one flat child
array plus per-node start offsets.  That keeps a tree at 52 bytes/node
(53.6 under ``tracemalloc`` for the 2.4·10⁵-node transform of a 10⁵-node
Prüfer tree), which is what makes the 10⁷–10⁸-node instances of the
external-memory pipeline hold in RAM at all; the accessor API is unchanged
and none of this is visible to callers.

Construction works on those rows directly, never through the accessors:
the CSR comes from one stable sort of the node ids by parent, and one
preorder pass sets every order and per-node quantity (see
:meth:`RootedTree._compute_orders`).  While it runs, the sort's list of
node ids and its keys (Python ints) briefly lift the footprint to about
100 bytes/node (same measurement).  The rows are read directly by the
rest of the shared tree layer (:mod:`repro.trees.heavy_path`,
:mod:`repro.trees.collapsed`, :mod:`repro.trees.transform`, the light
codes) and by the Freedman encoder; nothing writes them after
construction.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, islice, repeat
from operator import add, sub
from typing import Iterable, Iterator, Sequence


class TreeError(ValueError):
    """Raised when tree construction input is inconsistent."""


def csr_starts(parent_row: array) -> array:
    """CSR start offsets of a parent row (``-1`` marks the one root).

    Entry ``v`` is the number of non-root nodes whose parent is below
    ``v``, so the children of ``v`` occupy ``[start[v], start[v + 1])`` of
    the nodes sorted stably by parent, root excluded.
    """
    counts = [0] * (len(parent_row) + 1)
    for parent in parent_row:
        counts[parent + 1] += 1
    counts[0] = 0  # the root's
    return array("i", accumulate(counts))


class RootedTree:
    """An immutable rooted tree with integer nodes and weighted edges."""

    def __init__(
        self,
        parents: Sequence[int | None],
        weights: Sequence[int] | None = None,
    ) -> None:
        n = len(parents)
        if n == 0:
            raise TreeError("a tree must contain at least one node")
        # -1 encodes "no parent" internally (``None`` and any negative
        # parent in the input); accessors translate to None
        try:
            parent_row = array("i", parents)
        except (TypeError, OverflowError):
            parent_row = array("i", (-1 if p is None or p < 0 else p for p in parents))
        else:
            if min(parent_row) < -1:
                parent_row = array("i", map(max, parent_row, repeat(-1)))
        roots = parent_row.count(-1)
        if roots != 1:
            raise TreeError(f"expected exactly one root, found {roots}")
        self._root = root = parent_row.index(-1)
        self._parents = parent_row
        if weights is None:
            self._weights = array("q", [1]) * n
        else:
            if len(weights) != n:
                raise TreeError("weights must have one entry per node")
            self._weights = array("q", weights)
            if min(self._weights) < 0:
                raise TreeError("edge weights must be non-negative")
        self._weights[root] = 0
        if max(parent_row) >= n:
            v = next(v for v in range(n) if parent_row[v] >= n)
            raise TreeError(f"parent of node {v} out of range: {parent_row[v]}")

        # children in CSR form from one stable sort by parent: each node's
        # children are contiguous and ascending by id, and the root (parent
        # -1) sorts first, ahead of every child
        data = array("i", sorted(range(n), key=parent_row.__getitem__))
        del data[0]
        self._child_data = data
        self._child_start = csr_starts(parent_row)
        self._compute_orders()

    # -- construction helpers -------------------------------------------

    def _compute_orders(self) -> None:
        """Every order and per-node quantity from one preorder pass.

        The pass visits children in CSR order.  Depth, root distance and
        the preorder index are set from the parent as each node is
        visited; subtree sizes are summed bottom-up over the reversed
        preorder; and the postorder index is ``pre + size - 1 - depth``
        (the nodes before a node in preorder are its ``depth`` ancestors
        and the nodes that finish before it).  With exactly one root, every
        node has one parent and is reached at most once; a node the pass
        does not reach has a parent chain that runs into a cycle.
        """
        n = len(self._parents)
        zeros = bytes(4 * n)
        parents, weights = self._parents, self._weights
        start = self._child_start
        # children reversed, so one slice pushes them for a left-to-right visit
        last = n - 1
        reversed_data = self._child_data[::-1]
        preorder = array("i", zeros)
        pre_index = array("i", zeros)
        depth = array("i", zeros)
        root_distance = array("q", bytes(8 * n))
        cursor = 0
        stack = [self._root]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            preorder[cursor] = node
            pre_index[node] = cursor
            cursor += 1
            parent = parents[node]
            if parent >= 0:
                depth[node] = depth[parent] + 1
                root_distance[node] = root_distance[parent] + weights[node]
            first, end = start[node], start[node + 1]
            if first != end:
                push(reversed_data[last - end : last - first])
        if cursor != n:
            raise TreeError(
                f"parent array is disconnected: {n - cursor} node(s) unreachable "
                "from the root (their parent pointers run into a cycle)"
            )

        subtree_size = array("i", [1]) * n
        for node in islice(reversed(preorder), last):
            subtree_size[parents[node]] += subtree_size[node]
        post_index = array(
            "i", map(sub, map(add, pre_index, subtree_size), map((1).__add__, depth))
        )
        postorder = array("i", zeros)
        for node in range(n):
            postorder[post_index[node]] = node

        self._preorder = preorder
        self._postorder = postorder
        self._depth = depth
        self._root_distance = root_distance
        self._subtree_size = subtree_size
        self._pre_index = pre_index
        self._post_index = post_index

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._parents)

    @property
    def root(self) -> int:
        """The root node."""
        return self._root

    def nodes(self) -> range:
        """Iterate over all node identifiers."""
        return range(len(self._parents))

    def parent(self, node: int) -> int | None:
        """Parent of ``node`` (``None`` for the root)."""
        p = self._parents[node]
        return None if p < 0 else p

    def children(self, node: int) -> list[int]:
        """Children of ``node`` in construction order."""
        return self._child_data[
            self._child_start[node] : self._child_start[node + 1]
        ].tolist()

    def degree(self, node: int) -> int:
        """Number of children."""
        return self._child_start[node + 1] - self._child_start[node]

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` has no children."""
        return self._child_start[node + 1] == self._child_start[node]

    def leaves(self) -> list[int]:
        """All leaves in preorder."""
        return [v for v in self._preorder if self.is_leaf(v)]

    def edge_weight(self, node: int) -> int:
        """Weight of the edge from ``node`` to its parent (0 for the root)."""
        return self._weights[node]

    def is_unit_weighted(self) -> bool:
        """Whether every non-root edge has weight exactly 1."""
        return all(
            self._weights[v] == 1 for v in self.nodes() if v != self._root
        )

    # -- derived quantities ------------------------------------------------

    def depth(self, node: int) -> int:
        """Number of edges on the root-to-``node`` path."""
        return self._depth[node]

    def root_distance(self, node: int) -> int:
        """Weighted distance from the root to ``node``."""
        return self._root_distance[node]

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the subtree rooted at ``node``."""
        return self._subtree_size[node]

    def preorder(self) -> list[int]:
        """Preorder traversal (children in construction order)."""
        return self._preorder.tolist()

    def postorder(self) -> list[int]:
        """Postorder traversal (children in construction order)."""
        return self._postorder.tolist()

    def preorder_index(self, node: int) -> int:
        """Position of ``node`` in the preorder traversal."""
        return self._pre_index[node]

    def postorder_index(self, node: int) -> int:
        """Position of ``node`` in the postorder traversal."""
        return self._post_index[node]

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Whether ``ancestor`` is an (improper) ancestor of ``descendant``."""
        pre_a = self._pre_index[ancestor]
        pre_d = self._pre_index[descendant]
        return pre_a <= pre_d < pre_a + self._subtree_size[ancestor]

    def path_to_root(self, node: int) -> list[int]:
        """Nodes on the path from ``node`` up to (and including) the root."""
        path = [node]
        current = self._parents[node]
        while current >= 0:
            path.append(current)
            current = self._parents[current]
        return path

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(parent, child, weight)`` triples."""
        for v in range(len(self._parents)):
            p = self._parents[v]
            if p >= 0:
                yield p, v, self._weights[v]

    # -- ordered variants --------------------------------------------------

    def with_child_order(self, order: dict[int, list[int]]) -> "RootedTree":
        """Return a copy whose children obey the given per-node ordering."""
        clone = RootedTree(self._parents, self._weights)
        for node, children in order.items():
            row = slice(clone._child_start[node], clone._child_start[node + 1])
            if sorted(children) != sorted(clone._child_data[row]):
                raise TreeError(f"child order for node {node} is not a permutation")
            clone._child_data[row] = array("i", children)
        clone._compute_orders()
        return clone

    def reweighted(self, weights: Iterable[int]) -> "RootedTree":
        """Return a copy of the tree with new edge weights."""
        return RootedTree(self._parents, list(weights))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RootedTree(n={self.n}, root={self._root})"
