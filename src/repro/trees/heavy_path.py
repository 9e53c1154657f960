"""Heavy path decompositions (Section 2, Fig. 1 left).

The paper uses a specific variant: starting from the root of the (sub)tree
``T`` being decomposed, repeatedly descend to the unique child whose subtree
has size at least ``|T| / 2``, stopping as soon as no such child exists.
This differs from the classical Sleator-Tarjan decomposition (descend to the
largest child until a leaf) — the paper's slack analysis (Lemmas 3.3/3.4)
depends on the ``|T| / 2`` threshold being measured against the size of the
tree at the *start* of the path.

Both variants are provided; the classical one is used for comparisons and by
some baselines.
"""

from __future__ import annotations

from array import array

from repro.trees.tree import RootedTree

PAPER_VARIANT = "paper"
CLASSIC_VARIANT = "classic"


class HeavyPathDecomposition:
    """Decomposition of a rooted tree into disjoint heavy paths."""

    def __init__(self, tree: RootedTree, variant: str = PAPER_VARIANT) -> None:
        if variant not in (PAPER_VARIANT, CLASSIC_VARIANT):
            raise ValueError(f"unknown heavy path variant: {variant!r}")
        self._tree = tree
        self._variant = variant
        # per-node rows are array('i') and paths are CSR (flat node array
        # plus per-path start offsets): 20 bytes/node total, which matters
        # at the 10^7-node scale of repro.scale
        zeros = bytes(4 * tree.n)
        self._path_of = array("i", zeros)
        self._position = array("i", zeros)
        self._heavy_child = array("i", zeros)  # -1 encodes "no heavy child"
        self._light_depth = array("i", zeros)
        self._path_data = array("i")
        self._path_start = array("i", [0])
        self._decompose()

    # -- construction -----------------------------------------------------

    def _select_heavy_child(self, node: int, decomposition_size: int) -> int | None:
        children = self._tree.children(node)
        if not children:
            return None
        if self._variant == PAPER_VARIANT:
            threshold = decomposition_size / 2
            for child in children:
                if self._tree.subtree_size(child) >= threshold:
                    return child
            return None
        # classic: largest child, ties broken by node id for determinism
        return max(children, key=lambda c: (self._tree.subtree_size(c), -c))

    def _decompose(self) -> None:
        tree = self._tree
        path_data = self._path_data
        path_start = self._path_start
        # stack holds (subtree root, light depth of that subtree root)
        stack: list[tuple[int, int]] = [(tree.root, 0)]
        while stack:
            start, light_depth = stack.pop()
            decomposition_size = tree.subtree_size(start)
            path_id = len(path_start) - 1
            position = 0
            node: int | None = start
            while node is not None:
                path_data.append(node)
                self._path_of[node] = path_id
                self._position[node] = position
                self._light_depth[node] = light_depth
                heavy = self._select_heavy_child(node, decomposition_size)
                self._heavy_child[node] = -1 if heavy is None else heavy
                for child in tree.children(node):
                    if child != heavy:
                        stack.append((child, light_depth + 1))
                node = heavy
                position += 1
            path_start.append(len(path_data))

    # -- accessors ---------------------------------------------------------

    @property
    def tree(self) -> RootedTree:
        """The decomposed tree."""
        return self._tree

    @property
    def variant(self) -> str:
        """Which decomposition rule was used."""
        return self._variant

    def paths(self) -> list[list[int]]:
        """All heavy paths, each listed from head (closest to root) down."""
        return [self.path_nodes(path_id) for path_id in range(self.path_count())]

    def path_count(self) -> int:
        """Number of heavy paths."""
        return len(self._path_start) - 1

    def path_of(self, node: int) -> int:
        """Identifier of the heavy path containing ``node``."""
        return self._path_of[node]

    def path_nodes(self, path_id: int) -> list[int]:
        """Nodes of a heavy path from head to tail."""
        return self._path_data[
            self._path_start[path_id] : self._path_start[path_id + 1]
        ].tolist()

    def head(self, path_id: int) -> int:
        """Head (node closest to the root) of a heavy path."""
        return self._path_data[self._path_start[path_id]]

    def head_of(self, node: int) -> int:
        """Head of the heavy path containing ``node``."""
        return self._path_data[self._path_start[self._path_of[node]]]

    def position_on_path(self, node: int) -> int:
        """0-based position of ``node`` on its heavy path (head = 0)."""
        return self._position[node]

    def heavy_child(self, node: int) -> int | None:
        """The heavy child of ``node`` (``None`` if the path ends here)."""
        heavy = self._heavy_child[node]
        return None if heavy < 0 else heavy

    def is_light_edge(self, child: int) -> bool:
        """Whether the edge from ``child`` to its parent is light."""
        parent = self._tree.parent(child)
        return parent is not None and self._heavy_child[parent] != child

    def light_depth(self, node: int) -> int:
        """Number of light edges on the root-to-``node`` path."""
        return self._light_depth[node]

    def max_light_depth(self) -> int:
        """Maximum light depth over all nodes (at most log2 n)."""
        return max(self._light_depth)

    def light_edges_on_root_path(self, node: int) -> list[int]:
        """Children (lower endpoints) of the light edges on the root path.

        Returned from the topmost light edge down to the one closest to
        ``node``; the list has length ``light_depth(node)``.
        """
        edges: list[int] = []
        current = node
        while True:
            parent = self._tree.parent(current)
            if parent is None:
                break
            if self._heavy_child[parent] != current:
                edges.append(current)
            current = parent
        edges.reverse()
        return edges

    def preorder_with_heavy_child_last(self) -> list[int]:
        """Preorder numbering that visits the heavy child of a node last.

        Section 4 of the paper uses this ordering so that the light range of
        every node is a contiguous prefix of its subtree's preorder range.
        """
        order: list[int] = []
        stack = [self._tree.root]
        while stack:
            node = stack.pop()
            order.append(node)
            heavy = self._heavy_child[node]
            ordered_children = [c for c in self._tree.children(node) if c != heavy]
            if heavy >= 0:
                ordered_children.append(heavy)
            for child in reversed(ordered_children):
                stack.append(child)
        return order
