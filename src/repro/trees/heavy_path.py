"""Heavy path decompositions (Section 2, Fig. 1 left).

The paper uses a specific rule: starting from the root of the (sub)tree
``T`` being decomposed, repeatedly descend to the unique child whose subtree
has size at least ``|T| / 2``, stopping as soon as no such child exists.
This differs from the classical Sleator-Tarjan decomposition (descend to the
largest child until a leaf) — the paper's slack analysis (Lemmas 3.3/3.4)
depends on the ``|T| / 2`` threshold being measured against the size of the
tree at the *start* of the path.  Only the paper's rule is implemented;
every scheme in the library decomposes with it.
"""

from __future__ import annotations

from array import array

from repro.trees.tree import RootedTree


class HeavyPathDecomposition:
    """Decomposition of a rooted tree into disjoint heavy paths."""

    def __init__(self, tree: RootedTree) -> None:
        self._tree = tree
        # per-node rows are array('i') and paths are CSR (flat node array
        # plus per-path start offsets): 20 bytes/node plus 4 per path, 23.4
        # bytes/node under tracemalloc for the transform of a 10^5-node
        # Pruefer tree (0.58 paths per node), which matters at the
        # 10^7-node scale of repro.scale
        zeros = bytes(4 * tree.n)
        self._path_of = array("i", zeros)
        self._position = array("i", zeros)
        self._heavy_child = array("i", zeros)  # -1 encodes "no heavy child"
        self._light_depth = array("i", zeros)
        self._path_data = array("i")
        self._path_start = array("i", [0])
        self._decompose()

    # -- construction -----------------------------------------------------

    def _decompose(self) -> None:
        """Walk every heavy path down from its head, straight on the tree's rows.

        Paths are numbered in the order their heads leave a stack that
        receives each path's light children in child order, path by path
        from the head down.  The heavy child is the first child ``c`` with
        ``2 * size(c) >= size(head)`` (there is at most one).  A head's
        light depth is its parent's plus one.
        """
        tree = self._tree
        parents = tree._parents
        start, data, size = tree._child_start, tree._child_data, tree._subtree_size
        path_of, position = self._path_of, self._position
        heavy_child, light_depth = self._heavy_child, self._light_depth
        path_data = self._path_data
        append = path_data.append
        path_starts = self._path_start.append
        stack = [tree.root]
        pop = stack.pop
        push = stack.append
        path_id = 0
        while stack:
            node = pop()
            parent = parents[node]
            depth = light_depth[parent] + 1 if parent >= 0 else 0
            # a child is heavy when 2 * size >= this
            threshold = size[node]
            offset = 0
            while True:
                append(node)
                path_of[node] = path_id
                position[node] = offset
                light_depth[node] = depth
                heavy = -1
                for index in range(start[node], start[node + 1]):
                    child = data[index]
                    if heavy < 0 and 2 * size[child] >= threshold:
                        heavy = child
                    else:
                        push(child)
                heavy_child[node] = heavy
                if heavy < 0:
                    break
                node = heavy
                offset += 1
            path_id += 1
            path_starts(len(path_data))

    # -- accessors ---------------------------------------------------------

    @property
    def tree(self) -> RootedTree:
        """The decomposed tree."""
        return self._tree

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
