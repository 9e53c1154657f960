"""The collapsed tree C(T) (Section 2, Fig. 1 right).

Every heavy path of a heavy path decomposition becomes one node of the
collapsed tree.  The light edges hanging off a heavy path become the edges to
its children.  The collapsed tree has height at most ``log2 n`` and drives
all the distance-array machinery of Section 3:

* children are ordered "top-to-bottom": a subtree branching at a shallower
  node of the heavy path comes before one branching deeper; among subtrees
  branching at the same node the largest subtree comes last (the
  *exceptional* edge),
* the **domination order** of Lemma 3.1 is realised as the postorder number
  of a node's collapsed node under this child ordering,
* the **exit rule** of Section 3.1 lives in one place,
  :meth:`CollapsedTree.root_path_levels`: for each heavy path on a node's
  root path, the node where the walk leaves it is the branch node of the
  next path, or the node itself on its own path.  The HLD, Alstrup,
  approximate, level-ancestor, NCA and light-depth labels all take their
  per-level fields from that one walk.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import add, mul

from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree, csr_starts


class CollapsedTree:
    """Collapsed tree over a heavy path decomposition."""

    def __init__(self, decomposition: HeavyPathDecomposition) -> None:
        self._hpd = decomposition
        self._tree = decomposition.tree
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        """Every row from the decomposition's rows, with no per-path calls.

        Siblings come from one stable sort of the paths on a key made of
        rows — parent path, then the branch node's position on it, then
        the head's subtree size — so a parent's children are contiguous
        and ordered top-to-bottom, largest (exceptional) last, ties by id.
        """
        hpd = self._hpd
        tree = self._tree
        path_count = hpd.path_count()
        path_of, position = hpd._path_of, hpd._position
        size = tree._subtree_size
        # like RootedTree, everything is array('i') rows with -1 sentinels
        # and a CSR children adjacency — 32 bytes per heavy path instead of
        # nested Python lists
        heads = array("i", map(hpd._path_data.__getitem__, hpd._path_start[:-1]))
        self._head = heads
        self._root_path = root_path = path_of[tree.root]
        branch = array("i", map(tree._parents.__getitem__, heads))
        parent = array("i", map(path_of.__getitem__, branch))
        parent[root_path] = -1
        self._branch_node = branch
        self._parent = parent

        # one sort key per path: (parent path, branch position, head size)
        # in mixed radix n + 1; the root path's parent is -1, so its key is
        # negative and it sorts first
        radix = tree.n + 1
        outer = map(mul, parent, repeat(radix * radix))
        middle = map(mul, map(position.__getitem__, branch), repeat(radix))
        key = list(map(add, map(add, outer, middle), map(size.__getitem__, heads)))
        child_data = array("i", sorted(range(path_count), key=key.__getitem__))
        del key
        del child_data[0]
        self._child_data = child_data
        self._child_start = counts = csr_starts(parent)

        self._child_index = child_index = array("i", bytes(4 * path_count))
        for index, child in enumerate(child_data):
            child_index[child] = index - counts[parent[child]]

        # a collapsed node's depth is the light depth of its heavy path
        self._depth = array("i", map(hpd._light_depth.__getitem__, heads))

        # postorder (domination) numbering; ~node encodes the exit visit
        self._postorder_number = postorder_number = array("i", bytes(4 * path_count))
        counter = 0
        stack = [root_path]
        pop = stack.pop
        push = stack.append
        # children reversed, so one slice pushes them for a left-to-right visit
        reversed_data = child_data[::-1]
        last = len(child_data)
        while stack:
            node = pop()
            if node < 0:
                postorder_number[~node] = counter
                counter += 1
                continue
            push(~node)
            stack.extend(reversed_data[last - counts[node + 1] : last - counts[node]])

    # -- accessors ---------------------------------------------------------

    @property
    def decomposition(self) -> HeavyPathDecomposition:
        """The underlying heavy path decomposition."""
        return self._hpd

    @property
    def tree(self) -> RootedTree:
        """The original (decomposed) tree."""
        return self._tree

    def __len__(self) -> int:
        return self._hpd.path_count()

    @property
    def root(self) -> int:
        """Collapsed node corresponding to the root heavy path."""
        return self._root_path

    def parent(self, collapsed_node: int) -> int | None:
        """Parent collapsed node (``None`` for the root)."""
        parent = self._parent[collapsed_node]
        return None if parent < 0 else parent

    def children(self, collapsed_node: int) -> list[int]:
        """Ordered children of a collapsed node."""
        return self._child_data[
            self._child_start[collapsed_node] : self._child_start[collapsed_node + 1]
        ].tolist()

    def child_index(self, collapsed_node: int) -> int:
        """Index of a collapsed node among its parent's ordered children."""
        return self._child_index[collapsed_node]

    def head(self, collapsed_node: int) -> int:
        """Head (in T) of the heavy path behind a collapsed node."""
        return self._head[collapsed_node]

    def light_edge_weight(self, collapsed_node: int) -> int:
        """Weight of the light edge connecting this path to its parent path."""
        return self._tree.edge_weight(self._head[collapsed_node])

    def depth(self, collapsed_node: int) -> int:
        """Depth of a collapsed node (= light depth of its heavy path)."""
        return self._depth[collapsed_node]

    def height(self) -> int:
        """Height of the collapsed tree (at most log2 n)."""
        return max(self._depth)

    def domination_number(self, collapsed_node: int) -> int:
        """Postorder number implementing the domination order of Lemma 3.1."""
        return self._postorder_number[collapsed_node]

    def is_exceptional(self, collapsed_node: int) -> bool:
        """Whether the light edge to this collapsed node is the exceptional one."""
        parent = self._parent[collapsed_node]
        if parent < 0:
            return False
        return self._child_data[self._child_start[parent + 1] - 1] == collapsed_node

    def root_path_levels(self, tree_node: int) -> list[tuple[int, int]]:
        """``(path, exit)`` for every heavy path on ``tree_node``'s root path.

        Paths run from the collapsed root down to ``tree_node``'s own path.
        A path's *exit* is the tree node where the root path leaves it: the
        branch node of the next path, or ``tree_node`` itself on the last.
        Every heavy-path label reads its per-level fields from this walk.
        """
        levels = []
        exit_node = tree_node
        path = self._hpd._path_of[tree_node]
        while path >= 0:
            levels.append((path, exit_node))
            exit_node = self._branch_node[path]
            path = self._parent[path]
        levels.reverse()
        return levels

    def dominates(self, tree_node_a: int, tree_node_b: int) -> bool:
        """Whether ``tree_node_a`` dominates ``tree_node_b`` (Lemma 3.1 sense)."""
        a = self.domination_number(self._hpd.path_of(tree_node_a))
        b = self.domination_number(self._hpd.path_of(tree_node_b))
        return a < b
