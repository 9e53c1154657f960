"""Reference construction of the shared tree layer, one accessor call at a time.

``RootedTree``, ``HeavyPathDecomposition``, ``CollapsedTree``,
``LightDepthLabeling`` and the Section 2 transform build their rows straight
from ``array`` rows: one stable sort by parent for the CSR children, one
preorder pass with every other order derived from it, sibling orders from
one sort on a key made of rows, and dummy chains hung from CSR rows.  This
module keeps the straightforward forms they replaced, so
``tests/test_tree_rows.py`` can hold every row of the row-level code to
them:

* :func:`rooted_tree_rows` is the counting-sort CSR, the two DFS passes
  (acyclicity, then orders with an exit marker per node) and the inverse
  permutations;
* :func:`heavy_path_rows`, :func:`collapsed_rows` and
  :func:`light_code_rows` walk the accessor API node by node, with a
  per-group tuple sort of siblings and a canonical light code built per
  collapsed node (:func:`size_weighted_words`);
* :func:`attach_leaves`, :func:`binarize` and
  :func:`prepare_for_leaf_queries` hang each node's ``children()`` list;
* :func:`light_edges_on_root_path`, :func:`branch_node` and
  :func:`collapsed_node_of` are per-node accessors only the tests read.

Each returns plain rows (or a :class:`TransformResult`), never an object
of the class under test, so the row-level code is not checked against
itself.
"""

from __future__ import annotations

from array import array

from repro.trees.transform import TransformResult
from repro.trees.tree import RootedTree, TreeError


# -- RootedTree ----------------------------------------------------------------


def rooted_tree_rows(parents, weights=None) -> dict:
    """Every row of ``RootedTree(parents, weights)``, by the old construction."""
    n = len(parents)
    if n == 0:
        raise TreeError("a tree must contain at least one node")
    parent_row = array("i", (-1 if p is None or p < 0 else p for p in parents))
    roots = [v for v in range(n) if parent_row[v] < 0]
    if len(roots) != 1:
        raise TreeError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    if weights is None:
        weight_row = array("q", [1]) * n
        weight_row[root] = 0
    else:
        if len(weights) != n:
            raise TreeError("weights must have one entry per node")
        weight_row = array("q", weights)
        if any(w < 0 for w in weight_row):
            raise TreeError("edge weights must be non-negative")
        weight_row[root] = 0
    for v in range(n):
        if parent_row[v] >= n:
            raise TreeError(f"parent of node {v} out of range: {parent_row[v]}")

    # children in CSR form, construction order == ascending child id
    counts = array("i", bytes(4 * (n + 1)))
    for v in range(n):
        p = parent_row[v]
        if p >= 0:
            counts[p + 1] += 1
    for v in range(n):
        counts[v + 1] += counts[v]
    data = array("i", bytes(4 * (n - 1))) if n > 1 else array("i")
    cursor = array("i", counts[:n])
    for v in range(n):
        p = parent_row[v]
        if p >= 0:
            data[cursor[p]] = v
            cursor[p] += 1

    validate_acyclic(n, root, counts, data)
    rows = compute_orders(n, root, counts, data, weight_row)
    rows.update(
        root=root, parents=parent_row, weights=weight_row, child_start=counts, child_data=data
    )
    return rows


def validate_acyclic(n: int, root: int, start, data) -> None:
    """The old first DFS pass: every node reached exactly once from the root."""
    seen = bytearray(n)
    seen[root] = 1
    stack = [root]
    visited = 1
    while stack:
        node = stack.pop()
        for child in data[start[node] : start[node + 1]]:
            if seen[child]:
                raise TreeError("parent array contains a cycle")
            seen[child] = 1
            visited += 1
            stack.append(child)
    if visited != n:
        raise TreeError("parent array is disconnected")


def compute_orders(n: int, root: int, start, data, weights) -> dict:
    """The old second DFS pass (an exit marker per node) and the inverses."""
    zeros = bytes(4 * n)
    preorder = array("i", zeros)
    postorder = array("i", zeros)
    depth = array("i", zeros)
    root_distance = array("q", bytes(8 * n))
    subtree_size = array("i", [1]) * n

    pre_cursor = post_cursor = 0
    stack: list[int] = [root]
    # non-negative entry = enter the node, ~entry = exit it
    while stack:
        node = stack.pop()
        if node < 0:
            node = ~node
            postorder[post_cursor] = node
            post_cursor += 1
            for child in data[start[node] : start[node + 1]]:
                subtree_size[node] += subtree_size[child]
            continue
        preorder[pre_cursor] = node
        pre_cursor += 1
        stack.append(~node)
        base = depth[node]
        distance = root_distance[node]
        for index in range(start[node + 1] - 1, start[node] - 1, -1):
            child = data[index]
            depth[child] = base + 1
            root_distance[child] = distance + weights[child]
            stack.append(child)

    pre_index = array("i", zeros)
    for index in range(n):
        pre_index[preorder[index]] = index
    post_index = array("i", zeros)
    for index in range(n):
        post_index[postorder[index]] = index
    return {
        "preorder": preorder,
        "postorder": postorder,
        "depth": depth,
        "root_distance": root_distance,
        "subtree_size": subtree_size,
        "pre_index": pre_index,
        "post_index": post_index,
    }


# -- HeavyPathDecomposition ------------------------------------------------------


def _select_heavy_child(tree: RootedTree, node: int, decomposition_size: int) -> int | None:
    threshold = decomposition_size / 2
    for child in tree.children(node):
        if tree.subtree_size(child) >= threshold:
            return child
    return None


def heavy_path_rows(tree: RootedTree) -> dict:
    """Every row of ``HeavyPathDecomposition(tree)``."""
    zeros = bytes(4 * tree.n)
    path_of = array("i", zeros)
    position = array("i", zeros)
    heavy_child = array("i", zeros)
    light_depth = array("i", zeros)
    path_data = array("i")
    path_start = array("i", [0])
    # stack holds (subtree root, light depth of that subtree root)
    stack: list[tuple[int, int]] = [(tree.root, 0)]
    while stack:
        start, depth = stack.pop()
        decomposition_size = tree.subtree_size(start)
        path_id = len(path_start) - 1
        pos = 0
        node: int | None = start
        while node is not None:
            path_data.append(node)
            path_of[node] = path_id
            position[node] = pos
            light_depth[node] = depth
            heavy = _select_heavy_child(tree, node, decomposition_size)
            heavy_child[node] = -1 if heavy is None else heavy
            for child in tree.children(node):
                if child != heavy:
                    stack.append((child, depth + 1))
            node = heavy
            pos += 1
        path_start.append(len(path_data))
    return {
        "path_of": path_of,
        "position": position,
        "heavy_child": heavy_child,
        "light_depth": light_depth,
        "path_data": path_data,
        "path_start": path_start,
    }


def light_edges_on_root_path(hpd, node: int) -> list[int]:
    """Children (lower endpoints) of the light edges on ``node``'s root path.

    Returned from the topmost light edge down to the one closest to
    ``node``; the list has length ``hpd.light_depth(node)``.
    """
    tree = hpd.tree
    edges: list[int] = []
    current = node
    parent = tree.parent(current)
    while parent is not None:
        if hpd.heavy_child(parent) != current:
            edges.append(current)
        current, parent = parent, tree.parent(parent)
    edges.reverse()
    return edges


# -- CollapsedTree ---------------------------------------------------------------


def branch_node(collapsed, path: int) -> int | None:
    """Tree node on the parent heavy path from which ``path`` hangs (``None``
    for the root path), as ``collapsed``'s branch-node row holds it."""
    branch = collapsed._branch_node[path]
    return None if branch < 0 else branch


def collapsed_node_of(collapsed, tree_node: int) -> int:
    """Collapsed node (heavy path id) containing a tree node."""
    return collapsed.decomposition.path_of(tree_node)


def collapsed_rows(hpd) -> dict:
    """Every row of ``CollapsedTree(hpd)``, through the accessor API of ``hpd``."""
    tree = hpd.tree
    path_count = hpd.path_count()
    zeros = bytes(4 * path_count)
    parent = array("i", zeros)
    branch_node = array("i", zeros)
    counts = array("i", bytes(4 * (path_count + 1)))
    root_path = -1
    for path_id in range(path_count):
        head = hpd.head(path_id)
        branch = tree.parent(head)
        if branch is None:
            root_path = path_id
            parent[path_id] = -1
            branch_node[path_id] = -1
            continue
        parent_path = hpd.path_of(branch)
        parent[path_id] = parent_path
        branch_node[path_id] = branch
        counts[parent_path + 1] += 1

    for path_id in range(path_count):
        counts[path_id + 1] += counts[path_id]
    child_data = array("i", zeros[: 4 * (path_count - 1)])
    cursor = array("i", counts[:path_count])
    for path_id in range(path_count):
        parent_path = parent[path_id]
        if parent_path >= 0:
            child_data[cursor[parent_path]] = path_id
            cursor[parent_path] += 1

    # order children: branch position on the parent path ascending,
    # then subtree size ascending (largest / exceptional last), then id
    for path_id in range(path_count):
        row = slice(counts[path_id], counts[path_id + 1])
        siblings = child_data[row].tolist()
        if len(siblings) > 1:
            siblings.sort(
                key=lambda child: (
                    hpd.position_on_path(branch_node[child]),
                    tree.subtree_size(hpd.head(child)),
                    child,
                )
            )
            child_data[row] = array("i", siblings)

    child_index = array("i", zeros)
    for path_id in range(path_count):
        for index in range(counts[path_id], counts[path_id + 1]):
            child_index[child_data[index]] = index - counts[path_id]

    depth = array("i", zeros)
    stack = [root_path]
    while stack:
        node = stack.pop()
        for index in range(counts[node], counts[node + 1]):
            child = child_data[index]
            depth[child] = depth[node] + 1
            stack.append(child)

    # postorder (domination) numbering; ~node encodes the exit visit
    postorder_number = array("i", zeros)
    counter = 0
    stack = [root_path]
    while stack:
        node = stack.pop()
        if node < 0:
            postorder_number[~node] = counter
            counter += 1
            continue
        stack.append(~node)
        for index in range(counts[node + 1] - 1, counts[node] - 1, -1):
            stack.append(child_data[index])
    return {
        "root": root_path,
        "parent": parent,
        "branch_node": branch_node,
        "child_start": counts,
        "child_data": child_data,
        "child_index": child_index,
        "depth": depth,
        "postorder_number": postorder_number,
    }


# -- LightDepthLabeling ----------------------------------------------------------


def light_code_rows(collapsed) -> tuple[array, array]:
    """``(codeword_value, codeword_length)`` of ``LightDepthLabeling``."""
    tree = collapsed.tree
    codeword_value = array("q", bytes(8 * len(collapsed)))
    codeword_length = array("h", bytes(2 * len(collapsed)))
    for node in range(len(collapsed)):
        children = collapsed.children(node)
        if not children:
            continue
        weights = [tree.subtree_size(collapsed.head(child)) for child in children]
        for child, (value, length) in zip(children, size_weighted_words(weights)):
            codeword_value[child] = value
            codeword_length[child] = length
    return codeword_value, codeword_length


def size_weighted_words(weights: list[int]) -> list[tuple[int, int]]:
    """``SizeWeightedCode(weights).words``, one sibling group at a time."""
    total = sum(weights)
    lengths = [max(1, (total + w - 1) // w - 1).bit_length() + 1 for w in weights]
    # canonical code assignment: process in order of increasing length
    order = sorted(range(len(weights)), key=lambda i: (lengths[i], i))
    words: list = [None] * len(weights)
    code = 0
    previous_length = lengths[order[0]]
    for position, index in enumerate(order):
        length = lengths[index]
        if position > 0:
            code = (code + 1) << (length - previous_length)
        if code >= (1 << length):
            raise ValueError("Kraft inequality violated; weights inconsistent")
        words[index] = (code, length)
        previous_length = length
    return words


# -- the Section 2 transform -----------------------------------------------------


def attach_leaves(tree: RootedTree, only_internal: bool = False) -> TransformResult:
    """Attach a 0-weight pendant leaf to (internal or all) nodes."""
    n = tree.n
    parents = array("i", (-1 if tree.parent(v) is None else tree.parent(v) for v in tree.nodes()))
    weights = array("q", (tree.edge_weight(v) for v in tree.nodes()))
    query_node = array("i", range(n))

    next_node = n
    for node in tree.nodes():
        if only_internal and tree.is_leaf(node):
            continue
        parents.append(node)
        weights.append(0)
        query_node[node] = next_node
        next_node += 1

    transformed = RootedTree(parents, weights)
    # the inverse of ``query_node`` (the body this replaced left every
    # original node's entry 0 and every pendant leaf's -1)
    origin = array("i", [-1]) * next_node
    for original, node in enumerate(query_node):
        origin[node] = original
    return TransformResult(transformed, query_node, origin)


def _hang_binary(node: int, children, parents: array, next_node: int) -> int:
    """Hang ``children`` below ``node`` with at most two children per node."""
    if len(children) <= 2:
        for child in children:
            parents[child] = node
        return next_node
    parents[children[0]] = node
    anchor = node
    for child in children[1:-2]:
        parents.append(anchor)
        parents[child] = next_node
        anchor = next_node
        next_node += 1
    parents.append(anchor)
    parents[children[-2]] = next_node
    parents[children[-1]] = next_node
    return next_node + 1


def binarize(tree: RootedTree) -> TransformResult:
    """Make every node have at most two children (0-weight dummy chains)."""
    n = tree.n
    parents = array("i", [-1]) * n
    next_node = n
    for node in tree.nodes():
        next_node = _hang_binary(node, tree.children(node), parents, next_node)
    weights = array("q", (tree.edge_weight(v) for v in tree.nodes()))
    weights.extend(array("q", [0]) * (next_node - n))
    transformed = RootedTree(parents, weights)
    query_node = array("i", range(n))
    origin = array("i", range(n)) + array("i", [-1]) * (next_node - n)
    return TransformResult(transformed, query_node, origin)


def prepare_for_leaf_queries(tree: RootedTree, binarize_tree: bool = True) -> TransformResult:
    """Attach pendant leaves, then binarize, in one pass over ``children()``."""
    if not binarize_tree:
        return attach_leaves(tree)
    n = tree.n
    parents = array("i", [-1]) * (2 * n)
    next_node = 2 * n
    for node in tree.nodes():
        children = tree.children(node)
        children.append(n + node)
        next_node = _hang_binary(node, children, parents, next_node)
    weights = array("q", (tree.edge_weight(v) for v in tree.nodes()))
    weights.extend(array("q", [0]) * (next_node - n))
    query_node = array("i", range(n, 2 * n))
    origin = array("i", [-1]) * next_node
    origin[n : 2 * n] = array("i", range(n))
    return TransformResult(RootedTree(parents, weights), query_node, origin)
