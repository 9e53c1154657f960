"""The Section 2 transform: leaf attachment and binarization.

The paper reduces distance labeling of an arbitrary unweighted tree to
labeling the *leaves* of a *binary* tree whose edges have weights in
``{0, 1}``:

* every node ``u`` receives a pendant leaf ``u+`` attached by a 0-weight
  edge (queries are asked on the pendant leaves),
* nodes with more than two children are replaced by a chain of intermediate
  nodes connected by 0-weight edges.

Both operations preserve all pairwise distances between the pendant leaves,
so a scheme that labels the leaves of the transformed tree labels every node
of the original tree.

Deviation from the paper (Section 2 of arXiv:1608.00212 attaches pendant
leaves to internal nodes only): we attach a pendant leaf to *every*
original node.  This guarantees that every queried node hangs off its
ancestor heavy paths via light edges, which the accumulator reconstruction
of Property 3.2 relies on.

:func:`prepare_for_leaf_queries` attaches the leaves and binarizes in one
pass over the original tree, with the dummy chains of :func:`binarize`.

The node maps are compact ``array('i')`` rows rather than dicts (4 bytes
per node instead of ~100 per dict entry): ``query_node[original]`` indexes
exactly like the old mapping, and ``origin`` uses ``-1`` for transformed
nodes that represent no original node.  At the 10⁷-node scale of
:mod:`repro.scale` the dict versions alone cost gigabytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.trees.tree import RootedTree


@dataclass
class TransformResult:
    """Outcome of a tree transform.

    Attributes:
        tree: the transformed tree.
        query_node: row indexed by original node giving the node of ``tree``
            on which queries about the original node should be asked.
        origin: inverse row indexed by transformed node (``-1`` where the
            transformed node represents no original node).
    """

    tree: RootedTree
    query_node: array
    origin: array


def attach_leaves(tree: RootedTree, only_internal: bool = False) -> TransformResult:
    """Attach a 0-weight pendant leaf to (internal or all) nodes.

    Returns a transform whose ``query_node`` maps every original node to its
    pendant leaf (or to itself if no leaf was attached).
    """
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
    origin = array("i", bytes(4 * next_node))
    for node in range(n, next_node):
        origin[node] = -1
    return TransformResult(transformed, query_node, origin)


def _hang_binary(node: int, children, parents: array, next_node: int) -> int:
    """Hang ``children`` below ``node`` with at most two children per node.

    A node with children ``c1 .. ck`` (k > 2) keeps ``c1`` and delegates the
    rest to a chain of fresh dummies, each holding one child and the next
    dummy, the last holding two.  Dummies are numbered from ``next_node``
    and appended to ``parents`` (so ``len(parents) == next_node`` on entry);
    the caller gives them 0-weight edges.  Returns the next free node id.
    """
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
    """Make every node have at most two children.

    A node with children ``c1 .. ck`` (k > 2) keeps ``c1`` and delegates the
    rest to a chain of fresh internal nodes connected by 0-weight edges, so
    all original pairwise distances are preserved.
    """
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


def prepare_for_leaf_queries(
    tree: RootedTree, binarize_tree: bool = True
) -> TransformResult:
    """Full Section 2 pipeline: attach pendant leaves, then binarize.

    The result's ``query_node`` maps each original node to a *leaf* of the
    transformed tree, and all leaf-to-leaf distances in the transformed tree
    equal the corresponding original distances.

    With ``binarize_tree`` both steps run in one pass that constructs one
    :class:`RootedTree`: node ``v``'s pendant leaf is ``n + v`` and hangs
    last among ``v``'s children, so the node numbering, parents and weights
    are exactly those of ``binarize(attach_leaves(tree).tree)``.
    """
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
