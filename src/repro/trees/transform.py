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
    pendant leaf (or to itself if no leaf was attached); ``origin`` is its
    inverse.
    """
    n = tree.n
    start = tree._child_start
    if only_internal:
        hosts = array("i", (v for v in range(n) if start[v + 1] != start[v]))
    else:
        hosts = array("i", range(n))
    parents = tree._parents + hosts
    weights = tree._weights + array("q", bytes(8 * len(hosts)))
    query_node = array("i", range(n))
    origin = array("i", range(n)) + array("i", [-1]) * len(hosts)
    for pendant, host in enumerate(hosts, n):
        query_node[host] = pendant
        origin[pendant] = host
        origin[host] = -1
    return TransformResult(RootedTree(parents, weights), query_node, origin)


def _binarized_parents(tree: RootedTree, pendant: bool) -> array:
    """Parent row of ``tree`` with every node's children hung binary.

    With ``pendant`` node ``v`` first gains the 0-weight pendant leaf
    ``n + v`` as its last child.  A node whose children ``c1 .. cm``
    number more than two keeps ``c1`` and delegates the rest to a chain of
    ``m - 2`` fresh dummies: the first dummy hangs from the node and each
    next one from the one before; ``c2 .. c(m-1)`` hang one per dummy and
    ``cm`` joins ``c(m-1)`` on the last.  Dummies are numbered in node
    order after the nodes (and pendant leaves) and are the returned row's
    tail.  The children are read straight from the CSR rows; only nodes
    with three or more children are touched.
    """
    n = tree.n
    start, data = tree._child_start, tree._child_data
    parents = array("i", tree._parents)
    if pendant:
        parents.extend(range(n))
    next_node = len(parents)
    for node in range(n):
        first, end = start[node], start[node + 1]
        count = end - first + pendant
        if count <= 2:
            continue
        # dummies next_node .. last: the first hangs from the node, each
        # next one from the one before
        last = next_node + count - 3
        parents.append(node)
        parents.extend(range(next_node, last))
        moved = data[first + 1 : end] if pendant else data[first + 1 : end - 1]
        for dummy, child in zip(range(next_node, last + 1), moved):
            parents[child] = dummy
        parents[n + node if pendant else data[end - 1]] = last
        next_node = last + 1
    return parents


def _with_dummy_weights(tree: RootedTree, parents: array) -> array:
    """The tree's edge weights, then 0 for every node it does not have."""
    return tree._weights + array("q", bytes(8 * (len(parents) - tree.n)))


def binarize(tree: RootedTree) -> TransformResult:
    """Make every node have at most two children.

    A node with children ``c1 .. ck`` (k > 2) keeps ``c1`` and delegates the
    rest to a chain of fresh internal nodes connected by 0-weight edges, so
    all original pairwise distances are preserved.
    """
    n = tree.n
    parents = _binarized_parents(tree, pendant=False)
    transformed = RootedTree(parents, _with_dummy_weights(tree, parents))
    query_node = array("i", range(n))
    origin = array("i", range(n)) + array("i", [-1]) * (len(parents) - n)
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
    parents = _binarized_parents(tree, pendant=True)
    transformed = RootedTree(parents, _with_dummy_weights(tree, parents))
    query_node = array("i", range(n, 2 * n))
    origin = array("i", [-1]) * len(parents)
    origin[n : 2 * n] = array("i", range(n))
    return TransformResult(transformed, query_node, origin)
