"""Rooted subtree embedding checks.

A rooted tree ``S`` embeds in a rooted tree ``T`` as a subtree when there is
an injective map from the nodes of ``S`` to the nodes of ``T`` that sends
the parent of a node to the parent of its image.  (This is the containment
notion of the universal-tree results the paper builds on: the universal tree
must contain every tree as a subtree, not merely as a minor.)

The check runs a classical recursive bipartite matching: node ``s`` can map
onto node ``t`` when the children of ``s`` can be matched to *distinct*
children of ``t`` such that every matched pair embeds recursively.
"""

from __future__ import annotations

from functools import lru_cache

from repro.trees.tree import RootedTree


def embeds_as_rooted_subtree(small: RootedTree, big: RootedTree) -> bool:
    """Whether ``small`` embeds somewhere inside ``big`` (parent-preserving)."""
    if small.n > big.n:
        return False

    small_children = {node: small.children(node) for node in small.nodes()}
    big_children = {node: big.children(node) for node in big.nodes()}

    @lru_cache(maxsize=None)
    def can_map(s_node: int, t_node: int) -> bool:
        s_kids = small_children[s_node]
        if not s_kids:
            return True
        t_kids = big_children[t_node]
        if len(t_kids) < len(s_kids):
            return False
        # bipartite matching: s_kids -> distinct t_kids
        match: dict[int, int] = {}

        def augment(s_index: int, seen: set[int]) -> bool:
            for t_index, t_kid in enumerate(t_kids):
                if t_index in seen:
                    continue
                if not can_map(s_kids[s_index], t_kid):
                    continue
                seen.add(t_index)
                if t_index not in match or augment(match[t_index], seen):
                    match[t_index] = s_index
                    return True
            return False

        for s_index in range(len(s_kids)):
            if not augment(s_index, set()):
                return False
        return True

    return any(can_map(small.root, t_node) for t_node in big.nodes())
