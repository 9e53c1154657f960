"""sha256 pins of the serialised bytes of every label format.

A round-trip test cannot see a field reorder (or a changed code) that is
mirrored in both ``write`` and ``read``: the label still parses back to
itself.  These digests can.  Each one is the sha256 of
``DistanceIndex.build(tree, spec).to_bytes()`` for one spec on one fixed
Prüfer tree (every registered scheme, with ``k-distance`` and
``approximate`` at two parameters each), or of the concatenated
``to_bits().to_bytes()`` of a label family that no store holds (NCA,
light-depth, level-ancestor and adjacency labels).  The digests were recorded before the encoders moved
onto the one bit writer, so any change in the bytes fails here.

The heavy-path labels are pinned on two more trees: a weighted one (light
edge weights and weighted exits) and the Prüfer tree with every child list
reversed (path numbering, light codes and domination follow child order).
Those digests were recorded before the heavy-path encoders moved onto the
one root-path walk of ``CollapsedTree.root_path_levels``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import DistanceIndex
from repro.core.adjacency import AdjacencyScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.level_ancestor import LevelAncestorScheme
from repro.core.registry import ALL_SCHEME_NAMES, parse_spec
from repro.generators.random_trees import random_prufer_tree
from repro.nca.labels import LightDepthLabeling
from repro.nca.nca_labeling import NCALabeling
from tree_extras import random_weighted_tree


def _tree():
    return random_prufer_tree(300, seed=27)


def _reordered_tree():
    tree = _tree()
    return tree.with_child_order({node: tree.children(node)[::-1] for node in tree.nodes()})


TREES = {
    "prufer": _tree,
    "weighted": lambda: random_weighted_tree(300, 1000, seed=31),
    "reordered": _reordered_tree,
}


STORE_DIGESTS = {
    "alstrup":
        "a0ec9780ecf0c5d40a731ee7e7f9a4518a1771d0cf8f6f17feb3180d7877cac1",
    "freedman":
        "503de52f65df8a5b21dd5a8ad639111ea44ddb9114f6f87b1c2e83fb0723b07b",
    "freedman-no-accumulators":
        "53d655a7f302771d356c0f04080eb0a76fd75266a85fe2125d6636c471a4d9d8",
    "freedman-no-binarize":
        "a9f1ca7114102d0479e4f9f39b2b982305ea9ea178534a6f33190f229a50892e",
    "freedman-no-fragments":
        "1d4dc8e1a4d79301d74b24581c65699d568e64d9f67861ea8cc85261581a1985",
    "hld-fixed":
        "0b170ece172eefb3f2cc6f0b4d73c8f2b84141da91ba79485ec426895661540c",
    "naive-list":
        "90c50775a506d9059e620ce7f9b3cc8dfac461d181db3bc36d49512761457d99",
    "separator":
        "28711fa22ed5d36a20616af8cbbf255c1b3fbbc7e5c916ec376773b360d2729d",
    # k < log2 n: the compact (Lemma 4.5) layout; k >= log2 n: the simple one
    "k-distance:k=2":
        "ff5901f984ef06027b22551c692b0c78d6b1d16688f38dcd87e906c8ebd83777",
    "k-distance:k=16":
        "af283363d464a882daf6f7950e95e1b4dc799564046eb8bba62241f5568899ba",
    "approximate:epsilon=0.5":
        "028dd99aa3bf634c6f3c935dab4f461575543d399314129d0756c8061acf98ee",
    "approximate:epsilon=0.05":
        "0f14bfd2ea1deb23859d09c81927f611379095bf96fa2c82446994f95b8c44b3",
}

MORE_STORE_DIGESTS = {
    ("weighted", "alstrup"):
        "79b34d34754b6ab0d36831334f65e194bcedfbbaa80380e85bcfdfa20b6267a2",
    ("weighted", "approximate:epsilon=0.5"):
        "51ac2fcf4da894ccee8e0c376ebc0c99720608c99a3808b3bbe4555c40bd187e",
    ("weighted", "hld-fixed"):
        "7dc6bd7c6cfc769db854d779ceaa9d7acf4f1872f0aa7d74cbc5a75091dd5b81",
    ("reordered", "alstrup"):
        "94b431f4d38fabe02f473d130fbed87ecaeff600902c75748cbb2dd6389b158e",
    ("reordered", "approximate:epsilon=0.5"):
        "b66f903db1ad5fcdceeb9735f66a9011482d7b8d337420ebe809b639855674e9",
    ("reordered", "hld-fixed"):
        "c3e85480986198e9b8a8b1bb8f96fc18c96373d50f5cc71c3067e944ad049394",
}

LABEL_FAMILIES = {
    "nca": lambda tree: NCALabeling(tree).encode(),
    "light-depth": lambda tree: LightDepthLabeling(tree).encode(),
    "level-ancestor": lambda tree: LevelAncestorScheme().encode(tree),
    "adjacency": lambda tree: AdjacencyScheme().encode(tree),
}

LABEL_DIGESTS = {
    "nca":
        "c40377e41af4cddacd9f2b81e4e1f148da0cb658eb26a687b381013ed3ee0006",
    "light-depth":
        "41e421f6ac025facc87bae2590ccdb5ce03e8506b49fa35968699cdfd817713b",
    "level-ancestor":
        "328771a247cfad03bb24817c11b690398c19f7fd05e7fd192b22f46d52f478c0",
    "adjacency":
        "3210337585c38af16ec31233a8e334d502f1a70472dac2e713d67d6c57a71ef7",
}

#: level-ancestor labels take unit weights only, so no weighted pin
MORE_LABEL_DIGESTS = {
    ("weighted", "nca"):
        "1dec6da21591d391ee4eb97e1962c5107cd00fe87da75a295277d2956068f4f0",
    ("weighted", "light-depth"):
        "ba1eb3b57f21d421ea2149afaaaa073341ec8ee4ee093b71596698f2dd21a955",
    ("reordered", "nca"):
        "d9d5514fe44452430862f7b733aca522b61a2287f1a2d34235b96e74c4d93dec",
    ("reordered", "light-depth"):
        "92e5b428e51fac87f6c91ddbd44434663bdd9ba73fc816eddfbc17f4672a3fa2",
    ("reordered", "level-ancestor"):
        "32552639725179e19f0df46d37be1e2641e1017ddefcc842927662fd81103603",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cases(digests: dict, more: dict) -> dict:
    """Every ``(tree, name) -> digest`` pin; the Prüfer cases keep bare ids."""
    return {("prufer", name): digest for name, digest in digests.items()} | more


def _params(cases: dict) -> list:
    return [
        pytest.param(tree, name, id=name if tree == "prufer" else f"{name}@{tree}")
        for tree, name in sorted(cases)
    ]


STORE_CASES = _cases(STORE_DIGESTS, MORE_STORE_DIGESTS)
LABEL_CASES = _cases(LABEL_DIGESTS, MORE_LABEL_DIGESTS)


def test_every_registered_scheme_is_pinned():
    assert {parse_spec(spec)[0] for spec in STORE_DIGESTS} == set(ALL_SCHEME_NAMES)


def test_kdistance_pins_cover_both_layouts():
    tree = _tree()
    layouts = set()
    for k in (2, 16):
        labels = KDistanceScheme(k).encode(tree)
        layouts |= {label.compact for label in labels.values()}
    assert layouts == {True, False}


@pytest.mark.parametrize("tree, spec", _params(STORE_CASES))
def test_store_bytes_are_pinned(tree, spec):
    data = DistanceIndex.build(TREES[tree](), spec).to_bytes()
    assert _digest(data) == STORE_CASES[tree, spec]


@pytest.mark.parametrize("tree, family", _params(LABEL_CASES))
def test_label_bytes_are_pinned(tree, family):
    labels = LABEL_FAMILIES[family](TREES[tree]())
    data = b"".join(labels[node].to_bits().to_bytes() for node in range(len(labels)))
    assert _digest(data) == LABEL_CASES[tree, family]
