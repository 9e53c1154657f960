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


def _tree():
    return random_prufer_tree(300, seed=27)


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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_registered_scheme_is_pinned():
    assert {parse_spec(spec)[0] for spec in STORE_DIGESTS} == set(ALL_SCHEME_NAMES)


def test_kdistance_pins_cover_both_layouts():
    tree = _tree()
    layouts = set()
    for k in (2, 16):
        labels = KDistanceScheme(k).encode(tree)
        layouts |= {label.compact for label in labels.values()}
    assert layouts == {True, False}


@pytest.mark.parametrize("spec", sorted(STORE_DIGESTS))
def test_store_bytes_are_pinned(spec):
    data = DistanceIndex.build(_tree(), spec).to_bytes()
    assert _digest(data) == STORE_DIGESTS[spec]


@pytest.mark.parametrize("family", sorted(LABEL_DIGESTS))
def test_label_bytes_are_pinned(family):
    labels = LABEL_FAMILIES[family](_tree())
    data = b"".join(labels[node].to_bits().to_bytes() for node in range(len(labels)))
    assert _digest(data) == LABEL_DIGESTS[family]
