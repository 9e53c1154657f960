"""sha256 pins of Freedman encoder output, tree to store bytes.

Each digest is ``LabelStore.from_labels(scheme, scheme.encode(tree))
.to_bytes()`` for one tree family under the default scheme and under each
ablation, and also the file :func:`repro.store.write_store` writes.  The digests were recorded before the encoder was rewritten to
shift fields into one integer, so any change to the bytes the encoder
emits (field order, code widths, dummy-chain numbering in the transform)
fails here even when encoding and parsing still agree with each other.
The ``hm`` digests were recorded before the encoder began to shift each
label into its word straight from per-path rows; that tree is the only
one here whose fat subtrees push bits into accumulators.  The ``two``,
``three`` and ``LARGE`` digests were recorded before the encoder began to
build each label from its parent path's shared field groups.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.freedman import FreedmanScheme
from repro.generators.random_trees import (
    random_binary_tree,
    random_caterpillar,
    random_prufer_tree,
    random_weighted_tree,
)
from repro.generators.structured import path_tree, star_tree
from repro.lowerbounds.hm_trees import (
    build_hm_tree,
    hm_parameter_count,
    subdivide_to_unweighted,
)
from repro.store import LabelStore, write_store
from repro.trees.tree import RootedTree

TREES = {
    "prufer": lambda: random_prufer_tree(300, seed=3),
    "binary": lambda: random_binary_tree(300, seed=5),
    "caterpillar": lambda: random_caterpillar(300, seed=7),
    # one node of degree 49: the longest dummy chain the transform builds
    "star": lambda: star_tree(50),
    "path": lambda: path_tree(120),
    "single": lambda: RootedTree([None]),
    # the smallest trees with a light edge: a root path with one child path
    "two": lambda: RootedTree([None, 0]),
    "three": lambda: RootedTree([None, 0, 0]),
    "weighted": lambda: random_weighted_tree(200, 7, seed=9),
    # the adversarial (h, M) family, subdivided: 745 nodes, 16 pushed bits
    "hm": lambda: subdivide_to_unweighted(
        build_hm_tree(5, 16, [8] * hm_parameter_count(5)).tree
    )[0],
}

SCHEMES = {
    "default": {},
    "no-binarize": {"binarize": False},
    "no-fragments": {"use_fragments": False},
    "no-accumulators": {"use_accumulators": False},
}

DIGESTS = {
    ("prufer", "default"):
        "173635fc2a490520d2a7aefca8fd10c57fc9d9cd920fd7177b696f47f05b95cb",
    ("prufer", "no-binarize"):
        "c8af8c3623344683c658d4fedb46291794e08f6bba6dd5072ba3f3cb4e84f1e1",
    ("prufer", "no-fragments"):
        "ee1dfd43d1e81b73ffb7773d3e59cf6ba1c2fc094abcd4ee641da8203e8d3d37",
    ("prufer", "no-accumulators"):
        "b6fb5ef3414fd8e3bc0a537e71a627a585757acd95a0820704cde18bfec510ed",
    ("binary", "default"):
        "c34282ac234fb56be0b72f1a55fabf5d2f8f2d1431645fbcd96d86a295559135",
    ("binary", "no-binarize"):
        "6780600a665fd010fa17ec26daedc1f877f2f389a84f11c0f1fb338a7f7b8f5f",
    ("binary", "no-fragments"):
        "a696861d9442c743e306ad19ec0833ccf0335e3d3762e5c7534694ec3f51e09a",
    ("binary", "no-accumulators"):
        "c2f356b598b0c9633b45c63e485c8ac41a118c1f9ed7f613075da61429493102",
    ("caterpillar", "default"):
        "7bb2f8e9c8ff75854977c946bb97315a4b087a77d741662edad9177a0584c3b6",
    ("caterpillar", "no-binarize"):
        "ceb6ba66316cb4743a554c6791005aff026849ad6088c2f5cba2c80eb6b58d7c",
    ("caterpillar", "no-fragments"):
        "5afef18ba2e0159f7c11aac0f4bd36afac979a6bda4e2442081f70bbbb9c1927",
    ("caterpillar", "no-accumulators"):
        "b3bb204db1ba7c3eaf161688609f6c92de57c0cdaebca1f141403e54cd5f5b7b",
    ("star", "default"):
        "163e50afe95554e84c293ed75852e2945092d5620fcdfe5fac5a1723f5c0055b",
    ("star", "no-binarize"):
        "695d8917cb851b44c566260f04667196ffa039e0d86a851d1ce7ec8afd9e2587",
    ("star", "no-fragments"):
        "327e1eb9eac647c3b27f416f33e11a37f503a2ce94ab7b995b9f8dc609877d67",
    ("star", "no-accumulators"):
        "aef00f2a2d707bf10780ea583091db4649e9b573ec817cfd6421dbd8134a4ef3",
    ("path", "default"):
        "fc94947a73eaf278b9e2a9ea4b018e68664f0083ee97ec0b57cb7864fde13bfd",
    ("path", "no-binarize"):
        "c4661ea68d1018a426f8930b99d29cbf024a57ec55347c1c08e17b07c79e1955",
    ("path", "no-fragments"):
        "f5ba0cdd703a18cc96effd0d01301d135603b4eeef4376888d714a162ca7ae61",
    ("path", "no-accumulators"):
        "65d5677c53cedda0daf404b2f2cc519119b81a52799283b33cf3f044392d48c8",
    ("single", "default"):
        "0c571a6e7227e3879d48ff678d9b25b96612a6a41c6581847253c30e5c22ddc2",
    ("single", "no-binarize"):
        "c23d05d137911342f588a87168f20f41692118625e5733e93990aedcbd1527e2",
    ("single", "no-fragments"):
        "9bbd36516ace2a403018405fed887f20a7546f979643545ffdbe5d6160a3697e",
    ("single", "no-accumulators"):
        "c02a97a3750721bab34fa13d156107aedf7b43a0a11d29d5e42b2ef1225a6742",
    ("two", "default"):
        "40442de09afa00e67ea009e9371c75847ef52f03a975a49b98c7e73599968c53",
    ("two", "no-binarize"):
        "2c641d43f1f84a0d9e11d8cd7a07f88cb64dde5a6ce95c6149627329c013c11d",
    ("two", "no-fragments"):
        "0d301b7f656360114f5af5d6665cd495bffe5e983385f2cdaa22ff5ad4d2aa4d",
    ("two", "no-accumulators"):
        "058aa9786b5f28a296ca11191f93d877fa5e4f669db660fe5ba0e806d04e5de8",
    ("three", "default"):
        "8c6d7ae0a4b7a63b68bb3af8fdb9f516c720539ebfffb6322dda4fde8c1be6d3",
    ("three", "no-binarize"):
        "bf53b5f598848c447741871d20413b74fe2c4ca588cb9a15b15e2780c79a898d",
    ("three", "no-fragments"):
        "49eb6ab39a7738070899d54d43ca0f96c503e7996b7a594df524aecdd6150240",
    ("three", "no-accumulators"):
        "1b5bdb07c0ea398d6619c3ce834976932e7de4286e65625105cd5e14cf0d9ca1",
    ("weighted", "default"):
        "ae9cd8ab431a076e907ffed344180d74fa87b91b215e68b17e4d909bafea0edd",
    ("weighted", "no-binarize"):
        "96eab99f1f7827e125ac1f69215a144bba0b94826553d559f41d2ab6b81f713a",
    ("weighted", "no-fragments"):
        "fd316669e104932bcac31a33f69b75f1684a2c615307ecd07c5e96906a5e274e",
    ("weighted", "no-accumulators"):
        "c122521e3692b4e636643dd18e83f01dd0928ad31da001da69c15ba880d383c8",
    ("hm", "default"):
        "9166273f1ed04ab0b62e9259ba671d79eec3061006649d507e8d1bb29fda7b41",
    ("hm", "no-binarize"):
        "29fc7f9d5cb7d7994ac5289951548a6ce064e6d5f9dd97fd6976c8d9137b7da3",
    ("hm", "no-fragments"):
        "e83005a38bf2db86dd5b16fd3036e6fd27ccaab394127e268a0472017a0b048f",
    ("hm", "no-accumulators"):
        "73fcfe5a81730a3ed3a9bdc03ace6fdcd2e391e165813576472859325d446c59",
}

#: an unweighted tree large enough that some labels add no fragment boundary
#: of their own (no tree in ``TREES`` but ``weighted`` has one); pinned only
#: under the two ablations that change its collapsed tree
LARGE = lambda: random_prufer_tree(10_000, seed=1)  # noqa: E731

LARGE_DIGESTS = {
    "default": "eb706e1674d81a9c34a857d6f72c6e3750610836d899098f0ae7c4ff64bb6a2d",
    "no-binarize": "7776038aac9e6603e19a6ed1a7caab7fd6566ff3d8a0f70a816159f786cd6f72",
}


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("family", sorted(TREES))
def test_encode_bytes_are_pinned(family, scheme_name, tmp_path):
    scheme = FreedmanScheme(**SCHEMES[scheme_name])
    _assert_pinned(scheme, TREES[family](), tmp_path, DIGESTS[(family, scheme_name)])


@pytest.mark.parametrize("scheme_name", sorted(LARGE_DIGESTS))
def test_large_prufer_bytes_are_pinned(scheme_name, tmp_path):
    scheme = FreedmanScheme(**SCHEMES[scheme_name])
    _assert_pinned(scheme, LARGE(), tmp_path, LARGE_DIGESTS[scheme_name])


def _assert_pinned(scheme, tree, tmp_path, digest):
    path = tmp_path / "store.bin"
    write_store(scheme, tree, path)
    for data in (
        LabelStore.from_labels(scheme, scheme.encode(tree)).to_bytes(),
        path.read_bytes(),
    ):
        assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("scheme_name", ["default", "no-binarize", "no-fragments"])
def test_hm_tree_pushes_accumulator_bits(scheme_name):
    """The ``hm`` pins cover the accumulator prefixes: bits really are pushed."""
    scheme = FreedmanScheme(**SCHEMES[scheme_name])
    labels = scheme.encode(TREES["hm"]())
    assert scheme.encoding_stats["pushed_bits"] > 0
    assert any(len(bits) for label in labels.values() for bits in label.accumulators)
