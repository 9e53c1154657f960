"""Seeded inputs and reference answers, made in untimed preparation.

The workload seed reaches the program only through what is generated here:
trees, query pairs and the saved index files.  Every expected answer comes
from :class:`repro.oracles.exact_oracle.TreeDistanceOracle`, which sees the
tree itself and never the labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api import DistanceIndex
from repro.generators.random_trees import random_binary_tree, random_prufer_tree
from repro.generators.structured import caterpillar_tree
from repro.generators.workloads import uniform_pairs, zipf_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle

SCHEME = "freedman"
BATCH = 64  #: pairs per query-cold ``batch`` call
ZIPF_SKEW = 1.1  #: serve-warm endpoint popularity ~ rank^-1.1
CONNECTIONS = 2  #: serve-warm client connections sharing the callers
CHUNK_S = 0.06  #: target reference-host seconds of one timed chunk

#: the tree families the build workload cycles through: random Prüfer,
#: random binary and a caterpillar (a spine with one leg per spine node,
#: which has no random shape)
FAMILIES = (
    random_prufer_tree,
    random_binary_tree,
    lambda n, seed: caterpillar_tree(n),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode (full or smoke)."""

    build_nodes: tuple[int, ...]  #: tree sizes of the build workload, per family
    build_sample_pairs: int  #: pairs re-queried from every freshly built store
    cold_n: int  #: query-cold tree size, >= 4x the parse cache
    cold_cache: int  #: the engine's parse-cache size on query-cold
    cold_batches: int  #: distinct 64-pair batches the measured loop cycles
    count_batches: int  #: batches of the fixed pass behind the exact counts
    warm_n: int  #: serve-warm tree size, fits the parse cache
    warm_pairs: int  #: distinct Zipf pairs the callers cycle
    callers: int  #: concurrent closed-loop callers on serve-warm
    min_calls: int  #: query-cold runs at least this many batch calls (p99 needs 1000)
    setup_reps: int  #: fresh set-ups per run (median reported)
    build_setup_reps: int  #: fresh set-ups per build run (each encodes a tree)


FULL = Sizes(
    build_nodes=(2048, 3072, 4096),
    build_sample_pairs=64,
    cold_n=16384,
    cold_cache=4096,
    cold_batches=2048,
    count_batches=256,
    warm_n=4096,
    warm_pairs=65536,
    callers=32,
    min_calls=1100,
    setup_reps=9,
    build_setup_reps=5,
)

SMOKE = Sizes(
    build_nodes=(200,),
    build_sample_pairs=32,
    cold_n=1024,
    cold_cache=256,
    cold_batches=32,
    count_batches=16,
    warm_n=256,
    warm_pairs=2048,
    callers=8,
    min_calls=20,
    setup_reps=3,
    build_setup_reps=2,
)


class BuildInputs:
    """Trees of three families, each with a re-query sample and its answers.

    Every seed builds the same sizes in the same order — only the random
    shapes change — so the per-tree latencies of two seeds are comparable.
    """

    def __init__(self, sizes: Sizes, seed: int) -> None:
        rng = random.Random(f"build:{seed}")
        self.trees = []
        self.samples = []
        self.expected = []
        for nodes in sizes.build_nodes:
            for generator in FAMILIES:
                tree = generator(nodes, rng.getrandbits(32))
                pairs = uniform_pairs(tree.n, sizes.build_sample_pairs, rng.getrandbits(32))
                oracle = TreeDistanceOracle(tree)
                self.trees.append(tree)
                self.samples.append(pairs)
                self.expected.append([oracle.distance(u, v) for u, v in pairs])


class ColdInputs:
    """A random binary tree of ``cold_n`` nodes saved as a Freedman index
    file, uniform 64-pair batches over it and their answers.

    Random binary trees vary less in label size from seed to seed than
    Prüfer trees (IQR of the mean label bits over ten seeds at n=4096:
    1.8% against 4.2%), so the seed moves the timings less.
    """

    def __init__(self, sizes: Sizes, seed: int, path: str) -> None:
        rng = random.Random(f"query-cold:{seed}")
        tree = random_binary_tree(sizes.cold_n, rng.getrandbits(32))
        DistanceIndex.build(tree, SCHEME).save(path)
        self.path = path
        self.cache_size = sizes.cold_cache
        self.min_calls = sizes.min_calls
        pairs = uniform_pairs(tree.n, sizes.cold_batches * BATCH, rng.getrandbits(32))
        oracle = TreeDistanceOracle(tree)
        answers = [oracle.distance(u, v) for u, v in pairs]
        self.batches = [pairs[i : i + BATCH] for i in range(0, len(pairs), BATCH)]
        self.expected = [answers[i : i + BATCH] for i in range(0, len(answers), BATCH)]


class WarmInputs:
    """A random binary tree of ``warm_n`` nodes saved as a Freedman index
    file and a Zipf pair stream over it with its answers."""

    def __init__(self, sizes: Sizes, seed: int, path: str) -> None:
        rng = random.Random(f"serve-warm:{seed}")
        tree = random_binary_tree(sizes.warm_n, rng.getrandbits(32))
        DistanceIndex.build(tree, SCHEME).save(path)
        self.path = path
        self.n = tree.n
        self.pairs = zipf_pairs(
            tree.n, sizes.warm_pairs, skew=ZIPF_SKEW, seed=rng.getrandbits(32)
        )
        oracle = TreeDistanceOracle(tree)
        memo: dict[tuple[int, int], int] = {}
        expected = []
        for pair in self.pairs:
            answer = memo.get(pair)
            if answer is None:
                answer = memo[pair] = oracle.distance(*pair)
            expected.append(answer)
        self.expected = expected
