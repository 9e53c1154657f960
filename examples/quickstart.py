"""Quickstart: build a DistanceIndex, save it, reopen it, query it.

Run with::

    python examples/quickstart.py

The walkthrough mirrors the command-line workflow::

    repro-labels build --scheme freedman --family random --n 2000 --out labels.bin
    repro-labels query labels.bin --pairs 1000
    repro-labels catalog add forest.cat --name exact --scheme freedman --n 2000
"""

from __future__ import annotations

import os
import tempfile

from repro import DistanceIndex, IndexCatalog, TreeDistanceOracle, random_prufer_tree


def main() -> None:
    # 1. build (or load) a rooted tree --------------------------------------
    tree = random_prufer_tree(2000, seed=42)
    oracle = TreeDistanceOracle(tree)  # ground truth, used only for checking

    # 2. one handle: encode the tree behind a DistanceIndex -----------------
    # The scheme is chosen by a spec string; "freedman" is the paper's
    # 1/4 log^2 n scheme.  Labels, bit strings and scheme classes stay
    # behind the facade.
    index = DistanceIndex.build(tree, "freedman")

    u, v = 17, 1234
    result = index.query(u, v)
    print("== exact distance index (Freedman et al.) ==")
    print(f"query({u}, {v}) = {result}")
    print(f"value={result.value}  is_exact={result.is_exact}")
    print(f"distance from oracle : {oracle.distance(u, v)}")

    # 3. save the index: one shippable artefact -----------------------------
    # The file is the artefact the paper's model implies: distribute the
    # labels, discard the tree.
    workdir = tempfile.mkdtemp()
    path = os.path.join(workdir, "labels.bin")
    written = index.save(path)
    stats = index.stats()
    print("\n== saved index ==")
    print(f"wrote {path}: {written} bytes for {stats['n']} labels")
    print(f"total label bits: {stats['total_label_bits']} "
          f"(max {stats['max_label_bits']} bits per label)")

    # 4. reopen and serve queries from the file alone -----------------------
    # The scheme is rebuilt from the spec persisted in the file header.
    served = DistanceIndex.open(path)
    print("\n== serving from the file (no tree, no encoder) ==")
    print(f"scheme spec from file: {served.spec}")
    print(f"query({u}, {v}).value = {served.query(u, v).value}")
    pairs = [(17, 1234), (0, 1999), (5, 5), (42, 1000)]
    print(f"batch values: {[r.value for r in served.batch(pairs)]}")
    print("4x4 matrix over chosen nodes (raw=True skips result wrapping):")
    for row in served.matrix([17, 1234, 0, 1999], raw=True):
        print(f"  {row}")

    # 5. bounded distances: is v within k hops of u? ------------------------
    bounded = DistanceIndex.build(tree, "k-distance:k=8")
    answer = bounded.query(u, v)
    print("\n== k-distance index (k=8) ==")
    print(f"query({u}, {v}) = {answer}")
    print(f"within bound? {answer.within_bound}")

    # 6. approximate distances with much smaller labels ---------------------
    approx = DistanceIndex.build(tree, "approximate:epsilon=0.5")
    estimate = approx.query(u, v)
    print("\n== (1+eps)-approximate index (eps=0.5) ==")
    print(f"estimate {estimate.value:.1f} vs exact {oracle.distance(u, v)} "
          f"(guaranteed <= {estimate.ratio_bound}x)")
    print(f"store size: {approx.stats()['payload_bytes']} bytes "
          f"vs exact {stats['payload_bytes']} bytes")

    # 7. a forest in one file: the IndexCatalog -----------------------------
    catalog = IndexCatalog()
    catalog.add("exact", index)
    catalog.add("bounded", bounded)
    catalog.add("approx", approx)
    forest_path = os.path.join(workdir, "forest.cat")
    catalog.save(forest_path)

    reopened = IndexCatalog.load(forest_path)  # reads only the TOC
    print("\n== catalog: three indexes, one artefact ==")
    print(f"members: {reopened.names()}")
    print(f"routed query('exact', {u}, {v}).value = "
          f"{reopened.query('exact', u, v).value}")
    print(f"routed query('approx', {u}, {v}).value = "
          f"{reopened.query('approx', u, v).value:.1f}")


if __name__ == "__main__":
    main()
