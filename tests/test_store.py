"""Tests for the packed label store and the batch query engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.approximate import ApproximateScheme
from repro.core.freedman import FreedmanScheme
from repro.core.kdistance import KDistanceScheme
from repro.core.registry import SCHEMES, make_any_scheme
from repro.encoding.bitio import BitError, Bits
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import STORE_MAGIC, LabelStore, QueryEngine, StoreError
from repro.store.label_store import read_header
from strategies import parent_array_trees

# every registered scheme as a (factory, kind) pair: the full exact registry
# (ablation aliases included) plus one bounded and one approximate instance
ALL_REGISTERED = [
    *[(name, factory, "exact") for name, factory in sorted(SCHEMES.items())],
    ("k-distance", lambda: KDistanceScheme(4), "bounded"),
    ("approximate", lambda: ApproximateScheme(0.5), "approximate"),
]


def _encoded_engine(scheme, tree, **kwargs):
    """A query engine over ``tree`` freshly encoded with ``scheme``."""
    return QueryEngine(LabelStore.encode_tree(scheme, tree), scheme=scheme, **kwargs)


def expected_answer(kind, scheme, exact):
    """The acceptable answer(s) for one query given the oracle distance."""
    if kind == "exact":
        return lambda answer: answer == exact
    if kind == "bounded":
        return lambda answer: answer == (exact if exact <= scheme.k else None)
    return lambda answer: (
        answer == 0
        if exact == 0
        else exact - 1e-9 <= answer <= (1 + scheme.epsilon) * exact + 1e-9
    )


class TestByteCodes:
    @given(st.integers(min_value=0, max_value=2**60))
    def test_uvarint_roundtrip(self, value):
        blob = encode_uvarint(value)
        decoded, pos = decode_uvarint(blob)
        assert decoded == value
        assert pos == len(blob)

    def test_uvarint_stream(self):
        blob = b"".join(encode_uvarint(v) for v in [0, 1, 127, 128, 300, 2**40])
        pos, values = 0, []
        while pos < len(blob):
            value, pos = decode_uvarint(blob, pos)
            values.append(value)
        assert values == [0, 1, 127, 128, 300, 2**40]

    def test_uvarint_truncated(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80")

    @given(st.text(alphabet="01", max_size=70))
    def test_bits_pack_roundtrip(self, data):
        bits = Bits(data)
        assert Bits.from_bytes(bits.to_bytes(), len(bits)) == bits

    def test_bits_from_memoryview(self):
        packed = Bits("10110011101").to_bytes()
        assert Bits.from_bytes(memoryview(packed), 11) == Bits("10110011101")

    def test_bits_unpack_short_buffer(self):
        with pytest.raises(BitError):
            Bits.from_bytes(b"\xff", 9)


class TestLabelStoreRoundTrip:
    @pytest.mark.parametrize("name,factory,kind", ALL_REGISTERED)
    def test_encode_save_load_query(self, tmp_path, name, factory, kind):
        """The satellite round trip: encode -> save -> load -> query."""
        scheme = factory()
        tree = make_tree("random", 80, seed=11)
        oracle = TreeDistanceOracle(tree)
        labels = scheme.encode(tree)
        store = LabelStore.from_labels(scheme, labels)

        path = tmp_path / f"{name}.bin"
        written = store.save(path)
        assert written == path.stat().st_size == store.file_bytes

        loaded = LabelStore.load(path)
        assert loaded.n == tree.n
        assert loaded.scheme_name == scheme.name
        assert loaded.scheme_params == scheme.params()
        for node in tree.nodes():
            assert loaded.label_bits(node) == labels[node].to_bits()
            assert loaded.bit_length(node) == labels[node].bit_length()

        engine = QueryEngine(loaded)
        for u, v in random_pairs(tree, 60, seed=4):
            check = expected_answer(kind, scheme, oracle.distance(u, v))
            assert check(engine.query(u, v))

    def test_space_accounting(self):
        scheme = FreedmanScheme()
        tree = make_tree("random", 60, seed=2)
        labels = scheme.encode(tree)
        store = LabelStore.from_labels(scheme, labels)
        assert store.total_label_bits == sum(l.bit_length() for l in labels.values())
        assert store.max_label_bits == max(l.bit_length() for l in labels.values())
        assert store.payload_bytes == sum(
            (l.bit_length() + 7) // 8 for l in labels.values()
        )
        assert store.file_bytes > store.payload_bytes  # header + index

    def test_raw_is_zero_copy(self):
        scheme = FreedmanScheme()
        store = LabelStore.encode_tree(scheme, make_tree("random", 30, seed=5))
        view = store.raw(7)
        assert isinstance(view, memoryview)
        assert Bits.from_bytes(view, store.bit_length(7)) == store.label_bits(7)

    def test_iter_bits_matches_lookups(self):
        store = LabelStore.encode_tree(FreedmanScheme(), make_tree("path", 12))
        assert list(store.iter_bits()) == [store.label_bits(i) for i in range(store.n)]

    def test_single_node_tree(self, tmp_path):
        from repro.trees.tree import RootedTree

        store = LabelStore.encode_tree(FreedmanScheme(), RootedTree([None]))
        path = tmp_path / "one.bin"
        store.save(path)
        loaded = LabelStore.load(path)
        assert QueryEngine(loaded).query(0, 0) == 0


class TestLabelStoreErrors:
    def test_bad_magic(self):
        with pytest.raises(StoreError):
            LabelStore.from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated_header(self):
        blob = LabelStore.encode_tree(FreedmanScheme(), make_tree("path", 8)).to_bytes()
        with pytest.raises(StoreError):
            LabelStore.from_bytes(blob[: len(STORE_MAGIC) + 2])

    def test_payload_index_mismatch(self):
        with pytest.raises(StoreError):
            LabelStore("freedman", {}, [9], b"\x00")  # 9 bits need 2 bytes

    def test_bad_label_keys(self):
        scheme = FreedmanScheme()
        labels = scheme.encode(make_tree("path", 5))
        labels[99] = labels.pop(0)
        with pytest.raises(StoreError):
            LabelStore.from_labels(scheme, labels)

    def test_node_out_of_range(self):
        store = LabelStore.encode_tree(FreedmanScheme(), make_tree("path", 5))
        with pytest.raises(StoreError):
            store.label_bits(5)

    def test_unknown_scheme_spec(self):
        with pytest.raises(KeyError):
            make_any_scheme("no-such-scheme")

    @pytest.mark.parametrize(
        "name, params",
        [("no-such-scheme", {}), ("k-distance", {"k": -1}), ("freedman", {"q": 1})],
    )
    def test_bad_scheme_in_header_is_a_store_error(self, name, params):
        store = LabelStore(name, params, [], b"")
        with pytest.raises(StoreError):
            store.make_scheme()

    def test_params_must_be_a_json_object(self):
        blob = LabelStore("freedman", {}, [], b"").to_bytes()
        assert read_header(blob) == ("freedman", {}, 0, len(blob))
        assert blob.endswith(b"{}\x00")
        with pytest.raises(StoreError, match="JSON object"):
            LabelStore.from_bytes(blob[:-3] + b"[]\x00")

    @pytest.mark.parametrize(
        "spec", ["freedman", "k-distance:k=3", "approximate:epsilon=0.5"]
    )
    def test_every_scheme_byte_flip_is_typed(self, spec):
        """Each single-bit flip of the name and params fields (their length
        varints included) opens cleanly or raises ``StoreError``."""
        from repro.api import DistanceIndex

        tree = make_tree("random", 300, seed=3)
        blob = DistanceIndex.build(tree, spec).to_bytes()
        _, _, n, pos = read_header(blob)
        end = pos - len(encode_uvarint(n))
        outcomes = {"opened": 0, "StoreError": 0}
        for index in range(len(STORE_MAGIC), end):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[index] ^= 1 << bit
                try:
                    DistanceIndex.from_bytes(bytes(flipped))
                except StoreError:
                    outcomes["StoreError"] += 1
                else:
                    outcomes["opened"] += 1
        assert sum(outcomes.values()) == 8 * (end - len(STORE_MAGIC))
        assert outcomes["StoreError"] > 0

    def test_alias_rejects_params(self):
        with pytest.raises(ValueError):
            make_any_scheme("freedman-no-fragments", k=3)


class TestQueryEngine:
    def test_batch_matches_single(self):
        tree = make_tree("random", 120, seed=9)
        engine = _encoded_engine(FreedmanScheme(), tree)
        pairs = random_pairs(tree, 150, seed=1)
        assert engine.batch_distance(pairs) == [engine.query(u, v) for u, v in pairs]

    def test_batch_parses_each_label_once(self):
        tree = make_tree("random", 50, seed=3)
        engine = _encoded_engine(FreedmanScheme(), tree, cache_size=4096)
        pairs = random_pairs(tree, 300, seed=2)
        engine.batch_query(pairs)
        distinct = {node for pair in pairs for node in pair}
        assert engine.cache_misses == len(distinct)

    def test_lru_eviction(self):
        tree = make_tree("path", 40)
        engine = _encoded_engine(FreedmanScheme(), tree, cache_size=4)
        for node in range(10):
            engine.parsed_label(node)
        info = engine.cache_info()
        assert info["size"] == 4 and info["misses"] == 10
        engine.parsed_label(9)  # most recent entry is still cached
        assert engine.cache_hits == 1
        engine.clear_cache()
        backend = kernels.backend().tier_for(engine.scheme)
        assert engine.cache_info() == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "size": 0,
            "max_size": 4,
            "backend": backend,
            "arena": {"bytes": 0, "decodes": 0} if backend == "native" else None,
        }

    def test_distance_matrix_matches_oracle(self):
        tree = make_tree("random", 40, seed=6)
        oracle = TreeDistanceOracle(tree)
        engine = _encoded_engine(FreedmanScheme(), tree)
        assert engine.distance_matrix() == oracle.distance_matrix()
        nodes = [3, 17, 0, 29]
        assert engine.distance_matrix(nodes) == oracle.distance_matrix(nodes)

    def test_big_matrix_does_not_thrash_cache(self):
        """A matrix reads the cache but never changes it, whatever its size."""
        tree = make_tree("random", 40, seed=6)
        oracle = TreeDistanceOracle(tree)
        engine = _encoded_engine(FreedmanScheme(), tree, cache_size=8)

        for node in range(8):  # warm the cache to capacity
            engine.parsed_label(node)
        warm = dict(engine._cache)
        before = engine.cache_info()

        assert engine.distance_matrix() == oracle.distance_matrix()
        # the warm entries survived (same parsed objects, same LRU order)
        assert list(engine._cache.items()) == list(warm.items())
        # and the matrix neither counted nor admitted anything
        assert engine.cache_info() == before

    def test_big_matrix_parses_duplicates_once(self, monkeypatch):
        """On the Python path each distinct cold node is parsed once."""
        tree = make_tree("path", 30)
        oracle = TreeDistanceOracle(tree)
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.reset()
        try:
            engine = _encoded_engine(FreedmanScheme(), tree, cache_size=2)
            requested: list[int] = []
            parse_many = FreedmanScheme.parse_many

            def recording_parse_many(scheme, store, nodes):
                requested.extend(nodes)
                return parse_many(scheme, store, nodes)

            monkeypatch.setattr(FreedmanScheme, "parse_many", recording_parse_many)
            nodes = [5, 6, 7, 5, 6, 7, 8]  # duplicates beyond cache capacity
            assert engine.distance_matrix(nodes) == oracle.distance_matrix(nodes)
            assert sorted(requested) == [5, 6, 7, 8]  # distinct nodes only
            assert engine.cache_info()["misses"] == 0
        finally:
            kernels.reset()

    def test_scheme_rebuilt_from_store_spec(self):
        tree = make_tree("random", 60, seed=8)
        store = LabelStore.encode_tree(KDistanceScheme(3), tree)
        engine = QueryEngine(LabelStore.from_bytes(store.to_bytes()))
        assert isinstance(engine.scheme, KDistanceScheme)
        assert engine.scheme.k == 3

    def test_cache_size_validation(self):
        store = LabelStore.encode_tree(FreedmanScheme(), make_tree("path", 4))
        with pytest.raises(ValueError):
            QueryEngine(store, cache_size=0)


class TestBatchAgainstOracleHypothesis:
    """Satellite: ``batch_distance`` vs the oracle on random trees."""

    @settings(max_examples=25, deadline=None)
    @given(parent_array_trees(max_nodes=24))
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_exact_schemes(self, name, tree):
        engine = _encoded_engine(SCHEMES[name](), tree)
        oracle = TreeDistanceOracle(tree)
        pairs = [(u, v) for u in tree.nodes() for v in tree.nodes()]
        assert engine.batch_distance(pairs) == oracle.batch_distance(pairs)

    @settings(max_examples=25, deadline=None)
    @given(parent_array_trees(max_nodes=20), st.integers(min_value=1, max_value=6))
    def test_bounded_scheme(self, tree, k):
        engine = _encoded_engine(KDistanceScheme(k), tree)
        oracle = TreeDistanceOracle(tree)
        pairs = [(u, v) for u in tree.nodes() for v in tree.nodes()]
        expected = [d if d <= k else None for d in oracle.batch_distance(pairs)]
        assert engine.batch_query(pairs) == expected

    @settings(max_examples=25, deadline=None)
    @given(parent_array_trees(max_nodes=20))
    def test_approximate_scheme(self, tree):
        epsilon = 0.5
        engine = _encoded_engine(ApproximateScheme(epsilon), tree)
        oracle = TreeDistanceOracle(tree)
        pairs = [(u, v) for u in tree.nodes() for v in tree.nodes()]
        for (u, v), answer in zip(pairs, engine.batch_query(pairs)):
            exact = oracle.distance(u, v)
            if exact == 0:
                assert answer == 0
            else:
                assert exact - 1e-9 <= answer <= (1 + epsilon) * exact + 1e-9
