"""Common interface of every labeling scheme (internal layer).

.. note::
   Scheme classes are the **internal** encoder/decoder layer.  Application
   code selects a scheme by spec string through the :mod:`repro.api` façade
   (``DistanceIndex.build(tree, "k-distance:k=4")``) and receives typed
   :class:`repro.api.QueryResult` answers; the classes here are for
   label-level experiments and the measurement harness.

A labeling scheme has two halves:

* an **encoder** that sees the whole tree once and assigns each node a
  label, and
* a **decoder** that answers queries from labels alone.

Keeping the decoder free of tree access is the entire point of a labeling
scheme, so the base class makes the separation explicit: ``encode`` returns
plain label objects, every label serialises to a bit string through
``to_bits``, and ``query_from_bits`` re-parses the labels before answering,
proving that no hidden state leaks from the encoder.

Every label class has exactly one parser, ``read(reader)``, over the field
decoders of :class:`~repro.encoding.bitio.BitReader` (Elias gamma/delta,
length-prefixed bits, Lemma 2.2 monotone sequences).  A scheme names its
label class in ``label_type``; the base class's :meth:`LabelingScheme.parse`
(one bit string) and :meth:`LabelingScheme.parse_many` (the store's packed
words) both end in that ``read``, so a label parses, and a malformed one
fails, the same way on every path.

All three scheme families — exact, k-distance (bounded) and
(1+eps)-approximate — share the :class:`LabelingScheme` base, whose
``query(label_u, label_v)`` method is the single entry point used by
:class:`repro.store.QueryEngine`, the measurement harness and the CLI.
What ``query`` returns is family-specific (the ``kind`` attribute names the
semantics): an exact distance, a distance-or-``None`` cutoff answer, or a
(1+eps)-approximation.  The family base classes keep their traditional
method names (``distance``, ``bounded_distance``, ``approximate_distance``)
as the abstract hook and alias ``query`` to them.

``params()`` returns the constructor arguments needed to rebuild an
equivalent scheme; together with ``name`` it forms the persistence spec that
:class:`repro.store.LabelStore` writes next to the packed labels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, runtime_checkable

from repro.encoding.bitio import BitReader, Bits
from repro.trees.tree import RootedTree


@runtime_checkable
class LabelProtocol(Protocol):
    """Minimal protocol every label object satisfies."""

    def to_bits(self) -> Bits:
        """Serialise the label to a self-contained bit string."""
        ...

    def bit_length(self) -> int:
        """Size of the serialised label in bits."""
        ...


class LabelingScheme(ABC):
    """Base class shared by exact, bounded and approximate schemes."""

    #: short identifier used by the registry, the store files and the CLI
    name: str = "abstract"

    #: query semantics: ``"exact"``, ``"bounded"`` or ``"approximate"``
    kind: str = "exact"

    #: the label class; its ``read(reader)`` classmethod is the one parser
    label_type: type

    @abstractmethod
    def encode(self, tree: RootedTree) -> dict[int, LabelProtocol]:
        """Assign a label to every node of ``tree``."""

    def parse(self, bits: Bits) -> LabelProtocol:
        """Parse a label from its serialised bits."""
        return self.label_type.read(BitReader(bits))

    def parse_many(self, store, nodes) -> dict[int, LabelProtocol]:
        """Parse many stored labels at once (the store-serving supply path).

        ``store`` is any object with a ``label_words(nodes)`` iterator
        yielding ``(node, packed_value, bit_length)`` — in practice a
        :class:`repro.store.LabelStore`.  Each word becomes a reader with
        no intermediate :class:`Bits` and goes through the same ``read``
        as :meth:`parse`.
        """
        read = self.label_type.read
        reader = BitReader.from_word
        return {
            node: read(reader(value, bits))
            for node, value, bits in store.label_words(nodes)
        }

    def encode_stream(self, tree: RootedTree):
        """Yield each node's label in node order (``0 .. n-1``).

        The supply side of every store build
        (:func:`repro.store.label_store.pack_labels`): a consumer that
        serialises and discards each label as it arrives never holds more
        than one label (plus the scheme's shared precompute) in memory.
        The default materialises :meth:`encode` — correct for every scheme
        but no cheaper; schemes whose encoder is "shared precompute, then
        an independent per-node assembly" (HLD, Freedman) override this to
        stream for real.
        """
        labels = self.encode(tree)
        for node in range(len(labels)):
            yield labels[node]

    @abstractmethod
    def query(self, label_u: LabelProtocol, label_v: LabelProtocol):
        """Answer one query from two parsed labels (family-specific value)."""

    def query_from_bits(self, bits_u: Bits, bits_v: Bits):
        """Answer a query from serialised labels only."""
        return self.query(self.parse(bits_u), self.parse(bits_v))

    def params(self) -> dict:
        """Constructor arguments that rebuild an equivalent scheme.

        The pair ``(name, params())`` is the persistence spec stored by
        :class:`repro.store.LabelStore` and resolved back through
        :func:`repro.core.registry.make_any_scheme`.
        """
        return {}

    # -- measurement helpers ------------------------------------------------

    @staticmethod
    def label_sizes(labels: dict[int, LabelProtocol]) -> list[int]:
        """Bit lengths of all labels."""
        return [label.bit_length() for label in labels.values()]

    @classmethod
    def max_label_bits(cls, labels: dict[int, LabelProtocol]) -> int:
        """Maximum label size in bits (the quantity the paper bounds)."""
        return max(cls.label_sizes(labels))

    @classmethod
    def average_label_bits(cls, labels: dict[int, LabelProtocol]) -> float:
        """Average label size in bits."""
        sizes = cls.label_sizes(labels)
        return sum(sizes) / len(sizes)

    @classmethod
    def total_label_bits(cls, labels: dict[int, LabelProtocol]) -> int:
        """Total size of all labels in bits (the honest space measure)."""
        return sum(cls.label_sizes(labels))


class DistanceLabelingScheme(LabelingScheme):
    """Base class for exact distance labeling schemes."""

    name: str = "abstract"
    kind = "exact"

    @abstractmethod
    def distance(self, label_u: LabelProtocol, label_v: LabelProtocol) -> int:
        """Exact distance computed from two labels."""

    def query(self, label_u: LabelProtocol, label_v: LabelProtocol) -> int:
        """Unified query interface: the exact distance."""
        return self.distance(label_u, label_v)


class BoundedDistanceLabelingScheme(LabelingScheme):
    """Base class for k-distance schemes (Section 4).

    ``bounded_distance`` returns the exact distance when it is at most ``k``
    and ``None`` otherwise.
    """

    name: str = "abstract-bounded"
    kind = "bounded"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k

    @abstractmethod
    def bounded_distance(
        self, label_u: LabelProtocol, label_v: LabelProtocol
    ) -> int | None:
        """Distance if it is at most ``k``; ``None`` otherwise."""

    def query(self, label_u: LabelProtocol, label_v: LabelProtocol) -> int | None:
        """Unified query interface: the bounded distance."""
        return self.bounded_distance(label_u, label_v)

    def params(self) -> dict:
        return {"k": self.k}


class ApproximateDistanceLabelingScheme(LabelingScheme):
    """Base class for (1+eps)-approximate schemes (Section 5)."""

    name: str = "abstract-approx"
    kind = "approximate"

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon

    @abstractmethod
    def approximate_distance(
        self, label_u: LabelProtocol, label_v: LabelProtocol
    ) -> int:
        """A value in ``[d(u, v), (1 + eps) * d(u, v)]``."""

    def query(self, label_u: LabelProtocol, label_v: LabelProtocol):
        """Unified query interface: the (1+eps)-approximate distance."""
        return self.approximate_distance(label_u, label_v)

    def params(self) -> dict:
        return {"epsilon": self.epsilon}
