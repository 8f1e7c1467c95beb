"""Segment-level interpolation: the augmentation engine.

An augmented example is built by embedding a sentence, drawing a mix
weight ``lam ~ Beta(alpha, alpha)``, picking a task-specific segment in
the sentence and a partner segment from a pool, padding the shorter of
the two with zero rows, and writing ``lam * a + (1 - lam) * b`` back over
the segment's row range, for both the embedding matrix and the one-hot
label matrix. ``lam = 1`` reproduces the original example; ``lam = 0`` is
plain replacement, which is also available directly in token space via
:func:`replacement_da`.

A generation run is three whole-run steps. The corpus is compiled once
into flat token and label arrays with per-example offsets, and each
variant's eligible segments become flat arrays too (``pools._segments``);
a variant given no pool draws from all of those segments
(``pools._segment_pool``). Every slot is then
planned from run-level streams named off ``config.seed``: "candidates"
picks the source examples, "lambda" holds a (requested, 2) Gamma block
whose row k gives slot k's lam, and "choice" holds a (requested, 2)
uniform block whose row k picks slot k's segment and partner as
``floor(u * n)``. Row k belongs to slot k, so a slot's draws depend only
on (seed, k), never on the other slots. Only a slot whose example has no
eligible segment opens a stream of its own, (seed, "retry", k), to
re-draw its example, when the source has another to draw. Each variant's
slots form one plan, and the plans are materialized one after another in
blocks of slots: plain rows are gathered from the embedding table and an
identity matrix, and every mixed row of a block is computed in one blend. A synonym plan keeps its label
rows as they are.

A run's examples are kept as those blocks, as columns (:class:`_Block`:
rows, label rows, row bounds, one column per provenance field), in a
store (:class:`_Store`) that reads like a list of :class:`MixedExample`
or :class:`MixedRESample`; the encoders return one too. An example
object is built when its block is first read, as views into the block's
arrays. Saving and training read a block's columns while none of its
examples has been read, and walk any other examples into columns
(:func:`_blocks`), so a run that is only generated, saved, loaded and
trained on builds no example objects. The encoders therefore need no
pause of the garbage collector; :func:`segmix_generate` keeps its pause
for the pool it builds for a variant given none.
"""

from __future__ import annotations

import bisect
import hashlib
import logging
import math
from collections import abc
from dataclasses import dataclass, fields as fields_of
from itertools import accumulate, chain, repeat
from operator import attrgetter
from typing import Mapping, Sequence, Union

import numpy as np

from .corpus import (
    RECorpus, RESample, Sentence, Span, TaggedCorpus, _Source, _bio_arrays, _compile, _gc_quiet,
    _label_ids,
)
from .pools import EmptyPoolError, SegmentPool, SynonymLexicon, _segment_pool, _segments
from .rng import derive_rng, derive_rngs

log = logging.getLogger(__name__)

NER_VARIANTS = ("mention", "token", "synonym", "whole_sequence")
RE_VARIANTS = ("relation",)
VARIANTS = NER_VARIANTS + RE_VARIANTS


def _stable_bucket(surface: str, n_buckets: int) -> int:
    digest = hashlib.sha256(surface.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % n_buckets


def _check_table_size(dim: int, n_buckets: int) -> None:
    if dim < 1 or n_buckets < 1:
        raise ValueError(f"an embedding table needs dim >= 1 and n_buckets >= 1, "
                         f"got dim {dim} and n_buckets {n_buckets}")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of every row as ``sqrt(r.dot(r))``, which is what ``np.linalg.norm(r)`` is,
    taken as one stack of (1, dim) @ (dim, 1) products."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


class EmbeddingTable:
    """Dense vectors for a fixed vocabulary with hash-bucket fallback.

    Lookup is a pure function of (table, surface): known surfaces map to
    their vocabulary row, unknown surfaces map deterministically to one of
    ``n_buckets`` extra rows.
    """

    def __init__(self, tokens: Sequence[str], vectors: np.ndarray, n_buckets: int):
        if vectors.ndim != 2 or len(vectors) != len(tokens) + n_buckets:
            raise ValueError(
                f"need {len(tokens)} + {n_buckets} rows, got {vectors.shape}"
            )
        self._hold(tokens, vectors.shape[1], n_buckets, np.result_type(vectors, np.float64))
        self.vectors[...] = vectors  # a copy: the caller keeps its array

    @classmethod
    def _zeros(cls, tokens: Sequence[str], dim: int, n_buckets: int) -> "EmbeddingTable":
        """A table of zero rows, whose ``vectors`` a builder fills in place, so
        that no copy of the rows is held beside the table's."""
        table = cls.__new__(cls)
        table._hold(tokens, dim, n_buckets, np.float64)
        return table

    def _hold(self, tokens: Sequence[str], dim: int, n_buckets: int, dtype) -> None:
        _check_table_size(dim, n_buckets)
        self.tokens = tuple(tokens)
        # ``vectors`` leaves out a zero row past the last, which a ``take`` reads at row -1
        self._padded = np.zeros((len(self.tokens) + n_buckets + 1, dim), dtype)
        self.vectors = self._padded[:-1]
        self.n_buckets = n_buckets
        self._index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def random(
        cls,
        tokens: Sequence[str],
        dim: int,
        seed: int,
        n_buckets: int = 64,
    ) -> "EmbeddingTable":
        """Seeded unit-gaussian table over ``tokens`` plus unknown buckets."""
        table = cls._zeros(tokens, dim, n_buckets)
        derive_rng(seed, "embedding-table").standard_normal(out=table.vectors)
        return table

    @classmethod
    def subword(
        cls,
        tokens: Sequence[str],
        dim: int,
        seed: int,
        noise: float = 0.45,
        n_buckets: int = 64,
    ) -> "EmbeddingTable":
        """Character-trigram table: surface-similar tokens get nearby rows.

        Each token's vector is the normalized sum of seeded gaussian
        vectors for its padded character trigrams, blended with a
        token-specific noise direction and rescaled to the sqrt(dim) row
        norm the random table has in expectation. Stands in for
        pretrained embeddings when only surface form carries similarity.

        Built in whole-array steps with the numbers of a per-token loop:
        each distinct trigram gets an id and a vector from its own
        ``(seed, "gram", trigram)`` stream, all streams seeded at once by
        :func:`~segmix.rng.derive_rngs`; a token of k characters has k
        trigrams, so the tokens are grouped by length and each group's
        gram rows are summed as one (tokens, k, dim) stack along axis 1,
        which adds them in the order a sum over the token's list of gram
        vectors does; the ``"tok-noise"`` stream is drawn as one
        (tokens, dim) block; and every row norm is ``sqrt(r.dot(r))``, the
        dot ``np.linalg.norm`` takes of a vector, for all rows in one
        stacked matmul.
        """
        _check_table_size(dim, n_buckets)
        if not (noise >= 0 and math.isfinite(noise)):
            raise ValueError(f"noise must be nonnegative and finite, got {noise}")
        gram_ids: dict[str, int] = {}
        grams = [[gram_ids.setdefault(f"<{tok}>"[j : j + 3], len(gram_ids))
                  for j in range(len(tok))] for tok in tokens]
        vectors = np.empty((len(gram_ids), dim))
        for row, rng in zip(vectors, derive_rngs(seed, "gram", gram_ids)):
            rng.standard_normal(out=row)
        n = len(tokens)
        out = cls._zeros(tokens, dim, n_buckets)
        table = out.vectors
        rows = table[:n]  # every step below writes in place, with the loop's operand order
        by_length: dict[int, list[int]] = {}
        for i, tok in enumerate(tokens):
            by_length.setdefault(len(tok), []).append(i)
        for k, members in by_length.items():
            if k:
                rows[members] = vectors[[grams[i] for i in members]].sum(axis=1)
        rows /= np.maximum(_row_norms(rows), 1e-9)[:, None]
        direction = derive_rng(seed, "tok-noise").standard_normal((n, dim))
        length = _row_norms(direction)[:, None]
        direction *= noise
        direction /= length
        rows += direction
        norms = _row_norms(rows)
        if not norms.all():  # the noise cancelled the trigram direction exactly
            raise ValueError(f"noise {noise} leaves token {tokens[int(norms.argmin())]!r} "
                             f"a zero row")
        rows *= np.sqrt(dim)
        rows /= norms[:, None]
        derive_rng(seed, "buckets").standard_normal(out=table[n:])
        return out

    def __reduce__(self):  # through the constructor, which pads the rows again
        return type(self), (self.tokens, self.vectors, self.n_buckets)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def index(self, surface: str) -> int:
        row = self._index.get(surface)
        if row is None:
            row = self.vocab_size + _stable_bucket(surface, self.n_buckets)
        return row

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """``index`` of every token, as an int64 array."""
        rows = np.fromiter(map(self._index.get, tokens, repeat(-1)), np.int64, len(tokens))
        for i in np.flatnonzero(rows < 0).tolist():
            rows[i] = self.index(tokens[i])
        return rows

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        """Row j is the vector for token j; shape (len(tokens), dim)."""
        return self.vectors[self.rows(tokens)]


def one_hot(labels: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """One-hot rows over ``vocab``; unknown labels raise ValueError."""
    return np.eye(len(vocab))[_label_ids(labels, vocab)]


def _beta(alpha: float, n: int, rng: np.random.Generator, redraw: np.random.Generator) -> np.ndarray:
    """``n`` Beta(alpha, alpha) draws via the two-Gamma ratio construction.

    Draw i is ``x / (x + y)`` for row i of an (n, 2) Gamma block from
    ``rng``. Where both Gammas underflow to 0 (alpha far below 1) the ratio
    is undefined; since it is independent of the sum, draw i is redone as
    entry i of ``redraw.beta(alpha, alpha, n)`` rather than returning the
    midpoint, where Beta(alpha, alpha) has almost no mass.
    """
    gammas = rng.gamma(alpha, size=(n, 2))
    total = gammas.sum(axis=1)
    lam = np.divide(gammas[:, 0], total, out=np.zeros(n), where=total > 0)
    stuck = total == 0.0
    if stuck.any():
        lam[stuck] = redraw.beta(alpha, alpha, n)[stuck]
    return lam


def sample_mix_ratio(alpha: float, rng: np.random.Generator) -> float:
    """One Beta(alpha, alpha) draw from ``rng`` (see :func:`_beta`)."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return float(_beta(alpha, 1, rng, rng)[0])


@dataclass
class MixConfig:
    """Knobs for a generation run.

    ``variant`` is one of "mention", "token", "synonym", "relation",
    "whole_sequence", or a "+"-joined combination such as "mention+token"
    (budget split by ``weights``, equal by default). ``fixed_lambda``
    bypasses the Beta draw, which is how the degenerate runs (identity at
    1.0, replacement at 0.0) are expressed.
    """

    alpha: float = 8.0
    rate: float = 0.2
    variant: str = "mention"
    weights: tuple[float, ...] | None = None
    normalize_tail_labels: bool = False
    seed: int = 0
    fixed_lambda: float | None = None
    same_type_only: bool = False

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be nonnegative and finite, got {self.rate}")
        parts = self.variant_list()
        for part in parts:
            if part not in VARIANTS:
                raise ValueError(f"unknown variant {part!r}")
        if self.weights is not None:
            if len(self.weights) != len(parts):
                raise ValueError("weights must match the variant list")
            if not (abs(sum(self.weights) - 1.0) <= 1e-9 and min(self.weights) >= 0):  # NaN fails
                raise ValueError("weights must be nonnegative and sum to 1")
        if self.fixed_lambda is not None and not 0.0 <= self.fixed_lambda <= 1.0:
            raise ValueError("fixed_lambda must lie in [0, 1]")

    def variant_list(self) -> list[str]:
        return self.variant.split("+")

    def variant_weights(self) -> list[float]:
        parts = self.variant_list()
        if self.weights is not None:
            return list(self.weights)
        return [1.0 / len(parts)] * len(parts)


@dataclass(frozen=True, init=False)
class Provenance:
    """Where a mixed example came from: source sentence, spans, partner, lam."""

    example_index: int
    variant: str
    lam: float
    spans: tuple[tuple[int, int], ...]
    mixed_spans: tuple[tuple[int, int], ...]
    pool_index: int | None = None
    replacements: tuple[str, ...] | None = None

    def __init__(self, example_index, variant, lam, spans, mixed_spans, pool_index=None,
                 replacements=None):
        # fills __dict__ directly: the generated frozen __init__ sets each field
        # through object.__setattr__, about three times slower, once per record
        d = self.__dict__
        d["example_index"], d["variant"], d["lam"] = example_index, variant, lam
        d["spans"], d["mixed_spans"] = spans, mixed_spans
        d["pool_index"], d["replacements"] = pool_index, replacements


@dataclass
class MixedExample:
    """Per-position embeddings and soft labels for one augmented sentence."""

    embeddings: np.ndarray
    soft_labels: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if len(self.embeddings) != len(self.soft_labels):
            raise ValueError("embedding and soft-label row counts differ")

    def __len__(self) -> int:
        return len(self.embeddings)


@dataclass
class MixedRESample:
    """Embeddings with both nominal spans mixed, plus a soft relation label."""

    embeddings: np.ndarray
    soft_relation: np.ndarray
    e1: Span
    e2: Span
    provenance: Provenance


def _shape_problem(emb_shape, label_shape, spans, dim: int, n_labels: int) -> str | None:
    """Why an example with these shapes cannot be stored or trained on, or None.

    ``spans`` is the (e1, e2) pair of a relation example, each a (start,
    end) pair, and None for a tagging one. Reads shapes only, so a file
    load pays O(1) per record before decoding.
    """
    if len(emb_shape) != 2 or emb_shape[1] != dim:
        return f"embeddings have shape {list(emb_shape)}, expected (n, {dim})"
    n = emb_shape[0]
    if n < 1:
        return "embeddings have no rows"
    if spans is None:
        name, expected = "soft_labels", (n, n_labels)
    else:
        name, expected = "soft_relation", (n_labels,)
    if tuple(label_shape) != expected:
        return f"{name} have shape {list(label_shape)}, expected {expected}"
    for span_name, (start, end) in zip(("e1", "e2"), spans or ()):
        if end > n:  # a span has 0 <= start < end
            return f"{span_name} span [{start}, {end}) lies outside the {n}-token sentence"
    return None


@dataclass(eq=False)
class _Block:
    """Up to :data:`_BLOCK` examples of a run, as columns.

    Example i owns rows ``bounds[i]:bounds[i + 1]`` of ``embeddings``, and
    of ``labels`` in a tagging block; in a relation block it owns label
    row i and ``pairs[i]``, its e1 and e2 (start, end) pairs, of an
    (examples, 2, 2) integer array. ``provenance`` holds one column per
    :class:`Provenance` field, in field order, of one value per example,
    but for the two span fields: each of those is one (pairs, 2) int64
    array of every example's (start, end) pairs end to end, with the
    offsets ``at`` of each example's pairs in it (example i owns pairs
    ``at[i]:at[i + 1]``), so that a block holds no container per example
    or per pair (:func:`_span_column`). A block walked from example
    objects (:func:`_walk`) holds their own span values until save has
    checked them; training reads no provenance. ``items`` holds the
    examples as objects once one of them has been read; a caller may
    edit those, so from then on they are what the block holds, and
    ``provenance`` is dropped.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    bounds: list
    provenance: list
    pairs: np.ndarray | None
    items: list | None = None

    @_gc_quiet
    def built(self) -> list:
        """The block's examples, built the first time they are asked for."""
        if self.items is None:
            index, variant, lam, spans, mixed, pool, words = self.provenance
            provenances = map(Provenance, index, variant, lam, _tuples(spans), _tuples(mixed), pool,
                              words)
            self.provenance = None
            b = self.bounds
            if self.pairs is None:
                self.items = [MixedExample(self.embeddings[lo:hi], self.labels[lo:hi], p)
                              for lo, hi, p in zip(b, b[1:], provenances)]
            else:
                self.items = [MixedRESample(self.embeddings[lo:hi], self.labels[i], Span(*e1),
                                            Span(*e2), p)
                              for i, (lo, hi, (e1, e2), p)
                              in enumerate(zip(b, b[1:], self.pairs.tolist(), provenances))]
        return self.items


def _pairs(examples: Sequence) -> np.ndarray:
    """The (e1, e2) spans of relation examples or samples as an (n, 2, 2) integer array."""
    ends = [n for e in examples for n in (e.e1.start, e.e1.end, e.e2.start, e.e2.end)]
    return np.array(ends, np.int64).reshape(-1, 2, 2)


def _tuples(column):
    """A span column of :class:`_Block` as one tuple of (start, end) tuples
    per example, as a :class:`Provenance` holds them."""
    pairs, at = column
    pairs = list(zip(*pairs.T.tolist()))
    return (tuple(pairs[lo:hi]) for lo, hi in zip(at, at[1:]))


def _span_column(values: Sequence) -> tuple:
    """A column of checked (start, end) pair sequences, one per example, of
    plain ints below 2**63, as a span column of :class:`_Block`."""
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(values)), np.int64)
    return pairs.reshape(-1, 2), [0, *accumulate(map(len, values))]


class _Store(abc.Sequence):
    """A run's examples held as blocks of columns (:class:`_Block`), read
    like a list of :class:`MixedExample` or :class:`MixedRESample`.

    An example is built when its block is first read, and kept. ``+``
    joins two stores into one that shares their blocks, so an edit made
    through either shows in both; with a list it gives a list, and with
    an empty list the store itself.
    """

    def __init__(self, blocks: list):
        self.blocks = blocks
        self._starts = [0, *accumulate(len(b.bounds) - 1 for b in blocks)]

    def __len__(self) -> int:
        return self._starts[-1]

    @_gc_quiet
    def _built(self) -> list:
        """Every example, those of the blocks not read yet built under one
        pause of the collector: a pause per block still set off collections."""
        return [e for b in self.blocks for e in b.built()]

    def __iter__(self):
        return iter(self._built())

    def _at(self, i: int) -> tuple[list, int]:
        """The built examples of the block that holds example ``i``, and its place there."""
        i = range(len(self))[i]  # a negative or out-of-range index as a list takes it
        k = bisect.bisect_right(self._starts, i) - 1
        return self.blocks[k].built(), i - self._starts[k]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        items, j = self._at(i)
        return items[j]

    def __setitem__(self, i: int, example) -> None:
        items, j = self._at(i)
        items[j] = example

    def __eq__(self, other):
        return self._built() == list(other) if isinstance(other, (list, _Store)) else NotImplemented

    def __add__(self, other):
        if isinstance(other, _Store):
            return _Store(self.blocks + other.blocks)
        if not isinstance(other, list):
            return NotImplemented
        return self._built() + other if other else self

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return other + self._built() if other else self


def _blocks(examples: Sequence, relation: bool, dim: int | None, n_labels: int,
            what: str = "example"):
    """``examples`` as blocks of columns, one (first example's index,
    walked, block) at a time. A store's blocks are taken as they are while
    none of their examples has been read and their rows are ``dim`` (or,
    given None, the first example's) and ``n_labels`` wide; any other
    examples are walked into columns, :data:`_BLOCK` at a time, once
    :func:`_shape_problem` passes their shapes; the first it refuses raises
    ``ValueError(f"{what} {i}: why")``."""
    if isinstance(examples, _Store):
        pieces = [b if b.items is None else b.built() for b in examples.blocks]
    else:
        pieces = [examples[lo : lo + _BLOCK] for lo in range(0, len(examples), _BLOCK)]
    if dim is None and pieces:
        dim = (pieces[0] if isinstance(pieces[0], _Block) else pieces[0][0]).embeddings.shape[1]
    first = 0
    for piece in pieces:
        widths = isinstance(piece, _Block) and (piece.embeddings.shape[1], piece.labels.shape[1])
        if widths and widths != (dim, n_labels):
            piece = piece.built()
        walked = not isinstance(piece, _Block)
        for i, e in enumerate(piece if walked else (), first):
            labels = e.soft_relation if relation else e.soft_labels
            spans = ((e.e1.start, e.e1.end), (e.e2.start, e.e2.end)) if relation else None
            problem = _shape_problem(e.embeddings.shape, labels.shape, spans, dim, n_labels)
            if problem:
                raise ValueError(f"{what} {i}: {problem}")
        block = _walk(piece, relation) if walked else piece
        yield first, walked, block
        first += len(block.bounds) - 1


def _walk(examples: Sequence, relation: bool) -> _Block:
    """``examples`` walked into a block of columns."""
    fields = attrgetter(*(f.name for f in fields_of(Provenance)))
    columns = [list(c) for c in zip(*map(fields, [e.provenance for e in examples]))]
    bounds = [0, *accumulate(len(e.embeddings) for e in examples)]
    embeddings = np.concatenate([e.embeddings for e in examples])
    if not relation:
        labels = np.concatenate([e.soft_labels for e in examples])
        return _Block(embeddings, labels, bounds, columns, None)
    return _Block(embeddings, np.stack([e.soft_relation for e in examples]), bounds, columns,
                  _pairs(examples))


@dataclass
class GenerationResult:
    examples: Sequence
    skipped: int
    requested: int


@dataclass
class ReplacementResult:
    corpus: Union[TaggedCorpus, RECorpus]
    skipped: int
    requested: int


@dataclass
class _Plan:
    """Resolved randomness of one variant's emitted slots, one row per slot in slot order.

    ``spans`` holds each slot's k segment spans (k = 1 for tagging, 2 for
    relations) in source coordinates; ``segments`` and ``labels`` hold the
    partner's k token tuples and its labels (k label tuples, one relation
    string, or None for a synonym swap, which keeps the source labels).
    """

    example: np.ndarray
    lam: np.ndarray
    spans: np.ndarray
    variant: str
    pool_index: list
    segments: list
    labels: list

    def __getitem__(self, rows: slice) -> "_Plan":
        return _Plan(self.example[rows], self.lam[rows], self.spans[rows], self.variant,
                     self.pool_index[rows], self.segments[rows], self.labels[rows])


PoolSpec = Union[SegmentPool, SynonymLexicon, Mapping[str, Union[SegmentPool, SynonymLexicon]], None]


def _normalize_pools(
    src: _Source, pools: PoolSpec, config: MixConfig
) -> dict[str, Union[SegmentPool, SynonymLexicon]]:
    """Accept a bare pool/lexicon or a variant->pool mapping; a missing pool
    is every segment of its variant in the compiled corpus ``src``."""
    parts = config.variant_list()
    table = dict(pools) if isinstance(pools, Mapping) else {}
    if isinstance(pools, (SegmentPool, SynonymLexicon)):
        if len(parts) != 1:
            raise ValueError("combination variants need a mapping of pools")
        table[parts[0]] = pools
    for part, weight in zip(parts, config.variant_weights()):
        if part == "synonym" and part not in table:
            raise ValueError("synonym variant needs an explicit lexicon")
        if part not in table:
            table[part] = _segment_pool(src, part)
        kind = "synonym lexicon" if part == "synonym" else "segment pool"
        if (part == "synonym") != isinstance(table[part], SynonymLexicon):
            raise ValueError(f"variant {part!r} needs a {kind}")
        if weight > 0 and not len(table[part]):
            raise EmptyPoolError(f"empty {kind} for variant {part!r}")
    return table


def _split_budget(total: int, weights: Sequence[float]) -> list[int]:
    """Largest-remainder split so the per-variant counts sum exactly."""
    raw = [w * total for w in weights]
    counts = [int(x) for x in raw]
    short = total - sum(counts)
    remainders = sorted(
        range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _by_type(pool: SegmentPool, type_ids: dict) -> tuple[np.ndarray, np.ndarray]:
    """Pool indices grouped by the entity type of each entry's first label.

    Entries of type t are ``order[off[t]:off[t + 1]]``, in pool order.
    """
    _, etype, names = _bio_arrays(e.labels[0][0] for e in pool.entries)
    # a type the corpus lacks, and O (type -1, the appended last row), read as -1
    types = np.array([type_ids.get(t, -1) for t in names] + [-1], np.int64)[etype]
    typed = np.flatnonzero(types >= 0)
    order = typed[np.argsort(types[typed], kind="stable")]
    counts = np.bincount(types[typed], minlength=len(type_ids))
    return order, np.concatenate([[0], np.cumsum(counts)])


def _check_labels(segments: list, labels: list) -> None:
    """Refuse tagging pool entries without one label tuple per segment and one label per token."""
    if (list(map(len, labels)) != list(map(len, segments))
            or list(map(len, chain.from_iterable(labels))) != list(map(len, chain.from_iterable(segments)))):
        raise ValueError("pool entry has unequal token and label counts")


# Redraws of another example for a slot whose own example has no eligible segment.
_RETRIES = 16


def _plan_part(
    src: _Source,
    variant: str,
    pool: Union[SegmentPool, SynonymLexicon],
    slots: np.ndarray,
    examples: np.ndarray,
    lam: np.ndarray,
    u: np.ndarray,
    config: MixConfig,
) -> _Plan:
    """Plan one variant's slots; slots with no eligible segment are dropped."""
    lexicon = pool if isinstance(pool, SynonymLexicon) else None
    segs = _segments(src, variant, lexicon)
    if lexicon is None and pool.arity != segs.start.shape[1]:
        raise ValueError(f"variant {variant!r} needs an arity-{segs.start.shape[1]} pool")
    counts = np.diff(segs.off)
    restrict = config.same_type_only and variant in ("mention", "token")
    if restrict:
        # _by_type reads every entry's first label
        _check_labels([e.segments for e in pool.entries], [e.labels for e in pool.entries])
        by_type, type_off = _by_type(pool, segs.type_ids)
        type_counts = np.diff(type_off)

    def pick(ex: np.ndarray, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each slot's segment row, and whether the slot can be planned at all."""
        n_seg = counts[ex]
        row = segs.off[ex] + (u0 * n_seg).astype(np.int64)  # u0 < 1, so row < off[ex + 1]
        ok = n_seg > 0
        if restrict:
            ok[ok] = type_counts[segs.types[row[ok]]] > 0
        return row, ok

    ex = examples.copy()
    row, ok = pick(ex, u[:, 0])
    # only ineligible slots pay for a stream of their own; a lone example would redraw itself
    for i in np.flatnonzero(~ok) if len(src.examples) > 1 else ():
        rng = derive_rng(config.seed, "retry", int(slots[i]))
        for _attempt in range(_RETRIES):
            retry = np.array([rng.integers(len(src.examples))])
            retry_row, retry_ok = pick(retry, u[i : i + 1, 0])
            if retry_ok[0]:
                ex[i], row[i], ok[i] = retry[0], retry_row[0], True
                break

    ex, row, u1 = ex[ok], row[ok], u[ok, 1]
    spans = np.stack([segs.start[row], segs.end[row]], axis=-1)
    if lexicon is not None:
        heads = src.offsets[ex] + spans[:, 0, 0]
        segments = []
        for head, draw in zip(heads.tolist(), u1.tolist()):
            syns = lexicon.synonyms(src.tokens[head])
            segments.append(((syns[int(draw * len(syns))],),))
        pool_index: list = [None] * len(ex)
        labels: list = [None] * len(ex)
    else:
        if restrict:
            t = segs.types[row]
            chosen = by_type[type_off[t] + (u1 * type_counts[t]).astype(np.int64)]
        else:
            chosen = (u1 * len(pool)).astype(np.int64)
        pool_index = chosen.tolist()
        entries = [pool.entries[i] for i in pool_index]
        segments = [e.segments for e in entries]
        labels = [e.labels for e in entries]
        if variant != "relation":
            _check_labels(segments, labels)
    return _Plan(ex, lam[ok], spans, variant, pool_index, segments, labels)


def _mix_ratios(config: MixConfig, requested: int) -> np.ndarray:
    """Row k is slot k's lam; it depends only on (seed, k)."""
    if config.fixed_lambda is not None:
        return np.full(requested, float(config.fixed_lambda))
    return _beta(
        config.alpha, requested, derive_rng(config.seed, "lambda"), derive_rng(config.seed, "lambda-beta")
    )


def _slot_count(rate: float, n: int) -> int:
    """``round(rate * n)`` mix slots, refused where numpy could not index them."""
    slots = rate * min(n, 2**63) + 0.5  # no corpus holds 2**63 examples
    if not slots < 2**63:  # an overflow to inf too
        raise ValueError(f"rate {rate:g} asks for {slots:.3g} mix slots, more than numpy can index")
    return int(slots)


def _plan_run(
    corpus: Union[TaggedCorpus, RECorpus], pools: PoolSpec, config: MixConfig
) -> tuple[_Source | None, list[_Plan], int, int]:
    """Shared planner for mixing and replacement: (source, one plan per variant
    given slots, skipped, requested)."""
    examples = corpus.sentences if isinstance(corpus, TaggedCorpus) else corpus.samples
    n = len(examples)
    requested = _slot_count(config.rate, n)
    parts = config.variant_list()
    for part in parts:
        ok = RE_VARIANTS if isinstance(corpus, RECorpus) else NER_VARIANTS
        if part not in ok:
            raise ValueError(
                f"variant {part!r} does not apply to {type(corpus).__name__}"
            )
    if requested == 0:
        return None, [], 0, 0
    src = _compile(examples)
    pool_map = _normalize_pools(src, pools, config)

    cand_rng = derive_rng(config.seed, "candidates")
    candidates = cand_rng.choice(n, size=requested, replace=requested > n)
    lam = _mix_ratios(config, requested)
    u = derive_rng(config.seed, "choice").random((requested, 2))

    plans = []
    first = 0
    for part, count in zip(parts, _split_budget(requested, config.variant_weights())):
        if count:
            slots = np.arange(first, first + count)
            plans.append(
                _plan_part(src, part, pool_map[part], slots, candidates[slots], lam[slots], u[slots], config)
            )
            first += count
    skipped = requested - sum(len(plan.example) for plan in plans)
    if skipped:
        log.warning("skipped %d of %d slots (no eligible segment)", skipped, requested)
    return src, plans, skipped, requested


# Slots materialized together. Blocks keep every array to a few MB: one
# run-sized output array raised the augment benchmark's peak RSS by ~3.5%,
# memory the allocator kept after the array was freed.
_BLOCK = 512


def _blend(out: np.ndarray, at: np.ndarray, lam: np.ndarray, table: np.ndarray, rows: np.ndarray) -> None:
    """``out[at] = lam * out[at] + (1 - lam) * table[rows]`` row-wise, in place; ``table[-1]`` is zero."""
    a = out[at]
    a *= lam[:, None]
    b = table.take(rows, 0)
    b *= (1.0 - lam)[:, None]
    a += b
    out[at] = a


def _layout(src: _Source, plan: _Plan, partner_lens: np.ndarray):
    """Where each output row of a block comes from, as flat index arrays.

    An example is cut into pieces: the gaps between its k spans, kept, and
    the spans, each as long as the longer of span and partner (or the span
    alone when lam == 1). Returns per output row the flat source position
    ``a`` and flat partner position ``b`` (-1 = zero pad) and its slot; the
    rows to blend; each slot's row count; and each slot's mixed spans in
    output coordinates, in plan span order.
    """
    n_slots, k = partner_lens.shape
    partner_at = (np.cumsum(partner_lens) - partner_lens.ravel()).reshape(n_slots, k)
    order = np.argsort(plan.spans[:, :, 0], axis=1)
    rows = np.arange(n_slots)[:, None]  # a[rows, order] is take_along_axis(a, order, 1)
    start = plan.spans[:, :, 0][rows, order]
    end = plan.spans[:, :, 1][rows, order]
    p_len = partner_lens[rows, order]
    keep = (plan.lam == 1.0)[:, None]
    mixed_len = np.where(keep, end - start, np.maximum(end - start, p_len))
    src_at = src.offsets[plan.example][:, None]
    src_len = np.diff(src.offsets)[plan.example][:, None]
    gap_lo = np.concatenate([np.zeros_like(src_at), end], axis=1)
    gap_hi = np.concatenate([start, src_len], axis=1)

    # pieces in row order: gap, span, gap, ..., span, gap
    n_pieces = 2 * k + 1
    piece_len = np.empty((n_slots, n_pieces), np.int64)
    a_at = np.empty_like(piece_len)
    a_len = np.empty_like(piece_len)
    b_at = np.zeros_like(piece_len)
    b_len = np.zeros_like(piece_len)
    piece_len[:, 0::2] = a_len[:, 0::2] = gap_hi - gap_lo
    a_at[:, 0::2] = src_at + gap_lo
    piece_len[:, 1::2] = mixed_len
    a_at[:, 1::2] = src_at + start
    a_len[:, 1::2] = end - start
    b_at[:, 1::2] = partner_at[rows, order]
    b_len[:, 1::2] = np.where(keep, 0, p_len)

    lens = piece_len.ravel()
    piece = np.repeat(np.arange(lens.size), lens)
    local = np.arange(piece.size) - np.repeat(np.cumsum(lens) - lens, lens)
    a = np.where(local < a_len.ravel()[piece], a_at.ravel()[piece] + local, -1)
    b = np.where(local < b_len.ravel()[piece], b_at.ravel()[piece] + local, -1)
    slot = piece // n_pieces
    blend = np.flatnonzero((piece % n_pieces % 2 == 1) & ~keep[slot, 0])

    piece_at = np.cumsum(piece_len, axis=1) - piece_len
    inverse = np.argsort(order, axis=1)
    mixed_at = piece_at[:, 1::2][rows, inverse]
    mixed_end = mixed_at + mixed_len[rows, inverse]
    mixed_spans = np.stack([mixed_at, mixed_end], axis=-1)
    return a, b, slot, blend, piece_len.sum(axis=1), mixed_spans


def _materialize(
    src: _Source,
    plans: Sequence[_Plan],
    table: EmbeddingTable,
    vocab: Sequence[str],
    config: MixConfig,
) -> list:
    """Build the planned examples as blocks, plan after plan, with batched gathers and blends.

    Rows outside the mixed spans are gathered from ``table.vectors`` and an
    identity matrix; rows inside become ``lam * a + (1 - lam) * b`` against
    the partner's rows, zero-padded on the shorter side. A synonym plan
    leaves the label rows as they are. Each gather is one ``take`` of a matrix whose row -1 is zero.
    """
    # a trailing -1 keeps position -1 (zero pad) reading as -1 after a lookup
    source_rows = np.append(table.rows(src.tokens), -1)
    source_labels = np.append(_label_ids(src.label_names, vocab)[src.label_ids], -1)
    eye = np.eye(len(vocab) + 1, len(vocab))
    out = []
    blocks = (p[lo : lo + _BLOCK] for p in plans for lo in range(0, len(p.example), _BLOCK))
    for block in blocks:
        segments = [seg for segs in block.segments for seg in segs]
        partner_lens = np.array([len(seg) for seg in segments], np.int64).reshape(len(block.example), -1)
        a, b, slot, blend, sizes, mixed_spans = _layout(src, block, partner_lens)
        partner_tokens = [t for seg in segments for t in seg]
        partner_rows = np.append(table.rows(partner_tokens), -1)
        embeddings = table._padded.take(source_rows[a], 0)
        _blend(embeddings, blend, block.lam[slot[blend]], table._padded, partner_rows[b[blend]])
        if block.variant == "relation":
            soft = eye.take(source_labels[block.example], 0)
            _blend(soft, np.arange(len(soft)), block.lam, eye, _label_ids(block.labels, vocab))
        else:
            soft = eye.take(source_labels[a], 0)
            if block.variant != "synonym":
                flat = [l for labels in block.labels for seg in labels for l in seg]
                partner_labels = np.append(_label_ids(flat, vocab), -1)
                _blend(soft, blend, block.lam[slot[blend]], eye, partner_labels[b[blend]])
                if config.normalize_tail_labels:
                    rows = soft[blend]
                    sums = rows.sum(axis=1)
                    nonzero = sums > 0
                    rows[nonzero] = rows[nonzero] / sums[nonzero, None]
                    soft[blend] = rows
        n, k = block.spans.shape[:2]
        replacements = ([tuple(t for seg in segs for t in seg) for segs in block.segments]
                        if block.variant == "synonym" else [None] * n)
        spans = [(s.reshape(-1, 2), range(0, n * k + 1, k)) for s in (block.spans, mixed_spans)]
        provenance = [block.example.tolist(), [block.variant] * n, block.lam.tolist(), *spans,
                      block.pool_index, replacements]
        out.append(_Block(embeddings, soft, [0, *accumulate(sizes.tolist())], provenance,
                          mixed_spans if block.variant == "relation" else None))
    return out


@_gc_quiet
def segmix_generate(
    corpus: Union[TaggedCorpus, RECorpus],
    pools: PoolSpec,
    table: EmbeddingTable,
    config: MixConfig,
) -> GenerationResult:
    """Generate ``round(rate * N)`` mixed examples (minus reported skips).

    ``pools`` may be a single pool/lexicon, a variant->pool mapping, or
    None; a variant given no pool draws from every one of its segments in
    the corpus being mixed (synonym always needs a lexicon).
    """
    src, plans, skipped, requested = _plan_run(corpus, pools, config)
    vocab = corpus.label_vocab if isinstance(corpus, TaggedCorpus) else corpus.relation_vocab
    blocks = _materialize(src, plans, table, vocab, config) if plans else []
    return GenerationResult(_Store(blocks), skipped, requested)


def _splice(seq: Sequence, spans, parts) -> tuple[tuple, list]:
    """``seq`` with each (non-overlapping) span replaced by its part, and
    the output span each part landed on, in ``spans`` order."""
    out: list = []
    placed: list = [None] * len(spans)
    at = 0
    for j in sorted(range(len(spans)), key=lambda j: spans[j][0]):
        start, end = spans[j]
        out.extend(seq[at:start])
        placed[j] = (len(out), len(out) + len(parts[j]))
        out.extend(parts[j])
        at = end
    out.extend(seq[at:])
    return tuple(out), placed


@_gc_quiet
def replacement_da(
    corpus: Union[TaggedCorpus, RECorpus],
    pools: PoolSpec,
    config: MixConfig,
) -> ReplacementResult:
    """Hard substitution in token space: the ``lam = 0`` limit of mixing.

    Runs the exact plan :func:`segmix_generate` would run under the same
    config, so a fixed_lambda=0 mixing run and a replacement run with
    equal configs select identical (example, segment, pool entry) triples.
    """
    src, plans, skipped, requested = _plan_run(corpus, pools, config)
    items = []
    for plan in plans:
        for ex, spans, segments, labels in zip(
            plan.example.tolist(), plan.spans.tolist(), plan.segments, plan.labels
        ):
            source = src.examples[ex]
            tokens, placed = _splice(source.tokens, spans, segments)
            if plan.variant == "relation":
                items.append(RESample(tokens, Span(*placed[0]), Span(*placed[1]), str(labels)))
            elif plan.variant == "synonym":
                items.append(Sentence(tokens, source.labels))  # a synonym shares the label
            else:
                items.append(Sentence(tokens, _splice(source.labels, spans, labels)[0]))
    if isinstance(corpus, TaggedCorpus):
        out: Union[TaggedCorpus, RECorpus] = TaggedCorpus.from_sentences(items)
    else:
        out = RECorpus.from_samples(items)
    return ReplacementResult(out, skipped, requested)


def _encode(examples: Sequence, table: EmbeddingTable, vocab: Sequence[str], pairs=None) -> _Store:
    """A corpus's examples as degenerate mixed examples (lam = 1): their
    embedding rows and one-hot label rows, in blocks of :data:`_BLOCK`."""
    src = _compile(examples)
    embeddings = table.vectors[table.rows(src.tokens)]
    soft = one_hot(src.label_names, vocab)[src.label_ids]
    blocks = []
    for lo in range(0, len(examples), _BLOCK):
        n = min(_BLOCK, len(examples) - lo)
        at = src.offsets[lo : lo + n + 1]
        labels = soft[at[0] : at[-1]] if pairs is None else soft[lo : lo + n]
        provenance = [list(range(lo, lo + n)), ["original"] * n, [1.0] * n,
                      *[_span_column([()] * n)] * 2, [None] * n, [None] * n]
        blocks.append(_Block(embeddings[at[0] : at[-1]], labels, (at - at[0]).tolist(), provenance,
                             None if pairs is None else pairs[lo : lo + n]))
    return _Store(blocks)


def encode_corpus(corpus: TaggedCorpus, table: EmbeddingTable) -> Sequence[MixedExample]:
    """Embed original sentences as degenerate mixed examples (lam = 1)."""
    return _encode(corpus.sentences, table, corpus.label_vocab)


def encode_re_corpus(corpus: RECorpus, table: EmbeddingTable) -> Sequence[MixedRESample]:
    """Embed original RE samples as degenerate mixed samples (lam = 1)."""
    return _encode(corpus.samples, table, corpus.relation_vocab, _pairs(corpus.samples))
