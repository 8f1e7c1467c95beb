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
variant's eligible segments become flat arrays too. Every slot is then
planned from run-level streams named off ``config.seed``: "candidates"
picks the source examples, "lambda" holds a (requested, 2) Gamma block
whose row k gives slot k's lam, and "choice" holds a (requested, 2)
uniform block whose row k picks slot k's segment and partner as
``floor(u * n)``. Row k belongs to slot k, so a slot's draws depend only
on (seed, k), never on the other slots. Only a slot whose example has no
eligible segment opens a stream of its own, (seed, "retry", k), to
re-draw its example. Finally the examples are materialized in blocks of
slots: plain rows are gathered from the embedding table and an identity
matrix, and every mixed row of a block is computed in one blend.

A single-example call (:func:`mix_example`, :func:`mix_re_sample`) is a
one-slot run of the same planner and builder. It draws lam and then one
(1, 2) uniform row from the caller's rng.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Mapping, Sequence, Union

import numpy as np

from .corpus import (
    RECorpus, RESample, Sentence, Span, TaggedCorpus, _O, _bio_arrays, _flatten, _mentions,
)
from .pools import (
    EmptyPoolError,
    SegmentPool,
    SynonymLexicon,
    build_mention_pool,
    build_relation_pool,
    build_sequence_pool,
    build_token_pool,
)
from .rng import derive_rng, derive_rngs

log = logging.getLogger(__name__)

NER_VARIANTS = ("mention", "token", "synonym", "whole_sequence")
RE_VARIANTS = ("relation",)
VARIANTS = NER_VARIANTS + RE_VARIANTS


def _stable_bucket(surface: str, n_buckets: int) -> int:
    import hashlib

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
        _check_table_size(vectors.shape[1], n_buckets)
        self.tokens = tuple(tokens)
        self.vectors = np.asarray(vectors, dtype=np.float64)
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
        rng = derive_rng(seed, "embedding-table")
        vectors = rng.standard_normal((len(tokens) + n_buckets, dim))
        return cls(tokens, vectors, n_buckets)

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
        table = np.zeros((n + n_buckets, dim))
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
        return cls(tokens, table, n_buckets)

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


def _label_ids(labels: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """Index of every label in ``vocab``; unknown labels raise ValueError."""
    index = {l: i for i, l in enumerate(vocab)}
    try:
        return np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not in vocabulary") from None


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


def pad_to_longer(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend the shorter matrix with zero rows; the longer passes through."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    rows = max(len(a), len(b))
    if len(a) < rows:
        a = np.vstack([a, np.zeros((rows - len(a), a.shape[1]))])
    elif len(b) < rows:
        b = np.vstack([b, np.zeros((rows - len(b), b.shape[1]))])
    return a, b


def mix(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise ``lam * a + (1 - lam) * b`` on equal-shape matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return lam * a + (1.0 - lam) * b


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
    retry_limit: int = 16
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
            if abs(sum(self.weights) - 1.0) > 1e-9 or any(w < 0 for w in self.weights):
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


@dataclass(frozen=True)
class Provenance:
    """Where a mixed example came from: source sentence, spans, partner, lam."""

    example_index: int
    variant: str
    lam: float
    spans: tuple[tuple[int, int], ...]
    mixed_spans: tuple[tuple[int, int], ...]
    pool_index: int | None = None
    replacements: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "example_index": self.example_index,
            "variant": self.variant,
            "lam": self.lam,
            "spans": [list(s) for s in self.spans],
            "mixed_spans": [list(s) for s in self.mixed_spans],
            "pool_index": self.pool_index,
        }
        if self.replacements is not None:
            out["replacements"] = list(self.replacements)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Provenance":
        replacements = data.get("replacements")
        return cls(  # positional, in field order: cheaper per loaded record
            data["example_index"], data["variant"], data["lam"],
            tuple(map(tuple, data["spans"])), tuple(map(tuple, data["mixed_spans"])),
            data.get("pool_index"), tuple(replacements) if replacements else None,
        )


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

    ``spans`` maps "e1"/"e2" to a :class:`Span` for a relation example and
    is None for a tagging one. Reads shapes only, so a file load pays O(1)
    per record before decoding.
    """
    if len(emb_shape) != 2 or emb_shape[1] != dim:
        return f"embeddings have shape {list(emb_shape)}, expected (n, {dim})"
    n = emb_shape[0]
    if not n:
        return "embeddings have no rows"
    if spans is None:
        name, expected = "soft_labels", (n, n_labels)
    else:
        name, expected = "soft_relation", (n_labels,)
    if tuple(label_shape) != expected:
        return f"{name} have shape {list(label_shape)}, expected {expected}"
    for span_name, span in (spans or {}).items():
        if span.end > n:  # a Span has 0 <= start < end
            return (f"{span_name} span [{span.start}, {span.end}) lies outside "
                    f"the {n}-token sentence")
    return None


def _examples_problem(examples: Sequence, relation: bool, dim: int, n_labels: int) -> str | None:
    """The first example :func:`_shape_problem` refuses, as "example i: why", or None."""
    for i, e in enumerate(examples):
        labels = e.soft_relation if relation else e.soft_labels
        spans = {"e1": e.e1, "e2": e.e2} if relation else None
        problem = _shape_problem(e.embeddings.shape, labels.shape, spans, dim, n_labels)
        if problem:
            return f"example {i}: {problem}"
    return None


@dataclass
class GenerationResult:
    examples: list
    skipped: int
    requested: int


@dataclass
class ReplacementResult:
    corpus: Union[TaggedCorpus, RECorpus]
    skipped: int
    requested: int


def _check_segment_args(example, variant: str, lexicon: SynonymLexicon | None) -> None:
    """Refuse an example of the wrong kind for ``variant``, or a synonym without a lexicon."""
    if variant == "relation":
        if not isinstance(example, RESample):
            raise TypeError("relation variant needs an RESample")
    elif not isinstance(example, Sentence):
        raise TypeError(f"{variant} variant needs a Sentence")
    elif variant not in NER_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    elif variant == "synonym" and lexicon is None:
        raise ValueError("synonym variant needs a lexicon")


def select_segment(
    example: Union[Sentence, RESample],
    variant: str,
    rng: np.random.Generator,
    lexicon: SynonymLexicon | None = None,
) -> tuple[tuple[int, int], ...] | None:
    """Pick the segment span(s) to mix, or None when nothing is eligible.

    mention: uniform over the sentence's mention spans; token: uniform over
    labeled (non-O) tokens; synonym: uniform over tokens with a lexicon
    entry; whole_sequence: the full range; relation: the gold (e1, e2).
    Only the uniform choices draw from ``rng``.
    """
    _check_segment_args(example, variant, lexicon)
    segs = _segments(_compile([example]), variant, lexicon)
    if not len(segs.start):
        return None
    j = 0 if variant in ("whole_sequence", "relation") else int(rng.integers(len(segs.start)))
    return tuple(zip(segs.start[j].tolist(), segs.end[j].tolist()))


@dataclass
class _Source:
    """A corpus compiled to flat arrays: example i owns flat rows offsets[i]:offsets[i + 1].

    ``label_ids`` index ``label_names``, per token for tagging corpora and
    per sample (the relation) for RE corpora.
    """

    examples: tuple
    offsets: np.ndarray
    tokens: list
    label_names: tuple
    label_ids: np.ndarray


def _compile(examples: Sequence) -> _Source:
    examples = tuple(examples)
    tokens, offsets = _flatten(x.tokens for x in examples)
    if examples and isinstance(examples[0], RESample):
        labels = [x.relation for x in examples]
    else:
        labels = [l for x in examples for l in x.labels]
    names = tuple(dict.fromkeys(labels))
    return _Source(examples, offsets, tokens, names, _label_ids(labels, names))


@dataclass
class _Plan:
    """Resolved randomness of a run's emitted slots, one row per slot in slot order.

    ``spans`` holds each slot's k segment spans (k = 1 for tagging, 2 for
    relations) in source coordinates; ``segments`` and ``labels`` hold the
    partner's k token tuples and its labels (k label tuples, one relation
    string, or None for a synonym swap, which keeps the source labels).
    """

    example: np.ndarray
    lam: np.ndarray
    spans: np.ndarray
    variant: list
    pool_index: list
    segments: list
    labels: list

    def __getitem__(self, rows: slice) -> "_Plan":
        return _Plan(
            self.example[rows], self.lam[rows], self.spans[rows], self.variant[rows],
            self.pool_index[rows], self.segments[rows], self.labels[rows],
        )

    @classmethod
    def concat(cls, plans: Sequence["_Plan"]) -> "_Plan":
        return cls(
            np.concatenate([p.example for p in plans]),
            np.concatenate([p.lam for p in plans]),
            np.concatenate([p.spans for p in plans]),
            [v for p in plans for v in p.variant],
            [i for p in plans for i in p.pool_index],
            [s for p in plans for s in p.segments],
            [l for p in plans for l in p.labels],
        )


PoolSpec = Union[SegmentPool, SynonymLexicon, Mapping[str, Union[SegmentPool, SynonymLexicon]], None]


_DEFAULT_POOLS = {
    "mention": build_mention_pool,
    "token": build_token_pool,
    "whole_sequence": build_sequence_pool,
    "relation": build_relation_pool,
}


def _normalize_pools(
    corpus: Union[TaggedCorpus, RECorpus], pools: PoolSpec, config: MixConfig
) -> dict[str, Union[SegmentPool, SynonymLexicon]]:
    """Accept a bare pool/lexicon or a variant->pool mapping; build defaults."""
    parts = config.variant_list()
    table = dict(pools) if isinstance(pools, Mapping) else {}
    if isinstance(pools, (SegmentPool, SynonymLexicon)):
        if len(parts) != 1:
            raise ValueError("combination variants need a mapping of pools")
        table[parts[0]] = pools
    for part, weight in zip(parts, config.variant_weights()):
        if part not in table:
            if part == "synonym":
                raise ValueError("synonym variant needs an explicit lexicon")
            table[part] = _DEFAULT_POOLS[part](corpus)
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


@dataclass
class _Segments:
    """Every eligible segment of a compiled corpus, grouped by example.

    Example i's candidates are rows ``off[i]:off[i + 1]`` of ``start`` and
    ``end`` (shape (F, k), source coordinates). ``types`` is each
    candidate's entity-type id under ``type_ids`` (-1 where types do not
    apply), which same-type draws match against the pool.
    """

    start: np.ndarray
    end: np.ndarray
    types: np.ndarray
    off: np.ndarray
    type_ids: dict


def _segments(src: _Source, variant: str, lexicon: SynonymLexicon | None) -> _Segments:
    n = len(src.examples)
    lengths = np.diff(src.offsets)
    one_each = np.arange(n + 1)
    if variant == "whole_sequence":
        return _Segments(np.zeros((n, 1), np.int64), lengths[:, None], np.full(n, -1), one_each, {})
    if variant == "relation":
        spans = np.array(
            [[s.e1.start, s.e1.end, s.e2.start, s.e2.end] for s in src.examples], np.int64
        ).reshape(n, 2, 2)
        return _Segments(spans[:, :, 0], spans[:, :, 1], np.full(n, -1), one_each, {})
    type_ids: dict[str, int] = {}
    if variant == "synonym":
        pos = np.flatnonzero(
            np.fromiter((t in lexicon for t in src.tokens), bool, len(src.tokens))
        )
        ends = pos + 1
        types = np.full(len(pos), -1)
    else:
        kind, etype, names = _bio_arrays(src.label_names)
        kind, etype = kind[src.label_ids], etype[src.label_ids]
        type_ids = {t: i for i, t in enumerate(names)}
        if variant == "mention":
            pos, ends = _mentions(kind, etype, src.offsets)
        else:
            pos = np.flatnonzero(kind != _O)
            ends = pos + 1
        types = etype[pos]
    off = np.searchsorted(pos, src.offsets)
    base = np.repeat(src.offsets[:-1], np.diff(off))
    return _Segments((pos - base)[:, None], (ends - base)[:, None], types, off, type_ids)


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
    for i in np.flatnonzero(~ok):
        # only ineligible slots pay for a stream of their own
        rng = derive_rng(config.seed, "retry", int(slots[i]))
        for _attempt in range(config.retry_limit):
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
    return _Plan(ex, lam[ok], spans, [variant] * len(ex), pool_index, segments, labels)


def _mix_ratios(config: MixConfig, requested: int) -> np.ndarray:
    """Row k is slot k's lam; it depends only on (seed, k)."""
    if config.fixed_lambda is not None:
        return np.full(requested, float(config.fixed_lambda))
    return _beta(
        config.alpha, requested, derive_rng(config.seed, "lambda"), derive_rng(config.seed, "lambda-beta")
    )


def _plan_run(
    corpus: Union[TaggedCorpus, RECorpus], pools: PoolSpec, config: MixConfig
) -> tuple[_Source | None, _Plan | None, int, int]:
    """Shared planner for mixing and replacement: (source, plan, skipped, requested)."""
    examples = (
        corpus.sentences if isinstance(corpus, TaggedCorpus) else corpus.samples
    )
    n = len(examples)
    requested = int(config.rate * n + 0.5)
    parts = config.variant_list()
    for part in parts:
        ok = RE_VARIANTS if isinstance(corpus, RECorpus) else NER_VARIANTS
        if part not in ok:
            raise ValueError(
                f"variant {part!r} does not apply to {type(corpus).__name__}"
            )
    if requested == 0:
        return None, None, 0, 0
    if n == 0:
        raise ValueError("cannot augment an empty corpus")
    pool_map = _normalize_pools(corpus, pools, config)

    cand_rng = derive_rng(config.seed, "candidates")
    candidates = cand_rng.choice(n, size=requested, replace=requested > n)
    lam = _mix_ratios(config, requested)
    u = derive_rng(config.seed, "choice").random((requested, 2))

    src = _compile(examples)
    plans = []
    first = 0
    for part, count in zip(parts, _split_budget(requested, config.variant_weights())):
        if count:
            slots = np.arange(first, first + count)
            plans.append(
                _plan_part(src, part, pool_map[part], slots, candidates[slots], lam[slots], u[slots], config)
            )
            first += count
    plan = _Plan.concat(plans)
    skipped = requested - len(plan.example)
    if skipped:
        log.warning("skipped %d of %d slots (no eligible segment)", skipped, requested)
    return src, plan, skipped, requested


# Slots materialized together. Blocks keep every array to a few MB: one
# run-sized output array raised the augment benchmark's peak RSS by ~3.5%,
# memory the allocator kept after the array was freed.
_BLOCK = 512


def _gather(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``table[rows]`` where row -1 reads as zeros: the zero-pad side of a blend."""
    out = table[rows]
    out[rows < 0] = 0.0
    return out


def _blend(out: np.ndarray, at: np.ndarray, lam: np.ndarray, table: np.ndarray, rows: np.ndarray) -> None:
    """``out[at] = lam * out[at] + (1 - lam) * table[rows]`` row-wise, computed in place."""
    a = out[at]
    a *= lam[:, None]
    b = _gather(table, rows)
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
    start = np.take_along_axis(plan.spans[:, :, 0], order, 1)
    end = np.take_along_axis(plan.spans[:, :, 1], order, 1)
    p_len = np.take_along_axis(partner_lens, order, 1)
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
    b_at[:, 1::2] = np.take_along_axis(partner_at, order, 1)
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
    mixed_at = np.take_along_axis(piece_at[:, 1::2], inverse, 1)
    mixed_end = mixed_at + np.take_along_axis(mixed_len, inverse, 1)
    mixed_spans = np.stack([mixed_at, mixed_end], axis=-1)
    return a, b, slot, blend, piece_len.sum(axis=1), mixed_spans


def _materialize(
    src: _Source,
    plan: _Plan,
    table: EmbeddingTable,
    vocab: Sequence[str],
    config: MixConfig,
    example_index: int | None = None,
) -> list:
    """Build the planned examples with batched gathers and blends.

    Rows outside the mixed spans are gathered from ``table.vectors`` and an
    identity matrix; rows inside become ``lam * a + (1 - lam) * b`` against
    the partner's rows, zero-padded on the shorter side. A synonym swap
    leaves the label rows as they are.
    """
    ner = isinstance(src.examples[0], Sentence)
    # a trailing -1 keeps position -1 (zero pad) reading as -1 after a lookup
    source_rows = np.append(table.rows(src.tokens), -1)
    source_labels = np.append(_label_ids(src.label_names, vocab)[src.label_ids], -1)
    eye = np.eye(len(vocab))
    out = []
    for lo in range(0, len(plan.example), _BLOCK):
        block = plan[lo : lo + _BLOCK]
        segments = [seg for segs in block.segments for seg in segs]
        partner_lens = np.array([len(seg) for seg in segments], np.int64).reshape(len(block.example), -1)
        a, b, slot, blend, sizes, mixed_spans = _layout(src, block, partner_lens)
        partner_tokens = [t for seg in segments for t in seg]
        partner_rows = np.append(table.rows(partner_tokens), -1)
        embeddings = _gather(table.vectors, source_rows[a])
        _blend(embeddings, blend, block.lam[slot[blend]], table.vectors, partner_rows[b[blend]])
        if ner:
            soft = _gather(eye, source_labels[a])
            swapped = np.array([v == "synonym" for v in block.variant])
            mixed = blend[~swapped[slot[blend]]]
            # None stands for a synonym partner's labels, which are never read
            partner_labels = np.append(_label_ids(_flat_labels(block), (*vocab, None)), -1)
            _blend(soft, mixed, block.lam[slot[mixed]], eye, partner_labels[b[mixed]])
            if config.normalize_tail_labels:
                rows = soft[mixed]
                sums = rows.sum(axis=1)
                nonzero = sums > 0
                rows[nonzero] = rows[nonzero] / sums[nonzero, None]
                soft[mixed] = rows
        else:
            soft = _gather(eye, source_labels[block.example])
            _blend(soft, np.arange(len(soft)), block.lam, eye, _label_ids(block.labels, vocab))
        out.extend(_examples(block, embeddings, soft, sizes, mixed_spans, ner, example_index))
    return out


def _flat_labels(plan: _Plan) -> list:
    """Partner labels aligned with the partner tokens (None for a synonym)."""
    out = []
    for segs, labels in zip(plan.segments, plan.labels):
        for j, seg in enumerate(segs):
            if labels is None:
                out.extend([None] * len(seg))
            elif len(labels[j]) != len(seg):
                raise ValueError("pool entry has unequal token and label counts")
            else:
                out.extend(labels[j])
    return out


def _examples(
    plan: _Plan,
    embeddings: np.ndarray,
    soft: np.ndarray,
    sizes: np.ndarray,
    mixed_spans: np.ndarray,
    ner: bool,
    example_index: int | None,
) -> list:
    """Slice a block's rows into MixedExample / MixedRESample objects."""
    bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    indices = plan.example.tolist() if example_index is None else [example_index] * len(sizes)
    out = []
    for i, (spans, final, lam, variant) in enumerate(
        zip(plan.spans.tolist(), mixed_spans.tolist(), plan.lam.tolist(), plan.variant)
    ):
        final = tuple(map(tuple, final))
        provenance = Provenance(
            example_index=indices[i],
            variant=variant,
            lam=lam,
            spans=tuple(map(tuple, spans)),
            mixed_spans=final,
            pool_index=plan.pool_index[i],
            replacements=(
                tuple(t for seg in plan.segments[i] for t in seg)
                if variant == "synonym"
                else None
            ),
        )
        rows = slice(bounds[i], bounds[i + 1])
        if ner:
            out.append(MixedExample(embeddings[rows], soft[rows], provenance))
        else:
            out.append(
                MixedRESample(
                    embeddings[rows], soft[i], Span(*final[0]), Span(*final[1]), provenance
                )
            )
    return out


def _mix_one(example, variant: str, pool, table: EmbeddingTable, vocab: Sequence[str],
             config: MixConfig, rng: np.random.Generator, example_index: int):
    """One example as a one-slot run: lam, then one (1, 2) uniform row, from ``rng``."""
    _check_segment_args(example, variant, pool if isinstance(pool, SynonymLexicon) else None)
    # a single example has no other example to retry with
    config = replace(config, variant=variant, weights=None, retry_limit=0)
    pool = _normalize_pools(None, pool, config)[variant]
    lam = config.fixed_lambda
    lam = np.array([sample_mix_ratio(config.alpha, rng) if lam is None else float(lam)])
    src, zero = _compile([example]), np.zeros(1, np.int64)
    plan = _plan_part(src, variant, pool, zero, zero, lam, rng.random((1, 2)), config)
    if not len(plan.example):
        raise ValueError("no eligible segment in example")
    return _materialize(src, plan, table, vocab, config, example_index)[0]


def mix_example(
    sentence: Sentence,
    pool: Union[SegmentPool, SynonymLexicon],
    table: EmbeddingTable,
    vocab: Sequence[str],
    config: MixConfig,
    rng: np.random.Generator,
    example_index: int = 0,
) -> MixedExample:
    """Mix one sentence against one pool draw (single-variant, NER)."""
    if config.variant not in NER_VARIANTS:
        raise ValueError(f"mix_example handles NER variants, not {config.variant!r}")
    return _mix_one(sentence, config.variant, pool, table, vocab, config, rng, example_index)


def mix_re_sample(
    sample: RESample,
    pool: SegmentPool,
    table: EmbeddingTable,
    relation_vocab: Sequence[str],
    config: MixConfig,
    rng: np.random.Generator,
    example_index: int = 0,
) -> MixedRESample:
    """Mix one RE sample's nominal pair against a pool pair, shared lam."""
    return _mix_one(sample, "relation", pool, table, relation_vocab, config, rng, example_index)


def segmix_generate(
    corpus: Union[TaggedCorpus, RECorpus],
    pools: PoolSpec,
    table: EmbeddingTable,
    config: MixConfig,
) -> GenerationResult:
    """Generate ``round(rate * N)`` mixed examples (minus reported skips).

    ``pools`` may be a single pool/lexicon, a variant->pool mapping, or
    None to build pools from the corpus (synonym always needs a lexicon).
    """
    src, plan, skipped, requested = _plan_run(corpus, pools, config)
    if plan is None:
        return GenerationResult([], skipped, requested)
    vocab = corpus.label_vocab if isinstance(corpus, TaggedCorpus) else corpus.relation_vocab
    return GenerationResult(_materialize(src, plan, table, vocab, config), skipped, requested)


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
    src, plan, skipped, requested = _plan_run(corpus, pools, config)
    items = []
    if plan is not None:
        for ex, spans, variant, segments, labels in zip(
            plan.example.tolist(), plan.spans.tolist(), plan.variant, plan.segments, plan.labels
        ):
            source = src.examples[ex]
            tokens, placed = _splice(source.tokens, spans, segments)
            if isinstance(source, RESample):
                items.append(RESample(tokens, Span(*placed[0]), Span(*placed[1]), str(labels)))
            elif variant == "synonym":
                items.append(Sentence(tokens, source.labels))  # a synonym shares the label
            else:
                items.append(Sentence(tokens, _splice(source.labels, spans, labels)[0]))
    if isinstance(corpus, TaggedCorpus):
        out: Union[TaggedCorpus, RECorpus] = TaggedCorpus.from_sentences(items)
    else:
        out = RECorpus.from_samples(items)
    return ReplacementResult(out, skipped, requested)


def _encode(examples: Sequence, table: EmbeddingTable, vocab: Sequence[str]):
    """A corpus's embedding rows, one-hot label rows and each example's (start, end) row."""
    src = _compile(examples)
    embeddings = table.vectors[table.rows(src.tokens)]
    bounds = src.offsets.tolist()
    return embeddings, one_hot(src.label_names, vocab)[src.label_ids], zip(bounds, bounds[1:])


def encode_corpus(
    corpus: TaggedCorpus, table: EmbeddingTable, vocab: Sequence[str] | None = None
) -> list[MixedExample]:
    """Embed original sentences as degenerate mixed examples (lam = 1)."""
    vocab = corpus.label_vocab if vocab is None else vocab
    embeddings, soft, bounds = _encode(corpus.sentences, table, vocab)
    return [
        MixedExample(embeddings[a:b], soft[a:b], Provenance(i, "original", 1.0, (), (), None))
        for i, (a, b) in enumerate(bounds)
    ]


def encode_re_corpus(
    corpus: RECorpus, table: EmbeddingTable, vocab: Sequence[str] | None = None
) -> list[MixedRESample]:
    """Embed original RE samples as degenerate mixed samples (lam = 1)."""
    vocab = corpus.relation_vocab if vocab is None else vocab
    embeddings, soft, bounds = _encode(corpus.samples, table, vocab)
    return [
        MixedRESample(
            embeddings[a:b], soft[i], s.e1, s.e2, Provenance(i, "original", 1.0, (), (), None)
        )
        for i, (s, (a, b)) in enumerate(zip(corpus.samples, bounds))
    ]
