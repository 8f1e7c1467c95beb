"""Segment pools: the collections of mixing partners drawn during augmentation.

Each variant mixes one kind of segment (a mention, a non-O token, a whole
sentence, a relation's argument pair, a lexicon-covered token), and
:func:`_segments` is the one enumerator of them: the planner replaces one
of an example's segments, and a variant's pool is all of them in corpus
order (:func:`_segment_pool`, behind each ``build_*_pool`` and default pool).

A pool entry is a k-ary tuple of token segments with labels. For tagging
pools (k=1) the labels are a BIO sequence aligned with the segment; for
relation pools (k=2) the label is the single directed relation string.
Duplicates are kept on purpose: drawing uniformly from the pool then
weights segments by corpus frequency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .corpus import (
    CorpusFormatError, RECorpus, TaggedCorpus, _O, _Source, _bio_arrays, _compile, _gc_quiet,
    _iter_lines, _mentions,
)


class EmptyPoolError(ValueError):
    """Raised when mixing against a pool or lexicon with no entries."""


class SegmentTuple(NamedTuple):
    """k segments with their labels (BIO sequences, or one relation string)."""

    segments: tuple[tuple[str, ...], ...]
    labels: tuple[tuple[str, ...], ...] | str


@dataclass(frozen=True)
class SegmentPool:
    """An immutable bag of segment tuples sharing one arity."""

    arity: int
    entries: tuple[SegmentTuple, ...]

    def __post_init__(self):
        arities = {len(entry.segments) for entry in self.entries} - {self.arity}
        if arities:
            raise ValueError(f"pool arity {self.arity} but entry has {min(arities)} segments")

    def __len__(self) -> int:
        return len(self.entries)

    def dump_jsonl(self, stream: TextIO) -> None:
        """One JSON object per entry, for inspection."""
        for entry in self.entries:
            stream.write(
                json.dumps(
                    {"segments": [list(s) for s in entry.segments], "labels": entry.labels},
                    sort_keys=True,
                )
                + "\n"
            )


class _Segments(NamedTuple):
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


def _segment_pool(src: _Source, variant: str) -> SegmentPool:
    """Every ``variant`` segment of a compiled corpus as a pool entry, in
    corpus order: its token slices with their label slices, or with the
    sample's one relation."""
    segs = _segments(src, variant, None)
    base = np.repeat(src.offsets[:-1], np.diff(segs.off))[:, None]
    # slices of tuples are the entries' tuples; zip() groups each row's k slices
    cuts = [list(map(slice, a, b))
            for a, b in zip((segs.start + base).T.tolist(), (segs.end + base).T.tolist())]
    tokens, labels = tuple(src.tokens), tuple(src.labels)
    segments = zip(*(map(tokens.__getitem__, c) for c in cuts))
    if variant != "relation":
        labels = zip(*(map(labels.__getitem__, c) for c in cuts))
    return SegmentPool(len(cuts), tuple(map(SegmentTuple, segments, labels)))


@_gc_quiet
def build_mention_pool(corpus: TaggedCorpus) -> SegmentPool:
    """One entry per mention span (see :func:`bio_spans`), labels kept in BIO form."""
    return _segment_pool(_compile(corpus.sentences), "mention")


@_gc_quiet
def build_token_pool(corpus: TaggedCorpus) -> SegmentPool:
    """One entry per token not labeled O."""
    return _segment_pool(_compile(corpus.sentences), "token")


@_gc_quiet
def build_relation_pool(corpus: RECorpus) -> SegmentPool:
    """One entry per sample: (e1 tokens, e2 tokens) with the relation label."""
    return _segment_pool(_compile(corpus.samples), "relation")


@_gc_quiet
def build_sequence_pool(corpus: TaggedCorpus) -> SegmentPool:
    """Whole sentences as single segments (classic sentence-level mixup)."""
    return _segment_pool(_compile(corpus.sentences), "whole_sequence")


class SynonymLexicon:
    """Case-sensitive surface -> synonyms map backing the synonym variant."""

    def __init__(self, table: dict[str, tuple[str, ...]]):
        for key, syns in table.items():
            if not syns:
                raise CorpusFormatError(f"empty synonym list for {key!r}")
        self._table = dict(table)

    def __contains__(self, token: str) -> bool:
        return token in self._table

    def __len__(self) -> int:
        return len(self._table)

    def synonyms(self, token: str) -> tuple[str, ...]:
        return self._table.get(token, ())


def load_synonym_lexicon(source) -> SynonymLexicon:
    """Read ``<token>\\t<syn1>,<syn2>,...`` lines; repeated keys extend."""
    table: dict[str, list[str]] = {}
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise CorpusFormatError(f"line {lineno}: expected '<token>\\t<synonyms>'")
        token, rest = fields
        syns = [s.strip() for s in rest.split(",")]
        if not token or any(not s or " " in s for s in syns):
            raise CorpusFormatError(f"line {lineno}: empty or multiword synonym entry")
        table.setdefault(token, []).extend(syns)
    return SynonymLexicon({k: tuple(v) for k, v in table.items()})
