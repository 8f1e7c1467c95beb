"""Segment pools: the collections of mixing partners drawn during augmentation.

A pool entry is a k-ary tuple of token segments with labels. For tagging
pools (k=1) the labels are a BIO sequence aligned with the segment; for
relation pools (k=2) the label is the single directed relation string.
Duplicates are kept on purpose: drawing uniformly from the pool then
weights segments by corpus frequency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .corpus import (
    CorpusFormatError, RECorpus, TaggedCorpus, _O, _bio_arrays, _flatten, _iter_lines, _mentions,
)

POOL_SOURCES = ("mention", "token", "synonym", "relation", "sequence")


class EmptyPoolError(ValueError):
    """Raised when mixing against a pool or lexicon with no entries."""


@dataclass(frozen=True)
class SegmentTuple:
    """k segments with their labels (BIO sequences, or one relation string)."""

    segments: tuple[tuple[str, ...], ...]
    labels: tuple[tuple[str, ...], ...] | str

    @property
    def arity(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class SegmentPool:
    """An immutable bag of segment tuples sharing one arity."""

    arity: int
    entries: tuple[SegmentTuple, ...]
    source: str

    def __post_init__(self):
        if self.source not in POOL_SOURCES:
            raise ValueError(f"unknown pool source {self.source!r}")
        for entry in self.entries:
            if entry.arity != self.arity:
                raise ValueError(
                    f"pool arity {self.arity} but entry has {entry.arity} segments"
                )

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


def build_mention_pool(corpus: TaggedCorpus) -> SegmentPool:
    """One entry per mention span (see :func:`bio_spans`), labels kept in BIO form."""
    tokens, offsets = _flatten(s.tokens for s in corpus.sentences)
    labels, _ = _flatten(s.labels for s in corpus.sentences)
    kind, etype, _ = _bio_arrays(labels)
    starts, ends = _mentions(kind, etype, offsets)
    entries = tuple(
        SegmentTuple((tuple(tokens[s:e]),), (tuple(labels[s:e]),))
        for s, e in zip(starts.tolist(), ends.tolist())
    )
    return SegmentPool(1, entries, "mention")


def build_token_pool(corpus: TaggedCorpus, include_outside: bool = False) -> SegmentPool:
    """One entry per labeled token; ``include_outside`` admits O tokens too."""
    tokens, _ = _flatten(s.tokens for s in corpus.sentences)
    labels, _ = _flatten(s.labels for s in corpus.sentences)
    kind, _, _ = _bio_arrays(labels)  # also rejects a label that is not BIO
    entries = tuple(
        SegmentTuple(((tokens[i],),), ((labels[i],),))
        for i in np.flatnonzero(include_outside | (kind != _O)).tolist()
    )
    return SegmentPool(1, entries, "token")


def build_relation_pool(corpus: RECorpus) -> SegmentPool:
    """One entry per sample: (e1 tokens, e2 tokens) with the relation label."""
    entries = tuple(
        SegmentTuple((s.tokens[s.e1.start : s.e1.end], s.tokens[s.e2.start : s.e2.end]), s.relation)
        for s in corpus.samples
    )
    return SegmentPool(2, entries, "relation")


def build_sequence_pool(corpus: TaggedCorpus) -> SegmentPool:
    """Whole sentences as single segments (classic sentence-level mixup)."""
    entries = tuple(SegmentTuple((s.tokens,), (s.labels,)) for s in corpus.sentences)
    return SegmentPool(1, entries, "sequence")


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


def identity_lexicon(tokens: Iterable[str]) -> SynonymLexicon:
    """Each token is its own only synonym (useful for pipeline checks)."""
    return SynonymLexicon({t: (t,) for t in dict.fromkeys(tokens)})
