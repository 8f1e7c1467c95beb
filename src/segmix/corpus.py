"""Corpora for token tagging and relation classification.

Two on-disk formats are supported:

* NER: one ``<token>\\t<label>`` pair per line (a single space also works as
  the separator), blank line between sentences, ``-DOCSTART-`` lines skipped.
  Labels follow the BIO scheme: ``O``, ``B-<type>``, ``I-<type>``.
* RE: one sample per line, six tab-separated fields:
  ``tokens`` (space-joined), ``e1_start``, ``e1_end``, ``e2_start``,
  ``e2_end``, ``relation``. Span indices are token offsets, end-exclusive.

Parsed corpora are immutable; label and token vocabularies are kept in
first-occurrence order so one-hot indices stay stable when a corpus grows.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .rng import derive_rng


class CorpusFormatError(ValueError):
    """Malformed input line (field count, span arithmetic, bad label)."""


class BioValidationError(CorpusFormatError):
    """An I- label with no matching B-/I- of the same type before it."""


def split_bio(label: str) -> tuple[str, str | None]:
    """Split a BIO label into (kind, entity type): ``B-LOC`` -> ("B", "LOC")."""
    if label == "O":
        return "O", None
    if len(label) > 2 and label[1] == "-" and label[0] in ("B", "I"):
        return label[0], label[2:]
    raise CorpusFormatError(f"not a BIO label: {label!r}")


_O, _B, _I = range(3)  # label kinds, numbered by their place in "OBI"


def _bio_tables(vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Kind (``_O``/``_B``/``_I``, or -1 for a label that is not BIO) and
    entity-type id of every label of ``vocab``, each label split once.

    Type ids index the returned type names, numbered in vocabulary order;
    an O label, and a label that is not BIO, has type -1.
    """
    types: dict[str, int] = {}
    kind_of = np.full(len(vocab), -1, np.int64)
    type_of = np.full(len(vocab), -1, np.int64)
    for i, label in enumerate(vocab):
        try:
            kind, etype = split_bio(label)
        except CorpusFormatError:
            continue
        kind_of[i] = "OBI".index(kind)
        type_of[i] = -1 if etype is None else types.setdefault(etype, len(types))
    return kind_of, type_of, tuple(types)


def _bio_kinds(ids: np.ndarray, vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """:func:`_bio_tables` read for a flat stream of ids into ``vocab``.

    Refuses the first label of the stream that is not BIO, as
    :func:`split_bio` does.
    """
    kind_of, type_of, types = _bio_tables(vocab)
    kind = kind_of[ids]
    bad = np.flatnonzero(kind < 0)
    if len(bad):
        split_bio(vocab[ids[bad[0]]])
    return kind, type_of[ids], types


def _bio_arrays(labels: Iterable[str]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """:func:`_bio_kinds` of a stream of label strings, whose vocabulary is
    numbered in first-occurrence order (so are the type names)."""
    index: dict[str, int] = {}
    ids = np.fromiter((index.setdefault(l, len(index)) for l in labels), np.int64)
    return _bio_kinds(ids, tuple(index))


def _mentions(kind: np.ndarray, etype: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Flat (start, end) of every mention; sentence i owns positions offsets[i]:offsets[i + 1].

    B-X opens a mention. I-X continues the mention before it when that one
    has type X and otherwise opens a new one (the conlleval reading, so
    ill-formed BIO needs no repair). No mention crosses a sentence boundary.
    """
    cont = kind == _I
    cont[1:] &= etype[1:] == etype[:-1]  # an O before it has type -1, so never matches
    cont[:1] = False
    cont[np.asarray(offsets)[1:-1]] = False
    starts = np.flatnonzero((kind != _O) & ~cont)
    stops = np.flatnonzero(np.append(~cont, True))
    return starts, stops[np.searchsorted(stops, starts, side="right")]


def _flatten(rows: Iterable[Sequence]) -> tuple[list, np.ndarray]:
    """The items of ``rows`` end to end, and offsets: row i is ``flat[offsets[i]:offsets[i + 1]]``."""
    rows = list(rows)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return [x for row in rows for x in row], np.concatenate([[0], np.cumsum(lengths)])


def bio_spans(labels: Iterable[str]) -> list[tuple[int, int, str]]:
    """Mention spans of one sentence as (start, end, type), end-exclusive.

    Follows :func:`_mentions`: B-X opens a span; I-X continues a span of
    type X and otherwise opens one.
    """
    kind, etype, types = _bio_arrays(labels)
    starts, ends = _mentions(kind, etype, [0, len(kind)])
    return list(zip(starts.tolist(), ends.tolist(), (types[t] for t in etype[starts].tolist())))


def validate_bio(labels: Iterable[str], repair: bool = False) -> tuple[str, ...]:
    """Check BIO validity; optionally promote stray I-X to B-X.

    Returns the (possibly repaired) label tuple, or raises
    BioValidationError naming the offending position.
    """
    out = []
    prev_kind, prev_type = "O", None
    for i, label in enumerate(labels):
        kind, etype = split_bio(label)
        if kind == "I" and not (prev_kind in ("B", "I") and prev_type == etype):
            if repair:
                kind, label = "B", f"B-{etype}"
            else:
                raise BioValidationError(
                    f"I-{etype} at position {i} has no preceding B-{etype}/I-{etype}"
                )
        out.append(label)
        prev_kind, prev_type = kind, etype
    return tuple(out)


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence with one BIO label per token."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels) or not self.tokens:
            raise CorpusFormatError(
                f"sentence needs equal, nonzero token/label counts "
                f"(got {len(self.tokens)}/{len(self.labels)})"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def mentions(self) -> list[tuple[int, int, str]]:
        return bio_spans(self.labels)


@dataclass(frozen=True)
class Span:
    """Token span, start inclusive, end exclusive."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise CorpusFormatError(f"bad span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class RESample:
    """A sentence with two gold nominal spans and a directed relation label."""

    tokens: tuple[str, ...]
    e1: Span
    e2: Span
    relation: str

    def __post_init__(self):
        n = len(self.tokens)
        for name, span in (("e1", self.e1), ("e2", self.e2)):
            if span.end > n:
                raise CorpusFormatError(f"{name} span {span} exceeds {n} tokens")
        if self.e1.overlaps(self.e2):
            raise CorpusFormatError(f"overlapping nominal spans {self.e1} / {self.e2}")


def _first_occurrence(items: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(items))


@dataclass(frozen=True)
class TaggedCorpus:
    """BIO-labeled sentences plus deterministic label/token vocabularies."""

    sentences: tuple[Sentence, ...]
    label_vocab: tuple[str, ...] = field(default=())
    token_vocab: tuple[str, ...] = field(default=())

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> "TaggedCorpus":
        sentences = tuple(sentences)
        labels = _first_occurrence(l for s in sentences for l in s.labels)
        if "O" not in labels:
            labels = labels + ("O",)
        tokens = _first_occurrence(t for s in sentences for t in s.tokens)
        return cls(sentences, labels, tokens)

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class RECorpus:
    """Relation samples plus relation and token vocabularies."""

    samples: tuple[RESample, ...]
    relation_vocab: tuple[str, ...] = field(default=())
    token_vocab: tuple[str, ...] = field(default=())

    @classmethod
    def from_samples(cls, samples: Iterable[RESample]) -> "RECorpus":
        samples = tuple(samples)
        return cls(
            samples,
            _first_occurrence(s.relation for s in samples),
            _first_occurrence(t for s in samples for t in s.tokens),
        )

    def __len__(self) -> int:
        return len(self.samples)


Corpus = Union[TaggedCorpus, RECorpus]


def _iter_lines(source: str | TextIO | Iterable[str]) -> Iterable[str]:
    return io.StringIO(source) if isinstance(source, str) else source


def parse_conll(source: str | TextIO | Iterable[str], repair_bio: bool = False) -> TaggedCorpus:
    """Parse NER data from a string, open file, or iterable of lines.

    ``repair_bio=True`` promotes stray I-X labels to B-X instead of
    rejecting the sentence (public corpora contain such noise).

    One pass reads the tokens, labels and blank and ``-DOCSTART-`` line
    numbers, up to a line of any other field count; the labels are then
    checked as whole arrays. Of several faults the one on the earliest line
    is raised, a stray I-X on the line that closes its sentence (the blank
    line, or one past the last line).
    """
    tokens: list[str] = []
    labels: list[str] = []
    gaps: list[int] = []  # blank and -DOCSTART- lines
    blanks: list[int] = []
    add_token, add_label = tokens.append, labels.append
    lineno = bad_fields = 0
    for lineno, line in enumerate(_iter_lines(source), start=1):
        fields = line.split()
        if len(fields) == 2 and fields[0] != "-DOCSTART-":
            add_token(fields[0])
            add_label(fields[1])
        elif not fields:
            gaps.append(lineno)
            blanks.append(lineno)
        elif fields[0] == "-DOCSTART-":
            gaps.append(lineno)
        else:
            bad_fields = len(fields)
            break
    n = len(tokens)
    gap_tokens = np.array(gaps, np.int64) - np.arange(1, len(gaps) + 1)  # tokens before each gap
    blank_tokens = gap_tokens[np.searchsorted(gaps, blanks)]
    closing = np.flatnonzero(np.diff(blank_tokens, prepend=0) > 0)  # the first blank after a token
    bounds = [0, *blank_tokens[closing].tolist()]  # sentence i is tokens bounds[i]:bounds[i + 1]
    end_lines = np.array(blanks, np.int64)[closing].tolist()
    if n > bounds[-1]:
        bounds.append(n)
        end_lines.append(lineno + 1)  # after a bad line, which is raised first

    vocab = tuple(dict.fromkeys(labels))
    ids = np.fromiter(map({l: i for i, l in enumerate(vocab)}.__getitem__, labels), np.int64, n)
    kind_of, type_of, _ = _bio_tables(vocab)
    kind = kind_of[ids]
    mention_starts, _ = _mentions(kind, type_of[ids], bounds)
    stray = mention_starts[kind[mention_starts] == _I].tolist()
    faults: list[tuple[int, CorpusFormatError]] = []
    if bad_fields:
        faults.append((lineno, CorpusFormatError(
            f"line {lineno}: expected '<token> <label>', got {bad_fields} fields")))
    not_bio = np.flatnonzero(kind < 0)
    if len(not_bio):
        t = int(not_bio[0])
        line = t + 1 + int(np.searchsorted(gap_tokens, t, side="right"))
        faults.append((line, CorpusFormatError(f"line {line}: not a BIO label: {labels[t]!r}")))
    if stray and not repair_bio:
        p = stray[0]
        k = int(np.searchsorted(bounds, p, side="right")) - 1
        etype = labels[p][2:]
        faults.append((end_lines[k], BioValidationError(
            f"sentence {k} (ending line {end_lines[k]}): I-{etype} at position {p - bounds[k]} "
            f"has no preceding B-{etype}/I-{etype}")))
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    for p in stray:  # only left when repairing
        labels[p] = "B-" + labels[p][2:]
    return TaggedCorpus.from_sentences(
        Sentence(tuple(tokens[a:b]), tuple(labels[a:b])) for a, b in zip(bounds, bounds[1:]))


def parse_re(source: str | TextIO | Iterable[str]) -> RECorpus:
    """Parse RE data (six-field TSV) from a string, file, or line iterable."""
    samples = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise CorpusFormatError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        text, *offsets, relation = fields
        if not relation or relation != relation.strip():
            raise CorpusFormatError(f"line {lineno}: relation {relation!r} is empty or "
                                    f"padded with whitespace")
        tokens = tuple(text.split())
        try:
            s1, e1, s2, e2 = (int(x) for x in offsets)
        except ValueError:
            raise CorpusFormatError(f"line {lineno}: non-integer span offset") from None
        try:
            sample = RESample(tokens, Span(s1, e1), Span(s2, e2), relation)
        except CorpusFormatError as err:
            raise CorpusFormatError(f"line {lineno}: {err}") from None
        samples.append(sample)
    return RECorpus.from_samples(samples)


def write_corpus(corpus: Corpus, stream: TextIO) -> None:
    """Serialize a corpus so that parse(write(c)) == c."""
    if isinstance(corpus, TaggedCorpus):
        for i, sent in enumerate(corpus.sentences):
            if i:
                stream.write("\n")
            for token, label in zip(sent.tokens, sent.labels):
                stream.write(f"{token}\t{label}\n")
    elif isinstance(corpus, RECorpus):
        for s in corpus.samples:
            stream.write(
                "\t".join(
                    (
                        " ".join(s.tokens),
                        str(s.e1.start),
                        str(s.e1.end),
                        str(s.e2.start),
                        str(s.e2.end),
                        s.relation,
                    )
                )
                + "\n"
            )
    else:
        raise TypeError(f"not a corpus: {type(corpus).__name__}")


def corpus_to_text(corpus: Corpus) -> str:
    buf = io.StringIO()
    write_corpus(corpus, buf)
    return buf.getvalue()


def downsample(corpus: Corpus, size: int, seed: int) -> Corpus:
    """Uniform subsample without replacement; deterministic for a fixed seed.

    Vocabularies are rebuilt from the subset.
    """
    n = len(corpus)
    if not 0 <= size <= n:
        raise ValueError(f"size {size} out of range for corpus of {n}")
    rng = derive_rng(seed, "downsample")
    idx = rng.choice(n, size=size, replace=False)
    if isinstance(corpus, TaggedCorpus):
        return TaggedCorpus.from_sentences(corpus.sentences[i] for i in idx)
    return RECorpus.from_samples(corpus.samples[i] for i in idx)
