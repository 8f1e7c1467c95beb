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

import contextlib
import functools
import gc
import io
import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .rng import derive_rng


def _gc_quiet(build):
    """``build`` with the cyclic garbage collector paused while it runs.

    For bulk builders of records that outlive the call (parsers, pool
    builders, the mixer, encoders, the augmented-file loader). CPython
    counts every container allocation towards its next collection, even
    for objects that never become garbage, so such a builder sets off
    collections, full ones among them, that walk every live object and free
    nothing. The pause is process-wide, so the state found is restored, also
    on an exception: a nested builder, or a caller who paused the collector,
    is left alone. It never collects."""
    @functools.wraps(build)
    def quiet(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return quiet


@contextlib.contextmanager
def _replacing(path, mode: str = "w", **open_kwargs):
    """A file open for writing that replaces ``path`` only if the block succeeds, so a failed
    write (``KeyboardInterrupt`` too) leaves an earlier file as it was. It keeps that file's
    permission bits and follows a symlink; a device or a pipe is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):  # /dev/null, /dev/stdout, a pipe
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    target = os.path.realpath(path)  # after the check: a pipe's link resolves to no file
    new = f"{target}.{os.getpid()}.tmp"
    fh = open(new, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            if os.path.exists(target):
                os.chmod(new, os.stat(target).st_mode & 0o7777)
            yield fh
        os.replace(new, target)
    except BaseException:
        os.remove(new)
        raise


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
    return _bio_kinds(*_vocab_ids(tuple(labels)))


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


def _read_bio(labels: Sequence[str], bounds) -> tuple[np.ndarray, list[int]]:
    """Kind of every label (-1 for one that is not BIO) and the positions of
    the stray I-X, each an I-X that opens a mention (:func:`_mentions`);
    sentence i is ``labels[bounds[i]:bounds[i + 1]]``."""
    ids, vocab = _vocab_ids(labels)
    kind_of, type_of, _ = _bio_tables(vocab)
    kind = kind_of[ids]
    starts, _ = _mentions(kind, type_of[ids], bounds)
    return kind, starts[kind[starts] == _I].tolist()


def _flatten(rows: Iterable[Sequence]) -> tuple[list, np.ndarray]:
    """The items of ``rows`` end to end, and offsets: row i is ``flat[offsets[i]:offsets[i + 1]]``."""
    rows = list(rows)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return list(itertools.chain.from_iterable(rows)), np.concatenate([[0], np.cumsum(lengths)])


def _vocab_ids(labels: Sequence[str], vocab: Sequence[str] = ()) -> tuple[np.ndarray, tuple]:
    """The id of every label, and the names the ids index: ``vocab``, where
    a label keeps its place (its last one, if it repeats), then the labels
    not in it in first-seen order. The one code that numbers label strings."""
    index = dict(zip(vocab, range(len(vocab))))
    new = [label for label in dict.fromkeys(labels) if label not in index]
    index.update(zip(new, range(len(vocab), len(vocab) + len(new))))
    return np.fromiter(map(index.__getitem__, labels), np.int64, len(labels)), (*vocab, *new)


def _label_ids(labels: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """Index of every label in ``vocab``; the first unknown one raises ValueError."""
    ids, names = _vocab_ids(labels, vocab)
    if len(names) > len(vocab):
        raise ValueError(f"label {names[len(vocab)]!r} not in vocabulary")
    return ids


class _Source(NamedTuple):
    """A corpus compiled to flat arrays: example i owns flat rows offsets[i]:offsets[i + 1].

    ``labels`` holds the label strings end to end, per token for tagging
    corpora and per sample (the relation) for RE corpora; ``label_ids``
    index them into ``label_names``, numbered in first-occurrence order.
    """

    examples: tuple
    offsets: np.ndarray
    tokens: list
    labels: list
    label_names: tuple
    label_ids: np.ndarray


def _compile(examples: Sequence) -> _Source:
    examples = tuple(examples)
    tokens, offsets = _flatten([x.tokens for x in examples])
    if examples and isinstance(examples[0], RESample):
        labels = [x.relation for x in examples]
    else:
        labels = list(itertools.chain.from_iterable([x.labels for x in examples]))
    ids, names = _vocab_ids(labels)
    return _Source(examples, offsets, tokens, labels, names, ids)


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

    Returns the (possibly repaired) label tuple. Raises BioValidationError
    naming the position of a stray I-X, or CorpusFormatError for a label
    that is not BIO, whichever comes first.
    """
    labels = list(labels)
    kind, stray = _read_bio(labels, [0, len(labels)])
    not_bio = np.flatnonzero(kind < 0).tolist()
    if stray and not repair and not (not_bio and not_bio[0] < stray[0]):
        etype = labels[stray[0]][2:]
        raise BioValidationError(
            f"I-{etype} at position {stray[0]} has no preceding B-{etype}/I-{etype}")
    if not_bio:
        split_bio(labels[not_bio[0]])
    for p in stray:
        labels[p] = "B-" + labels[p][2:]
    return tuple(labels)


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


@dataclass(frozen=True)
class TaggedCorpus:
    """BIO-labeled sentences plus deterministic label/token vocabularies."""

    sentences: tuple[Sentence, ...]
    label_vocab: tuple[str, ...] = field(default=())
    token_vocab: tuple[str, ...] = field(default=())

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sentence]) -> "TaggedCorpus":
        sentences = tuple(sentences)
        labels = tuple(dict.fromkeys(l for s in sentences for l in s.labels))
        if "O" not in labels:
            labels = labels + ("O",)
        tokens = tuple(dict.fromkeys(t for s in sentences for t in s.tokens))
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
            tuple(dict.fromkeys(s.relation for s in samples)),
            tuple(dict.fromkeys(t for s in samples for t in s.tokens)),
        )

    def __len__(self) -> int:
        return len(self.samples)


Corpus = Union[TaggedCorpus, RECorpus]


def _iter_lines(source: str | TextIO | Iterable[str]) -> Iterable[str]:
    return io.StringIO(source) if isinstance(source, str) else source


@_gc_quiet
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

    kind, stray = _read_bio(labels, bounds)
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


@_gc_quiet
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
