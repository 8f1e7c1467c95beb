"""On-disk formats: augmented datasets, checkpoints and loss traces.

Augmented data is JSON-lines: a header record, then one record per
example. Matrices travel as base64-encoded little-endian float32 with an
explicit shape, so files are platform-independent and byte-identical
across repeated runs with the same seed. They load as float32, cast
exactly to float64 where arithmetic happens. Every line is compact JSON
(``separators=(",", ":")``) with sorted keys. The header goes through
``json``; a record and its provenance are f-string templates (in
:func:`save_augmented` and :func:`_provenance_texts`) with their keys already
in that order, so the base64 payloads skip the JSON encoder's escape scan;
an f-string sizes each line once, where ``%`` regrows it piece by piece.
A new record or provenance field must go into its template at its sorted
place: ``test_save_writes_the_bytes_of_the_json_oracle`` holds the
templates to a writer that passes every record through ``json``. The
templates write what ``json`` would only for fields of their plain types,
so one check (:func:`_provenance_problem`) refuses any other provenance on
save, before a byte is written, and on load.

Save checks every example's shapes and finiteness, then checks and formats
every provenance in one walk (:func:`_provenance_texts`), before the header.
Load parses each line with the C scanner of ``json``, or ``json.loads`` where
the scanner cannot read it whole (:func:`_parse`), then reads it in one walk.

A checkpoint is binary: the magic ``SGMX``, a ``<II`` version and header
length, a sorted-key JSON header, then the weights and the embedding-table
rows as raw little-endian float32, with nothing after them, loaded as the
float64 that prediction computes in.

Both formats share four pieces: one float32 codec (:func:`_f4`,
:func:`_from_f4`), which refuses a payload whose byte count its shape does
not imply (:func:`_sized`); one finiteness rule (:func:`_nonfinite`), so
that nothing NaN or infinite once cast to float32 is written, and nothing
NaN or infinite is loaded; one header-schema check
(:func:`_check_fields`), which turns a missing or mistyped field into a
one-line ``ValueError``; and one example-shape rule,
``mixer._shape_problem``, which training applies too.
"""

from __future__ import annotations

import binascii
import csv
import io
import json
import math
import os
import reprlib
import struct
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from .corpus import Span, _gc_quiet, _replacing
from .mixer import (
    EmbeddingTable, MixedExample, MixedRESample, Provenance, _examples_problem, _records,
    _shape_problem,
)
from .model import REModel, TaggerModel, TrainResult

FORMAT_NAME = "segmix-augmented"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# The float32 codec and the header-schema check, shared by both formats.


def _f4(array) -> np.ndarray:
    """``array`` as contiguous little-endian float32, ready for ``tobytes``."""
    return np.ascontiguousarray(array, dtype="<f4")


def _sized(raw: bytes, shape, what: str) -> bytes:
    """``raw``, once its byte count is the one float32 ``shape`` implies."""
    want = 4 * math.prod(shape)
    if len(raw) != want:
        raise ValueError(f"{what} holds {len(raw)} bytes where shape {list(shape)} needs {want}")
    return raw


def _from_f4(raw: bytes | bytearray, shape, what: str) -> np.ndarray:
    """A float32 view of ``shape`` on raw little-endian float32 bytes; writable on a bytearray."""
    return np.frombuffer(_sized(raw, shape, what), dtype="<f4").reshape(shape)


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _spans(value) -> bool:
    if type(value) not in _SEQUENCE:
        return False
    for pair in value:
        if type(pair) not in _SEQUENCE or len(pair) != 2:
            return False
        start, end = pair
        if not (type(start) is type(end) is int and 0 <= start < end):
            return False
    return True


# What a header field must be, as said in an error, and the test for it.
_KINDS = {
    "a nonnegative integer": _count,
    "a positive integer": lambda v: _count(v) and v > 0,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of nonnegative integers": lambda v: isinstance(v, list) and all(map(_count, v)),
    "a JSON object": lambda v: isinstance(v, dict),
    "'ner' or 're'": lambda v: v in ("ner", "re"),
    "'tagger' or 're'": lambda v: v in ("tagger", "re"),
}


def _mistyped(what: str, key: str, kind: str, value) -> str:
    return f"{what} '{key}' must be {kind}, got {reprlib.repr(value)}"


def _check_fields(record, fields: dict, what: str) -> dict:
    """``record``, once it is a JSON object whose fields are what ``fields``
    maps their names to (keys of ``_KINDS``). The first missing or mistyped
    field raises a one-line ``ValueError`` that names it."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key, kind in fields.items():
        if key not in record:
            raise ValueError(f"{what} has no '{key}' field")
        if not _KINDS[kind](record[key]):
            raise ValueError(_mistyped(what, key, kind, record[key]))
    return record


# ---------------------------------------------------------------------------
# Augmented JSON-lines files.

_HEADER_FIELDS = {
    "task": "'ner' or 're'",
    "dim": "a nonnegative integer",
    "label_vocab": "a list of strings",
    "count": "a nonnegative integer",
    "meta": "a JSON object",
}
_TABLE_FIELDS = {
    "tokens": "a list of strings",
    "dim": "a positive integer",
    "seed": "a nonnegative integer",
    "n_buckets": "a positive integer",
}

# One scanner for every record line (see :func:`_parse`).
_scan = json.JSONDecoder().scan_once
_PAIR = "a [start, end] pair with 0 <= start < end"
_PAIRS = "a list of [start, end] pairs with 0 <= start < end"
# Field types, tested by identity: a set answers ``in`` with no equality call per member.
_SEQUENCE = frozenset((list, tuple))  # a tuple is what a Provenance holds, a list what JSON gives
_NUMBER = frozenset((int, float))


def _provenance_problem(example_index, variant, lam, spans, mixed_spans, pool_index,
                        replacements, rows: int) -> str | None:
    """Why a provenance with these fields cannot go with a ``rows``-row
    record, or None; ``replacements`` is ``()`` when there are none.

    The one provenance check: save runs it on every :class:`Provenance`
    before a byte is written (the template writes what ``json`` would only
    for plain ints, floats and strings), load on every record it reads.
    """
    if type(example_index) is not int or example_index < 0:
        return _mistyped("provenance", "example_index", "a nonnegative integer", example_index)
    if type(variant) is not str:
        return _mistyped("provenance", "variant", "a string", variant)
    if type(lam) not in _NUMBER or not 0 <= lam <= 1:  # NaN fails the range too
        return _mistyped("provenance", "lam", "a number in [0, 1]", lam)
    if not _spans(spans):
        return _mistyped("provenance", "spans", _PAIRS, spans)
    if not _spans(mixed_spans):
        return _mistyped("provenance", "mixed_spans", _PAIRS, mixed_spans)
    if pool_index is not None and (type(pool_index) is not int or pool_index < 0):
        return _mistyped("provenance", "pool_index", "a nonnegative integer or null", pool_index)
    if type(replacements) not in _SEQUENCE or (
            replacements and any(type(t) is not str for t in replacements)):
        return _mistyped("provenance", "replacements", "a list of strings", replacements)
    for start, end in mixed_spans:
        if end > rows:
            return f"provenance mixed span [{start}, {end}) lies outside the {rows}-row example"
    return None


def _provenance_texts(examples: Sequence) -> list[str]:
    """The text of each example's provenance, once :func:`_provenance_problem`
    passes it: one walk that reads each field once. The first provenance it
    refuses raises ``ValueError("example i: why")``."""
    texts = []
    for i, e in enumerate(examples):
        p = e.provenance
        index, lam, spans, mixed, pool, words = (p.example_index, p.lam, p.spans, p.mixed_spans,
                                                 p.pool_index, p.replacements)
        problem = _provenance_problem(index, p.variant, lam, spans, mixed, pool,
                                      () if words is None else words, len(e.embeddings))
        if problem:
            raise ValueError(f"example {i}: {problem}")
        mixed_text = ",".join([f"[{a},{b}]" for a, b in mixed])
        spans_text = ",".join([f"[{a},{b}]" for a, b in spans])
        words_text = "" if words is None else f'"replacements":[{",".join(map(_quote, words))}],'
        texts.append(f'{{"example_index":{index},"lam":{lam!r},"mixed_spans":[{mixed_text}],'
                     f'"pool_index":{"null" if pool is None else pool},{words_text}'
                     f'"spans":[{spans_text}],"variant":{_quote(p.variant)}}}')
    return texts


def _read_record(record: dict, task: str, dim: int, n_labels: int) -> tuple:
    """A record's checked (rows, embedding bytes, label bytes, provenance,
    spans), read in one walk; ``spans`` is None for a tagging record, else
    its (e1, e2) :class:`Span` pair. A missing field raises its ``KeyError``."""
    labels = record["soft_labels" if task == "ner" else "soft_relation"]
    spans = None
    if task == "re":
        for key in ("e1", "e2"):
            if not _spans((record[key],)):
                raise ValueError(_mistyped("record", key, _PAIR, record[key]))
        spans = Span(*record["e1"]), Span(*record["e2"])
    emb = record["embeddings"]
    emb_shape, label_shape = emb["shape"], labels["shape"]
    if not set(map(type, emb_shape + label_shape)) <= {int}:  # 2.0 == 2, but not as a shape
        raise ValueError(f"payload shapes {emb_shape} and {label_shape} must hold only integers")
    problem = _shape_problem(emb_shape, label_shape, spans, dim, n_labels)
    if problem:
        raise ValueError(problem)
    rows, p = emb_shape[0], record["provenance"]
    if not isinstance(p, dict):
        raise ValueError("provenance is not a JSON object")
    try:  # in field order, so the first missing field is the one named
        index, variant, lam, p_spans, mixed, pool = (p["example_index"], p["variant"], p["lam"],
                                                     p["spans"], p["mixed_spans"], p["pool_index"])
    except KeyError as exc:
        raise ValueError(f"provenance has no {exc} field") from None
    words = p.get("replacements", ())
    problem = _provenance_problem(index, variant, lam, p_spans, mixed, pool, words, rows)
    if problem:
        raise ValueError(problem)
    provenance = Provenance(index, variant, lam, tuple(map(tuple, p_spans)),
                            tuple(map(tuple, mixed)), pool, tuple(words) if words else None)
    return (rows, _sized(binascii.a2b_base64(emb["data"]), emb_shape, "payload"),
            _sized(binascii.a2b_base64(labels["data"]), label_shape, "payload"), provenance, spans)


def _decode_block(block: list, task: str, dim: int, n_labels: int) -> list:
    """The examples of ``block``, a list of (line, *:func:`_read_record`),
    as views into one writable float32 array per payload kind. Refuses the
    earliest line whose payload holds a NaN or an infinity."""
    if not block:
        return []
    lines, rows, raw_emb, raw_labels, provenances, spans = zip(*block)
    b = [0, *accumulate(rows)]
    ner = task == "ner"
    emb = _from_f4(bytearray().join(raw_emb), (b[-1], dim), "block")
    labels = _from_f4(bytearray().join(raw_labels), (b[-1] if ner else len(rows), n_labels), "block")
    out = _records(emb, labels, b, provenances, None if ner else spans)
    if not (np.isfinite(emb).all() and np.isfinite(labels).all()):
        names = ("embeddings", "soft_labels" if ner else "soft_relation")
        line, name = next((line, name) for line, e in zip(lines, out) for name in names
                          if not np.isfinite(getattr(e, name)).all())
        raise ValueError(f"line {line}: {name} hold a non-finite value")
    return out


@dataclass
class AugmentedFile:
    """Parsed contents of an augmented JSONL file; example arrays are float32, as stored."""

    task: str
    label_vocab: tuple[str, ...]
    dim: int
    examples: list
    meta: dict

    def table_record(self) -> dict | None:
        """The checked ``meta["table"]`` record of the embedding table the
        rows were built with (``tokens``, ``dim``, ``seed``, ``n_buckets``),
        or None for a file that carries none."""
        if "table" not in self.meta:
            return None
        return _check_fields(self.meta["table"], _TABLE_FIELDS, "augmented table record")


_BLOCK = 512  # examples cast to float32 at a time by the finiteness check
# Records load_augmented decodes with one join and one frombuffer per payload
# kind. A block of 512 loaded slower than 16: its records crowd the cache.
_LOAD_BLOCK = 16


def _nonfinite(arrays: Sequence) -> bool:
    """Whether any of ``arrays`` holds a NaN or an infinity once cast to
    float32: the rule every float32 payload is written under."""
    with np.errstate(over="ignore"):  # an overflow to inf is what is looked for
        return not np.isfinite(np.concatenate(arrays, axis=None, dtype="<f4")).all()


def _nonfinite_problem(examples: Sequence, labels: str) -> str | None:
    """The first example :func:`_nonfinite` refuses, as "example i: why",
    or None. Casts a block of examples at a time."""
    names = ("embeddings", labels)
    for lo in range(0, len(examples), _BLOCK):
        block = examples[lo:lo + _BLOCK]
        if any(_nonfinite([getattr(e, n) for e in block]) for n in names):
            i, name = next((i, n) for i, e in enumerate(block, start=lo) for n in names
                           if _nonfinite([getattr(e, n)]))
            return f"example {i}: {name} hold a non-finite value after the float32 cast"
    return None


def save_augmented(
    stream: TextIO,
    examples: Sequence[Union[MixedExample, MixedRESample]],
    label_vocab: Sequence[str],
    task: str,
    meta: dict | None = None,
) -> None:
    """Write header + one record per example. ``task`` is "ner" or "re"."""
    if task not in ("ner", "re"):
        raise ValueError(f"task must be 'ner' or 're', got {task!r}")
    dim = int(examples[0].embeddings.shape[1]) if examples else 0
    labels = "soft_labels" if task == "ner" else "soft_relation"
    problem = (_examples_problem(examples, task == "re", dim, len(label_vocab))
               or _nonfinite_problem(examples, labels))
    if problem:
        raise ValueError(problem)
    provenances = _provenance_texts(examples)  # all checked before a byte is written
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": task,
        "label_vocab": list(label_vocab),
        "dim": dim,
        "count": len(examples),
        "meta": meta or {},
    }
    stream.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    b64 = binascii.b2a_base64
    for e, prov in zip(examples, provenances):  # one write per record keeps the peak at one record
        emb, soft = _f4(e.embeddings), _f4(getattr(e, labels))
        data = b64(emb, newline=False).decode("ascii")
        soft_data = b64(soft, newline=False).decode("ascii")
        (rows, width), k = emb.shape, soft.shape[-1]
        if task == "ner":
            stream.write(f'{{"embeddings":{{"data":"{data}","shape":[{rows},{width}]}},'
                         f'"provenance":{prov},"soft_labels":{{"data":"{soft_data}",'
                         f'"shape":[{rows},{k}]}}}}\n')
        else:
            stream.write(f'{{"e1":[{e.e1.start},{e.e1.end}],"e2":[{e.e2.start},{e.e2.end}],'
                         f'"embeddings":{{"data":"{data}","shape":[{rows},{width}]}},"provenance":'
                         f'{prov},"soft_relation":{{"data":"{soft_data}","shape":[{k}]}}}}\n')


def _lines(stream: TextIO) -> Iterator[str]:
    """The lines of ``stream`` from where it stands, each with its "\\n" if it has one.

    An ``io.StringIO`` gives its text to one ``read()``, cut here at each
    "\\n": a ``readline`` or a line iteration on one that was written to
    first copies the whole text into a buffer of 4 bytes a character, which
    the stream keeps. Any other stream is iterated as it is: reading a whole
    file at once raised the peak of a load and saved no time. Only the
    stream's type picks the path.
    """
    if not isinstance(stream, io.StringIO):
        yield from stream
        return
    text = stream.read()
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _parse(line: str):
    """``json.loads(line)``: the C scanner's value, taken only when nothing
    but JSON whitespace follows it. Any other line goes to ``json.loads``,
    which returns or raises what it always has."""
    try:
        value, end = _scan(line, 0)
        if not line[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, TypeError, ValueError):  # json.loads raises its own, below
        pass
    return json.loads(line)


@_gc_quiet
def load_augmented(stream: TextIO) -> AugmentedFile:
    """Read a file written by :func:`save_augmented`. Each example's arrays
    are views into those of its block of :data:`_LOAD_BLOCK` records."""
    lines = _lines(stream)
    header_line = next(lines, "")  # not readline(), which would copy a StringIO's text
    if not header_line.strip():
        raise ValueError("empty augmented file")
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError):  # a corpus, say, where the header should be
        header = None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file: line 1 is not a {FORMAT_NAME} header")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {header.get('version')}")
    _check_fields(header, _HEADER_FIELDS, "header")
    task, dim, vocab = header["task"], header["dim"], header["label_vocab"]
    n_labels = len(vocab)
    examples, block = [], []
    for lineno, line in enumerate(lines, start=2):
        if line.isspace():  # stops at the first non-blank, where strip would copy the line
            continue
        try:
            block.append((lineno, *_read_record(_parse(line), task, dim, n_labels)))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            _decode_block(block, task, dim, n_labels)  # an earlier line's fault is named first
            why = f"record has no {exc} field" if isinstance(exc, KeyError) else exc
            raise ValueError(f"line {lineno}: {why}") from None
        if len(block) == _LOAD_BLOCK:
            examples += _decode_block(block, task, dim, n_labels)
            block = []
    examples += _decode_block(block, task, dim, n_labels)
    if len(examples) != header["count"]:
        raise ValueError(
            f"header says {header['count']} examples, file has {len(examples)}"
        )
    return AugmentedFile(
        task=task, label_vocab=tuple(vocab), dim=dim, examples=examples, meta=header["meta"]
    )


# ---------------------------------------------------------------------------
# Checkpoints and loss traces.

_MAGIC = b"SGMX"
_CKPT_VERSION = 1
_CKPT_FIELDS = {
    "kind": "'tagger' or 're'",
    "labels": "a list of strings",
    "dim": "a positive integer",
    "weights_shape": "a list of nonnegative integers",
    "table_tokens": "a list of strings",
    "table_buckets": "a positive integer",
    "table_shape": "a list of nonnegative integers",
    "meta": "a JSON object",
}


def save_checkpoint(path, model, table: EmbeddingTable, meta: dict | None = None) -> None:
    """Self-contained binary checkpoint: model weights + embedding table.
    Refuses, before the file is opened, weights or table rows that
    :func:`_nonfinite` refuses."""
    for what, array in (("weights", model.weights), ("table rows", table.vectors)):
        if _nonfinite([array]):
            raise ValueError(f"checkpoint {what} hold a non-finite value after the float32 cast")
    kind = "re" if isinstance(model, REModel) else "tagger"
    header = {
        "kind": kind,
        "labels": list(model.labels),
        "dim": model.dim,
        "weights_shape": list(model.weights.shape),
        "table_tokens": list(table.tokens),
        "table_buckets": table.n_buckets,
        "table_shape": list(table.vectors.shape),
        "meta": meta or {},
    }
    if kind == "tagger":
        header["window"] = model.window
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with _replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(_f4(model.weights).tobytes())
        fh.write(_f4(table.vectors).tobytes())


def _checkpoint_header(raw: bytes) -> dict:
    """The checked JSON header of a checkpoint whose magic and version passed."""
    try:
        header = json.loads(raw)
    except RecursionError as exc:  # nested deeper than json can parse
        raise ValueError(f"checkpoint header: {exc}") from None
    header = _check_fields(header, _CKPT_FIELDS, "checkpoint header")
    dim, n_labels = header["dim"], len(header["labels"])
    if header["kind"] == "tagger":
        _check_fields(header, {"window": "a nonnegative integer"}, "checkpoint header")
        rows, by = (2 * header["window"] + 1) * dim + 1, "'dim', 'window' and 'labels'"
    else:
        rows, by = 2 * dim + 1, "'dim' and 'labels'"
    if header["weights_shape"] != [rows, n_labels]:
        raise ValueError(f"checkpoint header 'weights_shape' is {header['weights_shape']}, "
                         f"but {by} need {[rows, n_labels]}")
    table_shape = [len(header["table_tokens"]) + header["table_buckets"], dim]
    if header["table_shape"] != table_shape:
        raise ValueError(f"checkpoint header 'table_shape' is {header['table_shape']}, "
                         f"but 'table_tokens', 'table_buckets' and 'dim' need {table_shape}")
    return header


def load_checkpoint(path) -> tuple[object, EmbeddingTable, dict]:
    """Load (model, table, meta) written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a checkpoint file")
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError("checkpoint file is truncated")
        version, header_len = struct.unpack("<II", head)
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():  # read(n) allocates n bytes
            raise ValueError("checkpoint file is truncated")
        header = _checkpoint_header(fh.read(header_len))
        payload = fh.read()
    w_shape, t_shape = header["weights_shape"], header["table_shape"]
    split = 4 * math.prod(w_shape)
    weights = _from_f4(payload[:split], w_shape, "checkpoint weights payload")
    vectors = _from_f4(payload[split:], t_shape, "checkpoint table payload")
    for what, array in (("weights", weights), ("table", vectors)):
        if not np.isfinite(array).all():  # before the float64 cast, which warns on a signalling NaN
            raise ValueError(f"checkpoint {what} payload holds a non-finite value")
    table = EmbeddingTable(header["table_tokens"], vectors, header["table_buckets"])  # casts to float64
    weights = weights.astype(np.float64)
    labels = tuple(header["labels"])
    if header["kind"] == "tagger":
        model: object = TaggerModel(labels, header["window"], header["dim"], weights)
    else:
        model = REModel(labels, header["dim"], weights)
    return model, table, header["meta"]


def write_loss_trace(path, result: TrainResult) -> None:
    """Per-epoch training loss (and validation score, when present) as CSV."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_score"])
        for epoch, loss in enumerate(result.loss_trace):
            score = result.val_scores[epoch] if epoch < len(result.val_scores) else ""
            writer.writerow([epoch, f"{loss:.8f}", f"{score:.6f}" if score != "" else ""])
