"""On-disk formats: augmented datasets, checkpoints and loss traces.

Augmented data is JSON-lines: a header record, then one record per
example. Matrices travel as base64-encoded little-endian float32 with an
explicit shape, so files are platform-independent and byte-identical
across repeated runs with the same seed. They load as float32, cast
exactly to float64 where arithmetic happens. Every line is compact JSON
(``separators=(",", ":")``) with sorted keys. The header goes through
``json``; a record and its provenance are f-string templates (in
:func:`_record_lines`) with their keys already in that order, so the
base64 payloads skip the JSON encoder's escape scan; an f-string sizes
each line once, where ``%`` regrows it piece by piece. A new record or
provenance field must go into its template at its sorted place:
``test_save_writes_the_bytes_of_the_json_oracle`` holds the templates to
a writer that passes every record through ``json``. The templates write
what ``json`` would only for fields of their plain types, so one check
(:func:`_provenance_problem`) refuses any other provenance on save,
before a byte is written, and on load.

Both directions move a run a block of columns at a time
(``mixer._Block``). Save writes a store's block from its columns while
none of its examples has been read, and walks any other examples into
columns first (``mixer._blocks``), checking their shapes and provenance;
it checks every block's finiteness, all before the header, then writes a
record at a time. Load parses each line with the C scanner of ``json``,
or ``json.loads`` where the scanner cannot read it whole (:func:`_parse`),
and checks a block of records a field at a time (:func:`_read_block`); a
block that fails is read again a record at a time, so the error names
the earliest faulty line (:func:`_read_lines`).

A checkpoint is binary: the magic ``SGMX``, a ``<II`` version and header
length, a sorted-key JSON header, then the weights and the embedding-table
rows as raw little-endian float32, with nothing after them, loaded as the
float64 that prediction computes in.

Both formats share four pieces: one float32 codec (:func:`_f4`,
:func:`_from_f4`), which refuses a payload whose byte count its shape does
not imply (:func:`_sized`); one finiteness rule (:func:`_finite`), so
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
from itertools import accumulate, chain, repeat, starmap
from json.encoder import encode_basestring_ascii as _quote
from operator import add, itemgetter
from typing import Iterator, Sequence, TextIO, Union

import numpy as np

from .corpus import _gc_quiet, _replacing
from .mixer import (
    EmbeddingTable, MixedExample, MixedRESample, _Block, _blocks, _shape_problem, _Store,
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


def _counts(values: list) -> bool:
    """Whether every one of ``values`` passes :func:`_count`."""
    return set(map(type, values)) <= {int} and min(values, default=0) >= 0


def _spans(value) -> bool:
    """Whether ``value`` is a list or tuple of [start, end] integer pairs with 0 <= start < end."""
    if type(value) not in _SEQUENCE or not set(map(type, value)) <= _SEQUENCE:
        return False
    ends = list(chain.from_iterable(value))
    return (set(map(len, value)) <= {2} and set(map(type, ends)) <= {int} and _counts(ends[::2])
            and all(map(int.__lt__, ends[::2], ends[1::2])))


def _span_lists(values: list) -> bool:
    """Whether every one of ``values`` passes :func:`_spans`."""
    return set(map(type, values)) <= _SEQUENCE and _spans(list(chain.from_iterable(values)))


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
_STRING = frozenset((str,))


def _plain(kinds: frozenset):
    """The test of a column: whether each of its values is of one of ``kinds``."""
    return lambda values: set(map(type, values)) <= kinds


# The provenance fields in the order a problem is named: the key, what its
# value must be, and the test of a column of such values.
_PROVENANCE = (
    ("example_index", "a nonnegative integer", _counts),
    ("variant", "a string", _plain(_STRING)),
    ("lam", "a number in [0, 1]",  # NaN fails the range too
     lambda values: _plain(_NUMBER)(values) and all(0 <= v <= 1 for v in values)),
    ("spans", _PAIRS, _span_lists),
    ("mixed_spans", _PAIRS, _span_lists),
    ("pool_index", "a nonnegative integer or null",
     lambda values: _counts([v for v in values if v is not None])),
    ("replacements", "a list of strings",
     lambda values: _plain(_SEQUENCE)(values) and _plain(_STRING)(chain.from_iterable(values))),
)
_PROVENANCE_KEYS = tuple(key for key, _, _ in _PROVENANCE)


def _provenance_problem(columns: Sequence, rows: list) -> str | None:
    """Why provenance with these fields cannot go with records of ``rows``
    rows, or None. ``columns`` holds one list per field, in
    :data:`_PROVENANCE` order, of one value per record; a record with no
    replacements has ``()`` there.

    The one provenance rule: save runs it on every block before a byte is
    written (the template writes what ``json`` would only for plain ints,
    floats and strings), load on every block it reads. It names the first
    field that fails and the first value of it that fails, so that of one
    record it names that record's first fault.
    """
    for (key, kind, ok), values in zip(_PROVENANCE, columns):
        if not ok(values):
            return _mistyped("provenance", key, kind, next(v for v in values if not ok([v])))
    for n, mixed in zip(rows, columns[4]):
        for start, end in mixed:
            if end > n:
                return f"provenance mixed span [{start}, {end}) lies outside the {n}-row example"
    return None


def _finite(array) -> np.ndarray:
    """Which entries of ``array`` are finite once cast to float32: the rule
    every float32 payload is written and loaded under."""
    with np.errstate(over="ignore"):  # an overflow to inf is what is looked for
        return np.isfinite(_f4(array))


def _nonfinite_at(block: _Block, labels: str) -> tuple[int, str] | None:
    """The first example of ``block`` that holds a NaN or an infinity once
    cast to float32, with the name of the rows that hold it (``labels`` for
    the label rows), or None."""
    ok = [_finite(block.embeddings).all(axis=1), _finite(block.labels).all(axis=1)]
    if ok[0].all() and ok[1].all():
        return None
    starts = block.bounds[:-1]
    ok = [np.logical_and.reduceat(ok[0], starts),
          np.logical_and.reduceat(ok[1], starts) if block.pairs is None else ok[1]]
    i = int(np.flatnonzero(~(ok[0] & ok[1]))[0])
    return i, labels if ok[0][i] else "embeddings"


def _read_block(records: list, task: str, dim: int, n_labels: int) -> _Block:
    """The checked columns of ``records``, parsed record lines, read a field
    at a time for the whole block, with the payloads of each kind in one
    writable float32 array.

    A fault raises ``KeyError`` (a missing field), ``TypeError`` or
    ``ValueError``: that of the first check in read order that fails, on
    the first record it fails. Of a block of one record it is the record's
    first fault, which :func:`load_augmented` names with the record's line.
    """
    ner = task == "ner"
    labels = list(map(itemgetter("soft_labels" if ner else "soft_relation"), records))
    ends = []
    if not ner:
        for key in ("e1", "e2"):
            ends.append(list(map(itemgetter(key), records)))
            if not _spans(ends[-1]):
                raise ValueError(_mistyped("record", key, _PAIR,
                                           next(v for v in ends[-1] if not _spans([v]))))
    embeddings = list(map(itemgetter("embeddings"), records))
    emb_shapes = list(map(itemgetter("shape"), embeddings))
    label_shapes = list(map(itemgetter("shape"), labels))
    for emb_shape, label_shape, both in zip(emb_shapes, label_shapes,
                                            map(add, emb_shapes, label_shapes)):
        if not set(map(type, both)) <= {int}:  # 2.0 == 2, but not as a shape
            raise ValueError(f"payload shapes {emb_shape} and {label_shape} must hold only integers")
    problem = next(filter(None, map(_shape_problem, emb_shapes, label_shapes,
                                    zip(*ends) if not ner else repeat(None),
                                    repeat(dim), repeat(n_labels))), None)
    if problem:
        raise ValueError(problem)
    provenances = list(map(itemgetter("provenance"), records))
    if not set(map(type, provenances)) <= {dict}:
        raise ValueError("provenance is not a JSON object")
    try:  # in field order, so the first missing field is the one named
        columns = [list(c) for c in zip(*map(itemgetter(*_PROVENANCE_KEYS[:6]), provenances))]
    except KeyError as exc:
        raise ValueError(f"provenance has no {exc} field") from None
    columns.append([p.get("replacements", ()) for p in provenances])
    rows = [shape[0] for shape in emb_shapes]
    problem = _provenance_problem(columns, rows)
    if problem:
        raise ValueError(problem)
    emb = _payload(embeddings, emb_shapes, rows, dim)
    soft = _payload(labels, label_shapes, rows if ner else [1] * len(rows), n_labels)
    columns[6] = [tuple(w) if w else None for w in columns[6]]
    # the spans lie within the rows, whose count the payload arrays' shapes hold, so fit int64
    pairs = None if ner else np.array(ends, np.int64).transpose(1, 0, 2)
    block = _Block(emb, soft, [0, *accumulate(rows)], columns, pairs)
    problem = _nonfinite_at(block, "soft_labels" if ner else "soft_relation")
    if problem:
        raise ValueError(f"{problem[1]} hold a non-finite value")
    return block


def _payload(fields: list, shapes: list, rows: list, width: int) -> np.ndarray:
    """The payloads of ``fields``, record i's of ``rows[i]`` rows of ``width``
    as its ``shapes[i]`` says, end to end as one writable float32 array."""
    raw = list(map(binascii.a2b_base64, map(itemgetter("data"), fields)))
    sizes = [4 * width * n for n in rows]
    if list(map(len, raw)) != sizes:
        _sized(*next((data, shape) for data, shape, size in zip(raw, shapes, sizes)
                     if len(data) != size), "payload")
    return _from_f4(bytearray().join(raw), (sum(rows), width), "block")


@dataclass
class AugmentedFile:
    """Parsed contents of an augmented JSONL file; example arrays are float32, as stored."""

    task: str
    label_vocab: tuple[str, ...]
    dim: int
    examples: Sequence
    meta: dict

    def table_record(self) -> dict | None:
        """The checked ``meta["table"]`` record of the embedding table the
        rows were built with (``tokens``, ``dim``, ``seed``, ``n_buckets``),
        or None for a file that carries none."""
        if "table" not in self.meta:
            return None
        return _check_fields(self.meta["table"], _TABLE_FIELDS, "augmented table record")


def _pairs_text(column) -> list[str]:
    """Each record's (start, end) pairs as the inside of a JSON list; a
    generated block's spans are an array."""
    column = column.tolist() if isinstance(column, np.ndarray) else column
    texts = list(starmap("[{},{}]".format, chain.from_iterable(column)))
    at = [0, *accumulate(map(len, column))]
    return [",".join(texts[lo:hi]) for lo, hi in zip(at, at[1:])]


def _record_lines(block: _Block, relation: bool) -> Iterator[str]:
    """The lines of a checked block's records, written from its columns."""
    emb, labels = _f4(block.embeddings), _f4(block.labels)
    width, k = emb.shape[1], labels.shape[1]
    b64, b = binascii.b2a_base64, block.bounds
    index, variant, lam, spans, mixed, pool, words = block.provenance
    pairs = repeat(None) if block.pairs is None else block.pairs.tolist()
    for i, (lo, hi, index, variant, lam, spans, mixed, pool, words, pair) in enumerate(zip(
            b, b[1:], index, variant, lam, _pairs_text(spans), _pairs_text(mixed), pool, words,
            pairs)):
        data = b64(emb[lo:hi], newline=False).decode("ascii")
        soft = b64(labels[i] if relation else labels[lo:hi], newline=False).decode("ascii")
        words = "" if words is None else f'"replacements":[{",".join(map(_quote, words))}],'
        prov = (f'{{"example_index":{index},"lam":{lam!r},"mixed_spans":[{mixed}],'
                f'"pool_index":{"null" if pool is None else pool},{words}'
                f'"spans":[{spans}],"variant":{_quote(variant)}}}')
        head, tail = "{", f'"soft_labels":{{"data":"{soft}","shape":[{hi - lo},{k}]}}}}\n'
        if relation:
            (s1, e1), (s2, e2) = pair
            head = f'{{"e1":[{s1},{e1}],"e2":[{s2},{e2}],'
            tail = f'"soft_relation":{{"data":"{soft}","shape":[{k}]}}}}\n'
        yield (f'{head}"embeddings":{{"data":"{data}","shape":[{hi - lo},{width}]}},'
               f'"provenance":{prov},{tail}')


def save_augmented(
    stream: TextIO,
    examples: Sequence[Union[MixedExample, MixedRESample]],
    label_vocab: Sequence[str],
    task: str,
    meta: dict | None = None,
) -> None:
    """Write header + one record per example. ``task`` is "ner" or "re".

    Everything is checked before a byte is written, a block at a time
    (``mixer._blocks``): the shapes of the examples that are walked into
    columns, the finiteness of every block's rows once cast to float32,
    and the provenance of the walked examples; a store's columns were
    checked when they were made."""
    if task not in ("ner", "re"):
        raise ValueError(f"task must be 'ner' or 're', got {task!r}")
    relation, n_labels, dim = task == "re", len(label_vocab), 0
    for first, walked, block in _blocks(examples, relation, None, n_labels):
        dim = dim if first else int(block.embeddings.shape[1])
        problem = _nonfinite_at(block, "soft_relation" if relation else "soft_labels")
        if problem:
            raise ValueError(f"example {first + problem[0]}: {problem[1]} hold a non-finite value "
                             f"after the float32 cast")
        if not walked:
            continue
        *columns, words = block.provenance
        columns.append([() if w is None else w for w in words])  # () is no replacements
        rows = np.diff(block.bounds).tolist()
        if _provenance_problem(columns, rows):
            i, problem = next((i, problem) for i, n in enumerate(rows) if (
                problem := _provenance_problem([[c[i]] for c in columns], [n])))
            raise ValueError(f"example {first + i}: {problem}")
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
    for _, _, block in _blocks(examples, relation, dim, n_labels):  # a write per record
        for line in _record_lines(block, relation):
            stream.write(line)


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


# Records load_augmented reads as one block: at most _LOAD_BLOCK of them, and
# as few as make _LOAD_CHARS characters, since a block is held parsed until it
# is read. Each whole-block step costs a fixed amount a block, so a block holds
# more than the 16 records that decoding a record at a time used.
_LOAD_BLOCK, _LOAD_CHARS = 64, 1 << 17
_FAULTS = (KeyError, TypeError, ValueError)


def _read_lines(block: list, task: str, dim: int, n_labels: int) -> _Block:
    """The block of ``block``'s (line number, parsed line) pairs. A faulty
    block is read again a record at a time, so that the fault raised is
    that of its earliest faulty line, as "line n: why"."""
    try:
        return _read_block([record for _, record in block], task, dim, n_labels)
    except _FAULTS:
        for lineno, record in block:
            try:
                _read_block([record], task, dim, n_labels)
            except _FAULTS as exc:
                why = f"record has no {exc} field" if isinstance(exc, KeyError) else exc
                raise ValueError(f"line {lineno}: {why}") from None
        raise


@_gc_quiet
def load_augmented(stream: TextIO) -> AugmentedFile:
    """Read a file written by :func:`save_augmented`, into a store of
    blocks of :data:`_LOAD_BLOCK` records (:func:`_read_block`)."""
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
    task, dim, n_labels = header["task"], header["dim"], len(header["label_vocab"])
    blocks, block, chars = [], [], 0
    for lineno, line in enumerate(lines, start=2):
        if line.isspace():  # stops at the first non-blank, where strip would copy the line
            continue
        try:
            block.append((lineno, _parse(line)))
        except (ValueError, RecursionError) as exc:
            if block:
                _read_lines(block, task, dim, n_labels)  # an earlier line's fault is named first
            raise ValueError(f"line {lineno}: {exc}") from None
        chars += len(line)
        if len(block) == _LOAD_BLOCK or chars >= _LOAD_CHARS:
            blocks.append(_read_lines(block, task, dim, n_labels))
            block, chars = [], 0
    if block:
        blocks.append(_read_lines(block, task, dim, n_labels))
    examples = _Store(blocks)
    if len(examples) != header["count"]:
        raise ValueError(
            f"header says {header['count']} examples, file has {len(examples)}"
        )
    return AugmentedFile(task=task, label_vocab=tuple(header["label_vocab"]), dim=dim,
                         examples=examples, meta=header["meta"])


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
    are not :func:`_finite`."""
    for what, array in (("weights", model.weights), ("table rows", table.vectors)):
        if not _finite(array).all():
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
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
