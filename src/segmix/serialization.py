"""On-disk formats: augmented datasets, checkpoints and loss traces.

Augmented data is JSON-lines: a header record, then one record per
example. Matrices travel as base64-encoded little-endian float32 with an
explicit shape, so files are platform-independent and byte-identical
across repeated runs with the same seed.

A checkpoint is binary: the magic ``SGMX``, a ``<II`` version and header
length, a sorted-key JSON header, then the weights and the embedding-table
rows as raw little-endian float32, with nothing after them.

Both formats share three pieces: one float32 codec (:func:`_f4`,
:func:`_from_f4`), which refuses a payload whose byte count its shape does
not imply; one header-schema check (:func:`_check_fields`), which turns a
missing or mistyped field into a one-line ``ValueError``; and one
example-shape rule, ``mixer._shape_problem``, which training applies too.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import reprlib
import struct
from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from .corpus import Span
from .mixer import (
    EmbeddingTable, MixedExample, MixedRESample, Provenance, _examples_problem, _shape_problem,
)
from .model import REModel, TaggerModel, TrainResult

FORMAT_NAME = "segmix-augmented"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# The float32 codec and the header-schema check, shared by both formats.


def _f4(array) -> np.ndarray:
    """``array`` as contiguous little-endian float32, ready for ``tobytes``."""
    return np.ascontiguousarray(array, dtype="<f4")


def _from_f4(raw: bytes, shape, what: str) -> np.ndarray:
    """A float64 array of ``shape`` from raw little-endian float32 bytes."""
    want = 4 * math.prod(shape)
    if len(raw) != want:
        raise ValueError(f"{what} holds {len(raw)} bytes where shape {list(shape)} needs {want}")
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)


def encode_array(array: np.ndarray) -> dict:
    """Base64 little-endian float32 payload with explicit shape."""
    data = _f4(array)
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(blob: dict) -> np.ndarray:
    return _from_f4(base64.b64decode(blob["data"]), blob["shape"], "payload")


def _count(value) -> bool:
    return type(value) is int and value >= 0


# What a header field must be, as said in an error, and the test for it.
_KINDS = {
    "a nonnegative integer": _count,
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of nonnegative integers": lambda v: isinstance(v, list) and all(map(_count, v)),
    "a JSON object": lambda v: isinstance(v, dict),
    "'ner' or 're'": lambda v: v in ("ner", "re"),
    "'tagger' or 're'": lambda v: v in ("tagger", "re"),
}


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
            raise ValueError(f"{what} '{key}' must be {kind}, got {reprlib.repr(record[key])}")
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
    "dim": "a nonnegative integer",
    "seed": "a nonnegative integer",
    "n_buckets": "a nonnegative integer",
}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_record(record: dict, task: str, dim: int, n_labels: int):
    provenance = Provenance.from_json(record["provenance"])
    labels = record["soft_labels" if task == "ner" else "soft_relation"]
    spans = None if task == "ner" else {"e1": Span(*record["e1"]), "e2": Span(*record["e2"])}
    problem = _shape_problem(record["embeddings"]["shape"], labels["shape"], spans, dim, n_labels)
    if problem:
        raise ValueError(problem)
    embeddings, labels = decode_array(record["embeddings"]), decode_array(labels)
    if spans is None:
        return MixedExample(embeddings, labels, provenance)
    return MixedRESample(embeddings, labels, spans["e1"], spans["e2"], provenance)


@dataclass
class AugmentedFile:
    """Parsed contents of an augmented JSONL file."""

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
    problem = _examples_problem(examples, task == "re", dim, len(label_vocab))
    if problem:  # all checked before a byte is written
        raise ValueError(problem)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": task,
        "label_vocab": list(label_vocab),
        "dim": dim,
        "count": len(examples),
        "meta": meta or {},
    }
    stream.write(_dump(header) + "\n")
    for example in examples:
        record = {
            "embeddings": encode_array(example.embeddings),
            "provenance": example.provenance.to_json(),
        }
        if task == "ner":
            record["soft_labels"] = encode_array(example.soft_labels)
        else:
            record["soft_relation"] = encode_array(example.soft_relation)
            record["e1"] = [example.e1.start, example.e1.end]
            record["e2"] = [example.e2.start, example.e2.end]
        stream.write(_dump(record) + "\n")


def load_augmented(stream: TextIO) -> AugmentedFile:
    """Read a file written by :func:`save_augmented`."""
    header_line = stream.readline()
    if not header_line.strip():
        raise ValueError("empty augmented file")
    header = json.loads(header_line)
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {header.get('version')}")
    _check_fields(header, _HEADER_FIELDS, "header")
    task, dim, vocab = header["task"], header["dim"], header["label_vocab"]
    examples = []
    for lineno, line in enumerate(stream, start=2):
        if not line.strip():
            continue
        try:
            examples.append(_read_record(json.loads(line), task, dim, len(vocab)))
        except KeyError as exc:
            raise ValueError(f"line {lineno}: record has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
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
    "dim": "a nonnegative integer",
    "weights_shape": "a list of nonnegative integers",
    "table_tokens": "a list of strings",
    "table_buckets": "a nonnegative integer",
    "table_shape": "a list of nonnegative integers",
    "meta": "a JSON object",
}


def save_checkpoint(path, model, table: EmbeddingTable, meta: dict | None = None) -> None:
    """Self-contained binary checkpoint: model weights + embedding table."""
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
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(_f4(model.weights).tobytes())
        fh.write(_f4(table.vectors).tobytes())


def _checkpoint_header(raw: bytes) -> dict:
    """The checked JSON header of a checkpoint whose magic and version passed."""
    header = _check_fields(json.loads(raw), _CKPT_FIELDS, "checkpoint header")
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
        header = _checkpoint_header(fh.read(header_len))
        payload = fh.read()
    w_shape, t_shape = header["weights_shape"], header["table_shape"]
    split = 4 * math.prod(w_shape)
    weights = _from_f4(payload[:split], w_shape, "checkpoint weights payload")
    vectors = _from_f4(payload[split:], t_shape, "checkpoint table payload")
    table = EmbeddingTable(header["table_tokens"], vectors, header["table_buckets"])
    labels = tuple(header["labels"])
    if header["kind"] == "tagger":
        model: object = TaggerModel(labels, header["window"], header["dim"], weights)
    else:
        model = REModel(labels, header["dim"], weights)
    return model, table, header["meta"]


def write_loss_trace(path, result: TrainResult) -> None:
    """Per-epoch training loss (and validation score, when present) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_score"])
        for epoch, loss in enumerate(result.loss_trace):
            score = result.val_scores[epoch] if epoch < len(result.val_scores) else ""
            writer.writerow([epoch, f"{loss:.8f}", f"{score:.6f}" if score != "" else ""])
