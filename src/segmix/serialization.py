"""On-disk formats for augmented datasets.

Augmented data is JSON-lines: a header record, then one record per
example. Matrices travel as base64-encoded little-endian float32 with an
explicit shape, so files are platform-independent and byte-identical
across repeated runs with the same seed.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Sequence, TextIO, Union

import numpy as np

from .corpus import Span
from .mixer import MixedExample, MixedRESample, Provenance

FORMAT_NAME = "segmix-augmented"
FORMAT_VERSION = 1


def encode_array(array: np.ndarray) -> dict:
    """Base64 little-endian float32 payload with explicit shape."""
    data = np.ascontiguousarray(array, dtype="<f4")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(blob: dict) -> np.ndarray:
    raw = base64.b64decode(blob["data"])
    array = np.frombuffer(raw, dtype="<f4").reshape(blob["shape"])
    return array.astype(np.float64)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _shape_problem(emb_shape, label_shape, spans, dim: int, n_labels: int) -> str | None:
    """Why a record with these shapes does not fit its file's header, or None.

    ``spans`` maps "e1"/"e2" to (start, end) for a relation record and is
    None for a tagging record. Reads shapes only, so a load pays O(1) per
    record before decoding.
    """
    if len(emb_shape) != 2 or emb_shape[1] != dim:
        return f"embeddings have shape {list(emb_shape)}, expected (n, {dim})"
    n = emb_shape[0]
    if spans is None:
        name, expected = "soft_labels", (n, n_labels)
    else:
        name, expected = "soft_relation", (n_labels,)
    if tuple(label_shape) != expected:
        return f"{name} have shape {list(label_shape)}, expected {expected}"
    for span_name, (start, end) in (spans or {}).items():
        if not 0 <= start < end <= n:
            return f"{span_name} span [{start}, {end}) lies outside the {n}-token sentence"
    return None


def _read_record(record: dict, task: str, dim: int, n_labels: int):
    provenance = Provenance.from_json(record["provenance"])
    if task == "ner":
        labels, spans = record["soft_labels"], None
    else:
        labels, spans = record["soft_relation"], {"e1": record["e1"], "e2": record["e2"]}
    problem = _shape_problem(record["embeddings"]["shape"], labels["shape"], spans, dim, n_labels)
    if problem:
        raise ValueError(problem)
    embeddings = decode_array(record["embeddings"])
    if task == "ner":
        return MixedExample(embeddings, decode_array(labels), provenance)
    return MixedRESample(
        embeddings, decode_array(labels), Span(*record["e1"]), Span(*record["e2"]), provenance
    )


@dataclass
class AugmentedFile:
    """Parsed contents of an augmented JSONL file."""

    task: str
    label_vocab: tuple[str, ...]
    dim: int
    examples: list
    meta: dict


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
    for i, example in enumerate(examples):  # all checked before a byte is written
        if task == "ner":
            labels, spans = example.soft_labels, None
        else:
            labels = example.soft_relation
            spans = {"e1": (example.e1.start, example.e1.end), "e2": (example.e2.start, example.e2.end)}
        problem = _shape_problem(example.embeddings.shape, labels.shape, spans, dim, len(label_vocab))
        if problem:
            raise ValueError(f"example {i}: {problem}")
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
    for key in ("task", "dim", "label_vocab", "count"):
        if key not in header:
            raise ValueError(f"header has no '{key}' field")
    task, dim, vocab = header["task"], header["dim"], header["label_vocab"]
    if task not in ("ner", "re"):
        raise ValueError(f"header 'task' must be 'ner' or 're', got {task!r}")
    for key in ("dim", "count"):
        if type(header[key]) is not int or header[key] < 0:
            raise ValueError(f"header '{key}' must be a nonnegative integer, got {header[key]!r}")
    if not isinstance(vocab, list) or not all(isinstance(label, str) for label in vocab):
        raise ValueError("header 'label_vocab' must be a list of strings")
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
        task=task,
        label_vocab=tuple(vocab),
        dim=dim,
        examples=examples,
        meta=header.get("meta", {}),
    )
