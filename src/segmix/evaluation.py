"""Evaluation metrics for tagging and relation classification.

Entity scores are exact-match (start, end, type) at the span level, in
the conlleval tradition: a predicted I-X that cannot legally continue a
span implicitly opens one, so raw argmax output needs no repair pass
before scoring.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .corpus import RECorpus, TaggedCorpus, split_bio
from .mixer import EmbeddingTable


@dataclass(frozen=True)
class PRF:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def pred_spans(labels: Sequence[str]) -> list[tuple[int, int, str]]:
    """Extract (start, end, type) spans, tolerating ill-formed BIO.

    B-X always opens a span; I-X continues a same-type span or, when it
    cannot, opens one.
    """
    spans = []
    start = None
    current = None
    for i, label in enumerate(labels):
        kind, etype = split_bio(label)
        if kind == "O":
            if current is not None:
                spans.append((start, i, current))
            start = current = None
        elif kind == "B" or etype != current:
            if current is not None:
                spans.append((start, i, current))
            start, current = i, etype
    if current is not None:
        spans.append((start, len(labels), current))
    return spans


def _as_label_lists(gold) -> list[list[str]]:
    if isinstance(gold, TaggedCorpus):
        return [list(s.labels) for s in gold.sentences]
    return [list(s) for s in gold]


def _span_counts(gold, predicted, erase_types: bool):
    gold_lists = _as_label_lists(gold)
    if len(gold_lists) != len(predicted):
        raise ValueError("gold and predicted sentence counts differ")
    tp = fp = fn = 0
    for g_labels, p_labels in zip(gold_lists, predicted):
        if len(g_labels) != len(p_labels):
            raise ValueError("gold and predicted sentence lengths differ")
        g = set(pred_spans(g_labels))
        p = set(pred_spans(p_labels))
        if erase_types:
            g = {(s, e) for s, e, _ in g}
            p = {(s, e) for s, e, _ in p}
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return PRF(tp, fp, fn)


def entity_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Micro-averaged exact-span-and-type F1."""
    return _span_counts(gold, predicted, erase_types=False)


def span_only_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Boundary-only F1: spans match on (start, end), types erased."""
    return _span_counts(gold, predicted, erase_types=True)


def per_type_f1(gold, predicted: Sequence[Sequence[str]]) -> dict[str, PRF]:
    """Exact-match F1 split by entity type."""
    gold_lists = _as_label_lists(gold)
    counts: dict[str, list[int]] = {}
    for g_labels, p_labels in zip(gold_lists, predicted):
        g = set(pred_spans(g_labels))
        p = set(pred_spans(p_labels))
        for span in g | p:
            c = counts.setdefault(span[2], [0, 0, 0])
            if span in g and span in p:
                c[0] += 1
            elif span in p:
                c[1] += 1
            else:
                c[2] += 1
    return {t: PRF(*c) for t, c in sorted(counts.items())}


def token_confusion(
    gold, predicted: Sequence[Sequence[str]], vocab: Sequence[str]
) -> np.ndarray:
    """counts[gold_index, predicted_index] over token-level labels."""
    index = {label: i for i, label in enumerate(vocab)}
    matrix = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    for g_labels, p_labels in zip(_as_label_lists(gold), predicted):
        for g, p in zip(g_labels, p_labels):
            matrix[index[g], index[p]] += 1
    return matrix


def split_relation(label: str) -> tuple[str, str | None]:
    """'Cause-Effect(e1,e2)' -> ('Cause-Effect', 'e1,e2'); no suffix -> None."""
    if label.endswith(")") and "(" in label:
        head, _, tail = label.partition("(")
        return head, tail[:-1]
    return label, None


@dataclass(frozen=True)
class REScores:
    """Relation accuracies: exact label, type-only, and direction given type."""

    n: int
    correct: int
    type_correct: int
    direction_pairs: int
    direction_correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.n if self.n else 0.0

    @property
    def type_accuracy(self) -> float:
        return self.type_correct / self.n if self.n else 0.0

    @property
    def direction_given_type(self) -> float:
        return self.direction_correct / self.direction_pairs if self.direction_pairs else 0.0


def re_scores(gold, predicted: Sequence[str]) -> REScores:
    if isinstance(gold, RECorpus):
        gold = [s.relation for s in gold.samples]
    gold = list(gold)
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted counts differ")
    correct = type_correct = dir_pairs = dir_correct = 0
    for g, p in zip(gold, predicted):
        g_type, g_dir = split_relation(g)
        p_type, p_dir = split_relation(p)
        if g == p:
            correct += 1
        if g_type == p_type:
            type_correct += 1
            if g_dir is not None:
                dir_pairs += 1
                if g_dir == p_dir:
                    dir_correct += 1
    return REScores(len(gold), correct, type_correct, dir_pairs, dir_correct)


def re_confusion(gold, predicted: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    if isinstance(gold, RECorpus):
        gold = [s.relation for s in gold.samples]
    index = {label: i for i, label in enumerate(vocab)}
    matrix = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    for g, p in zip(gold, predicted):
        matrix[index[g], index[p]] += 1
    return matrix


# ---------------------------------------------------------------------------
# Nearest-token recovery: map embedding rows back to vocabulary tokens.


def nearest_tokens(table: EmbeddingTable, embeddings: np.ndarray) -> list[tuple[str, float]]:
    """Closest vocabulary token (Euclidean) per row, with its distance.

    Only real vocabulary rows compete; hash-bucket rows are excluded. A
    mixed row typically lands nearest whichever side dominates lambda.
    """
    vocab_vectors = table.vectors[: len(table.tokens)]
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[1] != vocab_vectors.shape[1]:
        raise ValueError("embeddings must be rows of table dimension")
    sq = (
        (embeddings**2).sum(axis=1, keepdims=True)
        - 2.0 * embeddings @ vocab_vectors.T
        + (vocab_vectors**2).sum(axis=1)
    )
    np.maximum(sq, 0.0, out=sq)
    best = sq.argmin(axis=1)
    return [
        (table.tokens[j], float(np.sqrt(sq[i, j])))
        for i, j in enumerate(best)
    ]


def nearest_token(table: EmbeddingTable, vector: np.ndarray) -> tuple[str, float]:
    return nearest_tokens(table, np.asarray(vector)[None, :])[0]


# ---------------------------------------------------------------------------
# Report container shared by the command-line tools.


@dataclass
class EvalReport:
    task: str
    summary: dict
    per_type: dict = dc_field(default_factory=dict)
    confusion: np.ndarray | None = None
    confusion_vocab: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {"task": self.task, "summary": self.summary}
        if self.per_type:
            out["per_type"] = self.per_type
        if self.confusion is not None:
            out["confusion"] = {
                "labels": list(self.confusion_vocab),
                "counts": self.confusion.tolist(),
            }
        return out

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_confusion_csv(self, path) -> None:
        if self.confusion is None:
            raise ValueError("no confusion matrix to write")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gold\\pred", *self.confusion_vocab])
            for label, row in zip(self.confusion_vocab, self.confusion):
                writer.writerow([label, *row.tolist()])

    def format_text(self) -> str:
        lines = [f"task: {self.task}"]
        for key in sorted(self.summary):
            value = self.summary[key]
            lines.append(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
        for etype, prf in self.per_type.items():
            lines.append(
                f"  {etype}: P={prf['precision']:.4f} R={prf['recall']:.4f} "
                f"F1={prf['f1']:.4f} (tp={prf['tp']} fp={prf['fp']} fn={prf['fn']})"
            )
        return "\n".join(lines) + "\n"


def tagging_report(gold: TaggedCorpus, predicted: Sequence[Sequence[str]]) -> EvalReport:
    overall = entity_f1(gold, predicted)
    # a model may predict labels the test corpus never uses; they join in first-seen order
    vocab = tuple(dict.fromkeys([*gold.label_vocab, *(p for row in predicted for p in row)]))
    spans = span_only_f1(gold, predicted)
    per_type = {
        t: {
            "precision": prf.precision,
            "recall": prf.recall,
            "f1": prf.f1,
            "tp": prf.tp,
            "fp": prf.fp,
            "fn": prf.fn,
        }
        for t, prf in per_type_f1(gold, predicted).items()
    }
    return EvalReport(
        task="ner",
        summary={
            "precision": overall.precision,
            "recall": overall.recall,
            "f1": overall.f1,
            "span_precision": spans.precision,
            "span_recall": spans.recall,
            "span_f1": spans.f1,
            "n_sentences": len(gold),
        },
        per_type=per_type,
        confusion=token_confusion(gold, predicted, vocab),
        confusion_vocab=vocab,
    )


def re_report(gold: RECorpus, predicted: Sequence[str]) -> EvalReport:
    scores = re_scores(gold, predicted)
    vocab = tuple(dict.fromkeys([*gold.relation_vocab, *predicted]))
    return EvalReport(
        task="re",
        summary={
            "accuracy": scores.accuracy,
            "type_accuracy": scores.type_accuracy,
            "direction_given_type": scores.direction_given_type,
            "n_samples": scores.n,
        },
        confusion=re_confusion(gold, predicted, vocab),
        confusion_vocab=vocab,
    )
