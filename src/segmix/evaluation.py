"""Evaluation metrics for tagging and relation classification.

Entity scores are exact-match (start, end, type) at the span level, in
the conlleval tradition: a predicted I-X that cannot legally continue a
span implicitly opens one, so raw argmax output needs no repair pass
before scoring.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .corpus import RECorpus, TaggedCorpus, _bio_arrays, _flatten, _mentions, bio_spans
from .mixer import EmbeddingTable, _label_ids


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


pred_spans = bio_spans


def _aligned(gold, predicted) -> tuple[list[str], list[str], np.ndarray]:
    """Both label streams flattened, and their sentence offsets; refuses a mismatch."""
    gold = [s.labels for s in gold.sentences] if isinstance(gold, TaggedCorpus) else gold
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted sentence counts differ")
    (gold, offsets), (predicted, pred_offsets) = _flatten(gold), _flatten(predicted)
    if not np.array_equal(offsets, pred_offsets):
        raise ValueError("gold and predicted sentence lengths differ")
    return gold, predicted, offsets


def _prf(matched, predicted, gold) -> PRF:
    """PRF from the numbers of matched, predicted and gold spans."""
    return PRF(int(matched), int(predicted - matched), int(gold - matched))


def _span_counts(gold, predicted) -> tuple[PRF, PRF, dict[str, PRF]]:
    """Exact-match counts overall and per entity type, and boundary-only counts.

    The gold and predicted streams are laid end to end so their spans are
    found in one pass; spans match as integer keys of (start, end) and of
    (start, end, type).
    """
    gold_flat, pred_flat, offsets = _aligned(gold, predicted)
    n = len(gold_flat)
    kind, etype, types = _bio_arrays(gold_flat + pred_flat)
    starts, ends = _mentions(kind, etype, np.concatenate([offsets, offsets[1:] + n]))
    is_gold = starts < n
    shift = np.where(is_gold, 0, n)
    where = (starts - shift) * (n + 1) + (ends - shift)
    gold_type, pred_type = etype[starts[is_gold]], etype[starts[~is_gold]]
    typed = where * len(types) + etype[starts]
    tp = np.bincount(gold_type[np.isin(typed[is_gold], typed[~is_gold])], minlength=len(types))
    n_pred = np.bincount(pred_type, minlength=len(types))
    n_gold = np.bincount(gold_type, minlength=len(types))
    per_type = dict(sorted((t, _prf(tp[i], n_pred[i], n_gold[i])) for i, t in enumerate(types)))
    span_tp = np.isin(where[is_gold], where[~is_gold]).sum()
    found, wanted = len(pred_type), len(gold_type)
    return _prf(tp.sum(), found, wanted), _prf(span_tp, found, wanted), per_type


def entity_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Micro-averaged exact-span-and-type F1."""
    return _span_counts(gold, predicted)[0]


def span_only_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Boundary-only F1: spans match on (start, end), types erased."""
    return _span_counts(gold, predicted)[1]


def per_type_f1(gold, predicted: Sequence[Sequence[str]]) -> dict[str, PRF]:
    """Exact-match F1 split by entity type."""
    return _span_counts(gold, predicted)[2]


def _confusion(gold: Sequence[str], predicted: Sequence[str], vocab: Sequence[str]) -> np.ndarray:
    """counts[gold_index, predicted_index] over paired labels."""
    size = len(vocab)
    cells = _label_ids(gold, vocab) * size + _label_ids(predicted, vocab)
    return np.bincount(cells, minlength=size * size).reshape(size, size)


def token_confusion(
    gold, predicted: Sequence[Sequence[str]], vocab: Sequence[str]
) -> np.ndarray:
    """counts[gold_index, predicted_index] over token-level labels."""
    gold_flat, pred_flat, _ = _aligned(gold, predicted)
    return _confusion(gold_flat, pred_flat, vocab)


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


def _relations(gold, predicted: Sequence[str]) -> list[str]:
    """The gold relation labels, refusing a count other than the predictions'."""
    gold = [s.relation for s in gold.samples] if isinstance(gold, RECorpus) else list(gold)
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted counts differ")
    return gold


def re_scores(gold, predicted: Sequence[str]) -> REScores:
    gold = _relations(gold, predicted)
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
    return _confusion(_relations(gold, predicted), predicted, vocab)


# ---------------------------------------------------------------------------
# Nearest-token recovery: map embedding rows back to vocabulary tokens.


def nearest_tokens(table: EmbeddingTable, embeddings: np.ndarray) -> list[tuple[str, float]]:
    """Closest vocabulary token (Euclidean) per row, with its distance.

    Only real vocabulary rows compete; hash-bucket rows are excluded. A
    mixed row typically lands nearest whichever side dominates lambda.
    """
    if not table.tokens:
        raise ValueError("embedding table has no vocabulary rows to recover tokens from")
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
    overall, spans, per_type = _span_counts(gold, predicted)
    # a model may predict labels the test corpus never uses; they join in first-seen order
    vocab = tuple(dict.fromkeys([*gold.label_vocab, *(p for row in predicted for p in row)]))
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
        per_type={
            t: {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1, **asdict(prf)}
            for t, prf in per_type.items()
        },
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
