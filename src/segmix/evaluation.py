"""Evaluation metrics for tagging and relation classification.

Entity scores are exact-match (start, end, type) at the span level, in
the conlleval tradition: a predicted I-X that cannot legally continue a
span implicitly opens one, so raw argmax output needs no repair pass
before scoring. Label strings become ids only through ``corpus._vocab_ids``,
and spans, per-type counts and confusion matrices are read from the ids.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .corpus import (
    RECorpus, TaggedCorpus, _bio_kinds, _flatten, _label_ids, _mentions, _replacing, _vocab_ids,
    bio_spans,
)
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


pred_spans = bio_spans


def _label_streams(gold, predicted, vocab: Sequence[str] = ()):
    """Both label streams as ids into one vocabulary, their sentence offsets
    and that vocabulary; refuses a mismatch. The vocabulary is ``vocab``,
    then the other predicted labels, then the other gold labels, each in
    first-seen order."""
    side = _gold_side(gold)
    if len(side[1]) != len(predicted) + 1:
        raise ValueError("gold and predicted sentence counts differ")
    pred, pred_offsets = _flatten(predicted)
    if not np.array_equal(side[1], pred_offsets):
        raise ValueError("gold and predicted sentence lengths differ")
    return _streams(side, *_vocab_ids(pred, vocab))


def _prf(matched, predicted, gold) -> PRF:
    """PRF from the numbers of matched, predicted and gold spans."""
    return PRF(int(matched), int(predicted - matched), int(gold - matched))


def _found(keys: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """Whether each of the nonnegative ``keys`` is in the ascending array
    ``ascending``, by binary search (the -1 after it catches keys past its end)."""
    return np.append(ascending, -1)[np.searchsorted(ascending, keys)] == keys


def _span_counts(gold: np.ndarray, predicted: np.ndarray, offsets: np.ndarray,
                 vocab: Sequence[str]) -> tuple[PRF, PRF, dict[str, PRF]]:
    """Exact-match counts overall and per entity type, and boundary-only
    counts, of two aligned streams of label ids into ``vocab``.

    The streams are laid end to end so their spans are found in one pass,
    with kinds and types read from per-vocabulary tables; spans match as
    integer keys of (start, end) and of (start, end, type), which ascend
    with the span start.
    """
    n = len(gold)
    kind, etype, types = _bio_kinds(np.concatenate([gold, predicted]), vocab)
    starts, ends = _mentions(kind, etype, np.concatenate([offsets, offsets[1:] + n]))
    is_gold = starts < n
    shift = np.where(is_gold, 0, n)
    where = (starts - shift) * (n + 1) + (ends - shift)
    gold_type, pred_type = etype[starts[is_gold]], etype[starts[~is_gold]]
    typed = where * len(types) + etype[starts]
    tp = np.bincount(gold_type[_found(typed[is_gold], typed[~is_gold])], minlength=len(types))
    n_pred = np.bincount(pred_type, minlength=len(types))
    n_gold = np.bincount(gold_type, minlength=len(types))
    per_type = dict(sorted((t, _prf(tp[i], n_pred[i], n_gold[i]))
                           for i, t in enumerate(types) if n_pred[i] or n_gold[i]))
    span_tp = _found(where[is_gold], where[~is_gold]).sum()
    found, wanted = len(pred_type), len(gold_type)
    return _prf(tp.sum(), found, wanted), _prf(span_tp, found, wanted), per_type


def _gold_side(gold) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The gold labels of a corpus or of per-sentence label lists end to end
    as ids into their first-seen vocabulary, the sentence offsets, and that
    vocabulary."""
    flat, offsets = _flatten([s.labels for s in gold.sentences] if isinstance(gold, TaggedCorpus) else gold)
    ids, names = _vocab_ids(flat)
    return ids, offsets, names


def _streams(gold_side, pred_ids: np.ndarray, names: Sequence[str]):
    """The :func:`_span_counts` arguments for a flat stream of predicted ids
    into ``names`` against a :func:`_gold_side`, whose ids are mapped, here,
    into ``names`` followed by the gold labels not among them."""
    gold_ids, offsets, gold_vocab = gold_side
    remap, vocab = _vocab_ids(gold_vocab, names)
    return remap[gold_ids], pred_ids, offsets, vocab


def entity_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Micro-averaged exact-span-and-type F1."""
    return _span_counts(*_label_streams(gold, predicted))[0]


def span_only_f1(gold, predicted: Sequence[Sequence[str]]) -> PRF:
    """Boundary-only F1: spans match on (start, end), types erased."""
    return _span_counts(*_label_streams(gold, predicted))[1]


def per_type_f1(gold, predicted: Sequence[Sequence[str]]) -> dict[str, PRF]:
    """Exact-match F1 split by entity type."""
    return _span_counts(*_label_streams(gold, predicted))[2]


def _confusion(gold: np.ndarray, predicted: np.ndarray, names: Sequence[str],
               size: int) -> np.ndarray:
    """counts[gold_id, predicted_id] over paired label ids; an id past ``size``
    is a label outside the vocabulary and raises ValueError naming it."""
    for ids in (gold, predicted):
        outside = np.flatnonzero(ids >= size)
        if len(outside):
            raise ValueError(f"label {names[ids[outside[0]]]!r} not in vocabulary")
    return np.bincount(gold * size + predicted, minlength=size * size).reshape(size, size)


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
    gold = _relations(gold, predicted)
    return _confusion(_label_ids(gold, vocab), _label_ids(predicted, vocab), vocab, len(vocab))


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


# ---------------------------------------------------------------------------
# Report container shared by the command-line tools.


def _write_json(path, value) -> None:
    """``value`` at ``path`` as indented JSON with sorted keys and a final newline."""
    with _replacing(path) as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class EvalReport:
    task: str
    summary: dict
    confusion: np.ndarray
    confusion_vocab: tuple[str, ...]
    per_type: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"task": self.task, "summary": self.summary}
        if self.per_type:
            out["per_type"] = self.per_type
        out["confusion"] = {
            "labels": list(self.confusion_vocab),
            "counts": self.confusion.tolist(),
        }
        return out

    def write_json(self, path) -> None:
        _write_json(path, self.to_json())

    def write_confusion_csv(self, path) -> None:
        with _replacing(path, newline="") as fh:
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
    # a model may predict labels the test corpus never uses; they join in first-seen order
    gold_ids, pred_ids, offsets, names = _label_streams(gold, predicted, gold.label_vocab)
    overall, spans, per_type = _span_counts(gold_ids, pred_ids, offsets, names)
    # the report's labels end with the last predicted one; a gold label past them raises
    size = max(len(gold.label_vocab), int(pred_ids.max(initial=-1)) + 1)
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
        confusion=_confusion(gold_ids, pred_ids, names, size),
        confusion_vocab=names[:size],
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
