"""Desk-scale soft-label classifiers over embedding matrices.

The tagger is a linear map over a sliding context window of embedding
rows (zero rows past sentence boundaries); the relation classifier is a
linear map over the concatenated mean-pooled nominal span embeddings.
Both train with mini-batch SGD on soft cross-entropy, so interpolated
label vectors are first-class targets. Everything is float64 numpy and
deterministic under a seed. Training refuses malformed examples by the
rule augmented files are saved and loaded under (``mixer._shape_problem``);
checkpoints and loss traces live in :mod:`segmix.serialization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import RECorpus, TaggedCorpus
from .mixer import EmbeddingTable, MixedExample, MixedRESample, _examples_problem
from .rng import derive_rng


class TrainingDivergedError(RuntimeError):
    pass


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _soft_loss(logits: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row soft cross-entropy and its gradient with respect to the logits.

    The gradient is softmax * sum(target) - target, so targets need not sum
    to one.
    """
    log_probs = log_softmax(logits)
    dlogits = np.exp(log_probs) * target.sum(axis=-1, keepdims=True) - target
    return -(target * log_probs).sum(axis=-1), dlogits


def soft_cross_entropy(logits: np.ndarray, target: np.ndarray) -> float:
    """-sum_c target_c * log softmax(logits)_c for one prediction.

    Targets may be any nonnegative vector; with interpolated labels the
    loss is linear in the target. Rows are averaged when matrices are
    passed.
    """
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {target.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    return float(_soft_loss(logits, target)[0].mean())


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows ``starts[i] .. starts[i] + lengths[i] - 1`` for every i, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _joined(lengths: np.ndarray, window: int) -> tuple[np.ndarray, int]:
    """Layout of sequences stacked with ``window`` zero rows before, between
    and after them: each sequence's first row, and the total row count.

    The zero rows are what a window past a sentence boundary reads.
    """
    starts = np.cumsum(lengths + window) - lengths
    return starts, int(starts[-1] + lengths[-1] + window)


def _windows(flat: np.ndarray, rows: np.ndarray, window: int) -> np.ndarray:
    """Rows ``flat[rows + o]`` for o = -w..w side by side, plus a bias column."""
    dim = flat.shape[1]
    feats = np.empty((len(rows), (2 * window + 1) * dim + 1))
    feats[:, -1] = 1.0
    for k, offset in enumerate(range(-window, window + 1)):
        feats[:, k * dim : (k + 1) * dim] = flat[rows + offset]
    return feats


def _pooled(dim: int, samples) -> np.ndarray:
    """One ``[mean(e1 rows); mean(e2 rows); 1]`` row per (embeddings, e1, e2)."""
    feats = np.ones((len(samples), 2 * dim + 1))
    for row, (embeddings, e1, e2) in zip(feats, samples):
        embeddings[e1.start : e1.end].mean(axis=0, out=row[:dim])
        embeddings[e2.start : e2.end].mean(axis=0, out=row[dim : 2 * dim])
    return feats


def _require_dim(model, width: int) -> None:
    if width != model.dim:
        raise ValueError(f"embedding dim {width} != model dim {model.dim}")


@dataclass
class TaggerModel:
    """Context-window linear tagger: ((2w+1)*dim + 1) x n_labels weights."""

    labels: tuple[str, ...]
    window: int
    dim: int
    weights: np.ndarray

    @classmethod
    def init(
        cls, labels: Sequence[str], dim: int, window: int = 1, seed: int = 0,
        scale: float = 0.01,
    ) -> "TaggerModel":
        rng = derive_rng(seed, "tagger-init")
        n_feat = (2 * window + 1) * dim + 1
        weights = scale * rng.standard_normal((n_feat, len(labels)))
        return cls(tuple(labels), window, dim, weights)

    def features(self, embeddings: np.ndarray) -> np.ndarray:
        """Rows t-w..t+w per position (zero rows past the boundaries) and a bias."""
        _require_dim(self, embeddings.shape[1])
        w = self.window
        return _windows(np.pad(embeddings, ((w, w), (0, 0))), np.arange(len(embeddings)) + w, w)

    def forward(self, embeddings: np.ndarray) -> np.ndarray:
        """Logits matrix, one row per position."""
        return self.features(embeddings) @ self.weights

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Argmax label indices per position (ties -> lowest index)."""
        return self.forward(embeddings).argmax(axis=1)

    def copy(self) -> "TaggerModel":
        return TaggerModel(self.labels, self.window, self.dim, self.weights.copy())


@dataclass
class REModel:
    """Linear relation classifier over [mean(e1 rows); mean(e2 rows); 1]."""

    labels: tuple[str, ...]
    dim: int
    weights: np.ndarray

    @classmethod
    def init(cls, labels: Sequence[str], dim: int, seed: int = 0, scale: float = 0.01) -> "REModel":
        rng = derive_rng(seed, "re-init")
        weights = scale * rng.standard_normal((2 * dim + 1, len(labels)))
        return cls(tuple(labels), dim, weights)

    def features(self, embeddings: np.ndarray, e1, e2) -> np.ndarray:
        _require_dim(self, embeddings.shape[1])
        return _pooled(self.dim, [(embeddings, e1, e2)])[0]

    def forward(self, embeddings: np.ndarray, e1, e2) -> np.ndarray:
        return self.features(embeddings, e1, e2) @ self.weights

    def copy(self) -> "REModel":
        return REModel(self.labels, self.dim, self.weights.copy())


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.1
    batch_size: int = 16
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate <= 0 or self.batch_size <= 0 or self.patience <= 0:
            raise ValueError("train config values must be positive (epochs may be 0)")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")


@dataclass
class TrainResult:
    model: object
    loss_trace: list[float] = field(default_factory=list)
    val_scores: list[float] = field(default_factory=list)
    best_epoch: int = -1


def _tagger_loss_grad(model: TaggerModel, example) -> tuple[float, np.ndarray]:
    """Loss and weight gradient of one example; the per-example reference
    for :func:`gradient_check` and for the batched trainer."""
    feats = model.features(example.embeddings)
    logits = feats @ model.weights
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    target = example.soft_labels
    loss, dlogits = _soft_loss(logits, target)
    return float(loss.mean()), feats.T @ (dlogits / len(target))


def _re_loss_grad(model: REModel, example) -> tuple[float, np.ndarray]:
    feats = model.features(example.embeddings, example.e1, example.e2)
    logits = feats @ model.weights
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    loss, dlogits = _soft_loss(logits, example.soft_relation)
    return float(loss), np.outer(feats, dlogits)


# features, targets and row weights of a run, and the rows of an epoch's order
_Layout = tuple[np.ndarray, np.ndarray, np.ndarray, Callable]


def _tagger_rows(model: TaggerModel, examples: Sequence) -> _Layout:
    """Lay the examples out once for the whole run: their window features
    (built from the examples joined ``window`` zero rows apart, which are
    then freed), targets and row weights ``1/len(example)``, one row per
    token with no gap rows. Also returns the rows of an epoch: for an
    order of the examples, their rows in that order and the bounds
    between examples (``bounds[i]`` rows come before example ``order[i]``)."""
    lengths = np.array([len(e.embeddings) for e in examples])
    starts, total = _joined(lengths, model.window)
    flat = np.zeros((total, model.dim))
    for example, lo, n in zip(examples, starts.tolist(), lengths.tolist()):
        flat[lo : lo + n] = example.embeddings
    feats = _windows(flat, _ranges(starts, lengths), model.window)
    del flat
    target = np.concatenate([e.soft_labels for e in examples], dtype=np.float64)
    weight = np.repeat(1.0 / lengths, lengths)
    first = np.cumsum(lengths) - lengths

    def epoch_rows(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _ranges(first[order], lengths[order]), np.append(0, np.cumsum(lengths[order]))

    return feats, target, weight, epoch_rows


def _re_rows(model: REModel, examples: Sequence) -> _Layout:
    """Pool every example's spans once; one row per example, weight 1."""
    feats = _pooled(model.dim, [(e.embeddings, e.e1, e.e2) for e in examples])
    target = np.array([e.soft_relation for e in examples])
    weight = np.ones(len(examples))
    return feats, target, weight, lambda order: (order, np.arange(len(order) + 1))


def _train(
    model,
    examples: Sequence,
    config: TrainConfig,
    layout: Callable,
    score_fn: Callable | None,
) -> TrainResult:
    """Mini-batch SGD with optional early stopping on a validation score.

    Before epoch 0 the examples are checked and ``layout(model, examples)``
    lays out their features, targets and row weights once for the run.
    Each epoch takes the rows of its order once; each batch is then one
    gather of a slice of those rows, one forward and one gradient matmul.
    """
    if not examples:
        raise ValueError("empty training set")
    problem = _examples_problem(examples, isinstance(model, REModel), model.dim, len(model.labels))
    if problem:
        raise ValueError(f"training {problem}")
    feats_all, target_all, weight_all, epoch_rows = layout(model, examples)
    rng = derive_rng(config.seed, "train-shuffle")
    trace: list[float] = []
    scores: list[float] = []
    best = model.copy()
    best_score = -np.inf
    best_epoch = -1
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        rows, bounds = epoch_rows(order)
        edges = [*range(0, len(order), config.batch_size), len(order)]
        cuts = bounds[edges].tolist()
        total = 0.0
        for count, lo, hi in zip(np.diff(edges).tolist(), cuts, cuts[1:]):
            r = rows[lo:hi]
            feats, target, weight = feats_all.take(r, 0), target_all.take(r, 0), weight_all.take(r)
            logits = feats @ model.weights
            if not np.isfinite(logits).all():
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            loss, dlogits = _soft_loss(logits, target)
            total += float(loss @ weight)
            grad = feats.T @ (dlogits * weight[:, None])
            model.weights -= config.learning_rate * grad / count
        mean_loss = total / len(examples)
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        trace.append(mean_loss)
        if score_fn is None:
            continue
        score = score_fn(model)
        scores.append(score)
        if score > best_score:
            best, best_score, best_epoch = model.copy(), score, epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if score_fn is None or best_epoch < 0:
        best = model
        best_epoch = len(trace) - 1
    return TrainResult(best, trace, scores, best_epoch)


def train_tagger(
    model: TaggerModel,
    examples: Sequence[MixedExample],
    config: TrainConfig,
    val_corpus: TaggedCorpus | None = None,
    table: EmbeddingTable | None = None,
) -> TrainResult:
    """Train on mixed examples and/or embedded originals.

    With a validation corpus (and its table), early stopping tracks
    entity-level F1 and the best checkpoint is returned; without one the
    final weights are.
    """
    score_fn = None
    if val_corpus is not None:
        if table is None:
            raise ValueError("validation needs the embedding table")
        from .evaluation import _entity_scorer

        score = _entity_scorer(val_corpus, model.labels)

        def score_fn(m, _corpus=val_corpus, _table=table):
            return score(_predict_ids(m, _table, _corpus)).f1

    return _train(model, examples, config, _tagger_rows, score_fn)


def train_re(
    model: REModel,
    examples: Sequence[MixedRESample],
    config: TrainConfig,
    val_corpus: RECorpus | None = None,
    table: EmbeddingTable | None = None,
) -> TrainResult:
    """Train the relation classifier; early stopping tracks accuracy."""
    score_fn = None
    if val_corpus is not None:
        if table is None:
            raise ValueError("validation needs the embedding table")

        def score_fn(m, _corpus=val_corpus, _table=table):
            pred = predict_re(m, _table, _corpus)
            hits = sum(p == s.relation for p, s in zip(pred, _corpus.samples))
            return hits / len(_corpus)

    return _train(model, examples, config, _re_rows, score_fn)


# Sentences per prediction block: enough to amortise the per-block calls;
# a block's window features are held whole, so peak memory grows with it.
_PREDICT_BLOCK = 64


def _blocks(items: Sequence):
    return (items[lo : lo + _PREDICT_BLOCK] for lo in range(0, len(items), _PREDICT_BLOCK))


def _predict_ids(model: TaggerModel, table: EmbeddingTable, corpus: TaggedCorpus) -> np.ndarray:
    """The argmax label id of every token of the corpus, end to end.

    Sentences go in blocks, joined as the trainer joins its examples: one
    table lookup and one matmul per block.
    """
    _require_dim(model, table.dim)
    out = [np.zeros(0, np.int64)]
    for block in _blocks(corpus.sentences):
        lengths = np.array([len(s.tokens) for s in block])
        starts, total = _joined(lengths, model.window)
        rows = _ranges(starts, lengths)
        flat = np.zeros((total, model.dim))
        flat[rows] = table.vectors[table.rows([t for s in block for t in s.tokens])]
        out.append((_windows(flat, rows, model.window) @ model.weights).argmax(axis=1))
    return np.concatenate(out)


def predict_tagger(
    model: TaggerModel, table: EmbeddingTable, corpus: TaggedCorpus
) -> list[list[str]]:
    """Predicted label strings per sentence (argmax, no repair)."""
    names = list(map(model.labels.__getitem__, _predict_ids(model, table, corpus).tolist()))
    ends = np.cumsum([len(s.tokens) for s in corpus.sentences], dtype=np.int64).tolist()
    return [names[end - len(s.tokens) : end] for end, s in zip(ends, corpus.sentences)]


def predict_re(model: REModel, table: EmbeddingTable, corpus: RECorpus) -> list[str]:
    """Predicted relation per sample, in blocks of one lookup and one matmul."""
    _require_dim(model, table.dim)
    out = []
    for block in _blocks(corpus.samples):
        embeddings = table.vectors[table.rows([t for s in block for t in s.tokens])]
        pieces = np.split(embeddings, np.cumsum([len(s.tokens) for s in block])[:-1])
        feats = _pooled(model.dim, [(p, s.e1, s.e2) for p, s in zip(pieces, block)])
        out.extend(model.labels[i] for i in (feats @ model.weights).argmax(axis=1).tolist())
    return out


def gradient_check(
    model,
    example,
    n_checks: int = 25,
    step: float = 1e-4,
    seed: int = 0,
    floor: float = 1e-3,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The denominator is floored so near-zero gradients are compared on an
    absolute scale.
    """
    loss_grad = _re_loss_grad if isinstance(model, REModel) else _tagger_loss_grad
    _, analytic = loss_grad(model, example)
    rng = derive_rng(seed, "gradcheck")
    flat_idx = rng.choice(model.weights.size, size=min(n_checks, model.weights.size), replace=False)
    worst = 0.0
    for flat in flat_idx:
        idx = np.unravel_index(flat, model.weights.shape)
        keep = model.weights[idx]
        model.weights[idx] = keep + step
        up, _ = loss_grad(model, example)
        model.weights[idx] = keep - step
        down, _ = loss_grad(model, example)
        model.weights[idx] = keep
        fd = (up - down) / (2 * step)
        err = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), floor)
        worst = max(worst, err)
    return worst
