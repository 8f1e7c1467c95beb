"""Desk-scale soft-label classifiers over embedding matrices.

The tagger is a linear map over a sliding context window of embedding
rows (zero rows past sentence boundaries); the relation classifier is a
linear map over the concatenated mean-pooled nominal span embeddings.
Both train with mini-batch SGD on soft cross-entropy, so interpolated
label vectors are first-class targets. Each batch is one fused step
(:func:`_step`): targets are weighted per row once per run, and a batch
takes one ``exp`` of its max-shifted logits for both the loss and the
gradient; :func:`gradient_check` checks that same step. The tagger
predicts through a projected table: a corpus is laid out once as the
table row at each window offset of every token (:func:`_window_rows`),
each offset's block of weights is applied to the table once, and a
token's logits are the bias plus one projected row per offset, summed a
block of tokens at a time (:func:`_predict_ids`). Validation and sweep
cells score through :func:`_score`, on a corpus laid out once by
:func:`_test_side`. Everything is
float64 numpy and deterministic under a seed. Training refuses malformed
examples by the rule augmented files are saved and loaded under
(``mixer._shape_problem``); checkpoints and loss traces live in
:mod:`segmix.serialization`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .corpus import RECorpus, TaggedCorpus
from .evaluation import _gold_side, _span_counts, _streams, re_scores
from .mixer import EmbeddingTable, MixedExample, MixedRESample, _blocks
from .rng import derive_rng


class TrainingDivergedError(RuntimeError):
    pass


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


def _pool(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``[mean(e1 rows); mean(e2 rows); 1]`` per sample, from every sample's
    e1 rows then e2 rows laid end to end, ``lengths`` rows per span.

    The spans of one length n are gathered into one (spans, n, dim) array
    and summed along its middle axis: the order in which
    ``rows[s:e].mean(axis=0)`` sums C-contiguous rows (row by row, or
    pairwise for a single column), so each mean is bit-identical to it.
    """
    means = np.empty((len(lengths), rows.shape[1]))
    first = np.cumsum(lengths) - lengths
    for n in np.unique(lengths).tolist():
        which = np.flatnonzero(lengths == n)
        means[which] = rows[first[which, None] + np.arange(n)].sum(axis=1) / n
    pairs = means.reshape(len(lengths) // 2, -1)
    return np.concatenate([pairs, np.ones((len(pairs), 1))], axis=1)


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
        rows = np.concatenate([embeddings[e1.start : e1.end], embeddings[e2.start : e2.end]],
                              dtype=np.float64)
        return _pool(rows, np.array([len(e1), len(e2)]))[0]

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
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"train config epochs must be 0 or more, got {self.epochs}")
        for name in ("learning_rate", "batch_size", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"train config {name} must be positive, got {getattr(self, name)}")


@dataclass
class TrainResult:
    model: object
    loss_trace: list[float] = field(default_factory=list)
    val_scores: list[float] = field(default_factory=list)
    best_epoch: int = -1


# features and row-weighted targets of a run, and the rows of an epoch's order
_Layout = tuple[np.ndarray, np.ndarray, Callable]


def _tagger_rows(model: TaggerModel, blocks: list) -> _Layout:
    """Lay the examples of ``blocks`` out once for the whole run: their
    window features (built from the examples joined ``window`` zero rows
    apart, which are then freed) and targets weighted by
    ``1/len(example)``, one row per token with no gap rows. Also returns
    the rows of an epoch: for an order of the examples, their rows in that
    order and the bounds between examples (``bounds[i]`` rows come before
    example ``order[i]``)."""
    lengths = np.concatenate([np.diff(b.bounds) for b in blocks])
    starts, total = _joined(lengths, model.window)
    rows = _ranges(starts, lengths)
    flat = np.zeros((total, model.dim))
    for block, lo in zip(blocks, accumulate([0] + [b.bounds[-1] for b in blocks])):
        flat[rows[lo : lo + block.bounds[-1]]] = block.embeddings
    feats = _windows(flat, rows, model.window)
    del flat
    weighted = np.concatenate([b.labels for b in blocks], dtype=np.float64)
    weighted *= np.repeat(1.0 / lengths, lengths)[:, None]
    first = np.cumsum(lengths) - lengths

    def epoch_rows(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _ranges(first[order], lengths[order]), np.append(0, np.cumsum(lengths[order]))

    return feats, weighted, epoch_rows


# Samples pooled at a time: their span rows are copied out, so peak memory grows with it.
_POOL_BLOCK = 128


def _re_rows(model: REModel, blocks: list) -> _Layout:
    """Pool every example's spans once, copying out only the span rows of
    :data:`_POOL_BLOCK` examples at a time; one row per example, weight 1."""
    weighted = np.concatenate([b.labels for b in blocks], dtype=np.float64)
    feats = np.empty((len(weighted), 2 * model.dim + 1))
    lo = 0
    for block in blocks:
        spans = block.pairs + np.array(block.bounds[:-1])[:, None, None]  # rows of the block
        for part in np.split(spans, range(_POOL_BLOCK, len(spans), _POOL_BLOCK)):
            lengths = (part[:, :, 1] - part[:, :, 0]).ravel()
            rows = block.embeddings[_ranges(part[:, :, 0].ravel(), lengths)]
            feats[lo : lo + len(part)] = _pool(rows.astype(np.float64, copy=False), lengths)
            lo += len(part)
    return feats, weighted, lambda order: (order, np.arange(len(order) + 1))


def _layout(model, examples: Sequence) -> _Layout:
    """The run layout of ``examples`` for ``model``'s task, once the
    examples fit the model (``mixer._blocks``)."""
    relation = isinstance(model, REModel)
    blocks = _blocks(examples, relation, model.dim, len(model.labels), "training example")
    return (_re_rows if relation else _tagger_rows)(model, [b for _, _, b in blocks])


def _step(weights: np.ndarray, feats: np.ndarray, tw: np.ndarray, sw: np.ndarray,
          scale: float) -> float:
    """One fused SGD step on soft cross-entropy, in place; returns the loss.

    ``tw`` are row-weighted targets and ``sw`` their row sums. With ``s``
    the logits less their row max and ``z`` the row sums of ``exp(s)``,
    the loss is ``sw . log z - tw . s`` and its gradient with respect to
    the logits is ``exp(s) * sw / z - tw`` (softmax times the target mass,
    less the target), so targets need not sum to one. The weights move by
    ``scale`` times the weight gradient: one ``exp`` and two matmuls.
    """
    logits = feats @ weights
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    z = e.sum(axis=1)
    loss = sw @ np.log(z) - np.vdot(tw, logits)
    e *= (sw / z)[:, None]
    e -= tw
    weights -= scale * (feats.T @ e)
    return float(loss)


def _train(
    model,
    examples: Sequence,
    config: TrainConfig,
    score_fn: Callable | None,
) -> TrainResult:
    """Mini-batch SGD with optional early stopping on a validation score.

    Before epoch 0 the examples are checked and :func:`_layout` lays out
    their features and row-weighted targets once for the run; the
    targets' row sums are taken once too. Each epoch takes the rows of
    its order once; each batch is then one gather of a slice of those rows
    and one :func:`_step` scaled by ``learning_rate`` over the number of
    examples in the batch.
    """
    if not examples:
        raise ValueError("empty training set")
    feats_all, tw_all, epoch_rows = _layout(model, examples)
    sw_all = tw_all.sum(axis=1)
    rng = derive_rng(config.seed, "train-shuffle")
    trace: list[float] = []
    scores: list[float] = []
    best, best_score, best_epoch = model, -np.inf, -1
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        rows, bounds = epoch_rows(order)
        edges = [*range(0, len(order), config.batch_size), len(order)]
        cuts = bounds[edges].tolist()
        total = 0.0
        try:
            for count, lo, hi in zip(np.diff(edges).tolist(), cuts, cuts[1:]):
                r = rows[lo:hi]
                total += _step(model.weights, feats_all.take(r, 0), tw_all.take(r, 0),
                               sw_all.take(r), config.learning_rate / count)
        except FloatingPointError:
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}") from None
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
        elif epoch - best_epoch >= config.patience:
            break
    if best_epoch < 0:
        best_epoch = len(trace) - 1
    return TrainResult(best, trace, scores, best_epoch)


def _validation(model, val_corpus, table: EmbeddingTable | None) -> Callable | None:
    """The per-epoch :func:`_score` of a model on ``val_corpus``, laid out
    once for the run, or None without a validation corpus."""
    if val_corpus is None:
        return None
    if table is None:
        raise ValueError("validation needs the embedding table")
    if not len(val_corpus):
        raise ValueError("validation corpus is empty")
    side = _test_side(table, val_corpus, getattr(model, "window", 0))
    return lambda m: _score(m, table, side)


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
    return _train(model, examples, config, _validation(model, val_corpus, table))


def train_re(
    model: REModel,
    examples: Sequence[MixedRESample],
    config: TrainConfig,
    val_corpus: RECorpus | None = None,
    table: EmbeddingTable | None = None,
) -> TrainResult:
    """Train the relation classifier; early stopping tracks accuracy."""
    return _train(model, examples, config, _validation(model, val_corpus, table))


# Samples per relation prediction block: enough to amortise the per-block calls.
_PREDICT_BLOCK = 64
# Tokens per tagger prediction block: a block's logits are held whole, so peak memory grows
# with it.
_TOKEN_BLOCK = 1024


def _window_rows(table: EmbeddingTable, corpus: TaggedCorpus, window: int) -> np.ndarray:
    """The corpus laid out for prediction: row k holds, for every token end
    to end, the table row of the token at offset ``k - window`` from it, or
    -1 where that offset falls outside its sentence. One table lookup."""
    lengths = np.fromiter(map(len, corpus.sentences), np.int64, len(corpus.sentences))
    rows = table.rows([t for s in corpus.sentences for t in s.tokens])
    n, first = len(rows), np.cumsum(lengths) - lengths
    out = np.full((2 * window + 1, n), -1, np.int64)
    for k, offset in enumerate(range(-window, window + 1)):
        if abs(offset) < n:
            out[k, max(-offset, 0) : n - max(offset, 0)] = rows[max(offset, 0) : n + min(offset, 0)]
        edge = np.minimum(abs(offset), lengths)  # a sentence's tokens whose offset leaves it
        out[k, _ranges(first if offset < 0 else first + lengths - edge, edge)] = -1
    return out


def _predict_ids(model: TaggerModel, table: EmbeddingTable, rows: np.ndarray) -> np.ndarray:
    """The argmax label id of every token laid out by :func:`_window_rows`.

    A linear window tagger's logits are its bias plus, per offset, that
    offset's block of weights applied to the row there. So each block is
    applied to the whole table once (with a zero row last, which -1 reads),
    and a token's logits are the bias plus one projected row per offset,
    summed a fixed number of tokens at a time.
    """
    _require_dim(model, table.dim)
    if len(rows) != 2 * model.window + 1:
        raise ValueError(f"rows laid out for window {(len(rows) - 1) // 2}, "
                         f"not the model's {model.window}")
    dim = model.dim
    projected = np.zeros((len(rows), len(table.vectors) + 1, len(model.labels)))
    for k, block in enumerate(projected):
        np.matmul(table.vectors, model.weights[k * dim : (k + 1) * dim], out=block[:-1])
    bias = model.weights[-1]
    ids = np.empty(rows.shape[1], np.int64)
    for lo in range(0, len(ids), _TOKEN_BLOCK):
        at = rows[:, lo : lo + _TOKEN_BLOCK]
        logits = projected[0].take(at[0], axis=0)
        logits += bias
        for block, where in zip(projected[1:], at[1:]):
            logits += block.take(where, axis=0)
        ids[lo : lo + _TOKEN_BLOCK] = logits.argmax(axis=1)
    return ids


def predict_tagger(
    model: TaggerModel, table: EmbeddingTable, corpus: TaggedCorpus
) -> list[list[str]]:
    """Predicted label strings per sentence (argmax, no repair)."""
    ids = _predict_ids(model, table, _window_rows(table, corpus, model.window))
    names = list(map(model.labels.__getitem__, ids.tolist()))
    ends = np.cumsum([len(s.tokens) for s in corpus.sentences], dtype=np.int64).tolist()
    return [names[end - len(s.tokens) : end] for end, s in zip(ends, corpus.sentences)]


def _test_side(table: EmbeddingTable, corpus, window: int):
    """A test corpus laid out once for :func:`_score`: a relation corpus as
    it is, a tagging corpus as its :func:`_window_rows` and gold side."""
    if isinstance(corpus, RECorpus):
        return corpus
    return _window_rows(table, corpus, window), _gold_side(corpus)


def _score(model, table: EmbeddingTable, side) -> float:
    """A tagger's entity F1, or a relation model's accuracy, on a :func:`_test_side`."""
    if isinstance(model, REModel):
        return re_scores(side, predict_re(model, table, side)).accuracy
    rows, gold = side
    return _span_counts(*_streams(gold, _predict_ids(model, table, rows), model.labels))[0].f1


def predict_re(model: REModel, table: EmbeddingTable, corpus: RECorpus) -> list[str]:
    """Predicted relation per sample, in blocks of one lookup of the span
    tokens and one matmul."""
    _require_dim(model, table.dim)
    out = []
    for lo in range(0, len(corpus), _PREDICT_BLOCK):
        block = corpus.samples[lo : lo + _PREDICT_BLOCK]
        spans = [s.tokens[span.start : span.end] for s in block for span in (s.e1, s.e2)]
        rows = table.vectors[table.rows([t for tokens in spans for t in tokens])]
        feats = _pool(rows, np.array([len(tokens) for tokens in spans]))
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
    """Max relative error between the trainer's step and central differences.

    The example is laid out as a one-example run, as :func:`_train` lays
    out its examples. The analytic gradient is what one :func:`_step` at
    learning rate 1 subtracts from (a copy of) the weights; the central
    differences are of the loss that the same step returns. The model is
    left unchanged. The denominator is floored so near-zero gradients are
    compared on an absolute scale.
    """
    _require_dim(model, example.embeddings.shape[1])
    feats, tw, _ = _layout(model, [example])
    sw = tw.sum(axis=1)

    moved = model.weights.copy()
    _step(moved, feats, tw, sw, 1.0)
    analytic = model.weights - moved

    def loss_at(flat: int, delta: float) -> float:
        weights = model.weights.copy()
        weights.flat[flat] += delta
        return _step(weights, feats, tw, sw, 0.0)

    rng = derive_rng(seed, "gradcheck")
    flat_idx = rng.choice(model.weights.size, size=min(n_checks, model.weights.size), replace=False)
    worst = 0.0
    for flat in flat_idx.tolist():
        fd = (loss_at(flat, step) - loss_at(flat, -step)) / (2 * step)
        err = abs(fd - analytic.flat[flat]) / max(abs(fd), abs(analytic.flat[flat]), floor)
        worst = max(worst, err)
    return worst
