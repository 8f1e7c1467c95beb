"""Desk-scale soft-label classifiers over embedding matrices.

The tagger is a linear map over a sliding context window of embedding
rows (zero rows past sentence boundaries); the relation classifier is a
linear map over the concatenated mean-pooled nominal span embeddings.
Both train with mini-batch SGD on soft cross-entropy, so interpolated
label vectors are first-class targets. Everything is float64 numpy and
deterministic under a seed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import RECorpus, TaggedCorpus
from .mixer import EmbeddingTable, MixedExample, MixedRESample
from .rng import derive_rng


class TrainingDivergedError(RuntimeError):
    pass


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    per_row = -(target * log_softmax(logits)).sum(axis=-1)
    return float(per_row.mean())


def _window_features(embeddings: np.ndarray, window: int) -> np.ndarray:
    """Concatenate rows t-w..t+w per position, zero rows past boundaries,
    plus a trailing bias column."""
    n, dim = embeddings.shape
    pieces = []
    for offset in range(-window, window + 1):
        shifted = np.zeros((n, dim))
        if offset < 0:
            shifted[-offset:] = embeddings[:n + offset]
        elif offset > 0:
            shifted[: n - offset] = embeddings[offset:]
        else:
            shifted = embeddings
        pieces.append(shifted)
    pieces.append(np.ones((n, 1)))
    return np.concatenate(pieces, axis=1)


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
        if embeddings.shape[1] != self.dim:
            raise ValueError(f"embedding dim {embeddings.shape[1]} != model dim {self.dim}")
        return _window_features(embeddings, self.window)

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
        if embeddings.shape[1] != self.dim:
            raise ValueError(f"embedding dim {embeddings.shape[1]} != model dim {self.dim}")
        pooled1 = embeddings[e1.start : e1.end].mean(axis=0)
        pooled2 = embeddings[e2.start : e2.end].mean(axis=0)
        return np.concatenate([pooled1, pooled2, [1.0]])

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
    feats = model.features(example.embeddings)
    logits = feats @ model.weights
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    target = example.soft_labels
    log_probs = log_softmax(logits)
    loss = float(-(target * log_probs).sum(axis=1).mean())
    probs = np.exp(log_probs)
    # dL/dlogits = softmax * sum(target) - target, averaged over positions
    dlogits = (probs * target.sum(axis=1, keepdims=True) - target) / len(target)
    return loss, feats.T @ dlogits


def _re_loss_grad(model: REModel, example) -> tuple[float, np.ndarray]:
    feats = model.features(example.embeddings, example.e1, example.e2)
    logits = feats @ model.weights
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits")
    target = example.soft_relation
    log_probs = log_softmax(logits)
    loss = float(-(target * log_probs).sum())
    probs = np.exp(log_probs)
    dlogits = probs * target.sum() - target
    return loss, np.outer(feats, dlogits)


def _train(
    model,
    examples: Sequence,
    config: TrainConfig,
    loss_grad: Callable,
    score_fn: Callable | None,
) -> TrainResult:
    """Mini-batch SGD with optional early stopping on a validation score."""
    if not examples:
        raise ValueError("empty training set")
    rng = derive_rng(config.seed, "train-shuffle")
    trace: list[float] = []
    scores: list[float] = []
    best = model.copy()
    best_score = -np.inf
    best_epoch = -1
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = np.zeros_like(model.weights)
            for i in batch:
                try:
                    loss, g = loss_grad(model, examples[i])
                except FloatingPointError:
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}") from None
                grad += g
                total += loss
            model.weights -= config.learning_rate * grad / len(batch)
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
        from .evaluation import entity_f1

        def score_fn(m, _corpus=val_corpus, _table=table):
            pred = predict_tagger(m, _table, _corpus)
            return entity_f1(_corpus, pred).f1

    return _train(model, examples, config, _tagger_loss_grad, score_fn)


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

    return _train(model, examples, config, _re_loss_grad, score_fn)


def predict_tagger(
    model: TaggerModel, table: EmbeddingTable, corpus: TaggedCorpus
) -> list[list[str]]:
    """Predicted label strings per sentence (argmax, no repair)."""
    out = []
    for sent in corpus.sentences:
        idx = model.predict(table.embed(sent.tokens))
        out.append([model.labels[i] for i in idx])
    return out


def predict_re(model: REModel, table: EmbeddingTable, corpus: RECorpus) -> list[str]:
    out = []
    for sample in corpus.samples:
        logits = model.forward(table.embed(sample.tokens), sample.e1, sample.e2)
        out.append(model.labels[int(logits.argmax())])
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


# ---------------------------------------------------------------------------
# Checkpoints: magic + version + JSON header + raw little-endian float32.

_MAGIC = b"SGMX"
_CKPT_VERSION = 1


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
        fh.write(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(table.vectors, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[object, EmbeddingTable, dict]:
    """Load (model, table, meta) written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a checkpoint file")
        version, header_len = struct.unpack("<II", fh.read(8))
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(header_len))
        w_shape = tuple(header["weights_shape"])
        t_shape = tuple(header["table_shape"])
        w_bytes = fh.read(4 * int(np.prod(w_shape)))
        t_bytes = fh.read(4 * int(np.prod(t_shape)))
    weights = np.frombuffer(w_bytes, dtype="<f4").reshape(w_shape).astype(np.float64)
    vectors = np.frombuffer(t_bytes, dtype="<f4").reshape(t_shape).astype(np.float64)
    table = EmbeddingTable(header["table_tokens"], vectors, header["table_buckets"])
    labels = tuple(header["labels"])
    if header["kind"] == "tagger":
        model: object = TaggerModel(labels, header["window"], header["dim"], weights)
    else:
        model = REModel(labels, header["dim"], weights)
    return model, table, header.get("meta", {})


def write_loss_trace(path, result: TrainResult) -> None:
    """Per-epoch training loss (and validation score, when present) as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_score"])
        for epoch, loss in enumerate(result.loss_trace):
            score = result.val_scores[epoch] if epoch < len(result.val_scores) else ""
            writer.writerow([epoch, f"{loss:.8f}", f"{score:.6f}" if score != "" else ""])
