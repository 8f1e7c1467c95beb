"""Soft-target losses, SGD training, gradient checks, and checkpoints."""

import hashlib
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segmix.corpus import RECorpus, RESample, Sentence, Span, TaggedCorpus
from segmix.evaluation import re_scores, tagging_report
from segmix.mixer import (
    _BLOCK,
    EmbeddingTable,
    MixConfig,
    MixedExample,
    MixedRESample,
    Provenance,
    encode_corpus,
    encode_re_corpus,
    segmix_generate,
)
from segmix.model import (
    REModel,
    TaggerModel,
    TrainConfig,
    TrainingDivergedError,
    _POOL_BLOCK,
    _TOKEN_BLOCK,
    _layout,
    _predict_ids,
    _score,
    _step,
    _test_side,
    _train,
    _window_rows,
    gradient_check,
    predict_re,
    predict_tagger,
    train_re,
    train_tagger,
)
from segmix.rng import derive_rng
from segmix.serialization import load_checkpoint, save_checkpoint, write_loss_trace
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import log_softmax


# ---------------------------------------------------------------- losses

def test_log_softmax_hand_and_stability():
    got = log_softmax(np.array([0.0, 0.0]))
    assert np.allclose(got, np.log([0.5, 0.5]))
    big = log_softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(big).all()
    assert np.isclose(np.exp(big).sum(), 1.0)


def _step_loss(logits, target):
    """The soft cross-entropy of one fused step at scale 0 through identity
    weights, summed over the rows of ``logits`` against ``target``."""
    logits, target = np.atleast_2d(np.asarray(logits, float), np.asarray(target, float))
    return _step(np.eye(logits.shape[1]), logits, target, target.sum(axis=1), 0.0)


def test_step_loss_hand_value():
    assert np.isclose(_step_loss([0.0, 0.0], [1.0, 0.0]), np.log(2))
    # a matrix sums its rows; the mean over them is the hand value
    logits = np.array([[0.0, 0.0], [np.log(3), 0.0]])
    target = np.array([[1.0, 0.0], [1.0, 0.0]])
    want = (np.log(2) + np.log(4 / 3)) / 2
    assert np.isclose(_step_loss(logits, target) / len(logits), want)
    assert np.isclose(-(target * log_softmax(logits)).sum() / len(logits), want)


def test_step_loss_entropy_identity():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal(6)
    p = np.exp(log_softmax(logits))
    entropy = -(p * np.log(p)).sum()
    assert np.isclose(_step_loss(logits, p), entropy)


def test_step_loss_linear_in_target():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(5)
    t1 = np.eye(5)[0]
    t2 = np.eye(5)[3]
    lam = 0.3
    blended = _step_loss(logits, lam * t1 + (1 - lam) * t2)
    parts = lam * _step_loss(logits, t1) + (1 - lam) * _step_loss(logits, t2)
    assert np.isclose(blended, parts)
    assert np.isclose(blended, -(lam * t1 + (1 - lam) * t2) @ log_softmax(logits))


# ---------------------------------------------------------------- models

def test_window_features_hand_check():
    e = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    model = TaggerModel.init(["A", "B"], dim=2, window=1)
    feats = model.features(e)
    assert feats.shape == (3, 7)
    assert np.array_equal(feats[0], [0, 0, 1, 2, 3, 4, 1])
    assert np.array_equal(feats[1], [1, 2, 3, 4, 5, 6, 1])
    assert np.array_equal(feats[2], [3, 4, 5, 6, 0, 0, 1])


def test_tagger_shapes_and_validation():
    model = TaggerModel.init(["A", "B", "C"], dim=4, window=2, seed=1)
    assert model.weights.shape == (5 * 4 + 1, 3)
    logits = model.forward(np.zeros((6, 4)))
    assert logits.shape == (6, 3)
    assert model.predict(np.zeros((6, 4))).shape == (6,)
    with pytest.raises(ValueError, match="model dim"):
        model.forward(np.zeros((6, 5)))
    clone = model.copy()
    clone.weights[0, 0] += 1.0
    assert model.weights[0, 0] != clone.weights[0, 0]


def test_re_model_features_pool_spans():
    model = REModel.init(["R1", "R2"], dim=2, seed=0)
    e = np.array([[2.0, 0.0], [4.0, 2.0], [9.0, 9.0], [1.0, 5.0]])
    feats = model.features(e, Span(0, 2), Span(3, 4))
    assert np.array_equal(feats, [3.0, 1.0, 1.0, 5.0, 1.0])
    assert model.forward(e, Span(0, 2), Span(3, 4)).shape == (2,)
    with pytest.raises(ValueError, match="model dim"):
        model.features(np.zeros((4, 3)), Span(0, 1), Span(2, 3))


def test_train_config_validation():
    TrainConfig(epochs=0)
    for bad, message in (
        (dict(epochs=-1), "epochs must be 0 or more, got -1"),
        (dict(learning_rate=0.0), "learning_rate must be positive, got 0.0"),
        (dict(batch_size=0), "batch_size must be positive, got 0"),
        (dict(patience=0), "patience must be positive, got 0"),
    ):
        with pytest.raises(ValueError) as exc:
            TrainConfig(**bad)
        assert str(exc.value) == f"train config {message}"


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_train_config_rejects_non_finite_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=rate)


# ---------------------------------------------------------------- training

def toy_tagging_setup(n=40, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n):
        tokens, labels = [], []
        for _ in range(3):
            if rng.random() < 0.5:
                tokens.append(f"x{rng.integers(4)}")
                labels.append("B-X")
            else:
                tokens.append(f"o{rng.integers(4)}")
                labels.append("O")
        sentences.append(Sentence(tuple(tokens), tuple(labels)))
    corpus = TaggedCorpus.from_sentences(sentences)
    table = EmbeddingTable.random(corpus.token_vocab, dim, seed=7)
    return corpus, table


def test_training_fits_separable_tagging_task():
    corpus, table = toy_tagging_setup()
    examples = encode_corpus(corpus, table)
    model = TaggerModel.init(corpus.label_vocab, table.dim, window=1, seed=0)
    result = train_tagger(model, examples, TrainConfig(epochs=30, learning_rate=0.5))
    assert result.loss_trace[-1] < result.loss_trace[0]
    pred = predict_tagger(result.model, table, corpus)
    assert [tuple(p) for p in pred] == [s.labels for s in corpus.sentences]


def test_training_deterministic_per_seed():
    corpus, table = toy_tagging_setup(n=12)
    examples = encode_corpus(corpus, table)

    def run(seed):
        model = TaggerModel.init(corpus.label_vocab, table.dim, seed=3)
        return train_tagger(
            model, examples, TrainConfig(epochs=5, seed=seed)
        ).model.weights

    assert np.array_equal(run(1), run(1))
    assert not np.array_equal(run(1), run(2))


def test_training_diverged_error_names_epoch():
    corpus, table = toy_tagging_setup(n=6)
    examples = encode_corpus(corpus, table)
    model = TaggerModel.init(corpus.label_vocab, table.dim, seed=0)
    model.weights[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 0"):
            train_tagger(model, examples, TrainConfig(epochs=3))


def test_a_nan_soft_label_stops_training_at_its_epoch():
    # _step checks the logits only, so the NaN first shows in the epoch's mean loss
    corpus, table = toy_tagging_setup(n=6)
    examples = encode_corpus(corpus, table)
    examples[2].soft_labels[0, 0] = np.nan
    model = TaggerModel.init(corpus.label_vocab, table.dim, seed=0)
    with pytest.raises(TrainingDivergedError, match="^non-finite loss at epoch 0$"):
        train_tagger(model, examples, TrainConfig(epochs=3, batch_size=len(examples)))


def test_empty_training_set_rejected():
    model = TaggerModel.init(["O"], dim=4)
    with pytest.raises(ValueError, match="empty training set"):
        train_tagger(model, [], TrainConfig(epochs=1))


def test_zero_epochs_is_a_no_op():
    corpus, table = toy_tagging_setup(n=4)
    examples = encode_corpus(corpus, table)
    model = TaggerModel.init(corpus.label_vocab, table.dim, seed=5)
    before = model.weights.copy()
    result = train_tagger(model, examples, TrainConfig(epochs=0))
    assert np.array_equal(result.model.weights, before)
    assert result.loss_trace == []


def test_early_stopping_returns_best_checkpoint():
    corpus, table = toy_tagging_setup(n=8)
    examples = encode_corpus(corpus, table)
    model = TaggerModel.init(corpus.label_vocab, table.dim, seed=0)
    planned = iter([0.1, 0.9, 0.5, 0.4, 0.3])
    snapshots = []

    def score_fn(m):
        snapshots.append(m.weights.copy())
        return next(planned)

    result = _train(
        model, examples, TrainConfig(epochs=10, patience=2), score_fn
    )
    assert result.best_epoch == 1
    assert result.val_scores == [0.1, 0.9, 0.5, 0.4]
    assert len(result.loss_trace) == 4  # stopped early, not all 10 epochs
    assert np.array_equal(result.model.weights, snapshots[1])


def _stale_counter_stop(scores, patience, epochs):
    """Early stopping kept as an explicit count of epochs without a gain:
    (epochs run, best epoch), the best epoch -1 when no score improved."""
    best_score, best_epoch, stale = -np.inf, -1, 0
    for epoch in range(epochs):
        if scores[epoch] > best_score:
            best_score, best_epoch, stale = scores[epoch], epoch, 0
        else:
            stale += 1
            if stale >= patience:
                return epoch + 1, best_epoch
    return epochs, best_epoch


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([np.nan, -np.inf, np.inf, 0.0, 0.5, 1.0]), min_size=8,
                max_size=8),
       st.integers(1, 4), st.integers(0, 8))
def test_early_stopping_matches_a_stale_counter(scores, patience, epochs):
    corpus, table = toy_tagging_setup(n=4)
    model = TaggerModel.init(corpus.label_vocab, table.dim, seed=0)
    snapshots = [model.weights.copy()]  # the weights before epoch 0, then after each epoch
    replay = iter(scores)

    def score_fn(m):
        snapshots.append(m.weights.copy())
        return next(replay)

    result = _train(model, encode_corpus(corpus, table),
                    TrainConfig(epochs=epochs, patience=patience), score_fn)
    ran, best = _stale_counter_stop(scores, patience, epochs)
    assert len(result.loss_trace) == ran
    assert np.array_equal(result.val_scores, scores[:ran], equal_nan=True)
    assert result.best_epoch == (best if best >= 0 else ran - 1)
    assert np.array_equal(result.model.weights, snapshots[best + 1 if best >= 0 else -1])


def test_validation_requires_table():
    corpus, table = toy_tagging_setup(n=4)
    examples = encode_corpus(corpus, table)
    model = TaggerModel.init(corpus.label_vocab, table.dim)
    with pytest.raises(ValueError, match="needs the embedding table"):
        train_tagger(model, examples, TrainConfig(epochs=1), val_corpus=corpus)


def toy_re_setup(n=24, dim=8):
    rng = np.random.default_rng(2)
    samples = []
    for _ in range(n):
        head = "p" if rng.random() < 0.5 else "q"
        rel = "R1" if head == "p" else "R2"
        samples.append(
            RESample((head, "joins", "team"), Span(0, 1), Span(2, 3), rel)
        )
    corpus = RECorpus.from_samples(samples)
    table = EmbeddingTable.random(("p", "q", "joins", "team"), dim, seed=1)
    return corpus, table


def test_training_fits_separable_re_task():
    corpus, table = toy_re_setup()
    examples = encode_re_corpus(corpus, table)
    model = REModel.init(corpus.relation_vocab, table.dim, seed=0)
    result = train_re(model, examples, TrainConfig(epochs=25, learning_rate=0.5))
    pred = predict_re(result.model, table, corpus)
    assert pred == [s.relation for s in corpus.samples]


def test_train_re_with_validation_tracks_accuracy():
    corpus, table = toy_re_setup(n=12)
    examples = encode_re_corpus(corpus, table)
    model = REModel.init(corpus.relation_vocab, table.dim, seed=0)
    result = train_re(
        model, examples, TrainConfig(epochs=8, learning_rate=0.5),
        val_corpus=corpus, table=table,
    )
    assert result.val_scores
    assert all(0.0 <= s <= 1.0 for s in result.val_scores)
    assert result.best_epoch >= 0


@pytest.mark.parametrize("task", ["ner", "re"])
def test_an_empty_validation_corpus_is_refused(task):
    if task == "ner":
        corpus, table = toy_tagging_setup(n=4)
        model, train = TaggerModel.init(corpus.label_vocab, table.dim), train_tagger
        examples, empty = encode_corpus(corpus, table), TaggedCorpus.from_sentences([])
    else:
        corpus, table = toy_re_setup(n=4)
        model, train = REModel.init(corpus.relation_vocab, table.dim), train_re
        examples, empty = encode_re_corpus(corpus, table), RECorpus.from_samples([])
    with pytest.raises(ValueError, match="^validation corpus is empty$"):
        train(model, examples, TrainConfig(epochs=3), val_corpus=empty, table=table)


def test_score_is_the_report_f1_of_a_tagger_and_the_accuracy_of_a_relation_model():
    corpus, test = synth_tagged_corpus(40, seed=4), synth_tagged_corpus(30, seed=5)
    table = EmbeddingTable.random(corpus.token_vocab, 16, seed=2)  # test-only tokens hash
    model = train_tagger(TaggerModel.init(corpus.label_vocab, 16, window=2, seed=1),
                         encode_corpus(corpus, table), TrainConfig(epochs=8, learning_rate=0.5)).model
    f1 = tagging_report(test, predict_tagger(model, table, test)).summary["f1"]
    assert 0.0 < f1 < 1.0
    assert _score(model, table, _test_side(table, test, model.window)) == f1

    corpus, test = synth_re_corpus(40, seed=4), synth_re_corpus(30, seed=5)
    table = EmbeddingTable.random(corpus.token_vocab, 16, seed=2)
    model = train_re(REModel.init(corpus.relation_vocab, 16, seed=1),
                     encode_re_corpus(corpus, table), TrainConfig(epochs=8, learning_rate=0.5)).model
    accuracy = re_scores(test, predict_re(model, table, test)).accuracy
    assert 0.0 < accuracy < 1.0
    assert _score(model, table, _test_side(table, test, 0)) == accuracy


_BREAKS = {
    "ner embedding width": lambda e: replace(e, embeddings=e.embeddings[:, :-1]),
    "ner label width": lambda e: replace(e, soft_labels=e.soft_labels[:, :-1]),
    "ner no tokens": lambda e: replace(e, embeddings=e.embeddings[:0], soft_labels=e.soft_labels[:0]),
    "re embedding width": lambda e: replace(e, embeddings=e.embeddings[:, :-1]),
    "re relation width": lambda e: replace(e, soft_relation=e.soft_relation[:-1]),
    "re span outside": lambda e: replace(e, e2=Span(2, 4)),
}


@pytest.mark.parametrize("name", sorted(_BREAKS))
def test_training_refuses_a_malformed_example_before_epoch_0(name):
    if name.startswith("ner"):
        corpus, table = toy_tagging_setup(n=6)
        examples, fit = encode_corpus(corpus, table), train_tagger
        model = TaggerModel.init(corpus.label_vocab, table.dim, seed=0)
    else:
        corpus, table = toy_re_setup(n=6)
        examples, fit = encode_re_corpus(corpus, table), train_re
        model = REModel.init(corpus.relation_vocab, table.dim, seed=0)
    examples[4] = _BREAKS[name](examples[4])
    before = model.weights.copy()
    with pytest.raises(ValueError, match=r"^training example 4: "):
        fit(model, examples, TrainConfig(epochs=2))
    assert np.array_equal(model.weights, before)


# ------------------------------------------------- batched vs per-example

def _soft_loss(logits, target):
    """Per-row soft cross-entropy and its gradient with respect to the
    logits, softmax * sum(target) - target, from the log-softmax."""
    log_probs = log_softmax(logits)
    dlogits = np.exp(log_probs) * target.sum(axis=-1, keepdims=True) - target
    return -(target * log_probs).sum(axis=-1), dlogits


def _tagger_loss_grad(model, example):
    """Loss and weight gradient of one example, from its own features: the
    per-example reference for the batched trainer."""
    feats = model.features(example.embeddings)
    loss, dlogits = _soft_loss(feats @ model.weights, example.soft_labels)
    return float(loss.mean()), feats.T @ (dlogits / len(example.soft_labels))


def _re_loss_grad(model, example):
    feats = model.features(example.embeddings, example.e1, example.e2)
    loss, dlogits = _soft_loss(feats @ model.weights, example.soft_relation)
    return float(loss), np.outer(feats, dlogits)


def _reference_train(model, examples, config, loss_grad):
    """Mini-batch SGD one example at a time on the per-example oracle."""
    rng = derive_rng(config.seed, "train-shuffle")
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = np.zeros_like(model.weights)
            for i in batch:
                loss, g = loss_grad(model, examples[i])
                grad += g
                total += loss
            model.weights -= config.learning_rate * grad / len(batch)
        trace.append(total / len(examples))
    return model.weights, trace


def _soft_rows(rng, n, n_labels):
    """Interpolated targets: a random blend of two one-hot rows per position."""
    eye = np.eye(n_labels)
    lam = rng.random((n, 1))
    return lam * eye[rng.integers(n_labels, size=n)] + (1 - lam) * eye[rng.integers(n_labels, size=n)]


_training_cases = st.fixed_dictionaries({
    "lengths": st.lists(st.integers(1, 7), min_size=1, max_size=10),
    "window": st.integers(0, 2),
    "dim": st.integers(1, 4),
    "n_labels": st.integers(2, 4),
    "batch_size": st.integers(1, 14),
    "epochs": st.integers(1, 3),
    "seed": st.integers(0, 2**16),
})


def _assert_matches_reference(result, weights, trace):
    assert np.max(np.abs(result.model.weights - weights)) <= 1e-12
    assert len(result.loss_trace) == len(trace)
    assert np.max(np.abs(np.subtract(result.loss_trace, trace))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_training_cases)
def test_batched_tagger_training_matches_per_example_reference(case):
    rng = np.random.default_rng(case["seed"])
    labels = [f"L{i}" for i in range(case["n_labels"])]
    examples = [
        MixedExample(rng.standard_normal((n, case["dim"])), _soft_rows(rng, n, len(labels)),
                     Provenance(i, "mention", 0.5, (), ()))
        for i, n in enumerate(case["lengths"])
    ]
    config = TrainConfig(epochs=case["epochs"], learning_rate=0.5,
                         batch_size=case["batch_size"], seed=case["seed"])
    init = TaggerModel.init(labels, case["dim"], window=case["window"], seed=case["seed"], scale=0.5)
    weights, trace = _reference_train(init.copy(), examples, config, _tagger_loss_grad)
    _assert_matches_reference(train_tagger(init, examples, config), weights, trace)


@settings(max_examples=60, deadline=None)
@given(_training_cases)
def test_batched_re_training_matches_per_example_reference(case):
    rng = np.random.default_rng(case["seed"])
    labels = [f"R{i}" for i in range(case["n_labels"])]
    examples = []
    for i, n in enumerate(case["lengths"]):
        n += 1  # room for two spans
        cut = int(rng.integers(1, n))
        examples.append(MixedRESample(
            rng.standard_normal((n, case["dim"])), _soft_rows(rng, 1, len(labels))[0],
            Span(int(rng.integers(0, cut)), cut), Span(cut, int(rng.integers(cut, n)) + 1),
            Provenance(i, "relation", 0.5, (), ()),
        ))
    config = TrainConfig(epochs=case["epochs"], learning_rate=0.5,
                         batch_size=case["batch_size"], seed=case["seed"])
    init = REModel.init(labels, case["dim"], seed=case["seed"], scale=0.5)
    weights, trace = _reference_train(init.copy(), examples, config, _re_loss_grad)
    _assert_matches_reference(train_re(init, examples, config), weights, trace)


_VOCAB = ("a", "b", "c", "d", "e")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2), st.integers(0, 2**16))
def test_blocked_predict_tagger_matches_per_sentence_predict(n_sentences, window, seed):
    rng = np.random.default_rng(seed)
    words = _VOCAB + ("unseen", "other")  # the last two fall back to hash buckets
    sentences = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, 8))
        tokens = tuple(words[i] for i in rng.integers(len(words), size=n))
        sentences.append(Sentence(tokens, ("O",) * n))
    corpus = TaggedCorpus.from_sentences(sentences)
    table = EmbeddingTable.random(_VOCAB, 3, seed=seed, n_buckets=4)
    model = TaggerModel.init(["O", "B-X", "I-X"], 3, window=window, seed=seed, scale=1.0)
    want = [[model.labels[i] for i in model.predict(table.embed(s.tokens))] for s in sentences]
    assert predict_tagger(model, table, corpus) == want


def _tagger_case(lengths, window, seed):
    """A corpus of sentences of ``lengths`` over words two of which fall to
    hash buckets, its table, and a tagger over it with large weights."""
    rng = np.random.default_rng(seed)
    words = _VOCAB + ("unseen", "other")
    sentences = [Sentence(tuple(words[i] for i in rng.integers(len(words), size=n)), ("O",) * n)
                 for n in lengths]
    table = EmbeddingTable.random(_VOCAB, 3, seed=seed, n_buckets=4)
    model = TaggerModel.init(["O", "B-X", "I-X", "B-Y"], 3, window=window, seed=seed, scale=1.0)
    return TaggedCorpus.from_sentences(sentences), table, model


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 7), max_size=60), st.integers(0, 2), st.integers(1, 40),
       st.integers(0, 2**16))
@example([], 1, 4, 0)  # an empty corpus
@example([1] * 9, 2, 4, 1)  # one-token sentences, each window past both ends
@example([5] * 2000, 1, _TOKEN_BLOCK, 2)  # blocks of the real size, the last one short
def test_projected_ids_equal_the_argmax_of_predict_per_sentence(lengths, window, block, seed):
    corpus, table, model = _tagger_case(lengths, window, seed)
    want = [model.predict(table.embed(s.tokens)) for s in corpus.sentences]
    with mock.patch("segmix.model._TOKEN_BLOCK", block):
        got = _predict_ids(model, table, _window_rows(table, corpus, window))
    assert got.tolist() == np.concatenate([np.zeros(0, np.int64), *want]).tolist()


def test_projected_ids_refuse_rows_laid_out_for_another_window():
    corpus, table, model = _tagger_case([3, 2], 1, 0)
    with pytest.raises(ValueError, match="rows laid out for window 2, not the model's 1"):
        _predict_ids(model, table, _window_rows(table, corpus, 2))


def test_projected_ids_peak_memory_is_the_id_and_layout_arrays():
    corpus, table, _ = _tagger_case([20] * 10_000, 1, 3)
    labels = ["O", *(f"{k}-T{i}" for i in range(6) for k in "BI")]
    model = TaggerModel.init(labels, 3, window=1, seed=3, scale=1.0)
    tracemalloc.start()
    try:
        ids = _predict_ids(model, table, _window_rows(table, corpus, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a token's three window rows and its id, 8 bytes each; a few 8-byte arrays a sentence
    # while the rows are laid out; a block's logits and one gathered block beside them.
    # The whole corpus's logits would add 8 bytes a token and label, 104 here.
    tokens, sentences = len(ids), len(corpus.sentences)
    assert peak <= 32 * tokens + 64 * sentences + 2 * 8 * _TOKEN_BLOCK * (len(labels) + 1), peak


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2**16))
def test_blocked_predict_re_matches_per_sample_forward(n_samples, seed):
    rng = np.random.default_rng(seed)
    words = _VOCAB + ("unseen",)
    samples = []
    for _ in range(n_samples):
        n = int(rng.integers(2, 8))
        tokens = tuple(words[i] for i in rng.integers(len(words), size=n))
        cut = int(rng.integers(1, n))
        samples.append(RESample(tokens, Span(0, cut), Span(cut, n), "R1"))
    corpus = RECorpus.from_samples(samples)
    table = EmbeddingTable.random(_VOCAB, 3, seed=seed, n_buckets=4)
    model = REModel.init(["R1", "R2", "R3"], 3, seed=seed, scale=1.0)
    want = [
        model.labels[int(model.forward(table.embed(s.tokens), s.e1, s.e2).argmax())]
        for s in samples
    ]
    assert predict_re(model, table, corpus) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 2 * _POOL_BLOCK + 100), st.integers(1, 24),
       st.integers(0, 2**32 - 1))
@example(1, _POOL_BLOCK - 1, 24, 0)
@example(2, _POOL_BLOCK, 17, 1)
@example(1, _POOL_BLOCK + 1, 20, 2)
@example(1, _BLOCK + 1, 5, 3)  # two blocks of examples
def test_pooled_features_equal_per_sample_means_bit_for_bit(dim, n_samples, max_rows, seed):
    # the per-span reference the training layout, predict_re and REModel.features pool by
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
        n = int(rng.integers(1, max_rows + 1))
        embeddings = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-30, 30, size=(n, 1))
        embeddings[rng.random(n) < 0.1] = -0.0
        starts = rng.integers(0, n, size=2).tolist()
        samples.append((embeddings, *(Span(a, int(rng.integers(a + 1, n + 1))) for a in starts)))
    want = np.ones((n_samples, 2 * dim + 1))
    for row, (embeddings, e1, e2) in zip(want, samples):
        row[:dim] = embeddings[e1.start : e1.end].mean(axis=0)
        row[dim : 2 * dim] = embeddings[e2.start : e2.end].mean(axis=0)
    prov = Provenance(0, "relation", 0.5, (), ())
    examples = [MixedRESample(emb, np.ones(1), e1, e2, prov) for emb, e1, e2 in samples]
    model = REModel.init(["R"], dim)
    assert _layout(model, examples)[0].tobytes() == want.tobytes()
    assert all(model.features(*sample).tobytes() == row.tobytes()
               for sample, row in zip(samples[:20], want))


# ------------------------------------------------------- bit-exact pins

# sha256 of the trained weights' bytes on fixed synthetic corpora, 60 epochs each.
# They hold the run-level window layout, the whole-array subword table and the
# id-path validation score to the numbers of the per-batch, per-token code they
# replaced; a change here is a change in the trained models.
_WEIGHT_PINS = {
    "table": "f44a0fa1a41403e087ae04fd550987d50ddb3f8b341c07112e970f01b1fe2070",
    "tagger": "186818df5a4ede257dbe1af2535e4691f9c7428e9c9a6e361224f1ad052a6e76",
    "tagger, validated": "02d39873c4b55969a4d8ea1003070fc3e168dce2028d72049b71f8bbf854a75e",
    "re": "cd66dcc60a41fccffe75bfe2d82dc2b88c6c38de6633af39a4afe06b298df841",
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_trained_weights_are_pinned_bit_for_bit():
    train = synth_tagged_corpus(80, seed=5, skew=1.0, inflect=0.3)
    val = synth_tagged_corpus(40, seed=6, inflect=0.3)
    table = EmbeddingTable.subword(
        list(dict.fromkeys([*train.token_vocab, *val.token_vocab])), 16, seed=3)
    mixed = segmix_generate(train, None, table, MixConfig(rate=0.5, alpha=8.0, seed=1))
    examples = encode_corpus(train, table) + mixed.examples
    config = TrainConfig(epochs=60, learning_rate=0.3, batch_size=16, patience=61, seed=4)
    tagger = train_tagger(TaggerModel.init(train.label_vocab, 16, seed=2), examples, config)
    validated = train_tagger(TaggerModel.init(train.label_vocab, 16, window=2, seed=2),
                             examples, replace(config, patience=5), val, table)
    assert (validated.best_epoch, len(validated.loss_trace)) == (5, 11)

    re_train = synth_re_corpus(80, seed=5)
    re_table = EmbeddingTable.subword(re_train.token_vocab, 16, seed=3)
    mixed = segmix_generate(re_train, None, re_table,
                            MixConfig(variant="relation", rate=0.5, alpha=8.0, seed=1))
    re_examples = encode_re_corpus(re_train, re_table) + mixed.examples
    re_model = train_re(REModel.init(re_train.relation_vocab, 16, seed=2), re_examples, config)

    got = {"table": table.vectors, "tagger": tagger.model.weights,
           "tagger, validated": validated.model.weights, "re": re_model.model.weights}
    assert {name: _sha256(a) for name, a in got.items()} == _WEIGHT_PINS


# ---------------------------------------------------------------- gradients

def test_gradient_check_tagger_with_soft_targets():
    rng = np.random.default_rng(0)
    model = TaggerModel.init(["A", "B", "C"], dim=6, window=1, seed=4)
    soft = rng.random((5, 3))
    example = MixedExample(
        rng.standard_normal((5, 6)), soft, Provenance(0, "mention", 0.5, (), ())
    )
    assert gradient_check(model, example) < 1e-4


def test_gradient_check_re_with_soft_targets():
    from segmix.mixer import MixedRESample

    rng = np.random.default_rng(1)
    model = REModel.init(["R1", "R2", "R3"], dim=5, seed=2)
    example = MixedRESample(
        rng.standard_normal((6, 5)),
        np.array([0.6, 0.4, 0.0]),
        Span(0, 2),
        Span(4, 6),
        Provenance(0, "relation", 0.6, (), ()),
    )
    assert gradient_check(model, example) < 1e-4


def _gradient_cases():
    rng = np.random.default_rng(3)
    tagger = TaggerModel.init(["A", "B", "C"], dim=4, window=1, seed=1, scale=0.5)
    yield tagger, MixedExample(rng.standard_normal((4, 4)), rng.random((4, 3)),
                               Provenance(0, "mention", 0.5, (), ()))
    relation = REModel.init(["R1", "R2"], dim=3, seed=1, scale=0.5)
    yield relation, MixedRESample(rng.standard_normal((5, 3)), np.array([0.7, 0.2]),
                                  Span(0, 2), Span(3, 5), Provenance(0, "relation", 0.7, (), ()))


@pytest.mark.parametrize("model,example", list(_gradient_cases()))
def test_gradient_check_checks_the_step_that_trains(monkeypatch, model, example):
    """The analytic gradient is read off the trainer's own step, so a step
    that moves the weights uphill fails the check, and the model is left
    as it was."""
    import segmix.model as model_module

    step = model_module._step
    scales = []

    def spy(weights, feats, tw, sw, scale):
        scales.append(scale)
        return step(weights, feats, tw, sw, scale)

    def uphill(weights, feats, tw, sw, scale):
        return step(weights, feats, tw, sw, -scale)

    before = model.weights.copy()
    monkeypatch.setattr(model_module, "_step", spy)
    assert gradient_check(model, example) < 1e-4
    assert scales[0] == 1.0 and set(scales[1:]) == {0.0}
    fit = train_re if isinstance(model, REModel) else train_tagger
    fit(model.copy(), [example], TrainConfig(epochs=1, learning_rate=0.25))
    assert scales[-1] == 0.25
    monkeypatch.setattr(model_module, "_step", uphill)
    assert gradient_check(model, example) > 1.0
    assert np.array_equal(model.weights, before)


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_tagger(tmp_path):
    model = TaggerModel.init(["A", "B"], dim=4, window=2, seed=9, scale=0.3)
    table = EmbeddingTable.random(["tok1", "tok2"], 4, seed=3, n_buckets=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, table, meta={"task": "ner", "note": 7})
    loaded, loaded_table, meta = load_checkpoint(path)
    assert isinstance(loaded, TaggerModel)
    assert loaded.labels == model.labels
    assert loaded.window == model.window
    assert loaded.dim == model.dim
    # weights survive up to the float32 serialization grid
    assert np.array_equal(
        loaded.weights, model.weights.astype(np.float32).astype(np.float64)
    )
    assert loaded_table.tokens == table.tokens
    assert loaded_table.n_buckets == table.n_buckets
    assert np.array_equal(
        loaded_table.vectors, table.vectors.astype(np.float32).astype(np.float64)
    )
    assert meta == {"task": "ner", "note": 7}


def test_checkpoint_round_trip_re(tmp_path):
    model = REModel.init(["R1", "R2"], dim=3, seed=0)
    table = EmbeddingTable.random(["a"], 3, seed=0, n_buckets=2)
    path = tmp_path / "re.ckpt"
    save_checkpoint(path, model, table)
    loaded, _, meta = load_checkpoint(path)
    assert isinstance(loaded, REModel)
    assert loaded.labels == ("R1", "R2")
    assert meta == {}


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_bytes(b"SGMX" + struct.pack("<II", 99, 2) + b"{}")
    with pytest.raises(ValueError, match="version 99"):
        load_checkpoint(path)


def test_write_loss_trace(tmp_path):
    from segmix.model import TrainResult

    model = TaggerModel.init(["O"], dim=2)
    path = tmp_path / "trace.csv"
    write_loss_trace(path, TrainResult(model, [0.5, 0.25], [0.1], best_epoch=0))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_score"
    assert lines[1] == "0,0.50000000,0.100000"
    assert lines[2] == "1,0.25000000,"
