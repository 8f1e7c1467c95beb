"""Soft-target losses, SGD training, gradient checks, and checkpoints."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.corpus import RECorpus, RESample, Sentence, Span, TaggedCorpus
from segmix.mixer import (
    EmbeddingTable,
    MixedExample,
    MixedRESample,
    Provenance,
    encode_corpus,
    encode_re_corpus,
)
from segmix.model import (
    REModel,
    TaggerModel,
    TrainConfig,
    TrainingDivergedError,
    _re_loss_grad,
    _tagger_loss_grad,
    _tagger_rows,
    _train,
    gradient_check,
    log_softmax,
    predict_re,
    predict_tagger,
    soft_cross_entropy,
    train_re,
    train_tagger,
)
from segmix.rng import derive_rng
from segmix.serialization import load_checkpoint, save_checkpoint, write_loss_trace


# ---------------------------------------------------------------- losses

def test_log_softmax_hand_and_stability():
    got = log_softmax(np.array([0.0, 0.0]))
    assert np.allclose(got, np.log([0.5, 0.5]))
    big = log_softmax(np.array([1e4, 0.0, -1e4]))
    assert np.isfinite(big).all()
    assert np.isclose(np.exp(big).sum(), 1.0)


def test_soft_cross_entropy_hand_value():
    assert np.isclose(
        soft_cross_entropy(np.array([0.0, 0.0]), np.array([1.0, 0.0])), np.log(2)
    )
    # matrix input averages rows
    logits = np.array([[0.0, 0.0], [np.log(3), 0.0]])
    target = np.array([[1.0, 0.0], [1.0, 0.0]])
    want = (np.log(2) + np.log(4 / 3)) / 2
    assert np.isclose(soft_cross_entropy(logits, target), want)


def test_soft_cross_entropy_entropy_identity():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal(6)
    p = np.exp(log_softmax(logits))
    entropy = -(p * np.log(p)).sum()
    assert np.isclose(soft_cross_entropy(logits, p), entropy)


def test_soft_cross_entropy_linear_in_target():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(5)
    t1 = np.eye(5)[0]
    t2 = np.eye(5)[3]
    lam = 0.3
    blended = soft_cross_entropy(logits, lam * t1 + (1 - lam) * t2)
    parts = lam * soft_cross_entropy(logits, t1) + (1 - lam) * soft_cross_entropy(logits, t2)
    assert np.isclose(blended, parts)


def test_soft_cross_entropy_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        soft_cross_entropy(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        soft_cross_entropy(np.array([np.inf, 0.0]), np.array([1.0, 0.0]))


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
    for bad in (
        dict(epochs=-1),
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(patience=0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


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
        model, examples, TrainConfig(epochs=10, patience=2), _tagger_rows, score_fn
    )
    assert result.best_epoch == 1
    assert result.val_scores == [0.1, 0.9, 0.5, 0.4]
    assert len(result.loss_trace) == 4  # stopped early, not all 10 epochs
    assert np.array_equal(result.model.weights, snapshots[1])


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
