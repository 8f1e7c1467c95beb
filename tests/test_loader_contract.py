"""Loader contract: for any bytes, a loader returns its object or raises a
one-line ``ValueError``; never another exception, a warning (warnings are
errors in this suite) or an allocation the file's own size does not bound."""

import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.mixer import EmbeddingTable, MixConfig, segmix_generate
from segmix.model import TaggerModel
from segmix.serialization import (
    AugmentedFile, load_augmented, load_checkpoint, save_augmented, save_checkpoint,
)
from segmix.synth import synth_re_corpus, synth_tagged_corpus


def _checkpoint_bytes() -> bytes:
    """A valid dim-4 tagger checkpoint over a 6-sentence synthetic corpus."""
    corpus = synth_tagged_corpus(6, seed=0)
    model = TaggerModel.init(corpus.label_vocab, 4, window=1, seed=0)
    table = EmbeddingTable.random(corpus.token_vocab, 4, seed=0, n_buckets=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, model, table, meta={"task": "ner"})
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()


@st.composite
def _mutated(draw, raw: bytes) -> bytes:
    """``raw`` after one to three mutations: a byte flipped, a byte inserted,
    a run deleted, or the tail cut off."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if kind == "flip" and data:
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        else:
            del data[at:]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(_mutated(CHECKPOINT))
def test_load_checkpoint_returns_a_model_or_one_line_value_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(raw)
        try:
            model, table, meta = load_checkpoint(path)
        except ValueError as exc:
            assert str(exc) and "\n" not in str(exc)
            return
    assert model.weights.shape[1] == len(model.labels)
    assert table.vectors.shape[1] == model.dim
    assert isinstance(meta, dict)


def test_the_fixture_loads():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(CHECKPOINT)
        model, table, meta = load_checkpoint(path)
    assert (model.dim, table.vectors.shape[1], meta) == (4, 4, {"task": "ner"})


def _augmented_text(task: str) -> str:
    """A valid augmented file of 6 mixed examples at dim 4, of ``task``."""
    if task == "ner":
        corpus = synth_tagged_corpus(6, seed=0)
        tokens, vocab, variant = corpus.token_vocab, corpus.label_vocab, "mention"
    else:
        corpus = synth_re_corpus(6, seed=0)
        tokens = tuple(dict.fromkeys(t for s in corpus.samples for t in s.tokens))
        vocab, variant = corpus.relation_vocab, "relation"
    table = EmbeddingTable.random(tokens, 4, seed=0, n_buckets=4)
    examples = segmix_generate(corpus, None, table, MixConfig(variant=variant, rate=1.0)).examples
    stream = io.StringIO()
    save_augmented(stream, examples, vocab, task, meta={"note": "x"})
    return stream.getvalue()


AUGMENTED = {task: _augmented_text(task) for task in ("ner", "re")}
# tokens a damaged or hand-edited file could hold where a value should be
_TOKENS = ("NaN", "1e999", "-1", "99999999999", "[[[[", "null", "\t")


@st.composite
def _mutated_text(draw) -> str:
    """An augmented file after one to three mutations: a character flipped,
    a character or a token inserted, a run deleted, or the tail cut off."""
    text = draw(st.sampled_from(sorted(AUGMENTED.values())))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        kind = draw(st.sampled_from(["flip", "insert", "token", "delete", "truncate"]))
        if kind == "flip" and text:
            text = text[:at] + chr(ord(text[at]) ^ draw(st.integers(1, 127))) + text[at + 1:]
        elif kind == "insert":
            text = text[:at] + chr(draw(st.integers(0, 127))) + text[at:]
        elif kind == "token":
            text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 16)):]
        else:
            text = text[:at]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_text())
def test_load_augmented_returns_a_file_or_one_line_value_error(text):
    try:
        loaded = load_augmented(io.StringIO(text))
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc)
        return
    assert isinstance(loaded, AugmentedFile)
    for example in loaded.examples:  # every example it holds can be read
        assert example.embeddings.shape == (len(example.embeddings), loaded.dim)


def test_the_augmented_fixtures_load():
    for task, text in AUGMENTED.items():
        loaded = load_augmented(io.StringIO(text))
        assert (loaded.task, loaded.dim, len(loaded.examples)) == (task, 4, 6)
