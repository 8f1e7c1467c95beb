"""Loader contract: for any bytes, a loader returns its object or raises a
one-line ``ValueError``; never another exception, a warning (warnings are
errors in this suite) or an allocation the file's own size does not bound."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.mixer import EmbeddingTable
from segmix.model import TaggerModel
from segmix.serialization import load_checkpoint, save_checkpoint
from segmix.synth import synth_tagged_corpus


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
