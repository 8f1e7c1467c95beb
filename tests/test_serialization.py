"""Augmented-file and checkpoint round trips and the float32 array encoding."""

import base64
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.corpus import Span
from segmix.mixer import (
    EmbeddingTable,
    MixConfig,
    MixedExample,
    MixedRESample,
    Provenance,
    segmix_generate,
)
from segmix.model import REModel, TaggerModel
from segmix.serialization import (
    decode_array,
    encode_array,
    load_augmented,
    load_checkpoint,
    save_augmented,
    save_checkpoint,
)

from conftest import random_corpus, random_re_corpus


def test_encode_array_known_bytes():
    blob = encode_array(np.array([[1.0, 2.0]]))
    assert blob["shape"] == [1, 2]
    raw = base64.b64decode(blob["data"])
    assert raw == np.array([1.0, 2.0], dtype="<f4").tobytes()
    assert raw == b"\x00\x00\x80?\x00\x00\x00@"


def test_array_round_trip_is_float32_exact():
    rng = np.random.default_rng(0)
    array = rng.standard_normal((7, 5))
    back = decode_array(encode_array(array))
    assert back.dtype == np.float64
    assert np.array_equal(back, array.astype(np.float32).astype(np.float64))
    # values already on the float32 grid survive exactly
    grid = array.astype(np.float32).astype(np.float64)
    assert np.array_equal(decode_array(encode_array(grid)), grid)


def test_ner_file_round_trip():
    rng = np.random.default_rng(1)
    corpus = random_corpus(rng, n_sentences=12)
    table = EmbeddingTable.random(corpus.token_vocab, 8, seed=0)
    result = segmix_generate(
        corpus, None, table, MixConfig(variant="mention", rate=1.0, seed=3)
    )
    assert result.examples

    buf = io.StringIO()
    save_augmented(
        buf, result.examples, corpus.label_vocab, task="ner", meta={"note": "x"}
    )
    loaded = load_augmented(io.StringIO(buf.getvalue()))

    assert loaded.task == "ner"
    assert loaded.label_vocab == corpus.label_vocab
    assert loaded.dim == 8
    assert loaded.meta == {"note": "x"}
    assert len(loaded.examples) == len(result.examples)
    for got, want in zip(loaded.examples, result.examples):
        f32 = lambda a: a.astype(np.float32).astype(np.float64)
        assert np.array_equal(got.embeddings, f32(want.embeddings))
        assert np.array_equal(got.soft_labels, f32(want.soft_labels))
        assert got.provenance == want.provenance


def test_re_file_round_trip():
    rng = np.random.default_rng(2)
    corpus = random_re_corpus(rng, n_samples=10)
    tokens = tuple(dict.fromkeys(t for s in corpus.samples for t in s.tokens))
    table = EmbeddingTable.random(tokens, 6, seed=0)
    result = segmix_generate(
        corpus, None, table, MixConfig(variant="relation", rate=1.0, seed=5)
    )
    buf = io.StringIO()
    save_augmented(buf, result.examples, corpus.relation_vocab, task="re")
    loaded = load_augmented(io.StringIO(buf.getvalue()))
    assert loaded.task == "re"
    for got, want in zip(loaded.examples, result.examples):
        assert isinstance(got, MixedRESample)
        assert got.e1 == want.e1 and got.e2 == want.e2
        assert np.allclose(got.soft_relation, want.soft_relation, atol=1e-7)
        assert got.provenance == want.provenance


def test_save_deterministic_bytes():
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),), pool_index=2)
    example = MixedExample(np.ones((2, 3)), np.ones((2, 2)), prov)

    def dump():
        buf = io.StringIO()
        save_augmented(buf, [example], ("B-X", "O"), task="ner")
        return buf.getvalue()

    assert dump() == dump()


def test_save_rejects_unknown_task():
    with pytest.raises(ValueError, match="task must be"):
        save_augmented(io.StringIO(), [], ("O",), task="parsing")


def test_empty_example_list_round_trips():
    buf = io.StringIO()
    save_augmented(buf, [], ("O",), task="ner")
    loaded = load_augmented(io.StringIO(buf.getvalue()))
    assert loaded.examples == []
    assert loaded.dim == 0


def test_load_rejects_wrong_format():
    with pytest.raises(ValueError, match="empty augmented file"):
        load_augmented(io.StringIO(""))
    with pytest.raises(ValueError, match="not a segmix-augmented file"):
        load_augmented(io.StringIO('{"format": "something-else"}\n'))


def test_load_rejects_wrong_version():
    line = '{"format": "segmix-augmented", "version": 99, "task": "ner", "count": 0}\n'
    with pytest.raises(ValueError, match="unsupported version 99"):
        load_augmented(io.StringIO(line))


def test_load_rejects_truncated_file():
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    examples = [
        MixedExample(np.ones((2, 3)), np.ones((2, 2)), prov),
        MixedExample(np.ones((2, 3)), np.ones((2, 2)), prov),
    ]
    buf = io.StringIO()
    save_augmented(buf, examples, ("B-X", "O"), task="ner")
    lines = buf.getvalue().splitlines(keepends=True)
    truncated = "".join(lines[:-1])
    with pytest.raises(ValueError, match="header says 2 examples, file has 1"):
        load_augmented(io.StringIO(truncated))


# ---------------------------------------------------------------- record shapes

def _saved_lines(examples, vocab, task):
    buf = io.StringIO()
    save_augmented(buf, examples, vocab, task=task)
    return buf.getvalue().splitlines(keepends=True)


def _with_record(lines, index, **fields):
    """``lines`` with record ``index`` (0 = header) rewritten by ``fields``."""
    record = json.loads(lines[index])
    record.update(fields)
    return "".join(lines[:index] + [json.dumps(record) + "\n"] + lines[index + 1:])


def _ner_examples():
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    return [MixedExample(np.ones((2, 4)), np.ones((2, 2)), prov) for _ in range(2)]


def _re_examples():
    prov = Provenance(0, "relation", 0.5, ((0, 1), (2, 3)), ((0, 1), (2, 3)))
    return [
        MixedRESample(np.ones((4, 4)), np.ones(2), Span(0, 1), Span(2, 3), prov)
        for _ in range(2)
    ]


def test_save_refuses_example_that_disagrees_with_the_first():
    examples = _ner_examples()
    examples[1] = MixedExample(np.ones((2, 3)), np.ones((2, 2)), examples[1].provenance)
    with pytest.raises(ValueError, match="example 1"):
        save_augmented(io.StringIO(), examples, ("B-X", "O"), task="ner")
    with pytest.raises(ValueError, match="example 0"):
        save_augmented(io.StringIO(), _ner_examples(), ("B-X", "I-X", "O"), task="ner")


def test_load_rejects_embedding_width_other_than_header_dim():
    lines = _saved_lines(_ner_examples(), ("B-X", "O"), "ner")
    text = _with_record(lines, 2, embeddings=encode_array(np.ones((2, 3))))
    with pytest.raises(ValueError, match="line 3"):
        load_augmented(io.StringIO(text))
    text = _with_record(lines, 2, embeddings=encode_array(np.ones(8)))
    with pytest.raises(ValueError, match="line 3"):
        load_augmented(io.StringIO(text))


def test_load_rejects_soft_labels_other_than_label_vocab():
    lines = _saved_lines(_ner_examples(), ("B-X", "O"), "ner")
    text = _with_record(lines, 1, soft_labels=encode_array(np.ones((2, 3))))
    with pytest.raises(ValueError, match="line 2"):
        load_augmented(io.StringIO(text))


@pytest.mark.parametrize("fields", [
    {"soft_relation": encode_array(np.ones(3))},
    {"e2": [2, 5]},
    {"e1": [-1, 1]},
])
def test_load_rejects_bad_relation_record(fields):
    lines = _saved_lines(_re_examples(), ("R(e1,e2)", "Other"), "re")
    with pytest.raises(ValueError, match="line 3"):
        load_augmented(io.StringIO(_with_record(lines, 2, **fields)))


# ---------------------------------------------------------------- round-trip properties

def _f32(array):
    return array.astype(np.float32).astype(np.float64)


@st.composite
def _spans(draw, n):
    start = draw(st.integers(0, n - 1))
    return Span(start, draw(st.integers(start + 1, n)))


@st.composite
def _augmented_cases(draw):
    """(task, label vocab, examples) with random widths, label counts and spans."""
    task = draw(st.sampled_from(["ner", "re"]))
    dim, n_labels = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    examples = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))):
        e1, e2 = draw(_spans(n)), draw(_spans(n))
        prov = Provenance(i, "relation" if task == "re" else "mention", float(rng.random()),
                          ((e1.start, e1.end),), ((e2.start, e2.end),), pool_index=i)
        embeddings = scale * rng.standard_normal((n, dim))
        if task == "ner":
            examples.append(MixedExample(embeddings, rng.random((n, n_labels)), prov))
        else:
            examples.append(MixedRESample(embeddings, rng.random(n_labels), e1, e2, prov))
    return task, tuple(f"L{k}" for k in range(n_labels)), examples


def _saved(examples, vocab, task) -> str:
    buf = io.StringIO()
    save_augmented(buf, examples, vocab, task=task, meta={"n": len(examples)})
    return buf.getvalue()


@settings(max_examples=60, deadline=None)
@given(_augmented_cases())
def test_augmented_round_trip_equals_the_float32_rounded_input(case):
    task, vocab, examples = case
    loaded = load_augmented(io.StringIO(_saved(examples, vocab, task)))
    dim = examples[0].embeddings.shape[1]
    assert (loaded.task, loaded.label_vocab, loaded.dim) == (task, vocab, dim)
    assert loaded.meta == {"n": len(examples)}
    assert len(loaded.examples) == len(examples)
    labels = "soft_labels" if task == "ner" else "soft_relation"
    for got, want in zip(loaded.examples, examples):
        assert np.array_equal(got.embeddings, _f32(want.embeddings))
        assert np.array_equal(getattr(got, labels), _f32(getattr(want, labels)))
        assert got.provenance == want.provenance
        if task == "re":
            assert (got.e1, got.e2) == (want.e1, want.e2)


@settings(max_examples=40, deadline=None)
@given(_augmented_cases(), st.data())
def test_augmented_load_refuses_a_payload_one_byte_off(case, data):
    task, vocab, examples = case
    lines = _saved(examples, vocab, task).splitlines(keepends=True)
    index = data.draw(st.integers(1, len(examples)))
    labels = "soft_labels" if task == "ner" else "soft_relation"
    field = data.draw(st.sampled_from(["embeddings", labels]))
    record = json.loads(lines[index])
    raw = base64.b64decode(record[field]["data"])
    raw = raw[:-1] if data.draw(st.booleans()) else raw + b"\x00"
    record[field]["data"] = base64.b64encode(raw).decode("ascii")
    lines[index] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match=f"^line {index + 1}: .*bytes"):
        load_augmented(io.StringIO("".join(lines)))


@st.composite
def _checkpoint_cases(draw):
    """(model, table) for a tagger at windows 0-3 or a relation model."""
    window = draw(st.sampled_from([0, 1, 2, 3, None]))
    dim, n_labels = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    labels = [f"L{k}" for k in range(n_labels)]
    if window is None:
        model = REModel.init(labels, dim, seed=seed, scale=1.0)
    else:
        model = TaggerModel.init(labels, dim, window=window, seed=seed, scale=1.0)
    tokens = [f"t{k}" for k in range(draw(st.integers(0, 6)))]
    table = EmbeddingTable.random(tokens, dim, seed=seed, n_buckets=draw(st.integers(1, 4)))
    return model, table


@settings(max_examples=40, deadline=None)
@given(_checkpoint_cases())
def test_checkpoint_round_trip_equals_the_float32_rounded_input(case):
    model, table = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, model, table, meta={"task": "x"})
        loaded, loaded_table, meta = load_checkpoint(path)
    assert type(loaded) is type(model)
    assert (loaded.labels, loaded.dim) == (model.labels, model.dim)
    assert getattr(loaded, "window", None) == getattr(model, "window", None)
    assert np.array_equal(loaded.weights, _f32(model.weights))
    assert (loaded_table.tokens, loaded_table.n_buckets) == (table.tokens, table.n_buckets)
    assert np.array_equal(loaded_table.vectors, _f32(table.vectors))
    assert meta == {"task": "x"}


@settings(max_examples=20, deadline=None)
@given(_checkpoint_cases(), st.booleans())
def test_checkpoint_load_refuses_a_payload_one_byte_off(case, cut):
    model, table = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(path, model, table)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if cut else raw + b"\x00")
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)
