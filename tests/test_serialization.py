"""Augmented-file round trips and the base64 float32 array encoding."""

import base64
import io
import json

import numpy as np
import pytest

from segmix.corpus import Span
from segmix.mixer import (
    EmbeddingTable,
    MixConfig,
    MixedExample,
    MixedRESample,
    Provenance,
    segmix_generate,
)
from segmix.serialization import (
    decode_array,
    encode_array,
    load_augmented,
    save_augmented,
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
