"""Augmented-file and checkpoint round trips and the float32 array encoding."""

import base64
import dataclasses
import functools
import gc
import io
import json
import re
import struct
import tempfile
import tracemalloc
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
from segmix.evaluation import nearest_tokens
from segmix.model import (
    REModel, TaggerModel, TrainConfig, gradient_check, train_re, train_tagger,
)
from segmix.serialization import (
    _parse,
    load_augmented,
    load_checkpoint,
    save_augmented,
    save_checkpoint,
)
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import (
    decode_array, encode_array, provenance_json, random_corpus, random_re_corpus,
)


def test_encode_array_known_bytes():
    # the writer's payload of [[1, 2]] is the oracle's, down to the bytes
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    example = MixedExample(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]), prov)
    blob = json.loads(_saved_lines([example], ("B-X", "O"), "ner")[1])["embeddings"]
    assert blob == encode_array(np.array([[1.0, 2.0]]))
    assert blob["shape"] == [1, 2]
    assert base64.b64decode(blob["data"]) == b"\x00\x00\x80?\x00\x00\x00@"


def test_array_round_trip_is_float32_exact():
    rng = np.random.default_rng(0)
    array = rng.standard_normal((7, 5))
    grid = array.astype(np.float32).astype(np.float64)
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    for rows in (array, grid):  # values already on the float32 grid survive exactly
        text = _saved([MixedExample(rows, np.ones((7, 2)), prov)], ("B-X", "O"), "ner")
        back = load_augmented(io.StringIO(text)).examples[0].embeddings
        assert back.dtype == np.float32
        assert np.array_equal(back, grid)
    assert np.array_equal(decode_array(encode_array(array)), grid)


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
    {"e1": [0, 0.5]},
    {"e2": [True, 3]},
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e39])
@pytest.mark.parametrize("what", ["weights", "table rows"])
def test_save_checkpoint_refuses_values_not_finite_in_float32(tmp_path, what, value):
    model = REModel.init(["R1", "R2"], 3, seed=0)
    table = EmbeddingTable.random(["a", "b"], 3, seed=0)
    (model.weights if what == "weights" else table.vectors)[0, -1] = value
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=f"^checkpoint {what} hold a non-finite value "
                                         "after the float32 cast$"):
        save_checkpoint(path, model, table)
    assert not path.exists()


def test_a_checkpoint_save_that_fails_keeps_the_earlier_file(tmp_path, monkeypatch):
    import segmix.serialization as serialization

    model = REModel.init(["R1", "R2"], 3, seed=0)
    table = EmbeddingTable.random(["a", "b"], 3, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, table, meta={"task": "re"})
    before = path.read_bytes()

    def failing_f4(array, real=serialization._f4):
        if array is table.vectors:
            raise OSError(28, "No space left on device")
        return real(array)

    monkeypatch.setattr(serialization, "_f4", failing_f4)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, REModel.init(["R1", "R2"], 3, seed=1), table)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


# float32 bits 0x7f800001 are a signalling NaN: casting one to float64 warns,
# and warnings are errors in this suite
@pytest.mark.parametrize("what, bits", [("weights", 0x7FC00000), ("table", 0x7FC00000),
                                        ("weights", 0x7F800001), ("table", 0x7F800001)],
                         ids=["weights", "table", "weights-signalling", "table-signalling"])
def test_load_checkpoint_refuses_a_non_finite_payload(tmp_path, what, bits):
    table = EmbeddingTable.random(["a", "b"], 3, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, REModel.init(["R1", "R2"], 3, seed=0), table)
    raw = bytearray(path.read_bytes())
    at = len(raw) - 4 * (table.vectors.size + 1 if what == "weights" else 1)  # its last float
    raw[at : at + 4] = struct.pack("<I", bits)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^checkpoint {what} payload holds a non-finite value$"):
        load_checkpoint(path)


def test_load_checkpoint_refuses_a_header_length_past_the_end_before_reading_it(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, REModel.init(["R1", "R2"], 3, seed=0),
                    EmbeddingTable.random(["a"], 3, seed=0))
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + struct.pack("<I", len(raw) - 11) + raw[12:])  # one byte too many
    with pytest.raises(ValueError, match="^checkpoint file is truncated$"):
        load_checkpoint(path)


def test_load_checkpoint_holds_the_file_payload_once_beside_the_table(tmp_path):
    # a 10 MB float64 table, 5 MB of float32 rows on disk: the payload is read once and
    # sliced with no copy, then cast into the table's rows
    path = tmp_path / "big.ckpt"
    table = EmbeddingTable.random(["ann", "bo"], dim=64, seed=0, n_buckets=20_000)
    save_checkpoint(path, TaggerModel.init(["O", "B-X"], 64, seed=0), table)
    tracemalloc.start()
    try:
        _, loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * loaded.vectors.nbytes
    assert np.array_equal(loaded.vectors, table.vectors.astype(np.float32))


# ---------------------------------------------------------------- provenance records

@pytest.mark.parametrize("fields,why", [
    ({"lam": 7}, "'lam' must be a number in [0, 1], got 7"),
    ({"lam": float("nan")}, "'lam' must be a number in [0, 1], got nan"),
    ({"lam": "x"}, "'lam' must be a number in [0, 1], got 'x'"),
    ({"mixed_spans": [[0, 999]]}, "mixed span [0, 999) lies outside the 2-row example"),
    ({"mixed_spans": [[1]]}, "'mixed_spans' must be a list of [start, end] pairs"),
    ({"spans": [["a", "b"]]}, "'spans' must be a list of [start, end] pairs"),
    ({"spans": [[2, 2]]}, "'spans' must be a list of [start, end] pairs"),
    ({"example_index": "zz"}, "'example_index' must be a nonnegative integer, got 'zz'"),
    ({"variant": 5}, "'variant' must be a string, got 5"),
    ({"pool_index": -1}, "'pool_index' must be a nonnegative integer or null, got -1"),
    ({"replacements": "ab"}, "'replacements' must be a list of strings, got 'ab'"),
    ({"spans": "ab"}, "'spans' must be a list of [start, end] pairs"),
], ids=["lam-7", "lam-nan", "lam-str", "mixed-span-past-rows", "mixed-span-not-a-pair",
        "span-of-strs", "span-empty", "index-str", "variant-int", "pool-index-negative",
        "replacements-str", "span-str"])
def test_load_refuses_a_bad_provenance_record(fields, why):
    lines = _saved_lines(_ner_examples(), ("B-X", "O"), "ner")
    record = json.loads(lines[1])
    record["provenance"].update(fields)
    lines[1] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match="^" + re.escape(f"line 2: provenance {why}")):
        load_augmented(io.StringIO("".join(lines)))


def test_load_names_the_provenance_field_it_refuses():
    lines = _saved_lines(_re_examples(), ("R(e1,e2)", "Other"), "re")
    record = json.loads(lines[2])
    del record["provenance"]["variant"]
    lines[2] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match=r"^line 3: provenance has no 'variant' field$"):
        load_augmented(io.StringIO("".join(lines)))
    record["provenance"].update(variant="relation", mixed_spans=[[0, 1], [3, 5]])
    lines[2] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match=r"^line 3: provenance mixed span \[3, 5\) lies outside"):
        load_augmented(io.StringIO("".join(lines)))
    record["provenance"] = [record["provenance"]]
    lines[2] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match=r"^line 3: provenance is not a JSON object$"):
        load_augmented(io.StringIO("".join(lines)))


# ---------------------------------------------------------------- non-finite rows

@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e39])
@pytest.mark.parametrize("task,field", [
    ("ner", "embeddings"), ("ner", "soft_labels"), ("re", "embeddings"), ("re", "soft_relation"),
])
def test_save_refuses_a_row_that_is_not_finite_in_float32(value, task, field):
    # 600 examples put the bad one in the second block of the check
    examples = (_ner_examples() if task == "ner" else _re_examples()) * 300
    vocab = ("B-X", "O") if task == "ner" else ("R(e1,e2)", "Other")
    bad = examples[520]
    array = getattr(bad, field).copy()
    array.flat[-1] = value
    examples[520] = dataclasses.replace(bad, **{field: array})
    stream = io.StringIO()
    with pytest.raises(ValueError, match=(f"^example 520: {field} hold a non-finite value "
                                          "after the float32 cast$")):
        save_augmented(stream, examples, vocab, task=task)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("task,field", [("ner", "soft_labels"), ("re", "soft_relation")])
def test_save_names_the_earliest_of_two_faulty_examples_in_one_block(task, field):
    # both faults lie in the first 512-example block; the earlier one only in its label rows
    examples = (_ner_examples() if task == "ner" else _re_examples()) * 300
    vocab = ("B-X", "O") if task == "ner" else ("R(e1,e2)", "Other")
    for at, name, value in ((137, field, float("inf")), (402, "embeddings", float("nan"))):
        array = getattr(examples[at], name).copy()
        array.flat[0] = value
        examples[at] = dataclasses.replace(examples[at], **{name: array})
    stream = io.StringIO()
    with pytest.raises(ValueError, match=(f"^example 137: {field} hold a non-finite value "
                                          "after the float32 cast$")):
        save_augmented(stream, examples, vocab, task=task)
    assert stream.getvalue() == ""


_NOT_PLAIN = [
    ("example_index", True), ("example_index", np.int64(3)), ("example_index", -1),
    ("variant", np.str_("mention")), ("variant", None),
    ("lam", float("nan")), ("lam", float("inf")), ("lam", np.float64(0.5)), ("lam", True),
    ("lam", 1.5),
    ("spans", ((np.int64(0), 1),)), ("spans", ((0, 1.0),)), ("mixed_spans", ((0, True),)),
    ("pool_index", False), ("pool_index", np.int64(2)), ("replacements", ("was", 1)),
    ("spans", "ab"),
]


def _with_provenance(task, field, value):
    """Two examples of ``task``, the second with its provenance ``field`` set
    to ``value``, and their label vocabulary."""
    examples, vocab = (_ner_examples(), ("B-X", "O")) if task == "ner" else (
        _re_examples(), ("R(e1,e2)", "Other"))
    examples[1] = dataclasses.replace(
        examples[1], provenance=dataclasses.replace(examples[1].provenance, **{field: value}))
    return examples, vocab


@pytest.mark.parametrize("field,value", _NOT_PLAIN)
def test_save_refuses_a_provenance_the_template_cannot_write(field, value):
    for task in ("ner", "re"):
        examples, vocab = _with_provenance(task, field, value)
        stream = io.StringIO()
        with pytest.raises(ValueError, match=f"^example 1: provenance '{field}' must be "):
            save_augmented(stream, examples, vocab, task=task)
        assert stream.getvalue() == ""


@pytest.mark.parametrize("field,value", [
    ("example_index", True), ("example_index", -1), ("variant", None), ("lam", float("nan")),
    ("lam", float("-inf")), ("lam", 1.5), ("lam", True), ("spans", [[0, 1.0]]),
    ("pool_index", False), ("replacements", ["was", 1]), ("mixed_spans", ((0, 9),)),
])  # lists where a tuple would print otherwise than the JSON list it is written as
def test_a_provenance_save_refuses_is_one_load_refuses_with_the_same_words(field, value):
    for task in ("ner", "re"):
        examples, vocab = _with_provenance(task, field, value)
        saving = io.StringIO()
        with pytest.raises(ValueError) as saved:
            save_augmented(saving, examples, vocab, task=task)
        assert saving.getvalue() == ""
        stream = io.StringIO()
        _oracle_save(stream, examples, vocab, task)
        with pytest.raises(ValueError) as loaded:
            load_augmented(io.StringIO(stream.getvalue()))
        assert str(saved.value).startswith("example 1: provenance ")
        assert str(loaded.value) == "line 3: " + str(saved.value).removeprefix("example 1: ")


def test_load_names_line_1_of_a_file_that_is_not_augmented():
    with pytest.raises(ValueError, match="^not a segmix-augmented file: line 1 is not a "
                                         "segmix-augmented header$"):
        load_augmented(io.StringIO("Paris\tB-LOC\nis\tO\n"))


def test_load_refuses_a_line_1_nested_deeper_than_json_parses_as_not_augmented():
    with pytest.raises(ValueError, match="^not a segmix-augmented file: line 1 is not a "
                                         "segmix-augmented header$"):
        load_augmented(io.StringIO("[" * 100_000 + "\n"))


def test_load_checkpoint_refuses_a_header_nested_deeper_than_json_parses(tmp_path):
    path, deep = tmp_path / "m.ckpt", b"[" * 100_000
    save_checkpoint(path, REModel.init(["R1", "R2"], 3, seed=0),
                    EmbeddingTable.random(["a"], 3, seed=0))
    path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(deep)) + deep)
    with pytest.raises(ValueError, match="^checkpoint header: maximum recursion depth exceeded"):
        load_checkpoint(path)


@pytest.mark.parametrize("header,why", [
    (b'{"dim": 3\xb3}', "'utf-8' codec can't decode byte 0xb3"),
    (b"{'dim': 3}", "Expecting property name enclosed in double quotes"),
], ids=["not-utf-8", "not-json"])
def test_load_checkpoint_names_the_header_it_cannot_read(tmp_path, header, why):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, REModel.init(["R1", "R2"], 3, seed=0),
                    EmbeddingTable.random(["a"], 3, seed=0))
    path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(header)) + header)
    with pytest.raises(ValueError, match="^checkpoint header: " + re.escape(why)):
        load_checkpoint(path)


def test_save_keeps_the_largest_float32_values():
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    big = float(np.finfo(np.float32).max)
    example = MixedExample(np.array([[big, -big]]), np.array([[1.0, 0.0]]), prov)
    loaded = load_augmented(io.StringIO(_saved([example], ("B-X", "O"), "ner")))
    assert np.array_equal(loaded.examples[0].embeddings, [[big, -big]])


# ---------------------------------------------------------------- the writer's json oracle

def _oracle_save(stream, examples, label_vocab, task, meta=None):
    """The record-dict writer: every record through ``json.dumps``."""
    dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
    dim = int(examples[0].embeddings.shape[1]) if examples else 0
    stream.write(dump({"format": "segmix-augmented", "version": 1, "task": task,
                       "label_vocab": list(label_vocab), "dim": dim, "count": len(examples),
                       "meta": meta or {}}) + "\n")
    for example in examples:
        record = {"embeddings": encode_array(example.embeddings),
                  "provenance": provenance_json(example.provenance)}
        if task == "ner":
            record["soft_labels"] = encode_array(example.soft_labels)
        else:
            record["soft_relation"] = encode_array(example.soft_relation)
            record["e1"] = [example.e1.start, example.e1.end]
            record["e2"] = [example.e2.start, example.e2.end]
        stream.write(dump(record) + "\n")


_AWKWARD_TEXT = st.text(st.sampled_from('"\\\x00\x07\n\x1f\x7f é€😀ab'), max_size=6) | st.text(max_size=6)


@st.composite
def _laid_out(draw, array):
    """``array`` as float32, non-contiguous, Fortran-ordered or as it is."""
    layout = draw(st.sampled_from(["c", "f4", "fortran", "strided", "reversed"]))
    if layout == "f4":
        return array.astype(np.float32)
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided":
        wide = np.repeat(array, 2, axis=-1)
        wide[..., 1::2] = np.nan
        return wide[..., ::2]
    if layout == "reversed":
        return array[::-1].copy()[::-1]
    return array


@st.composite
def _writer_cases(draw):
    """(task, label vocab, examples, meta) with awkward text, layouts and lambdas."""
    task = draw(st.sampled_from(["ner", "re"]))
    dim, n_labels = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lams = st.floats(0, 1) | st.sampled_from([0.0, 1.0, 1e-05, 2.5e-08, 5e-324, 1e-300])
    examples = []
    for n in draw(st.lists(st.integers(1, 7), max_size=5)):
        e1, e2 = draw(_spans(n)), draw(_spans(n))
        replacements = draw(st.none() | st.lists(_AWKWARD_TEXT, min_size=1, max_size=3))
        prov = Provenance(draw(st.integers(0, 10**6)), draw(_AWKWARD_TEXT), draw(lams),
                          ((e1.start, e1.end),), ((e2.start, e2.end), (e1.start, e1.end)),
                          pool_index=draw(st.none() | st.integers(0, 10**6)),
                          replacements=None if replacements is None else tuple(replacements))
        embeddings = draw(_laid_out(rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-40, 30)))
        if task == "ner":
            labels = draw(_laid_out(rng.random((n, n_labels))))
            examples.append(MixedExample(embeddings, labels, prov))
        else:
            labels = draw(_laid_out(rng.random(n_labels)))
            examples.append(MixedRESample(embeddings, labels, e1, e2, prov))
    vocab = tuple(draw(st.lists(_AWKWARD_TEXT, min_size=n_labels, max_size=n_labels)))
    meta = draw(st.none() | st.dictionaries(_AWKWARD_TEXT, _AWKWARD_TEXT, max_size=3))
    return task, vocab, examples, meta


@settings(max_examples=80, deadline=None)
@given(_writer_cases())
def test_save_writes_the_bytes_of_the_json_oracle(case):
    task, vocab, examples, meta = case
    want, got = io.StringIO(), io.StringIO()
    _oracle_save(want, examples, vocab, task, meta)
    save_augmented(got, examples, vocab, task, meta)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------- block-decoded load

def _oracle_load(text: str) -> list:
    """Every record of an augmented file decoded on its own, one array per
    payload: the loader as it was before it decoded records in blocks."""
    out = []
    for record in (json.loads(line) for line in text.splitlines()[1:] if line.strip()):
        p = record["provenance"]
        prov = Provenance(p["example_index"], p["variant"], p["lam"],
                          tuple(map(tuple, p["spans"])), tuple(map(tuple, p["mixed_spans"])),
                          p["pool_index"], tuple(p["replacements"]) if "replacements" in p else None)
        embeddings = decode_array(record["embeddings"])
        if "soft_labels" in record:
            out.append(MixedExample(embeddings, decode_array(record["soft_labels"]), prov))
        else:
            out.append(MixedRESample(embeddings, decode_array(record["soft_relation"]),
                                     Span(*record["e1"]), Span(*record["e2"]), prov))
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _block_cases(draw):
    """(task, vocab, examples, blank-line runs) with record counts around the block size."""
    task = draw(st.sampled_from(["ner", "re"]))
    dim, n_labels = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    count = draw(st.sampled_from([0, 15, 16, 17, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    examples = []
    for i in range(count):
        n = int(rng.integers(1, 7))
        embeddings = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-30, 30)
        embeddings[rng.random((n, dim)) < 0.1] = -0.0
        e1, e2 = sorted(rng.integers(0, n, 2).tolist())
        prov = Provenance(i, "mention", float(rng.random()), ((e1, e1 + 1),), ((e2, e2 + 1),),
                          pool_index=None if i % 3 else i,
                          replacements=("was",) if i % 5 == 1 else None)
        if task == "ner":
            examples.append(MixedExample(embeddings, rng.random((n, n_labels)), prov))
        else:
            examples.append(MixedRESample(embeddings, rng.random(n_labels), Span(e1, e1 + 1),
                                          Span(e2, e2 + 1), prov))
    blanks = draw(st.lists(st.sampled_from(["", "\n", "  \n", "\t\r\n\n"]),
                           min_size=count + 1, max_size=count + 1))
    return task, tuple(f"L{k}" for k in range(n_labels)), examples, blanks


@settings(max_examples=60, deadline=None)
@given(_block_cases())
def test_block_decoded_load_equals_the_per_record_decode_bit_for_bit(case):
    task, vocab, examples, blanks = case
    header, *records = _saved(examples, vocab, task).splitlines(keepends=True)
    text = header + "".join(blank + record for blank, record in zip(blanks, records)) + blanks[-1]
    loaded = load_augmented(io.StringIO(text)).examples
    want = _oracle_load(text)
    assert len(loaded) == len(want) == len(examples)
    labels = "soft_labels" if task == "ner" else "soft_relation"
    for got, expected in zip(loaded, want):
        assert type(got) is type(expected)
        assert _same_bits(got.embeddings, expected.embeddings)
        assert _same_bits(getattr(got, labels), getattr(expected, labels))
        assert got.provenance == expected.provenance
        if task == "re":
            assert (got.e1, got.e2) == (expected.e1, expected.e2)


def _with_value(lines, index, field, value, at=0):
    """``lines`` with float ``at`` of record ``index``'s ``field`` payload set to ``value``."""
    record = json.loads(lines[index])
    raw = bytearray(base64.b64decode(record[field]["data"]))
    raw[4 * at : 4 * at + 4] = struct.pack("<f", value)
    record[field]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
    return lines[:index] + [json.dumps(record) + "\n"] + lines[index + 1:]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("task,field", [
    ("ner", "embeddings"), ("ner", "soft_labels"), ("re", "embeddings"), ("re", "soft_relation"),
])
def test_load_refuses_a_payload_that_is_not_finite(value, task, field):
    # 20 records put the bad one, record 17, in the second block
    examples = (_ner_examples() if task == "ner" else _re_examples()) * 10
    vocab = ("B-X", "O") if task == "ner" else ("R(e1,e2)", "Other")
    lines = _with_value(_saved_lines(examples, vocab, task), 17, field, value, at=1)
    with pytest.raises(ValueError, match=f"^line 18: {field} hold a non-finite value$"):
        load_augmented(io.StringIO("".join(lines)))


def test_load_names_the_earliest_of_several_faulty_lines():
    lines = _saved_lines(_ner_examples() * 10, ("B-X", "O"), "ner")
    lines = _with_value(lines, 9, "embeddings", float("nan"))
    lines = _with_value(lines, 5, "soft_labels", float("inf"))
    with pytest.raises(ValueError, match="^line 6: soft_labels hold a non-finite value$"):
        load_augmented(io.StringIO("".join(lines)))
    # a malformed record later in the same block comes second as well
    lines[12] = lines[12].replace('"provenance"', '"provenanse"')
    with pytest.raises(ValueError, match="^line 6: soft_labels hold"):
        load_augmented(io.StringIO("".join(lines)))
    lines = _with_value(lines, 5, "soft_labels", 0.5)
    with pytest.raises(ValueError, match="^line 10: embeddings hold"):
        load_augmented(io.StringIO("".join(lines)))
    lines = _with_value(lines, 9, "embeddings", 0.5)
    with pytest.raises(ValueError, match="^line 13: record has no 'provenance' field$"):
        load_augmented(io.StringIO("".join(lines)))


@pytest.mark.parametrize("field,at,value,why", [
    ("embeddings", 0, 2.0, "payload shapes [2.0, 4] and [2, 2] must hold only integers"),
    ("embeddings", 0, True, "payload shapes [True, 4] and [2, 2] must hold only integers"),
    ("embeddings", 0, "2", "payload shapes ['2', 4] and [2, 2] must hold only integers"),
    ("embeddings", 1, 4.0, "payload shapes [2, 4.0] and [2, 2] must hold only integers"),
    ("soft_labels", 1, 2.0, "payload shapes [2, 4] and [2, 2.0] must hold only integers"),
    ("embeddings", 0, -1, "embeddings have no rows"),
    ("embeddings", slice(None), [], "embeddings have shape [], expected (n, 4)"),
])
def test_load_refuses_a_shape_that_is_not_positive_integers(field, at, value, why):
    lines = _saved_lines(_ner_examples(), ("B-X", "O"), "ner")
    record = json.loads(lines[2])
    record[field]["shape"][at] = value
    lines[2] = json.dumps(record) + "\n"
    with pytest.raises(ValueError, match="^" + re.escape(f"line 3: {why}") + "$"):
        load_augmented(io.StringIO("".join(lines)))


# ---------------------------------------------------------------- stream sources

def _written(text: str) -> io.StringIO:
    """A ``StringIO`` that ``text`` was written to, back at its start."""
    stream = io.StringIO()
    stream.write(text)
    stream.seek(0)
    return stream


def _stream(source: str, text: str, tmp_path):
    """``text`` as a stream of kind ``source``, standing where ``text`` starts."""
    if source == "written":
        return _written(text)
    if source == "initial value":
        return io.StringIO(text)
    if source == "after a prefix":
        stream = _written("prefix line\n" + text)
        stream.seek(len("prefix line\n"))
        return stream
    path = tmp_path / "aug.jsonl"
    path.write_text(text)
    return path.open()


_SOURCES = ["written", "initial value", "after a prefix", "file"]


def _spaced(text: str) -> str:
    """``text`` with an empty and a blank line between its lines and no
    newline at its end."""
    return "\n\n \t\n".join(text.split("\n")).rstrip("\n \t")


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("task", ["ner", "re"])
def test_a_load_reads_the_same_from_every_kind_of_stream(tmp_path, source, task):
    examples = (_ner_examples() if task == "ner" else _re_examples()) * 9
    vocab = ("B-X", "O") if task == "ner" else ("R(e1,e2)", "Other")
    text = _spaced(_saved(examples, vocab, task))
    with _stream(source, text, tmp_path) as stream:
        loaded = load_augmented(stream)
    want = _oracle_load(text)
    assert (loaded.task, loaded.meta, len(loaded.examples)) == (task, {"n": 18}, len(want))
    labels = "soft_labels" if task == "ner" else "soft_relation"
    for got, expected in zip(loaded.examples, want):
        assert _same_bits(got.embeddings, expected.embeddings)
        assert _same_bits(getattr(got, labels), getattr(expected, labels))
        assert got.provenance == expected.provenance


def _faulty_texts() -> list:
    """(augmented text, the error its load raises), with blank lines and no final newline."""
    lines = _saved_lines(_ner_examples() * 9, ("B-X", "O"), "ner")
    nan = _with_value(lines, 18, "embeddings", float("nan"))
    missing = lines[:18] + [lines[18].replace('"provenance"', '"provenanse"')]
    return [
        pytest.param(_spaced("".join(nan)), "line 55: embeddings hold a non-finite value",
                     id="nan"),
        pytest.param(_spaced("".join(missing)), "line 55: record has no 'provenance' field",
                     id="no field"),
        pytest.param(_spaced("".join(lines[:-1])), "header says 18 examples, file has 17",
                     id="short"),
        pytest.param("\n  \n", "empty augmented file", id="blank"),
    ]


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("text,why", _faulty_texts())
def test_a_load_names_the_same_fault_from_every_kind_of_stream(tmp_path, source, text, why):
    with _stream(source, text, tmp_path) as stream:
        with pytest.raises(ValueError, match="^" + re.escape(why) + "$"):
            load_augmented(stream)


def test_loading_a_written_stream_costs_under_4_bytes_a_character():
    rng = np.random.default_rng(0)
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    examples = [MixedExample(rng.standard_normal((6, 24)), rng.random((6, 3)), prov)
                for _ in range(300)]
    text = _saved(examples, ("B-X", "I-X", "O"), "ner")
    stream = _written(text)
    tracemalloc.start()
    try:
        load_augmented(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a readline or a line iteration first copies the text at 4 bytes a
    # character, which took the peak to 6.0 bytes a character; one read() to 2.0
    assert peak < 4 * len(text), f"peak {peak / len(text):.2f} bytes a character"


# ---------------------------------------------------------------- the line parse

@functools.cache
def _saved_run_lines() -> tuple:
    """Every line of a saved generated NER file and of a saved RE file."""
    return tuple(line for task in ("ner", "re")
                 for line in _loaded_run(task)[1].splitlines(keepends=True))


def _outcome(parse, line) -> tuple:
    """What ``parse(line)`` gives: ("value", its repr), so that a NaN equals
    a NaN and 1 differs from 1.0, or (exception type, message)."""
    try:
        return "value", repr(parse(line))
    except Exception as exc:
        return type(exc), str(exc)


def test_the_line_parse_reads_every_saved_line_as_json_loads_does():
    lines = _saved_run_lines()
    assert len(lines) > 100
    for line in lines:
        outcome = _outcome(_parse, line)
        assert outcome[0] == "value" and outcome == _outcome(json.loads, line)


_JSON_NUMBER = re.compile(r"(?<=[:\[,])-?\d[\d.eE+-]*")
# JSON whitespace and characters that only str.isspace() counts as space
_SPACE = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000"), min_size=1,
                 max_size=3)


@st.composite
def _mutated_lines(draw):
    """A saved line with one mutation a damaged or hand-edited file could hold."""
    line = draw(st.sampled_from(_saved_run_lines()))
    body = line.removesuffix("\n")
    kind = draw(st.sampled_from(["lead", "trail", "crlf", "bom", "constant", "garbage", "twice",
                                 "cut", "insert"]))
    if kind == "lead":
        return draw(_SPACE) + line
    if kind == "trail":
        return body + draw(_SPACE) + draw(st.sampled_from(["", "\n"]))
    if kind == "crlf":
        return body + "\r\n"
    if kind == "bom":
        return "\ufeff" + line
    if kind == "constant":  # a number written as NaN or an infinity
        start, end = draw(st.sampled_from([m.span() for m in _JSON_NUMBER.finditer(line)]))
        return line[:start] + draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])) + line[end:]
    if kind == "garbage":
        return body + draw(st.text(min_size=1, max_size=4)) + "\n"
    if kind == "twice":
        return body + line
    at = draw(st.integers(0, len(body)))
    if kind == "cut":
        return line[:at]
    return line[:at] + draw(st.text(min_size=1, max_size=2)) + line[at:]


@settings(max_examples=300, deadline=None)
@given(_mutated_lines())
def test_the_line_parse_returns_or_raises_what_json_loads_does(line):
    assert _outcome(_parse, line) == _outcome(json.loads, line)


# ---------------------------------------------------------------- float32 at rest

def _generated_run(task: str):
    """(examples, label vocabulary, table) of a generated run."""
    if task == "ner":
        corpus = synth_tagged_corpus(60, seed=4)
        tokens, vocab, variant = corpus.token_vocab, corpus.label_vocab, "mention+token"
    else:
        corpus = synth_re_corpus(60, seed=4)
        tokens = tuple(dict.fromkeys(t for s in corpus.samples for t in s.tokens))
        vocab, variant = corpus.relation_vocab, "relation"
    table = EmbeddingTable.random(tokens, 12, seed=2)
    examples = segmix_generate(corpus, None, table,
                               MixConfig(variant=variant, rate=1.0, seed=6)).examples
    return examples, vocab, table


def _loaded_run(task: str):
    """(loaded file, its text, its table): a generated run saved and loaded."""
    examples, vocab, table = _generated_run(task)
    buf = io.StringIO()
    save_augmented(buf, examples, vocab, task, meta={"note": "x"})
    return load_augmented(io.StringIO(buf.getvalue())), buf.getvalue(), table


def _as_float64(example):
    """``example`` with float64 copies of its loaded float32 arrays."""
    labels = "soft_labels" if isinstance(example, MixedExample) else "soft_relation"
    return dataclasses.replace(example, embeddings=example.embeddings.astype(np.float64),
                               **{labels: getattr(example, labels).astype(np.float64)})


@pytest.mark.parametrize("task", ["ner", "re"])
def test_loaded_arrays_are_writable_float32(task):
    loaded, _, _ = _loaded_run(task)
    labels = "soft_labels" if task == "ner" else "soft_relation"
    for example in loaded.examples:
        for array in (example.embeddings, getattr(example, labels)):
            assert array.dtype == np.float32 and array.flags.writeable
    first = loaded.examples[0].embeddings
    first[0, 0] = 0.5
    assert first[0, 0] == 0.5


@pytest.mark.parametrize("task", ["ner", "re"])
def test_a_loaded_file_saved_again_reproduces_its_bytes(task):
    loaded, text, _ = _loaded_run(task)
    buf = io.StringIO()
    save_augmented(buf, loaded.examples, loaded.label_vocab, loaded.task, meta=loaded.meta)
    assert buf.getvalue() == text


def _fresh(example):
    """A new example object with ``example``'s fields, its arrays copied."""
    labels = "soft_labels" if isinstance(example, MixedExample) else "soft_relation"
    return dataclasses.replace(example, embeddings=example.embeddings.copy(),
                               **{labels: getattr(example, labels).copy()})


@pytest.mark.parametrize("task", ["ner", "re"])
@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_an_edited_example_is_saved_as_edited(task, source):
    examples, vocab, _ = _generated_run(task)
    if source == "loaded":
        examples = load_augmented(io.StringIO(_saved(examples, vocab, task))).examples
    examples[1].provenance = dataclasses.replace(examples[1].provenance, lam=0.25)
    examples[2].embeddings = examples[2].embeddings * 2.0
    examples[3].embeddings[0, 0] = 0.125  # in place
    fresh = [_fresh(e) for e in examples]
    assert _saved(examples, vocab, task) == _saved(fresh, vocab, task)


def test_the_tagger_learns_the_same_bits_from_loaded_and_float64_rows():
    loaded, _, table = _loaded_run("ner")
    examples = loaded.examples
    wide = [_as_float64(e) for e in examples]
    config = TrainConfig(epochs=3, seed=1)
    trained = [train_tagger(TaggerModel.init(loaded.label_vocab, 12, window=1, seed=3), rows,
                            config).model for rows in (examples, wide)]
    assert trained[0].weights.tobytes() == trained[1].weights.tobytes()
    model = trained[0]
    for got, want in zip(examples[:20], wide):
        assert model.forward(got.embeddings).tobytes() == model.forward(want.embeddings).tobytes()
        assert gradient_check(model, got) == gradient_check(model, want)
        assert nearest_tokens(table, got.embeddings) == nearest_tokens(table, want.embeddings)


def test_the_relation_model_learns_the_same_bits_from_loaded_and_float64_rows():
    loaded, _, _ = _loaded_run("re")
    examples = loaded.examples
    wide = [_as_float64(e) for e in examples]
    config = TrainConfig(epochs=3, seed=1)
    trained = [train_re(REModel.init(loaded.label_vocab, 12, seed=3), rows, config).model
               for rows in (examples, wide)]
    assert trained[0].weights.tobytes() == trained[1].weights.tobytes()
    model = trained[0]
    for got, want in zip(examples[:20], wide):
        assert (model.features(got.embeddings, got.e1, got.e2).tobytes()
                == model.features(want.embeddings, want.e1, want.e2).tobytes())
        assert gradient_check(model, got) == gradient_check(model, want)


@pytest.mark.parametrize("task", ["ner", "re"])
def test_a_load_peaks_at_its_float32_rows_plus_a_fixed_allowance_per_record(tmp_path, task):
    rng = np.random.default_rng(0)
    prov = Provenance(0, "mention", 0.5, ((0, 1),), ((0, 1),))
    if task == "ner":
        examples = [MixedExample(rng.standard_normal((24, 32)), rng.random((24, 5)), prov)
                    for _ in range(256)]
    else:
        examples = [MixedRESample(rng.standard_normal((24, 32)), rng.random(5), Span(0, 1),
                                  Span(2, 3), prov) for _ in range(256)]
    path = tmp_path / "aug.jsonl"
    with path.open("w") as fh:
        save_augmented(fh, examples, tuple("ABCDE"), task)
    rows = sum(e.embeddings.size + (e.soft_labels.size if task == "ner" else 5)
               for e in examples) * 4
    with path.open() as fh:
        tracemalloc.start()
        try:
            load_augmented(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # rows held as float64 add another 3.1 to 3.5 KB a record
    assert peak < rows + 2048 * len(examples), f"{(peak - rows) / len(examples):.0f} B a record"


# ---------------------------------------------------------------- no container per record

def _big_run(task: str):
    """(examples, label vocabulary) of a generated run of 2,000 examples or more."""
    if task == "ner":
        corpus, variant = synth_tagged_corpus(1000, seed=9), "mention+token"
        tokens, vocab = corpus.token_vocab, corpus.label_vocab
    else:
        corpus, variant = synth_re_corpus(2000, seed=9), "relation"
        tokens = tuple(dict.fromkeys(t for s in corpus.samples for t in s.tokens))
        vocab = corpus.relation_vocab
    table = EmbeddingTable.random(tokens, 16, seed=0)
    examples = segmix_generate(corpus, None, table,
                               MixConfig(variant=variant, rate=2.0 if task == "ner" else 1.0,
                                         seed=5)).examples
    assert len(examples) >= 2000
    return examples, vocab


def _collections_during(run) -> int:
    """Collections the running cyclic collector starts during ``run()``,
    counted from a fresh start (``gc.collect()`` first)."""
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    return len(seen)


@pytest.mark.parametrize("task", ["ner", "re"])
def test_saving_a_generated_or_loaded_store_sets_off_no_collection(task):
    # a list per span pair or per example kept to the end of a save set off 22 to 24
    examples, vocab = _big_run(task)
    stream = io.StringIO()
    assert _collections_during(lambda: save_augmented(stream, examples, vocab, task)) == 0
    loaded = load_augmented(io.StringIO(stream.getvalue())).examples
    again = io.StringIO()
    assert _collections_during(lambda: save_augmented(again, loaded, vocab, task)) == 0
    assert again.getvalue() == stream.getvalue()


@pytest.mark.parametrize("task", ["ner", "re"])
def test_saving_a_plain_list_sets_off_at_most_one_collection(task):
    examples, vocab = _big_run(task)
    examples = list(examples)  # example objects, walked into columns on save
    stream = io.StringIO()
    assert _collections_during(lambda: save_augmented(stream, examples, vocab, task)) <= 1


@pytest.mark.parametrize("task", ["ner", "re"])
def test_a_loaded_store_holds_tracked_objects_per_block_not_per_record(task):
    examples, vocab = _big_run(task)
    examples = examples[:2000]
    stream = io.StringIO()
    save_augmented(stream, examples, vocab, task)
    text = stream.getvalue()
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_augmented(io.StringIO(text))
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(loaded.examples) == 2000
    assert kept < 2000 / 2, f"{kept / 2000:.2f} tracked objects a record"


def test_a_span_past_int64_is_one_line_on_load_and_save():
    why = "provenance 'spans' must be a list of [start, end] pairs with 0 <= start < end, got "
    for task in ("ner", "re"):
        examples, vocab = _with_provenance(task, "spans", ((0, 2**63),))
        stream = io.StringIO()
        with pytest.raises(ValueError) as saved:
            save_augmented(stream, examples, vocab, task=task)
        assert (str(saved.value), stream.getvalue()) == (f"example 1: {why}((0, 9223372036854775808),)", "")
        stream = io.StringIO()
        _oracle_save(stream, examples, vocab, task)
        with pytest.raises(ValueError) as loaded:
            load_augmented(io.StringIO(stream.getvalue()))
        assert str(loaded.value) == f"line 3: {why}[[0, 9223372036854775808]]"
    lines = _saved_lines(_re_examples(), ("R(e1,e2)", "Other"), "re")
    with pytest.raises(ValueError, match=r"^line 2: record 'e1' must be a \[start, end\] pair"):
        load_augmented(io.StringIO(_with_record(lines, 1, e1=[2**63, 2**64])))


def test_training_reads_no_provenance():
    # save refuses these spans; training, which never reads them, keeps the examples as they are
    for spans in (((0, 2**64),), "ab", ((np.int64(0), 1),)):
        examples, vocab = _with_provenance("ner", "spans", spans)
        model = TaggerModel.init(vocab, 4, window=1, seed=0)
        assert len(train_tagger(model, examples, TrainConfig(epochs=1)).loss_trace) == 1
        assert examples[1].provenance.spans is spans
