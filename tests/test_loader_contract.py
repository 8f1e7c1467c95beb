"""Loader contract: for any bytes, a loader returns its object or raises a
one-line ``ValueError`` (the corpus readers their ``CorpusFormatError``, the
CLI's JSON reader its ``CliError``); never another exception, a warning
(warnings are errors in this suite) or an allocation the file's own size
does not bound."""

import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.cli import CliError, _load_config, _read_json, main
from segmix.corpus import (
    CorpusFormatError, RECorpus, TaggedCorpus, corpus_to_text, parse_conll, parse_re,
)
from segmix.mixer import EmbeddingTable, MixConfig, segmix_generate
from segmix.model import TaggerModel
from segmix.pools import SynonymLexicon, load_synonym_lexicon
from segmix.serialization import (
    AugmentedFile, load_augmented, load_checkpoint, save_augmented, save_checkpoint,
)
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import per_label_validate_bio


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
def _mutated(draw, raw: bytes, tokens: tuple = ()) -> bytes:
    """``raw`` after one to three mutations: a byte flipped, a byte inserted,
    one of the byte strings ``tokens`` inserted, a run deleted, or the tail cut off."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"] + ["token"] * bool(tokens)))
        if kind == "flip" and data:
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif kind == "token":
            data[at:at] = draw(st.sampled_from(tokens))
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
def _mutated_text(draw, texts, tokens=_TOKENS) -> str:
    """One of ``texts`` after one to three mutations: a character flipped, a
    character or one of ``tokens`` inserted, a run deleted, or the tail cut off."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        kind = draw(st.sampled_from(["flip", "insert", "token", "delete", "truncate"]))
        if kind == "flip" and text:
            text = text[:at] + chr(ord(text[at]) ^ draw(st.integers(1, 127))) + text[at + 1:]
        elif kind == "insert":
            text = text[:at] + chr(draw(st.integers(0, 127))) + text[at:]
        elif kind == "token":
            text = text[:at] + draw(st.sampled_from(tokens)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 16)):]
        else:
            text = text[:at]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_text(sorted(AUGMENTED.values())))
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


# what a damaged or hand-edited line file could hold besides: line and field breaks,
# label and document markers, a byte-order mark (and a UTF-16 one read as Latin-1)
# and a list separator
_LINE_TOKENS = (*_TOKENS, "\n", "\r", " ", "\ufeff", "\xff\xfe", "I-PER", "B-", "-DOCSTART-", ",")
CONLL = corpus_to_text(synth_tagged_corpus(6, seed=0))
RE_TSV = corpus_to_text(synth_re_corpus(6, seed=0))
LEXICON = "# token\tsynonyms\nnew\tfresh,novel\ncity\ttown\nnew\tyoung\n\nrome\troma, urbs\n"


def _one_line(exc: Exception) -> None:
    assert str(exc) and "\n" not in str(exc)


@settings(max_examples=150, deadline=None)
@given(_mutated_text([CONLL], _LINE_TOKENS), st.booleans())
def test_parse_conll_returns_a_corpus_or_one_line_corpus_format_error(text, repair):
    try:
        corpus = parse_conll(text, repair_bio=repair)
    except CorpusFormatError as exc:
        return _one_line(exc)
    assert isinstance(corpus, TaggedCorpus)
    for s in corpus.sentences:  # valid BIO by the per-label oracle, repaired or not
        assert len(s.tokens) == len(s.labels) > 0
        assert per_label_validate_bio(s.labels) == tuple(s.labels)


@settings(max_examples=150, deadline=None)
@given(_mutated_text([RE_TSV], _LINE_TOKENS))
def test_parse_re_returns_a_corpus_or_one_line_corpus_format_error(text):
    try:
        corpus = parse_re(text)
    except CorpusFormatError as exc:
        return _one_line(exc)
    assert isinstance(corpus, RECorpus)
    for s in corpus.samples:
        assert 0 <= s.e1.start < s.e1.end <= len(s.tokens)
        assert 0 <= s.e2.start < s.e2.end <= len(s.tokens)


@settings(max_examples=150, deadline=None)
@given(_mutated_text([LEXICON], _LINE_TOKENS))
def test_load_synonym_lexicon_returns_a_lexicon_or_one_line_corpus_format_error(text):
    try:
        lexicon = load_synonym_lexicon(text)
    except CorpusFormatError as exc:
        return _one_line(exc)
    assert isinstance(lexicon, SynonymLexicon)


def test_the_line_fixtures_load():
    assert len(parse_conll(CONLL).sentences) == len(parse_re(RE_TSV).samples) == 6
    assert load_synonym_lexicon(LEXICON).synonyms("new") == ("fresh", "novel", "young")


def _manifest_bytes() -> bytes:
    """The manifest of a real ``segmix augment`` run over a 6-sentence corpus at dim 4."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "train.conll", Path(tmp) / "aug.jsonl"
        corpus.write_text(CONLL)
        assert main(["augment", "--input", str(corpus), "--output", str(out), "--dim", "4"]) == 0
        return Path(f"{out}.manifest.json").read_bytes()


JSON_FILES = {"config file": json.dumps({"rate": 1.0, "seed": 9, "variant": "mention"}).encode(),
              "manifest": _manifest_bytes()}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(JSON_FILES)), st.data())
def test_read_json_returns_a_value_or_one_line_cli_error(what, data):
    tokens = (*(t.encode() for t in _TOKENS), "\ufeff".encode(), b"\xff\xfe", b"{")  # both BOMs
    raw = data.draw(_mutated(JSON_FILES[what], tokens))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_bytes(raw)
        try:
            value = _load_config(path) if what == "config file" else _read_json(path, what)
        except CliError as exc:
            return _one_line(exc)
    assert what == "manifest" or isinstance(value, dict)


def test_the_json_fixtures_load(tmp_path):
    for what, raw in JSON_FILES.items():
        (tmp_path / "in.json").write_bytes(raw)
        assert _read_json(tmp_path / "in.json", what) == json.loads(raw)
    assert _read_json(tmp_path / "in.json", "manifest")["command"] == "augment"
