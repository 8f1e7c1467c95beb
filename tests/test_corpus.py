"""Parsing, validation, and round-trip behavior of the corpus containers."""

import gc
import io
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segmix
from segmix import mixer, pools, serialization
from segmix.corpus import (
    BioValidationError,
    CorpusFormatError,
    RECorpus,
    RESample,
    Sentence,
    Span,
    TaggedCorpus,
    _bio_arrays,
    _label_ids,
    _mentions,
    _vocab_ids,
    bio_spans,
    corpus_to_text,
    downsample,
    parse_conll,
    parse_re,
    split_bio,
    validate_bio,
    write_corpus,
)
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import per_label_validate_bio, random_corpus, random_re_corpus


# ---------------------------------------------------------------- labels

def test_split_bio():
    assert split_bio("O") == ("O", None)
    assert split_bio("B-LOC") == ("B", "LOC")
    assert split_bio("I-Cause-Effect") == ("I", "Cause-Effect")


@pytest.mark.parametrize("bad", ["", "B", "I-", "X-LOC", "b-LOC", "BLOC", "OO"])
def test_split_bio_rejects(bad):
    with pytest.raises(CorpusFormatError, match="not a BIO label"):
        split_bio(bad)


def test_bio_spans_hand_cases():
    assert bio_spans(["O", "O"]) == []
    assert bio_spans(["B-LOC"]) == [(0, 1, "LOC")]
    assert bio_spans(["B-LOC", "I-LOC", "I-LOC", "O"]) == [(0, 3, "LOC")]
    # adjacent mentions: B- starts a new span even with no O between
    assert bio_spans(["B-PER", "B-PER", "O"]) == [(0, 1, "PER"), (1, 2, "PER")]
    # span running to the end of the sentence is closed
    assert bio_spans(["O", "B-ORG", "I-ORG"]) == [(1, 3, "ORG")]
    assert bio_spans(["B-PER", "I-PER", "B-LOC"]) == [(0, 2, "PER"), (2, 3, "LOC")]


def _oracle_spans(labels):
    """Per-sentence walk: a non-O label opens a span unless it is I-t right
    after B-t or I-t; the span runs while labels stay I-t."""
    spans = []
    for i, label in enumerate(labels):
        if label == "O":
            continue
        kind, etype = label.split("-", 1)
        if kind == "I" and i > 0 and labels[i - 1] in (f"B-{etype}", f"I-{etype}"):
            continue
        j = i + 1
        while j < len(labels) and labels[j] == f"I-{etype}":
            j += 1
        spans.append((i, j, etype))
    return spans


_labels = st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B", "I-C"])
_sentences = st.lists(st.lists(_labels, min_size=1, max_size=8), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_sentences)
def test_mentions_of_a_flat_stream_match_a_per_sentence_oracle(sentences):
    flat = [label for sent in sentences for label in sent]
    offsets = np.cumsum([0] + [len(sent) for sent in sentences])
    kind, etype, types = _bio_arrays(flat)
    starts, ends = _mentions(kind, etype, offsets)
    got = [(s, e, types[etype[s]]) for s, e in zip(starts.tolist(), ends.tolist())]
    want = [
        (at + s, at + e, t)
        for at, sent in zip(offsets.tolist(), sentences)
        for s, e, t in _oracle_spans(sent)
    ]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(_labels, max_size=12))
def test_repair_keeps_the_spans_and_is_idempotent(labels):
    repaired = validate_bio(labels, repair=True)
    assert bio_spans(repaired) == bio_spans(labels)
    assert validate_bio(repaired, repair=True) == repaired


def test_validate_bio_accepts_valid():
    labels = ("B-LOC", "I-LOC", "O", "B-PER")
    assert validate_bio(labels) == labels


def test_validate_bio_strict_rejects_stray_i():
    with pytest.raises(BioValidationError, match="position 0"):
        validate_bio(["I-LOC", "O"])
    # type switch without a fresh B- is also invalid
    with pytest.raises(BioValidationError, match="I-PER at position 1"):
        validate_bio(["B-LOC", "I-PER"])
    with pytest.raises(BioValidationError, match="position 2"):
        validate_bio(["B-LOC", "O", "I-LOC"])


def test_validate_bio_repair_promotes():
    assert validate_bio(["I-LOC", "I-LOC"], repair=True) == ("B-LOC", "I-LOC")
    assert validate_bio(["B-LOC", "I-PER"], repair=True) == ("B-LOC", "B-PER")
    # repair output is always valid under the strict check
    repaired = validate_bio(["I-A", "I-B", "I-B", "O", "I-A"], repair=True)
    assert validate_bio(repaired) == repaired


def _validate_outcome(validate, labels, repair):
    try:
        return validate(labels, repair=repair)
    except CorpusFormatError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B", "X", "B-", "I"]), max_size=12),
       st.booleans())
@example([], False)
@example([], True)
def test_validate_bio_is_the_per_label_loop(labels, repair):
    # the same labels, or the same exception type and message
    got = _validate_outcome(validate_bio, labels, repair)
    assert got == _validate_outcome(per_label_validate_bio, labels, repair)


# ---------------------------------------------------------------- containers

def test_sentence_validation():
    s = Sentence(("a", "b"), ("O", "B-X"))
    assert len(s) == 2
    assert s.mentions() == [(1, 2, "X")]
    with pytest.raises(CorpusFormatError):
        Sentence(("a",), ("O", "O"))
    with pytest.raises(CorpusFormatError):
        Sentence((), ())


def test_span_validation():
    assert len(Span(2, 5)) == 3
    assert Span(0, 2).overlaps(Span(1, 3))
    assert not Span(0, 2).overlaps(Span(2, 4))
    with pytest.raises(CorpusFormatError):
        Span(3, 3)
    with pytest.raises(CorpusFormatError):
        Span(-1, 2)


@pytest.mark.parametrize("start,end", [(True, 3), (0, True), (0.5, 2), (0, 2.0), (np.bool_(False), 1),
                                       ("0", 1), (None, 1)])
def test_a_span_refuses_bounds_that_are_not_integers(start, end):
    with pytest.raises(CorpusFormatError, match=r"^span bounds \(.*\) are not integers$"):
        Span(start, end)


def test_a_span_keeps_numpy_integers_as_plain_ints():
    span = Span(np.int64(1), np.uint8(3))
    assert (span, type(span.start), type(span.end)) == (Span(1, 3), int, int)
    assert hash(span) == hash(Span(1, 3))


def test_re_sample_validation():
    tokens = ("a", "b", "c", "d")
    RESample(tokens, Span(0, 1), Span(2, 4), "Other")
    with pytest.raises(CorpusFormatError, match="exceeds"):
        RESample(tokens, Span(0, 1), Span(2, 5), "Other")
    with pytest.raises(CorpusFormatError, match="overlapping"):
        RESample(tokens, Span(0, 2), Span(1, 3), "Other")


def test_vocab_first_occurrence_order():
    corpus = TaggedCorpus.from_sentences(
        [
            Sentence(("rome", "beats", "york"), ("B-LOC", "O", "B-LOC")),
            Sentence(("york", "again",), ("B-LOC", "O")),
        ]
    )
    assert corpus.label_vocab == ("B-LOC", "O")
    assert corpus.token_vocab == ("rome", "beats", "york", "again")


def test_vocab_o_is_ensured():
    # all-entity corpus still carries O so models can emit it
    corpus = TaggedCorpus.from_sentences([Sentence(("x",), ("B-X",))])
    assert corpus.label_vocab == ("B-X", "O")


def test_re_vocab_first_occurrence():
    corpus = RECorpus.from_samples(
        [
            RESample(("a", "b"), Span(0, 1), Span(1, 2), "R1"),
            RESample(("c", "b"), Span(0, 1), Span(1, 2), "R2"),
            RESample(("a", "b"), Span(0, 1), Span(1, 2), "R1"),
        ]
    )
    assert corpus.relation_vocab == ("R1", "R2")
    assert corpus.token_vocab == ("a", "b", "c")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), max_size=20), st.lists(st.sampled_from("abcd"), max_size=6))
@example(labels=["e", "a", "c", "e", "f"], vocab=["a", "b", "a"])
def test_label_ids_number_labels_as_a_plain_dict_does(labels, vocab):
    oracle = {}
    for i, label in enumerate(vocab):
        oracle[label] = i  # a repeated label keeps its last place
    names = list(vocab)
    for label in labels:  # unseen labels follow in first-seen order
        if label not in oracle:
            oracle[label] = len(names)
            names.append(label)
    ids, got = _vocab_ids(labels, vocab)
    assert got == tuple(names)
    assert ids.dtype == np.int64 and ids.tolist() == [oracle[label] for label in labels]
    unknown = [label for label in labels if label not in vocab]
    if unknown:  # the strict form names the first unknown label of the stream
        with pytest.raises(ValueError, match=f"^label '{unknown[0]}' not in vocabulary$"):
            _label_ids(labels, vocab)
    else:
        assert _label_ids(labels, vocab).tolist() == ids.tolist()


# ---------------------------------------------------------------- parse_conll

CONLL_SAMPLE = """\
new\tB-LOC
york\tI-LOC
is\tO

-DOCSTART-\tO

rome\tB-LOC
"""


def test_parse_conll_basic():
    corpus = parse_conll(CONLL_SAMPLE)
    assert len(corpus) == 2
    assert corpus.sentences[0].tokens == ("new", "york", "is")
    assert corpus.sentences[0].labels == ("B-LOC", "I-LOC", "O")
    assert corpus.sentences[1].tokens == ("rome",)


def test_parse_conll_sources_agree():
    from_string = parse_conll(CONLL_SAMPLE)
    from_stream = parse_conll(io.StringIO(CONLL_SAMPLE))
    from_lines = parse_conll(CONLL_SAMPLE.splitlines(keepends=True))
    assert from_string == from_stream == from_lines


def test_parse_conll_space_separated_and_crlf():
    corpus = parse_conll("a B-X\r\nb I-X\r\n")
    assert corpus.sentences[0].labels == ("B-X", "I-X")


def test_parse_conll_no_trailing_blank_line():
    corpus = parse_conll("a\tO\nb\tB-X")
    assert len(corpus) == 1
    assert corpus.sentences[0].tokens == ("a", "b")


def test_parse_conll_field_count_error_carries_line_number():
    with pytest.raises(CorpusFormatError, match="line 3"):
        parse_conll("a\tO\nb\tO\nc\n")


def test_parse_conll_bad_label_syntax():
    with pytest.raises(CorpusFormatError, match="not a BIO label"):
        parse_conll("a\tQ-LOC\n")


def test_parse_conll_strict_bio():
    text = "a\tO\nb\tI-LOC\n"
    with pytest.raises(BioValidationError, match="position 1"):
        parse_conll(text)
    repaired = parse_conll(text, repair_bio=True)
    assert repaired.sentences[0].labels == ("O", "B-LOC")


def test_parse_conll_empty_input():
    assert len(parse_conll("")) == 0
    assert len(parse_conll("\n\n\n")) == 0


def _per_line_parse_conll(source, repair_bio=False):
    """The line-at-a-time parse ``parse_conll`` replaced: the oracle for its
    sentences, vocabularies, and which error it raises with what message."""
    sentences, tokens, labels = [], [], []

    def flush(lineno):
        if not tokens:
            return
        try:
            fixed = per_label_validate_bio(labels, repair=repair_bio)
        except BioValidationError as err:
            raise BioValidationError(
                f"sentence {len(sentences)} (ending line {lineno}): {err}"
            ) from None
        sentences.append(Sentence(tuple(tokens), fixed))
        tokens.clear()
        labels.clear()

    lineno = 0
    lines = io.StringIO(source) if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush(lineno)
            continue
        fields = line.split()
        if fields[0] == "-DOCSTART-":
            continue
        if len(fields) != 2:
            raise CorpusFormatError(
                f"line {lineno}: expected '<token> <label>', got {len(fields)} fields"
            )
        token, label = fields
        try:
            split_bio(label)
        except CorpusFormatError as err:
            raise CorpusFormatError(f"line {lineno}: {err}") from None
        tokens.append(token)
        labels.append(label)
    flush(lineno + 1)
    return TaggedCorpus.from_sentences(sentences)


_GAP_LINES = ("", " ", "\t ", "\r", "-DOCSTART-", "-DOCSTART- O", "-DOCSTART-\tO\tx")


@st.composite
def _conll_lines(draw):
    """Lines of a CoNLL text with "\\n" or "\\r\\n" endings (the last maybe
    none); a noisy text also has lines of 1 or 3 fields and labels that are
    not BIO."""
    noisy = draw(st.booleans())
    labels = ("O", "B-A", "I-A", "B-B", "I-B") + (("Q-A", "I-", "o") if noisy else ())
    specials = _GAP_LINES + (("a", "a b c", "x\tO\tO") if noisy else ())
    pair = st.builds("{}{}{}".format, st.sampled_from(("a", "b", "é", "-DOCSTART-")),
                     st.sampled_from(("\t", " ", " \r ")), st.sampled_from(labels))
    lines = draw(st.lists(st.one_of(pair, pair, st.sampled_from(specials)), max_size=16))
    ended = [line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines]
    if ended and draw(st.booleans()):
        ended[-1] = lines[-1]
    return ended


def _parse_outcome(parse, source, repair):
    try:
        return parse(source, repair_bio=repair)
    except CorpusFormatError as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(_conll_lines(), st.sampled_from(("string", "lines", "stream")), st.booleans())
def test_parse_conll_is_the_per_line_parse(lines, kind, repair):
    source = {"string": "".join, "lines": list, "stream": lambda ls: io.StringIO("".join(ls))}[kind]
    # corpora compare their sentences and both vocabularies; errors their type and message
    got = _parse_outcome(parse_conll, source(lines), repair)
    assert got == _parse_outcome(_per_line_parse_conll, source(lines), repair)


def test_parse_conll_raises_the_fault_on_the_earliest_line():
    # a stray I-X is raised on the line closing its sentence, so a later bad label wins
    # inside that sentence, and an earlier sentence's stray wins over a later bad line
    with pytest.raises(CorpusFormatError, match="line 2: not a BIO label"):
        parse_conll("a\tI-X\nb\tQ\n\n")
    with pytest.raises(BioValidationError, match=r"sentence 1 \(ending line 5\): I-X at position 0"):
        parse_conll("a\tO\n\nb\tI-X\n-DOCSTART-\n\nc d e\n")
    with pytest.raises(BioValidationError, match=r"sentence 0 \(ending line 3\)"):
        parse_conll("a\tB-Y\nb\tI-X")
    # a sentence a bad line cuts off is never closed, so its stray I-X is not raised
    with pytest.raises(CorpusFormatError, match="line 2: expected"):
        parse_conll("a\tI-X\nb\n")
    with pytest.raises(CorpusFormatError, match="line 4: expected"):
        parse_conll("a\tO\n\nb\tI-X\nc\n")


# ---------------------------------------------------------------- parse_re

RE_SAMPLE = "the storm caused damage\t1\t2\t3\t4\tCause-Effect(e1,e2)\n"


def test_parse_re_basic():
    corpus = parse_re(RE_SAMPLE)
    assert len(corpus) == 1
    s = corpus.samples[0]
    assert s.tokens == ("the", "storm", "caused", "damage")
    assert (s.e1.start, s.e1.end) == (1, 2)
    assert (s.e2.start, s.e2.end) == (3, 4)
    assert s.relation == "Cause-Effect(e1,e2)"
    assert corpus.relation_vocab == ("Cause-Effect(e1,e2)",)


def test_parse_re_field_count_error():
    with pytest.raises(CorpusFormatError, match="line 1: expected 6 fields"):
        parse_re("a b\t0\t1\t1\t2\n")


def test_parse_re_non_integer_offset():
    with pytest.raises(CorpusFormatError, match="line 1: non-integer span offset"):
        parse_re("a b\t0\tone\t1\t2\tOther\n")


def test_parse_re_span_errors_carry_line_number():
    good = RE_SAMPLE
    bad_overlap = "a b c\t0\t2\t1\t3\tOther\n"
    with pytest.raises(CorpusFormatError, match="line 2: overlapping"):
        parse_re(good + bad_overlap)
    bad_range = "a b\t0\t1\t1\t5\tOther\n"
    with pytest.raises(CorpusFormatError, match="line 1: e2 span"):
        parse_re(bad_range)


@pytest.mark.parametrize("relation", ["", "  ", " Other", "Other "])
def test_parse_re_refuses_an_empty_or_padded_relation(relation):
    with pytest.raises(CorpusFormatError, match="line 2: relation .* empty or padded"):
        parse_re(RE_SAMPLE + f"a b\t0\t1\t1\t2\t{relation}\n")


def test_parse_re_skips_blank_lines():
    corpus = parse_re("\n" + RE_SAMPLE + "\n\n")
    assert len(corpus) == 1


# ---------------------------------------------------------------- round trips

def test_write_parse_round_trip_ner(hand_corpus):
    assert parse_conll(corpus_to_text(hand_corpus)) == hand_corpus


def test_write_parse_round_trip_re(hand_re_corpus):
    assert parse_re(corpus_to_text(hand_re_corpus)) == hand_re_corpus


def test_round_trip_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ner = random_corpus(rng, n_sentences=int(rng.integers(1, 10)))
        assert parse_conll(corpus_to_text(ner)) == ner
        re_corpus = random_re_corpus(rng, n_samples=int(rng.integers(1, 10)))
        assert parse_re(corpus_to_text(re_corpus)) == re_corpus


def test_write_corpus_rejects_non_corpus():
    with pytest.raises(TypeError, match="not a corpus"):
        write_corpus(["not", "a", "corpus"], io.StringIO())


# ---------------------------------------------------------------- downsample

def test_downsample_deterministic(hand_corpus):
    a = downsample(hand_corpus, 2, seed=3)
    b = downsample(hand_corpus, 2, seed=3)
    assert a == b
    assert len(a) == 2
    assert all(s in hand_corpus.sentences for s in a.sentences)


def test_downsample_full_size_is_permutation(hand_corpus):
    full = downsample(hand_corpus, len(hand_corpus), seed=0)
    assert sorted(full.sentences, key=repr) == sorted(hand_corpus.sentences, key=repr)


def test_downsample_rebuilds_vocab():
    corpus = TaggedCorpus.from_sentences(
        [Sentence(("a",), ("B-X",)), Sentence(("b",), ("O",))]
    )
    for seed in range(8):
        sub = downsample(corpus, 1, seed=seed)
        kept = sub.sentences[0]
        assert sub.token_vocab == kept.tokens


def test_downsample_out_of_range(hand_corpus):
    with pytest.raises(ValueError, match="out of range"):
        downsample(hand_corpus, len(hand_corpus) + 1, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        downsample(hand_corpus, -1, seed=0)


def test_downsample_re(hand_re_corpus):
    sub = downsample(hand_re_corpus, 2, seed=1)
    assert isinstance(sub, RECorpus)
    assert len(sub) == 2
    assert all(s in hand_re_corpus.samples for s in sub.samples)


# ---------------------------------------------------------------- GC-quiet bulk builders

# Every GC-quiet builder, as a call on the inputs of ``builder_inputs``.
_BUILDERS = {
    "parse_conll": lambda x: parse_conll(x["ner_text"]),
    "parse_re": lambda x: parse_re(x["re_text"]),
    "build_mention_pool": lambda x: pools.build_mention_pool(x["ner"]),
    "build_token_pool": lambda x: pools.build_token_pool(x["ner"]),
    "build_relation_pool": lambda x: pools.build_relation_pool(x["re"]),
    "build_sequence_pool": lambda x: pools.build_sequence_pool(x["ner"]),
    # with no pools given, it builds one inside
    "segmix_generate": lambda x: mixer.segmix_generate(x["ner"], None, x["table"], x["config"]),
    "replacement_da": lambda x: mixer.replacement_da(x["ner"], None, x["config"]),
    "load_augmented": lambda x: serialization.load_augmented(io.StringIO(x["augmented"])),
}


@pytest.fixture
def builder_inputs() -> dict:
    ner, rel = synth_tagged_corpus(30, seed=0), synth_re_corpus(30, seed=0)
    table = mixer.EmbeddingTable.random(ner.token_vocab, 4, seed=0)
    config = mixer.MixConfig(variant="mention", rate=1.0)
    saved = io.StringIO()
    examples = mixer.segmix_generate(ner, None, table, config).examples
    serialization.save_augmented(saved, examples, ner.label_vocab, "ner")
    return {"ner": ner, "re": rel, "ner_text": corpus_to_text(ner), "re_text": corpus_to_text(rel),
            "table": table, "config": config, "augmented": saved.getvalue()}


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as it was after a test that switches it."""
    was, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_a_gc_quiet_builder_leaves_the_collector_as_it_found_it(
        collector_state, builder_inputs, name, enabled):
    codes = {getattr(segmix, name).__wrapped__.__code__}
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(1)  # a running collector would collect at almost every allocation
    inside, _ = _collections(lambda: _BUILDERS[name](builder_inputs), codes)
    assert inside == 0
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_gc_quiet_builder_that_raises_leaves_the_collector_as_it_found_it(
        collector_state, enabled):
    seen = []

    def lines():
        seen.append(gc.isenabled())
        yield "paris\tB-LOC\n"
        yield "x\tNOT-BIO\n"

    (gc.enable if enabled else gc.disable)()
    with pytest.raises(CorpusFormatError, match="^line 2: not a BIO label"):
        parse_conll(lines())
    assert seen == [False]  # paused while it ran
    assert gc.isenabled() is enabled


def test_the_encoders_build_too_few_objects_to_set_off_a_collection(collector_state):
    # their examples are blocks of arrays, so they need no pause of the collector
    ner, rel = synth_tagged_corpus(2000, seed=1), synth_re_corpus(2000, seed=1)
    table = mixer.EmbeddingTable.random([*ner.token_vocab, *(t for s in rel.samples for t in s.tokens)],
                                        8, seed=0)
    gc.enable()
    for encode, corpus in ((mixer.encode_corpus, ner), (mixer.encode_re_corpus, rel)):
        gc.collect()
        assert _collections(lambda: encode(corpus, table), set())[1] == 0


def _collections(run, codes) -> tuple[int, int]:
    """(collections started while a frame of ``codes`` was on the stack, all
    collections) during ``run()``."""
    inside = []

    def seen(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in codes:
                frame = frame.f_back
            inside.append(frame is not None)

    gc.callbacks.append(seen)
    try:
        run()
    finally:
        gc.callbacks.remove(seen)
    return sum(inside), len(inside)


def test_an_augment_round_trip_collects_nothing_while_a_builder_runs(collector_state):
    text = corpus_to_text(synth_tagged_corpus(300, seed=3))
    quiet = (parse_conll, pools.build_mention_pool, mixer.segmix_generate,
             serialization.load_augmented)
    codes = {build.__wrapped__.__code__ for build in quiet}

    def round_trip(parse, build_pool, generate, load):
        corpus = parse(text)
        table = mixer.EmbeddingTable.random(corpus.token_vocab, 8, seed=0)
        config = mixer.MixConfig(variant="mention", rate=2.0)
        examples = generate(corpus, build_pool(corpus), table, config).examples
        saved = io.StringIO()
        serialization.save_augmented(saved, examples, corpus.label_vocab, "ner")
        assert len(load(io.StringIO(saved.getvalue())).examples) == len(examples)

    gc.enable()
    inside, total = _collections(lambda: round_trip(*quiet), codes)
    assert (inside, total > 0) == (0, True)
    # the control: the same builders with the collector left running collect inside them
    inside, _ = _collections(lambda: round_trip(*(build.__wrapped__ for build in quiet)), codes)
    assert inside > 0
