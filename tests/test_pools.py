"""Segment pool construction, drawing, and synonym lexicon handling."""

import io
from collections import Counter

import pytest

from segmix.corpus import CorpusFormatError, Sentence, TaggedCorpus
from segmix.mixer import EmbeddingTable, MixConfig, segmix_generate
from segmix.pools import (
    EmptyPoolError,
    SegmentPool,
    SegmentTuple,
    build_mention_pool,
    build_relation_pool,
    build_sequence_pool,
    build_token_pool,
    identity_lexicon,
    load_synonym_lexicon,
)


def entry_key(entry):
    labels = entry.labels if isinstance(entry.labels, str) else tuple(entry.labels)
    return (entry.segments, labels)


def test_mention_pool_contents(hand_corpus):
    pool = build_mention_pool(hand_corpus)
    assert pool.arity == 1
    assert pool.source == "mention"
    got = Counter(entry_key(e) for e in pool.entries)
    want = Counter(
        [
            ((("new", "york", "city"),), (("B-LOC", "I-LOC", "I-LOC"),)),
            ((("marcello", "cuttitta"),), (("B-PER", "I-PER"),)),
            ((("rome",),), (("B-LOC",),)),
        ]
    )
    assert got == want


def test_mention_pool_reads_ill_formed_bio_like_scoring():
    # only direct API calls build such sentences: parse_conll validates BIO
    corpus = TaggedCorpus.from_sentences([
        Sentence(("paris", "hilton"), ("B-LOC", "I-PER")),
        Sentence(("the", "rome", "club"), ("O", "I-LOC", "I-ORG")),
    ])
    got = [entry_key(e) for e in build_mention_pool(corpus).entries]
    assert got == [
        ((("paris",),), (("B-LOC",),)),
        ((("hilton",),), (("I-PER",),)),
        ((("rome",),), (("I-LOC",),)),
        ((("club",),), (("I-ORG",),)),
    ]


def test_mention_pool_keeps_duplicates():
    sent = Sentence(("rome", "and", "rome"), ("B-LOC", "O", "B-LOC"))
    pool = build_mention_pool(TaggedCorpus.from_sentences([sent, sent]))
    assert len(pool) == 4


def test_token_pool_contents(hand_corpus):
    pool = build_token_pool(hand_corpus)
    got = Counter(entry_key(e) for e in pool.entries)
    want = Counter(
        [
            ((("new",),), (("B-LOC",),)),
            ((("york",),), (("I-LOC",),)),
            ((("city",),), (("I-LOC",),)),
            ((("marcello",),), (("B-PER",),)),
            ((("cuttitta",),), (("I-PER",),)),
            ((("rome",),), (("B-LOC",),)),
        ]
    )
    assert got == want


def test_token_pool_include_outside(hand_corpus):
    pool = build_token_pool(hand_corpus, include_outside=True)
    n_tokens = sum(len(s) for s in hand_corpus.sentences)
    assert len(pool) == n_tokens
    o_entries = [e for e in pool.entries if e.labels == (("O",),)]
    assert len(o_entries) == n_tokens - 6


def test_relation_pool_contents(hand_re_corpus):
    pool = build_relation_pool(hand_re_corpus)
    assert pool.arity == 2
    for entry, sample in zip(pool.entries, hand_re_corpus.samples):
        assert entry.segments[0] == sample.tokens[sample.e1.start : sample.e1.end]
        assert entry.segments[1] == sample.tokens[sample.e2.start : sample.e2.end]
        assert entry.labels == sample.relation


def test_sequence_pool_contents(hand_corpus):
    pool = build_sequence_pool(hand_corpus)
    assert len(pool) == len(hand_corpus)
    for entry, sent in zip(pool.entries, hand_corpus.sentences):
        assert entry.segments == (sent.tokens,)
        assert entry.labels == (sent.labels,)


def test_pool_arity_mismatch_rejected():
    entry = SegmentTuple((("a",), ("b",)), "Other")
    with pytest.raises(ValueError, match="arity"):
        SegmentPool(1, (entry,), "mention")
    with pytest.raises(ValueError, match="unknown pool source"):
        SegmentPool(1, (), "mentions")


ONE_MENTION = TaggedCorpus.from_sentences([Sentence(("big", "rome"), ("O", "B-LOC"))])


def test_empty_pool_draw_raises():
    pool = SegmentPool(1, (), "mention")
    table = EmbeddingTable.random(ONE_MENTION.token_vocab, 4, 0)
    with pytest.raises(EmptyPoolError):
        segmix_generate(ONE_MENTION, pool, table, MixConfig(rate=1.0))


def test_draw_tuple_uniform():
    """Generation draws its partners uniformly over the pool's entries."""
    entries = tuple(
        SegmentTuple(((f"t{i}",),), (("B-LOC",),)) for i in range(4)
    )
    pool = SegmentPool(1, entries, "mention")
    table = EmbeddingTable.random(ONE_MENTION.token_vocab, 4, 0)
    result = segmix_generate(ONE_MENTION, pool, table, MixConfig(rate=10_000, seed=123))
    counts = Counter(e.provenance.pool_index for e in result.examples)
    assert len(result.examples) == 10_000
    for index in range(4):
        assert abs(counts[index] / 10_000 - 0.25) < 0.03


def test_dump_jsonl(hand_corpus):
    pool = build_mention_pool(hand_corpus)
    buf = io.StringIO()
    pool.dump_jsonl(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(pool)
    import json

    first = json.loads(lines[0])
    assert first["segments"] == [["new", "york", "city"]]


# ---------------------------------------------------------------- lexicon

LEXICON_TEXT = """\
# comment lines are skipped
big\tlarge,huge
rome\troma
big\tsizable
"""


def test_load_synonym_lexicon():
    lex = load_synonym_lexicon(LEXICON_TEXT)
    assert len(lex) == 2
    assert "big" in lex and "rome" in lex
    # repeated keys extend the synonym list in order
    assert lex.synonyms("big") == ("large", "huge", "sizable")
    assert lex.synonyms("rome") == ("roma",)
    assert lex.synonyms("missing") == ()


def test_load_synonym_lexicon_errors():
    with pytest.raises(CorpusFormatError, match="line 1: expected"):
        load_synonym_lexicon("justonetoken\n")
    with pytest.raises(CorpusFormatError, match="line 1: empty or multiword"):
        load_synonym_lexicon("tok\ttwo words\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_synonym_lexicon("ok\tfine\ntok\t\n")


def test_draw_synonym():
    lex = load_synonym_lexicon("big\tlarge,huge\n")
    assert lex.synonyms("big") == ("large", "huge")
    assert lex.synonyms("absent") == ()
    table = EmbeddingTable.random(ONE_MENTION.token_vocab, 4, 0)
    result = segmix_generate(ONE_MENTION, lex, table, MixConfig(variant="synonym", rate=50, seed=5))
    assert {e.provenance.replacements for e in result.examples} == {("large",), ("huge",)}


def test_identity_lexicon():
    lex = identity_lexicon(["a", "b", "a"])
    assert len(lex) == 2
    assert lex.synonyms("a") == ("a",)
    assert lex.synonyms("b") == ("b",)


def test_empty_synonym_list_rejected():
    from segmix.pools import SynonymLexicon

    with pytest.raises(CorpusFormatError, match="empty synonym list"):
        SynonymLexicon({"x": ()})
