"""Embedding tables, interpolation primitives, and the generation pipeline."""

import io
import json
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segmix.corpus import (
    RECorpus,
    RESample,
    Sentence,
    Span,
    TaggedCorpus,
    validate_bio,
)
from segmix.mixer import (
    EmbeddingTable,
    MixConfig,
    MixedExample,
    Provenance,
    SegmentPool,
    one_hot,
    replacement_da,
    sample_mix_ratio,
    encode_corpus,
    encode_re_corpus,
    segmix_generate,
    _mix_ratios,
    _splice,
)
from segmix.pools import (
    EmptyPoolError,
    SegmentTuple,
    SynonymLexicon,
    build_mention_pool,
    build_relation_pool,
    build_sequence_pool,
    build_token_pool,
)
from segmix.rng import derive_rng
from segmix.serialization import load_augmented
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import encode_array, identity_lexicon, mix, pad_to_longer, provenance_json


VOCAB = ("B-LOC", "I-LOC", "O", "B-PER", "I-PER")


def single_entry_pool(tokens, labels):
    return SegmentPool(1, (SegmentTuple((tuple(tokens),), (tuple(labels),)),))


def _run_alone(example, pool, table, vocab=VOCAB, **config):
    """``example`` as a one-example corpus whose label vocabulary is ``vocab``
    (so a pool label the example lacks still has a one-hot column), mixed by
    :func:`segmix_generate`: one slot at the default rate of 1.0."""
    alone = RECorpus if isinstance(example, RESample) else TaggedCorpus
    return segmix_generate(alone((example,), tuple(vocab)), pool, table,
                           MixConfig(**{"rate": 1.0, **config}))


def _mixed(example, pool, table, vocab=VOCAB, **config):
    """The one example a one-slot run over ``example`` alone makes."""
    (got,) = _run_alone(example, pool, table, vocab, **config).examples
    return got


# ---------------------------------------------------------------- tables

def test_random_table_lookup():
    table = EmbeddingTable.random(["a", "b"], dim=4, seed=0)
    assert table.dim == 4
    assert table.vocab_size == 2
    assert np.array_equal(table.embed(["b"])[0], table.vectors[1])
    again = EmbeddingTable.random(["a", "b"], dim=4, seed=0)
    assert np.array_equal(table.vectors, again.vectors)
    other = EmbeddingTable.random(["a", "b"], dim=4, seed=1)
    assert not np.array_equal(table.vectors, other.vectors)


def test_unknown_token_buckets():
    table = EmbeddingTable.random(["a"], dim=4, seed=0, n_buckets=8)
    row = table.index("never-seen")
    assert table.vocab_size <= row < table.vocab_size + 8
    # bucket choice depends only on the surface, not the table
    other = EmbeddingTable.random(["x", "y", "z"], dim=6, seed=9, n_buckets=8)
    assert other.index("never-seen") - other.vocab_size == row - table.vocab_size


def test_embed_empty_and_shapes():
    table = EmbeddingTable.random(["a"], dim=5, seed=0)
    assert table.embed([]).shape == (0, 5)
    assert table.embed(["a", "q", "a"]).shape == (3, 5)


def test_table_row_count_validated():
    with pytest.raises(ValueError, match="rows"):
        EmbeddingTable(["a", "b"], np.zeros((3, 4)), n_buckets=2)


def test_subword_table_groups_similar_surfaces():
    tokens = ["walking", "walkingen", "zzqqx"]
    table = EmbeddingTable.subword(tokens, dim=32, seed=0)
    base, inflected, unrelated = table.embed(tokens)
    assert np.linalg.norm(base - inflected) < np.linalg.norm(base - unrelated)
    norms = np.linalg.norm(table.vectors[: len(tokens)], axis=1)
    assert np.allclose(norms, np.sqrt(32))


def _per_token_subword(tokens, dim, seed, noise=0.45, n_buckets=64):
    """The subword table built one token at a time, with a gram-vector cache:
    the oracle ``EmbeddingTable.subword`` must equal bit for bit."""
    cache = {}

    def gram_vec(gram):
        if gram not in cache:
            cache[gram] = derive_rng(seed, "gram", gram).standard_normal(dim)
        return cache[gram]

    scale = np.sqrt(dim)
    rows = np.zeros((len(tokens), dim))
    tok_rng = derive_rng(seed, "tok-noise")
    for i, tok in enumerate(tokens):
        padded = f"<{tok}>"
        grams = [padded[j : j + 3] for j in range(len(padded) - 2)]
        v = np.sum([gram_vec(g) for g in grams], axis=0)
        v = v / max(np.linalg.norm(v), 1e-9)
        direction = tok_rng.standard_normal(dim)
        v = v + noise * direction / np.linalg.norm(direction)
        rows[i] = scale * v / np.linalg.norm(v)
    buckets = derive_rng(seed, "buckets").standard_normal((n_buckets, dim))
    return np.vstack([rows, buckets])


_SURFACES = st.one_of(
    st.text("ab", min_size=1, max_size=3),  # short, so duplicates and 1-character tokens
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_SURFACES, max_size=40),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.05, 0.45, 1.0, 3.5]),
    st.integers(1, 8),
)
@example([], 8, 3, 0.45, 64)
@example(["x"], 8, 3, 0.45, 64)
@example(["a" * 30], 8, 3, 0.45, 64)
@example(["ab", "ab", "é漢"], 8, 3, 0.45, 64)
def test_subword_table_is_the_per_token_table(tokens, dim, seed, noise, n_buckets):
    with np.errstate(invalid="ignore"):
        want = _per_token_subword(tokens, dim, seed, noise, n_buckets)
    if np.isnan(want).any():  # at dim 1 a noise of 1 can cancel a row exactly
        with pytest.raises(ValueError, match="a zero row"):
            EmbeddingTable.subword(tokens, dim, seed, noise=noise, n_buckets=n_buckets)
        return
    got = EmbeddingTable.subword(tokens, dim, seed, noise=noise, n_buckets=n_buckets)
    assert np.array_equal(got.vectors, want)


@pytest.mark.parametrize("build", [
    lambda: EmbeddingTable.random(["a"], dim=0, seed=0),
    lambda: EmbeddingTable.random(["a"], dim=4, seed=0, n_buckets=0),
    lambda: EmbeddingTable.subword(["a"], dim=0, seed=0),
    lambda: EmbeddingTable.subword(["a"], dim=4, seed=0, n_buckets=0),
    lambda: EmbeddingTable(["a"], np.zeros((2, 0)), n_buckets=1),
], ids=["random dim", "random buckets", "subword dim", "subword buckets", "zero-width rows"])
def test_a_table_of_size_zero_is_refused(build):
    with pytest.raises(ValueError, match="dim >= 1 and n_buckets >= 1"):
        build()


def test_subword_table_refuses_a_row_the_noise_cancels():
    # at dim 1 the trigram and noise directions are each +1 or -1
    with pytest.raises(ValueError, match="leaves token 'a' a zero row"):
        for seed in range(64):
            EmbeddingTable.subword(["a"], dim=1, seed=seed, noise=1.0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
def test_subword_table_refuses_a_negative_or_non_finite_noise(noise):
    with pytest.raises(ValueError, match="noise must be nonnegative and finite"):
        EmbeddingTable.subword(["a", "b"], dim=4, seed=0, noise=noise)


def test_one_hot():
    got = one_hot(["B", "O", "B"], ["B", "O"])
    assert np.array_equal(got, [[1, 0], [0, 1], [1, 0]])
    with pytest.raises(ValueError, match="not in vocabulary"):
        one_hot(["Q"], ["B", "O"])


# ---------------------------------------------------------------- primitives

def test_sample_mix_ratio_range_and_validation():
    rng = np.random.default_rng(0)
    draws = [sample_mix_ratio(8.0, rng) for _ in range(1000)]
    assert all(0.0 <= x <= 1.0 for x in draws)
    assert len(set(draws)) > 900
    with pytest.raises(ValueError, match="alpha"):
        sample_mix_ratio(0.0, rng)
    with pytest.raises(ValueError, match="alpha"):
        sample_mix_ratio(-1.0, rng)


def test_sample_mix_ratio_small_alpha_keeps_the_u_shape():
    """At alpha=1e-3 both Gammas often underflow to 0; the midpoint is no answer."""
    rng = np.random.default_rng(0)
    draws = np.array([sample_mix_ratio(1e-3, rng) for _ in range(4000)])
    assert np.mean(draws == 0.5) < 0.01
    assert ((draws >= 0.0) & (draws <= 1.0)).all()
    assert np.mean((draws < 0.01) | (draws > 0.99)) > 0.95
    with pytest.raises(ValueError, match="alpha"):
        sample_mix_ratio(float("inf"), rng)


# First eight draws, as float.hex, recorded before the scalar and the
# whole-run samplers became one body: sample_mix_ratio from default_rng(0),
# and a run's lam block at seed 3. At alpha 1e-300 both Gammas underflow,
# so those draws come from the Beta redraw.
_SAMPLE_MIX_RATIO_PINS = {
    8.0: (
        "0x1.d29e09f5caeaep-2", "0x1.6220c163c3de4p-2", "0x1.f7ea6af4fa459p-2",
        "0x1.832f51265831bp-2", "0x1.a7b3b3a5b3373p-2", "0x1.19f950a96244cp-1",
        "0x1.4986a32ee6b64p-1", "0x1.1be2d0643680ap-1",
    ),
    0.3: (
        "0x1.fff205c0e08aap-1", "0x1.7f88e8d0a9e14p-1", "0x1.2b563e177d81cp-3",
        "0x1.38d10f0542200p-2", "0x1.ffcda7a7a9c4cp-1", "0x1.246d8350a2900p-1",
        "0x1.fc6459c2b3e8cp-2", "0x1.5e8d1e58c1653p-7",
    ),
    0.001: (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.3b841cdee3732p-586",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.81f40b234f3c1p-697", "0x1.d6d8d198e41f6p-7",
    ),
    1e-300: (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
}
_MIX_RATIOS_PINS = {
    8.0: (
        "0x1.ffc6871aa6176p-2", "0x1.0aef568fdf109p-1", "0x1.16c2adc52c085p-1",
        "0x1.2542f84cd000fp-1", "0x1.86dd8ea83498cp-1", "0x1.3bc0bced4879fp-1",
        "0x1.d704019258072p-2", "0x1.bc21bc5dd0bb0p-2",
    ),
    0.001: (
        "0x1.13b5cc99eb751p-202", "0x0.0p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    1e-300: (
        "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.0000000000000p+0",
    ),
}


@pytest.mark.parametrize("alpha", sorted(_SAMPLE_MIX_RATIO_PINS))
def test_sample_mix_ratio_draws_are_pinned(alpha):
    rng = np.random.default_rng(0)
    got = tuple(sample_mix_ratio(alpha, rng).hex() for _ in range(8))
    assert got == _SAMPLE_MIX_RATIO_PINS[alpha]


@pytest.mark.parametrize("alpha", sorted(_MIX_RATIOS_PINS))
def test_run_mix_ratios_are_pinned(alpha):
    got = tuple(x.hex() for x in _mix_ratios(MixConfig(alpha=alpha, seed=3), 8).tolist())
    assert got == _MIX_RATIOS_PINS[alpha]


def test_generate_small_alpha_keeps_the_u_shape():
    corpus = mention_corpus(400)
    table = EmbeddingTable.random(corpus.token_vocab, 4, 0)
    cfg = MixConfig(variant="mention", rate=1.0, alpha=1e-3, seed=0)
    lams = np.array([e.provenance.lam for e in segmix_generate(corpus, None, table, cfg).examples])
    assert len(lams) == 400
    assert np.mean(lams == 0.5) < 0.01
    assert np.mean((lams < 0.01) | (lams > 0.99)) > 0.95


def test_pad_to_longer():
    a = np.ones((2, 3))
    b = np.full((4, 3), 2.0)
    pa, pb = pad_to_longer(a, b)
    assert pa.shape == pb.shape == (4, 3)
    assert pb is b
    assert np.array_equal(pa[:2], a)
    assert np.array_equal(pa[2:], np.zeros((2, 3)))
    sa, sb = pad_to_longer(a, np.ones((2, 3)))
    assert sa is a and np.array_equal(sb, a)
    with pytest.raises(ValueError, match="column mismatch"):
        pad_to_longer(np.ones((2, 3)), np.ones((2, 4)))


def test_mix_hand_values():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 4.0], [1.0, 0.0]])
    got = mix(a, b, 0.25)
    assert np.allclose(got, [[0.25, 3.0], [0.75, 0.5]])
    assert np.array_equal(mix(a, b, 1.0), a)
    with pytest.raises(ValueError, match="shape mismatch"):
        mix(a, np.ones((3, 2)), 0.5)


# ---------------------------------------------------------------- config

def test_mix_config_validation():
    MixConfig(variant="mention+token", weights=(0.7, 0.3))
    with pytest.raises(ValueError, match="alpha"):
        MixConfig(alpha=0.0)
    with pytest.raises(ValueError, match="rate"):
        MixConfig(rate=-0.1)
    with pytest.raises(ValueError, match="unknown variant"):
        MixConfig(variant="mentions")
    with pytest.raises(ValueError, match="weights"):
        MixConfig(variant="mention+token", weights=(1.0,))
    with pytest.raises(ValueError, match="sum to 1"):
        MixConfig(variant="mention+token", weights=(0.7, 0.7))
    with pytest.raises(ValueError, match="fixed_lambda"):
        MixConfig(fixed_lambda=1.5)


@pytest.mark.parametrize("weights", [(1.0, float("nan")), (float("nan"), float("nan"))])
def test_mix_config_refuses_nan_weights(weights):
    with pytest.raises(ValueError, match="^weights must be nonnegative and sum to 1$"):
        MixConfig(variant="mention+token", weights=weights)


def test_a_rate_whose_slots_numpy_cannot_index_is_refused_before_any_allocation():
    corpus = synth_tagged_corpus(5, seed=0)
    table = EmbeddingTable.random(corpus.token_vocab, 4, seed=0)
    with pytest.raises(ValueError, match="^rate 1e\\+300 asks for 5e\\+300 mix slots, "
                                         "more than numpy can index$"):
        segmix_generate(corpus, None, table, MixConfig(rate=1e300))


@pytest.mark.parametrize(
    "bad",
    [
        dict(alpha=float("inf")),
        dict(alpha=float("nan")),
        dict(rate=float("inf")),
        dict(rate=float("nan")),
    ],
)
def test_mix_config_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        MixConfig(**bad)


def test_variant_weights_default_equal():
    cfg = MixConfig(variant="mention+token+synonym")
    assert cfg.variant_list() == ["mention", "token", "synonym"]
    assert cfg.variant_weights() == [1 / 3] * 3


# ---------------------------------------------------------------- selection
# A mix's provenance spans are the segment(s) its plan selected.

def _slot_run(example, variant, pool=None, vocab=VOCAB, **config):
    """A run over ``example`` alone, against a one-entry pool unless ``pool`` is given."""
    pool = single_entry_pool(("x",), ("B-LOC",)) if pool is None else pool
    table = EmbeddingTable.random(("x",), dim=2, seed=0)
    return _run_alone(example, pool, table, vocab, variant=variant, **config)


def _slot_spans(*args, **config):
    """The span(s) each slot of a :func:`_slot_run` selects."""
    return [e.provenance.spans for e in _slot_run(*args, **config).examples]


def _skips_its_only_slot(*args, **config):
    gen = _slot_run(*args, **config)
    return gen.skipped == gen.requested == 1 and not gen.examples


def test_select_segment_mention_and_token(hand_corpus):
    sent = hand_corpus.sentences[0]  # one LOC mention at (0, 3)
    assert _slot_spans(sent, "mention") == [((0, 3),)]
    assert _slot_spans(sent, "whole_sequence") == [((0, 5),)]
    token_spans = set(_slot_spans(sent, "token", rate=60))
    assert token_spans == {((0, 1),), ((1, 2),), ((2, 3),)}
    for variant in ("mention", "token"):  # an all-O sentence has no eligible segment
        assert _skips_its_only_slot(hand_corpus.sentences[2], variant)


def test_select_segment_reads_ill_formed_bio_like_scoring():
    sent = Sentence(("paris", "hilton", "x"), ("B-LOC", "I-PER", "O"))
    spans = set(_slot_spans(sent, "mention", rate=60))
    assert spans == {((0, 1),), ((1, 2),)}
    stray = Sentence(("x", "rome"), ("O", "I-LOC"))
    assert _slot_spans(stray, "mention") == [((1, 2),)]


def test_select_segment_mention_uniform():
    sent = Sentence(
        ("a", "b", "c", "d", "x"),
        ("B-P", "B-Q", "B-R", "B-S", "O"),
    )
    corpus = TaggedCorpus.from_sentences([sent])
    table = EmbeddingTable.random(corpus.token_vocab, dim=2, seed=0)
    config = MixConfig(variant="mention", rate=10_000, seed=42)
    gen = segmix_generate(corpus, build_mention_pool(corpus), table, config)
    assert len(gen.examples) == 10_000
    counts = Counter(e.provenance.spans[0][0] for e in gen.examples)
    for pos in range(4):
        assert abs(counts[pos] / 10_000 - 0.25) < 0.03


@pytest.mark.parametrize("variant", ["mention", "relation"])
def test_generation_memory_follows_the_output_not_the_table(variant):
    # a 10 MB table (20,000 buckets at dim 64) against a few hundred mixed rows:
    # the gathers read the table's own zero row, so no call copies the table
    corpus = synth_tagged_corpus(20, seed=0) if variant == "mention" else synth_re_corpus(20, seed=0)
    pool = (build_mention_pool if variant == "mention" else build_relation_pool)(corpus)
    table = EmbeddingTable.random(corpus.token_vocab, dim=64, seed=0, n_buckets=20_000)
    config = MixConfig(variant=variant, rate=1.0, seed=0)
    tracemalloc.start()
    try:
        gen = segmix_generate(corpus, pool, table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gen.examples) == 20
    assert peak < table.vectors.nbytes / 10


def test_a_pickled_table_keeps_its_zero_row_behind_its_vectors():
    table = EmbeddingTable.random(["a", "b"], dim=3, seed=0, n_buckets=2)
    raw = pickle.dumps(table)
    again = pickle.loads(raw)
    assert np.array_equal(again.vectors, table.vectors) and again.n_buckets == 2
    assert np.shares_memory(again.vectors, again._padded) and not again._padded[-1].any()
    assert raw.count(table.vectors.tobytes()) == 1


@pytest.mark.parametrize("build", ["random", "subword"])
def test_building_a_table_holds_its_rows_once(build):
    # a 10 MB table (20,000 buckets at dim 64): the builder draws into the table's own
    # zero-padded array, so no second copy of the rows is held beside it
    getattr(EmbeddingTable, build)(["ann"], dim=2, seed=0, n_buckets=1)  # numpy.random imported
    tracemalloc.start()
    try:
        table = getattr(EmbeddingTable, build)(["ann", "bo"], dim=64, seed=0, n_buckets=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * table.vectors.nbytes
    assert np.shares_memory(table.vectors, table._padded) and not table._padded[-1].any()
    if build == "random":
        want = derive_rng(0, "embedding-table").standard_normal(table.vectors.shape)
        assert np.array_equal(table.vectors, want)


def test_a_table_copies_the_rows_it_is_given():
    rows = np.ones((3, 2), np.float32)
    table = EmbeddingTable(["a"], rows, 2)
    rows[0] = 2.0
    assert table.vectors.dtype == np.float64 and (table.vectors == 1.0).all()
    assert not np.shares_memory(table.vectors, rows) and not table._padded[-1].any()


def test_select_segment_synonym(hand_corpus):
    sent = hand_corpus.sentences[0]
    lex = SynonymLexicon({"is": ("was",)})
    assert _slot_spans(sent, "synonym", lex) == [((3, 4),)]
    assert _skips_its_only_slot(sent, "synonym", SynonymLexicon({"absent": ("gone",)}))
    with pytest.raises(ValueError, match="needs a synonym lexicon"):
        _slot_spans(sent, "synonym")  # the default pool is a segment pool
    with pytest.raises(ValueError, match="synonym variant needs an explicit lexicon"):
        _slot_spans(sent, "synonym", {})


def test_select_segment_relation(hand_re_corpus):
    sample = hand_re_corpus.samples[0]
    pool, vocab = build_relation_pool(hand_re_corpus), hand_re_corpus.relation_vocab
    spans = _slot_spans(sample, "relation", pool, vocab)
    assert spans == [(
        (sample.e1.start, sample.e1.end),
        (sample.e2.start, sample.e2.end),
    )]
    with pytest.raises(ValueError, match="'mention' does not apply to RECorpus"):
        _slot_spans(hand_re_corpus.samples[0], "mention")
    with pytest.raises(ValueError, match="'relation' does not apply to TaggedCorpus"):
        _slot_spans(Sentence(("a",), ("O",)), "relation", pool, vocab)
    with pytest.raises(ValueError, match="unknown variant"):
        _slot_spans(Sentence(("a",), ("O",)), "bogus")


# ---------------------------------------------------------------- hand mixes

@pytest.fixture
def loc_sentence():
    return Sentence(
        ("new", "york", "city", "is", "big"),
        ("B-LOC", "I-LOC", "I-LOC", "O", "O"),
    )


def test_mention_mix_shorter_pool_segment(loc_sentence):
    """3-token LOC span against a 2-token PER segment: pool side zero-padded."""
    table = EmbeddingTable.random(VOCAB + ("q",), dim=8, seed=3)
    tok = lambda t: table.embed([t])[0]
    pool = single_entry_pool(("marcello", "cuttitta"), ("B-PER", "I-PER"))
    got = _mixed(loc_sentence, pool, table, variant="mention", fixed_lambda=0.6)

    assert len(got) == 5  # span not shorter than pool: length unchanged
    assert np.allclose(got.embeddings[0], 0.6 * tok("new") + 0.4 * tok("marcello"))
    assert np.allclose(got.embeddings[1], 0.6 * tok("york") + 0.4 * tok("cuttitta"))
    assert np.allclose(got.embeddings[2], 0.6 * tok("city"))  # zero-padded partner
    assert np.array_equal(got.embeddings[3], tok("is"))
    assert np.array_equal(got.embeddings[4], tok("big"))

    oh = lambda l: one_hot([l], VOCAB)[0]
    assert np.allclose(got.soft_labels[0], 0.6 * oh("B-LOC") + 0.4 * oh("B-PER"))
    assert np.allclose(got.soft_labels[1], 0.6 * oh("I-LOC") + 0.4 * oh("I-PER"))
    assert np.allclose(got.soft_labels[2], 0.6 * oh("I-LOC"))
    assert np.array_equal(got.soft_labels[3:], one_hot(["O", "O"], VOCAB))

    sums = got.soft_labels.sum(axis=1)
    assert np.allclose(sums, [1.0, 1.0, 0.6, 1.0, 1.0])

    prov = got.provenance
    assert prov.spans == ((0, 3),)
    assert prov.mixed_spans == ((0, 3),)
    assert prov.lam == 0.6
    assert prov.pool_index == 0


def test_mention_mix_longer_pool_segment_grows():
    """1-token span against a 3-token segment: sentence grows by splicing."""
    sent = Sentence(("rome", "is", "old"), ("B-LOC", "O", "O"))
    table = EmbeddingTable.random(("rome", "is", "old", "new", "york", "city"), 8, 5)
    tok = lambda t: table.embed([t])[0]
    pool = single_entry_pool(("new", "york", "city"), ("B-LOC", "I-LOC", "I-LOC"))
    got = _mixed(sent, pool, table, variant="mention", fixed_lambda=0.25)

    assert len(got) == 5  # 3 - 1 + 3
    assert got.provenance.mixed_spans == ((0, 3),)
    assert np.allclose(got.embeddings[0], 0.25 * tok("rome") + 0.75 * tok("new"))
    assert np.allclose(got.embeddings[1], 0.75 * tok("york"))
    assert np.allclose(got.embeddings[2], 0.75 * tok("city"))
    assert np.array_equal(got.embeddings[3], tok("is"))
    assert np.array_equal(got.embeddings[4], tok("old"))

    # same B-LOC label on both sides keeps row 0 one-hot; grown rows carry 1-lam
    sums = got.soft_labels.sum(axis=1)
    assert np.allclose(sums, [1.0, 0.75, 0.75, 1.0, 1.0])
    assert np.allclose(got.soft_labels[1], 0.75 * one_hot(["I-LOC"], VOCAB)[0])


def test_normalize_tail_labels():
    sent = Sentence(("rome", "is", "old"), ("B-LOC", "O", "O"))
    table = EmbeddingTable.random(("rome",), 4, 0)
    pool = single_entry_pool(("new", "york", "city"), ("B-LOC", "I-LOC", "I-LOC"))
    got = _mixed(sent, pool, table, variant="mention", fixed_lambda=0.25,
                 normalize_tail_labels=True)
    assert np.allclose(got.soft_labels.sum(axis=1), 1.0)


def test_lambda_one_is_bitwise_identity_even_with_longer_pool():
    sent = Sentence(("rome", "is", "old"), ("B-LOC", "O", "O"))
    table = EmbeddingTable.random(("rome", "is", "old"), 8, 1)
    pool = single_entry_pool(("new", "york", "city"), ("B-LOC", "I-LOC", "I-LOC"))
    got = _mixed(sent, pool, table, variant="mention", fixed_lambda=1.0)
    assert len(got) == 3
    assert np.array_equal(got.embeddings, table.embed(sent.tokens))
    assert np.array_equal(got.soft_labels, one_hot(sent.labels, VOCAB))
    assert got.provenance.mixed_spans == got.provenance.spans == ((0, 1),)


def test_lambda_zero_equals_replacement_on_equal_length():
    sent = Sentence(("new", "york", "hi"), ("B-LOC", "I-LOC", "O"))
    table = EmbeddingTable.random(("new", "york", "hi", "san", "juan"), 8, 2)
    pool = single_entry_pool(("san", "juan"), ("B-LOC", "I-LOC"))
    got = _mixed(sent, pool, table, variant="mention", fixed_lambda=0.0)
    replaced = Sentence(("san", "juan", "hi"), ("B-LOC", "I-LOC", "O"))
    assert np.array_equal(got.embeddings, table.embed(replaced.tokens))
    assert np.array_equal(got.soft_labels, one_hot(replaced.labels, VOCAB))


def test_synonym_mix_leaves_labels_alone(loc_sentence):
    table = EmbeddingTable.random(("is", "was"), 8, 7)
    lex = SynonymLexicon({"is": ("was",)})
    got = _mixed(loc_sentence, lex, table, variant="synonym", fixed_lambda=0.4)
    tok = lambda t: table.embed([t])[0]
    assert np.allclose(got.embeddings[3], 0.4 * tok("is") + 0.6 * tok("was"))
    for i in (0, 1, 2, 4):
        assert np.array_equal(got.embeddings[i], table.embed(loc_sentence.tokens)[i])
    # labels are exactly the original one-hots
    assert np.array_equal(got.soft_labels, one_hot(loc_sentence.labels, VOCAB))
    assert got.provenance.variant == "synonym"
    assert got.provenance.replacements == ("was",)
    assert got.provenance.spans == ((3, 4),)


def test_whole_sequence_mixes_every_row(loc_sentence):
    table = EmbeddingTable.random(tuple(loc_sentence.tokens) + ("x", "y"), 8, 11)
    pool = single_entry_pool(("x", "y"), ("O", "O"))
    got = _mixed(loc_sentence, pool, table, variant="whole_sequence", fixed_lambda=0.5)
    assert got.provenance.spans == ((0, 5),)
    assert len(got) == 5
    original = table.embed(loc_sentence.tokens)
    changed = np.any(got.embeddings != original, axis=1)
    assert changed.all()


# ---------------------------------------------------------------- RE mixing

def test_re_mix_hand_values():
    sample = RESample(
        ("the", "storm", "caused", "the", "damage"),
        Span(1, 2),
        Span(4, 5),
        "Other",
    )
    vocab = ("Other", "Cause-Effect(e2,e1)")
    table = EmbeddingTable.random(sample.tokens + ("flu", "fever"), 8, 4)
    tok = lambda t: table.embed([t])[0]
    pool = SegmentPool(
        2,
        (SegmentTuple((("flu",), ("fever",)), "Cause-Effect(e2,e1)"),),
    )
    got = _mixed(sample, pool, table, vocab, variant="relation", fixed_lambda=0.7)

    assert np.allclose(got.soft_relation, [0.7, 0.3])
    assert np.allclose(got.embeddings[1], 0.7 * tok("storm") + 0.3 * tok("flu"))
    assert np.allclose(got.embeddings[4], 0.7 * tok("damage") + 0.3 * tok("fever"))
    for i in (0, 2, 3):
        assert np.array_equal(got.embeddings[i], tok(sample.tokens[i]))
    assert (got.e1.start, got.e1.end) == (1, 2)
    assert (got.e2.start, got.e2.end) == (4, 5)


def test_re_mix_growth_shifts_second_span():
    sample = RESample(
        ("the", "storm", "caused", "the", "damage"),
        Span(1, 2),
        Span(4, 5),
        "Other",
    )
    vocab = ("Other", "Cause-Effect(e1,e2)")
    table = EmbeddingTable.random(sample.tokens + ("big", "flu", "fever"), 8, 4)
    pool = SegmentPool(
        2,
        (SegmentTuple((("big", "flu"), ("fever",)), "Cause-Effect(e1,e2)"),),
    )
    got = _mixed(sample, pool, table, vocab, variant="relation", fixed_lambda=0.7)
    assert len(got.embeddings) == 6
    assert (got.e1.start, got.e1.end) == (1, 3)
    assert (got.e2.start, got.e2.end) == (5, 6)
    tok = lambda t: table.embed([t])[0]
    assert np.allclose(got.embeddings[2], 0.3 * tok("flu"))
    assert np.allclose(got.embeddings[5], 0.7 * tok("damage") + 0.3 * tok("fever"))


def test_re_mix_same_relation_stays_one_hot():
    sample = RESample(("a", "b", "c"), Span(0, 1), Span(2, 3), "Other")
    vocab = ("Other",)
    table = EmbeddingTable.random(("a", "b", "c"), 4, 0)
    pool = SegmentPool(2, (SegmentTuple((("a",), ("c",)), "Other"),))
    got = _mixed(sample, pool, table, vocab, variant="relation", fixed_lambda=0.7)
    assert np.allclose(got.soft_relation, [1.0])


def test_re_mix_arity_validated():
    sample = RESample(("a", "b"), Span(0, 1), Span(1, 2), "Other")
    table = EmbeddingTable.random(("a", "b"), 4, 0)
    bad = single_entry_pool(("x",), ("B-X",))
    with pytest.raises(ValueError, match="arity-2"):
        _run_alone(sample, bad, table, ("Other",), variant="relation")


def test_same_type_only_single_mix_refuses_a_pool_without_the_type(loc_sentence):
    """A LOC mention against a PER-only pool has no same-type partner, as in a run."""
    pool = single_entry_pool(("ann",), ("B-PER",))
    assert _skips_its_only_slot(loc_sentence, "mention", pool, same_type_only=True)
    table = EmbeddingTable.random(VOCAB + ("ann",), 8, 0)
    loc_pool = single_entry_pool(("rome",), ("B-LOC",))
    got = _mixed(loc_sentence, loc_pool, table, variant="mention", same_type_only=True)
    assert got.provenance.pool_index == 0


def test_single_mix_refuses_an_empty_pool(loc_sentence):
    table = EmbeddingTable.random(VOCAB, 8, 0)
    with pytest.raises(EmptyPoolError):
        _run_alone(loc_sentence, SegmentPool(1, ()), table, variant="mention")
    with pytest.raises(EmptyPoolError):
        _run_alone(loc_sentence, SynonymLexicon({}), table, variant="synonym")
    sample = RESample(("a", "b"), Span(0, 1), Span(1, 2), "Other")
    with pytest.raises(EmptyPoolError):
        _run_alone(sample, SegmentPool(2, ()), table, ("Other",), variant="relation")


def test_pool_kind_must_match_the_variant(loc_sentence):
    """A lexicon serves only the synonym variant, and a segment pool every other one."""
    corpus = TaggedCorpus.from_sentences([loc_sentence])
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    lex = identity_lexicon(corpus.token_vocab)
    pool = build_mention_pool(corpus)
    for variant, wrong in (("mention", lex), ("synonym", pool)):
        cfg = MixConfig(variant=variant, rate=1.0)
        with pytest.raises(ValueError, match=f"variant '{variant}' needs a"):
            segmix_generate(corpus, {variant: wrong}, table, cfg)
        with pytest.raises(ValueError, match=f"variant '{variant}' needs a"):
            segmix_generate(corpus, wrong, table, cfg)


@pytest.mark.parametrize("variant", ["mention", "token", "whole_sequence", "relation"])
def test_single_mix_without_a_pool_draws_from_the_examples_own_segments(variant):
    """A one-example run given no pool is that run given the pool built from
    the example alone, byte for byte."""
    relation = variant == "relation"
    corpus = synth_re_corpus(20, seed=5) if relation else synth_tagged_corpus(20, seed=5)
    examples = corpus.samples if relation else corpus.sentences
    alone = RECorpus.from_samples if relation else TaggedCorpus.from_sentences
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    for i, example in enumerate(examples):
        one = alone([example])
        cfg = MixConfig(variant=variant, alpha=0.5, rate=1.0, seed=i)
        got = segmix_generate(one, None, table, cfg)
        want = segmix_generate(one, _POOL_BUILDERS[variant](one), table, cfg)
        assert (got.skipped, got.requested) == (want.skipped, want.requested)
        assert len(got.examples) == len(want.examples)
        for x, y in zip(got.examples, want.examples):
            assert x.embeddings.tobytes() == y.embeddings.tobytes()
            if relation:
                assert x.soft_relation.tobytes() == y.soft_relation.tobytes()
                assert (x.e1, x.e2) == (y.e1, y.e2)
            else:
                assert x.soft_labels.tobytes() == y.soft_labels.tobytes()
            assert x.provenance == y.provenance


def test_a_combination_run_refuses_a_bare_pool():
    corpus = mention_corpus(4)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention+token", rate=1.0)
    with pytest.raises(ValueError, match="combination variants need a mapping of pools"):
        segmix_generate(corpus, build_mention_pool(corpus), table, cfg)


def test_a_pool_entry_with_unequal_token_and_label_counts_is_refused():
    corpus = mention_corpus(4)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    bad = SegmentPool(1, (SegmentTuple((("a", "b"),), (("B-LOC",),)),))
    with pytest.raises(ValueError, match="pool entry has unequal token and label counts"):
        segmix_generate(corpus, bad, table, MixConfig(variant="mention", rate=1.0))
    # no label tuple at all, or one label short, refused alike by every path that draws it
    small = TaggedCorpus.from_sentences([Sentence(("big", "rome"), ("O", "B-LOC"))])
    table = EmbeddingTable.random(small.token_vocab, 8, 0)
    for entry in (SegmentTuple((("a",),), ()), SegmentTuple((("a", "b"),), (("B-LOC",),))):
        bad = SegmentPool(1, (entry,))
        for run in (lambda: segmix_generate(small, bad, table, MixConfig(rate=1.0)),
                    lambda: replacement_da(small, bad, MixConfig(rate=1.0)),
                    lambda: segmix_generate(small, bad, table, MixConfig(rate=1.0, same_type_only=True))):
            with pytest.raises(ValueError, match="^pool entry has unequal token and label counts$"):
                run()


# ---------------------------------------------------------------- generation

def mention_corpus(n=10):
    """Every sentence has exactly one 2-token mention; all spans equal length."""
    sentences = [
        Sentence(
            (f"a{i}", f"b{i}", "and", "so", "on"),
            ("B-LOC" if i % 2 else "B-PER", "I-LOC" if i % 2 else "I-PER", "O", "O", "O"),
        )
        for i in range(n)
    ]
    return TaggedCorpus.from_sentences(sentences)


def test_generate_count_contract():
    corpus = mention_corpus(10)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    for rate in (0.0, 0.1, 0.25, 0.5, 1.0, 1.5):
        cfg = MixConfig(variant="mention", rate=rate, seed=4)
        result = segmix_generate(corpus, None, table, cfg)
        assert len(result.examples) + result.skipped == result.requested
        assert result.requested == int(rate * 10 + 0.5)


def test_generate_deterministic():
    corpus = mention_corpus(8)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=9)
    a = segmix_generate(corpus, None, table, cfg)
    b = segmix_generate(corpus, None, table, cfg)
    assert len(a.examples) == len(b.examples)
    for x, y in zip(a.examples, b.examples):
        assert np.array_equal(x.embeddings, y.embeddings)
        assert np.array_equal(x.soft_labels, y.soft_labels)
        assert x.provenance == y.provenance


@pytest.mark.parametrize("variant", ["mention", "token", "whole_sequence", "relation"])
def test_generate_explicit_pool_matches_default(variant):
    """A built pool is the planner's default pool, entry for entry and in order."""
    relation = variant == "relation"
    corpus = synth_re_corpus(30, seed=3) if relation else synth_tagged_corpus(30, seed=3)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant=variant, rate=2.0, seed=9)
    built_in = segmix_generate(corpus, None, table, cfg)
    explicit = segmix_generate(corpus, _POOL_BUILDERS[variant](corpus), table, cfg)
    assert len(built_in.examples) == len(explicit.examples) > 0
    for x, y in zip(built_in.examples, explicit.examples):
        assert np.array_equal(x.embeddings, y.embeddings)
        if relation:
            assert np.array_equal(x.soft_relation, y.soft_relation)
            assert (x.e1, x.e2) == (y.e1, y.e2)
        else:
            assert np.array_equal(x.soft_labels, y.soft_labels)
        assert x.provenance == y.provenance


def test_generate_full_rate_covers_each_example_once():
    corpus = mention_corpus(12)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=2)
    result = segmix_generate(corpus, None, table, cfg)
    indices = Counter(e.provenance.example_index for e in result.examples)
    assert indices == Counter(range(12))


def test_generate_rate_above_one_resamples():
    corpus = mention_corpus(5)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=2.0, seed=2)
    result = segmix_generate(corpus, None, table, cfg)
    assert len(result.examples) + result.skipped == 10


def test_generate_row_sums_in_lambda_set():
    rng = np.random.default_rng(0)
    from conftest import random_corpus

    corpus = random_corpus(rng, n_sentences=30)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=5)
    result = segmix_generate(corpus, None, table, cfg)
    assert result.examples
    for ex in result.examples:
        lam = ex.provenance.lam
        sums = ex.soft_labels.sum(axis=1)
        ok = np.isclose(sums, 1.0) | np.isclose(sums, lam) | np.isclose(sums, 1 - lam)
        assert ok.all()


def test_generate_combo_budget_split():
    corpus = mention_corpus(10)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention+token", rate=0.5, seed=0)
    result = segmix_generate(corpus, None, table, cfg)
    variants = Counter(e.provenance.variant for e in result.examples)
    # equal weights over 5 slots: largest remainder gives the first variant 3
    assert variants == Counter({"mention": 3, "token": 2})

    cfg = MixConfig(variant="mention+token", weights=(0.8, 0.2), rate=0.5, seed=0)
    result = segmix_generate(corpus, None, table, cfg)
    variants = Counter(e.provenance.variant for e in result.examples)
    assert variants == Counter({"mention": 4, "token": 1})


def test_generate_skips_when_no_eligible_segment():
    sentences = [Sentence(("only", "filler"), ("O", "O")) for _ in range(9)]
    sentences.append(Sentence(("rome",), ("B-LOC",)))
    corpus = TaggedCorpus.from_sentences(sentences)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=0)
    result = segmix_generate(corpus, None, table, cfg)
    assert result.requested == 10
    assert len(result.examples) + result.skipped == 10
    assert result.skipped > 0
    assert all(e.provenance.example_index == 9 for e in result.examples)


def test_generate_retries_find_eligible_examples():
    sentences = [Sentence(("only", "filler"), ("O", "O")) for _ in range(5)]
    sentences.append(Sentence(("rome",), ("B-LOC",)))
    corpus = TaggedCorpus.from_sentences(sentences)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=0)
    result = segmix_generate(corpus, None, table, cfg)
    assert result.skipped == 0
    assert all(e.provenance.example_index == 5 for e in result.examples)


def test_generate_empty_mention_pool_raises():
    corpus = TaggedCorpus.from_sentences(
        [Sentence(("just", "filler"), ("O", "O"))]
    )
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    with pytest.raises(EmptyPoolError):
        segmix_generate(corpus, None, table, MixConfig(variant="mention", rate=1.0))


def test_generate_empty_corpus_is_a_no_op():
    corpus = TaggedCorpus.from_sentences([])
    table = EmbeddingTable.random((), 8, 0)
    result = segmix_generate(corpus, None, table, MixConfig(rate=1.0))
    assert result.examples == [] and result.requested == 0


def test_generate_variant_corpus_mismatch(hand_corpus, hand_re_corpus):
    table = EmbeddingTable.random((), 8, 0)
    with pytest.raises(ValueError, match="does not apply"):
        segmix_generate(hand_corpus, None, table, MixConfig(variant="relation", rate=1.0))
    with pytest.raises(ValueError, match="does not apply"):
        segmix_generate(hand_re_corpus, None, table, MixConfig(variant="mention", rate=1.0))


def test_generate_synonym_needs_lexicon(hand_corpus):
    table = EmbeddingTable.random(hand_corpus.token_vocab, 8, 0)
    with pytest.raises(ValueError, match="lexicon"):
        segmix_generate(hand_corpus, None, table, MixConfig(variant="synonym", rate=1.0))


def test_generate_same_type_only():
    corpus = mention_corpus(12)  # alternating PER / LOC mentions
    pool = build_mention_pool(corpus)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=1, same_type_only=True)
    result = segmix_generate(corpus, pool, table, cfg)
    assert result.examples
    for ex in result.examples:
        sent = corpus.sentences[ex.provenance.example_index]
        start = ex.provenance.spans[0][0]
        own_type = sent.labels[start].split("-", 1)[1]
        partner = pool.entries[ex.provenance.pool_index]
        assert partner.labels[0][0].split("-", 1)[1] == own_type


def test_generate_re_path(hand_re_corpus):
    vocab_tokens = tuple(
        dict.fromkeys(t for s in hand_re_corpus.samples for t in s.tokens)
    )
    table = EmbeddingTable.random(vocab_tokens, 8, 0)
    cfg = MixConfig(variant="relation", rate=1.0, seed=3)
    result = segmix_generate(hand_re_corpus, None, table, cfg)
    assert len(result.examples) == 3
    for ex in result.examples:
        assert np.isclose(ex.soft_relation.sum(), 1.0)
        assert ex.e1.end <= len(ex.embeddings)
        assert ex.e2.end <= len(ex.embeddings)
        assert not ex.e1.overlaps(ex.e2)


def test_generate_lambda_zero_matches_replacement_da():
    corpus = mention_corpus(10)
    table = EmbeddingTable.random(corpus.token_vocab, 8, 0)
    cfg = MixConfig(variant="mention", rate=1.0, seed=6, fixed_lambda=0.0)
    mixed = segmix_generate(corpus, None, table, cfg)
    replaced = replacement_da(corpus, None, cfg)
    assert len(mixed.examples) == len(replaced.corpus)
    for ex, sent in zip(mixed.examples, replaced.corpus.sentences):
        assert np.array_equal(ex.embeddings, table.embed(sent.tokens))
        assert np.array_equal(ex.soft_labels, one_hot(sent.labels, corpus.label_vocab))


_WORDS = ("a", "b", "c", "d", "e", "f")
_TAGS = ("O", "B-LOC", "I-LOC", "B-PER", "I-PER")  # stray I- tags included
_RELATIONS = ("Other", "Cause(e1,e2)", "Cause(e2,e1)")
_POOL_BUILDERS = {
    "mention": build_mention_pool,
    "token": build_token_pool,
    "whole_sequence": build_sequence_pool,
    "relation": build_relation_pool,
}


@st.composite
def _tagged_corpora(draw):
    rows = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_TAGS)), min_size=1, max_size=6),
        min_size=1, max_size=6,
    ))
    rows[0][0] = (rows[0][0][0], "B-LOC")  # one mention, so no default pool is empty
    return TaggedCorpus.from_sentences(Sentence(*map(tuple, zip(*row))) for row in rows)


@st.composite
def _re_corpora(draw):
    samples = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(3, 8))
        a, b, c, d = sorted(draw(st.lists(st.integers(0, n), min_size=4, max_size=4, unique=True)))
        spans = (Span(a, b), Span(c, d))
        if draw(st.booleans()):
            spans = spans[::-1]
        tokens = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n)))
        samples.append(RESample(tokens, *spans, draw(st.sampled_from(_RELATIONS))))
    return RECorpus.from_samples(samples)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    variant=st.sampled_from(sorted(_POOL_BUILDERS)),
    rate=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lambda_limits_on_random_corpora(data, variant, rate, seed):
    """lam = 1 returns each source as encoded; lam = 0 is replacement_da in embedding space.

    At lam = 0 each mixed span holds the partner's rows followed by zero rows
    where the span is the longer, so splicing those padded partners into
    the source rows must give the whole example and its mixed spans.
    """
    relation = variant == "relation"
    corpus = data.draw(_re_corpora() if relation else _tagged_corpora())
    examples = corpus.samples if relation else corpus.sentences
    vocab = corpus.relation_vocab if relation else corpus.label_vocab
    pool = _POOL_BUILDERS[variant](corpus)
    table = EmbeddingTable.random(corpus.token_vocab, 4, seed % 1000)

    def labels_of(source):
        return one_hot([source.relation] if relation else source.labels, vocab)

    config = MixConfig(variant=variant, rate=rate, seed=seed, fixed_lambda=1.0)
    for ex in segmix_generate(corpus, pool, table, config).examples:
        source = examples[ex.provenance.example_index]
        assert np.array_equal(ex.embeddings, table.embed(source.tokens))
        got_labels = ex.soft_relation[None] if relation else ex.soft_labels
        assert np.array_equal(got_labels, labels_of(source))
        assert ex.provenance.mixed_spans == ex.provenance.spans

    cfg = MixConfig(variant=variant, rate=rate, seed=seed, fixed_lambda=0.0)
    mixed = segmix_generate(corpus, pool, table, cfg)
    replaced = replacement_da(corpus, pool, cfg)
    items = replaced.corpus.samples if relation else replaced.corpus.sentences
    assert len(items) == len(mixed.examples) and replaced.skipped == mixed.skipped
    for ex, item in zip(mixed.examples, items):
        prov = ex.provenance
        source, entry = examples[prov.example_index], pool.entries[prov.pool_index]
        tokens, placed = _splice(source.tokens, prov.spans, entry.segments)
        assert item.tokens == tokens
        if relation:
            assert (item.e1, item.e2, item.relation) == (Span(*placed[0]), Span(*placed[1]), entry.labels)
            assert np.array_equal(ex.soft_relation, one_hot([entry.labels], vocab)[0])
            assert (ex.e1, ex.e2) == (Span(*prov.mixed_spans[0]), Span(*prov.mixed_spans[1]))
        else:
            assert item.labels == _splice(source.labels, prov.spans, entry.labels)[0]

        sides = [(ex.embeddings, table.embed(source.tokens), map(table.embed, entry.segments))]
        if not relation:
            sides.append((ex.soft_labels, labels_of(source), [one_hot(l, vocab) for l in entry.labels]))
        for got, rows, partners in sides:
            padded = [
                np.vstack([p, np.zeros((max(end - start - len(p), 0), p.shape[1]))])
                for (start, end), p in zip(prov.spans, partners)
            ]
            want, want_spans = _splice(list(rows), prov.spans, [list(p) for p in padded])
            assert np.array_equal(got, np.array(want))
            assert tuple(want_spans) == prov.mixed_spans
        if all(len(seg) >= end - start for (start, end), seg in zip(prov.spans, entry.segments)):
            assert tuple(placed) == prov.mixed_spans


# ---------------------------------------------------------------- replacement

def test_replacement_da_mention_hand_case():
    corpus = TaggedCorpus.from_sentences(
        [Sentence(("new", "york", "hi"), ("B-LOC", "I-LOC", "O"))]
    )
    pool = single_entry_pool(("san", "juan"), ("B-LOC", "I-LOC"))
    cfg = MixConfig(variant="mention", rate=1.0, seed=0)
    result = replacement_da(corpus, pool, cfg)
    assert len(result.corpus) == 1
    got = result.corpus.sentences[0]
    assert got.tokens == ("san", "juan", "hi")
    assert got.labels == ("B-LOC", "I-LOC", "O")


def test_replacement_da_changes_length_with_pool():
    corpus = TaggedCorpus.from_sentences(
        [Sentence(("rome", "hi"), ("B-LOC", "O"))]
    )
    pool = single_entry_pool(("new", "york", "city"), ("B-LOC", "I-LOC", "I-LOC"))
    cfg = MixConfig(variant="mention", rate=1.0, seed=0)
    result = replacement_da(corpus, pool, cfg)
    assert result.corpus.sentences[0].tokens == ("new", "york", "city", "hi")


def test_replacement_da_output_stays_bio_valid():
    rng = np.random.default_rng(3)
    from conftest import random_corpus

    corpus = random_corpus(rng, n_sentences=30)
    cfg = MixConfig(variant="mention", rate=1.0, seed=8)
    result = replacement_da(corpus, None, cfg)
    for sent in result.corpus.sentences:
        assert validate_bio(sent.labels) == sent.labels


def test_replacement_da_identity_lexicon_reproduces_originals(hand_corpus):
    lex = identity_lexicon(hand_corpus.token_vocab)
    cfg = MixConfig(variant="synonym", rate=1.0, seed=0)
    result = replacement_da(hand_corpus, lex, cfg)
    assert result.skipped == 0
    for sent in result.corpus.sentences:
        assert sent in hand_corpus.sentences


def test_replacement_da_re(hand_re_corpus):
    cfg = MixConfig(variant="relation", rate=1.0, seed=0)
    result = replacement_da(hand_re_corpus, None, cfg)
    assert isinstance(result.corpus, RECorpus)
    assert len(result.corpus) == 3
    pool_labels = {s.relation for s in hand_re_corpus.samples}
    for sample in result.corpus.samples:
        assert sample.relation in pool_labels
        assert not sample.e1.overlaps(sample.e2)


# ---------------------------------------------------------------- misc

def _loaded_provenance(prov, rows):
    """``prov`` as the JSON object of a ``rows``-row record, read back by the loader."""
    header = {"format": "segmix-augmented", "version": 1, "task": "ner", "label_vocab": ["O"],
              "dim": 2, "count": 1, "meta": {}}
    record = {"embeddings": encode_array(np.zeros((rows, 2))), "provenance": provenance_json(prov),
              "soft_labels": encode_array(np.ones((rows, 1)))}
    text = json.dumps(header) + "\n" + json.dumps(record) + "\n"
    return load_augmented(io.StringIO(text)).examples[0].provenance


def test_provenance_json_round_trip():
    prov = Provenance(3, "mention", 0.41, ((1, 3),), ((1, 4),), pool_index=7)
    assert _loaded_provenance(prov, 4) == prov
    syn = Provenance(0, "synonym", 0.9, ((2, 3),), ((2, 3),), replacements=("was",))
    assert _loaded_provenance(syn, 4) == syn


def test_mixed_example_row_mismatch_rejected():
    prov = Provenance(0, "mention", 0.5, (), ())
    with pytest.raises(ValueError, match="row counts differ"):
        MixedExample(np.zeros((3, 4)), np.zeros((2, 5)), prov)


def test_encode_corpus(hand_corpus):
    table = EmbeddingTable.random(hand_corpus.token_vocab, 8, 0)
    encoded = encode_corpus(hand_corpus, table)
    assert len(encoded) == len(hand_corpus)
    for ex, sent in zip(encoded, hand_corpus.sentences):
        assert np.array_equal(ex.embeddings, table.embed(sent.tokens))
        assert np.array_equal(
            ex.soft_labels, one_hot(sent.labels, hand_corpus.label_vocab)
        )
        assert ex.provenance.lam == 1.0
        assert ex.provenance.variant == "original"


def test_encode_re_corpus(hand_re_corpus):
    table = EmbeddingTable.random((), 8, 0)
    encoded = encode_re_corpus(hand_re_corpus, table)
    assert len(encoded) == len(hand_re_corpus)
    for ex, sample in zip(encoded, hand_re_corpus.samples):
        assert np.array_equal(ex.embeddings, table.embed(sample.tokens))
        assert ex.soft_relation.sum() == 1.0
        assert ex.e1 == sample.e1 and ex.e2 == sample.e2
