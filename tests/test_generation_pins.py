"""Generation against a per-example reference, and pinned augmented bytes.

The reference rebuilds every emitted example from its provenance alone:
``table.embed``/``one_hot`` of the source, the partner segment named by
``pool_index`` (or the synonym in ``replacements``), and ``pad_to_longer``
plus ``mix`` spliced in right to left. The byte pins hold the sha256 of
``save_augmented`` output for one small fixed corpus per variant, so a
change that alters augmented bytes for a given seed has to say so.
"""

import hashlib
import io

import numpy as np
import pytest

from segmix.corpus import split_bio
from segmix.mixer import (
    EmbeddingTable,
    MixConfig,
    one_hot,
    segmix_generate,
)
from segmix.pools import (
    SegmentPool,
    SegmentTuple,
    SynonymLexicon,
    build_mention_pool,
    build_relation_pool,
    build_sequence_pool,
    build_token_pool,
)
from segmix.serialization import save_augmented
from segmix.synth import synth_re_corpus, synth_tagged_corpus

from conftest import mix, pad_to_longer


def _ner_pools(corpus):
    return {
        "mention": build_mention_pool(corpus),
        "token": build_token_pool(corpus),
        "whole_sequence": build_sequence_pool(corpus),
        "synonym": SynonymLexicon(
            {t: (t.upper(), t + "s") for t in corpus.token_vocab[::3]}
        ),
    }


def _reference_ner(example, corpus, pools, table, config):
    prov = example.provenance
    sent = corpus.sentences[prov.example_index]
    vocab = corpus.label_vocab
    emb = table.embed(sent.tokens)
    soft = one_hot(sent.labels, vocab)
    if prov.lam == 1.0:
        return emb, soft
    (start, end), = prov.spans
    if prov.variant == "synonym":
        seg, labels = prov.replacements, None
    else:
        entry = pools[prov.variant].entries[prov.pool_index]
        seg, labels = entry.segments[0], entry.labels[0]
    block = mix(*pad_to_longer(emb[start:end], table.embed(seg)), prov.lam)
    emb = np.concatenate([emb[:start], block, emb[end:]])
    if labels is not None:
        block = mix(*pad_to_longer(soft[start:end], one_hot(labels, vocab)), prov.lam)
        if config.normalize_tail_labels:
            sums = block.sum(axis=1)
            nonzero = sums > 0
            block[nonzero] = block[nonzero] / sums[nonzero, None]
        soft = np.concatenate([soft[:start], block, soft[end:]])
    return emb, soft


def _reference_re(example, corpus, pool, table):
    prov = example.provenance
    sample = corpus.samples[prov.example_index]
    vocab = corpus.relation_vocab
    entry = pool.entries[prov.pool_index]
    emb = table.embed(sample.tokens)
    if prov.lam != 1.0:
        for j in sorted(range(2), key=lambda j: -prov.spans[j][0]):
            start, end = prov.spans[j]
            block = mix(*pad_to_longer(emb[start:end], table.embed(entry.segments[j])), prov.lam)
            emb = np.concatenate([emb[:start], block, emb[end:]])
    rel = mix(one_hot([sample.relation], vocab), one_hot([entry.labels], vocab), prov.lam)[0]
    return emb, rel


NER_CONFIGS = [
    dict(variant="mention"),
    dict(variant="token"),
    dict(variant="synonym"),
    dict(variant="whole_sequence"),
    dict(variant="mention+token+whole_sequence+synonym", weights=(0.4, 0.2, 0.2, 0.2)),
    dict(variant="mention", same_type_only=True),
    dict(variant="token", same_type_only=True),
    dict(variant="mention", normalize_tail_labels=True),
    dict(variant="whole_sequence", fixed_lambda=0.0),
    dict(variant="mention", fixed_lambda=1.0),
    dict(variant="mention", alpha=0.3),
]


@pytest.mark.parametrize("kwargs", NER_CONFIGS, ids=lambda kw: "-".join(f"{v}" for v in kw.values()))
def test_ner_examples_equal_the_per_example_reference(kwargs):
    corpus = synth_tagged_corpus(120, seed=5)
    table = EmbeddingTable.random(corpus.token_vocab, 12, seed=1)
    pools = _ner_pools(corpus)
    config = MixConfig(rate=1.5, seed=3, **kwargs)
    result = segmix_generate(corpus, pools, table, config)
    assert len(result.examples) == result.requested == 180
    for ex in result.examples:
        want_emb, want_soft = _reference_ner(ex, corpus, pools, table, config)
        assert np.array_equal(ex.embeddings, want_emb)
        assert np.array_equal(ex.soft_labels, want_soft)
        if config.same_type_only:
            sent = corpus.sentences[ex.provenance.example_index]
            own = split_bio(sent.labels[ex.provenance.spans[0][0]])[1]
            partner = pools[ex.provenance.variant].entries[ex.provenance.pool_index]
            assert split_bio(partner.labels[0][0])[1] == own


@pytest.mark.parametrize("fixed_lambda", [None, 0.0, 1.0])
def test_re_examples_equal_the_per_example_reference(fixed_lambda):
    corpus = synth_re_corpus(80, seed=4)
    table = EmbeddingTable.random(corpus.token_vocab, 12, seed=1)
    pool = build_relation_pool(corpus)
    config = MixConfig(variant="relation", rate=1.5, seed=2, fixed_lambda=fixed_lambda)
    result = segmix_generate(corpus, pool, table, config)
    assert len(result.examples) == 120
    for ex in result.examples:
        want_emb, want_rel = _reference_re(ex, corpus, pool, table)
        assert np.array_equal(ex.embeddings, want_emb)
        assert np.array_equal(ex.soft_relation, want_rel)
        (s1, e1), (s2, e2) = ex.provenance.mixed_spans
        assert (ex.e1.start, ex.e1.end, ex.e2.start, ex.e2.end) == (s1, e1, s2, e2)


def test_same_type_pool_index_names_the_drawn_duplicate():
    """Equal entries are distinct draws: pool_index must be the drawn one."""
    corpus = synth_tagged_corpus(40, seed=8)
    entry = SegmentTuple((("rome",),), (("B-LOC",),))
    pool = SegmentPool(1, (entry,) * 6)
    table = EmbeddingTable.random(corpus.token_vocab, 8, seed=0)
    config = MixConfig(variant="mention", rate=2.0, seed=0, same_type_only=True)
    result = segmix_generate(corpus, pool, table, config)
    drawn = {ex.provenance.pool_index for ex in result.examples}
    assert len(drawn) > 1


def _sha(corpus, pools, config, table, task="ner"):
    result = segmix_generate(corpus, pools, table, config)
    stream = io.StringIO()
    vocab = corpus.label_vocab if task == "ner" else corpus.relation_vocab
    save_augmented(stream, result.examples, vocab, task)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()[:16]


# sha256 prefixes of save_augmented output; a change here changes the bytes
# every user gets for a given seed, and must be recorded in CHANGES.md.
PINNED = {
    "mention": "13583b21e0df322f",
    "token": "27da48b441df366e",
    "synonym": "93cb12c476e78c18",
    "whole_sequence": "0cd4efd1baa13d7f",
    "mention+token": "a77b09cc04e43d36",
    "same_type_only": "4db1d2335fc56bf9",
    "fixed_lambda_0": "57805c369ea4c29f",
    "fixed_lambda_1": "c08a63d58e3d4321",
    "relation": "d7131d5cfb40e934",
}


def _pin_cases():
    corpus = synth_tagged_corpus(30, seed=13)
    table = EmbeddingTable.random(corpus.token_vocab, 6, seed=2)
    pools = _ner_pools(corpus)
    for name, kwargs in {
        "mention": dict(variant="mention"),
        "token": dict(variant="token"),
        "synonym": dict(variant="synonym"),
        "whole_sequence": dict(variant="whole_sequence"),
        "mention+token": dict(variant="mention+token"),
        "same_type_only": dict(variant="mention", same_type_only=True),
        "fixed_lambda_0": dict(variant="mention", fixed_lambda=0.0),
        "fixed_lambda_1": dict(variant="mention", fixed_lambda=1.0),
    }.items():
        yield name, corpus, pools, MixConfig(rate=1.0, seed=7, **kwargs), table, "ner"
    re_corpus = synth_re_corpus(30, seed=13)
    re_table = EmbeddingTable.random(re_corpus.token_vocab, 6, seed=2)
    yield "relation", re_corpus, None, MixConfig(variant="relation", rate=1.0, seed=7), re_table, "re"


def test_augmented_bytes_are_pinned():
    got = {name: _sha(c, p, cfg, t, task) for name, c, p, cfg, t, task in _pin_cases()}
    assert got == PINNED
