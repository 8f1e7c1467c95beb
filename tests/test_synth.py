"""Pinned synthetic corpora and lexicons.

perfbench builds every workload's inputs with ``segmix.synth`` (Zipf-skewed
surfaces, inflected tagging mentions), so these sha256 prefixes hold the
bytes of those paths: a change here changes every benchmark input.
"""

import hashlib
import json

import pytest

from segmix.corpus import corpus_to_text
from segmix.synth import build_lexicons, build_nominal_lexicon, synth_re_corpus, synth_tagged_corpus


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("build, pinned", [
    (lambda: synth_tagged_corpus(200, seed=3, skew=1.0, inflect=0.3), "48dfb7d1b9a6c2e3"),
    (lambda: synth_tagged_corpus(150, seed=9, mentions_per_type=12, lexicon_seed=2, skew=0.5),
     "220533455692b67b"),
    (lambda: synth_re_corpus(200, seed=3, skew=1.0), "fd5d40a8e26a1c1b"),
    (lambda: synth_re_corpus(150, seed=9, n_nominals=20, lexicon_seed=5), "17839e9e5c4fb70a"),
])
def test_synthetic_corpora_are_pinned(build, pinned):
    assert _sha(corpus_to_text(build())) == pinned


def test_lexicons_are_pinned():
    assert _sha(json.dumps(build_lexicons(25, 4))) == "abbc0722ddab548e"
    assert _sha(json.dumps(build_nominal_lexicon(35, 6))) == "2f922c8a16d098d1"


@pytest.mark.parametrize("build, name", [
    (synth_tagged_corpus, "n_sentences"), (synth_re_corpus, "n_samples"),
])
def test_an_empty_synthetic_corpus_is_refused(build, name):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        build(0, seed=1)
