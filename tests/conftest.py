"""Shared corpus builders and reference implementations for the test suite.

The random generators here are intentionally plain: uniform draws over
small vocabularies, explicit BIO assembly, no reuse of library helpers
whose behavior the tests are meant to check. The references (the
per-label BIO check, the padded blend, log-softmax) restate one rule of
the library the direct way, for tests to compare its array code against.
"""

import base64

import numpy as np
import pytest

from segmix.corpus import (
    BioValidationError, RECorpus, RESample, Sentence, Span, TaggedCorpus, split_bio,
)
from segmix.pools import SynonymLexicon

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
RELATIONS = (
    "Cause-Effect(e1,e2)",
    "Cause-Effect(e2,e1)",
    "Member-Group(e1,e2)",
    "Other",
)


def per_label_validate_bio(labels, repair=False) -> tuple:
    """``validate_bio`` one label at a time: the oracle for the library's
    array reading, and for ``parse_conll``'s through the per-line parse."""
    out = []
    prev_kind, prev_type = "O", None
    for i, label in enumerate(labels):
        kind, etype = split_bio(label)
        if kind == "I" and not (prev_kind in ("B", "I") and prev_type == etype):
            if repair:
                kind, label = "B", f"B-{etype}"
            else:
                raise BioValidationError(
                    f"I-{etype} at position {i} has no preceding B-{etype}/I-{etype}"
                )
        out.append(label)
        prev_kind, prev_type = kind, etype
    return tuple(out)


def pad_to_longer(a, b):
    """Extend the shorter matrix with zero rows; the longer passes through.
    With :func:`mix`, the oracle for the mixer's blocked blend."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    rows = max(len(a), len(b))
    if len(a) < rows:
        a = np.vstack([a, np.zeros((rows - len(a), a.shape[1]))])
    elif len(b) < rows:
        b = np.vstack([b, np.zeros((rows - len(b), b.shape[1]))])
    return a, b


def mix(a, b, lam):
    """Elementwise ``lam * a + (1 - lam) * b`` on equal-shape matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return lam * a + (1.0 - lam) * b


def log_softmax(logits):
    """Numerically stable log-softmax along the last axis: the oracle for
    the loss inside the trainer's fused step."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def identity_lexicon(tokens) -> SynonymLexicon:
    """Each token is its own only synonym, for pipeline checks."""
    return SynonymLexicon({t: (t,) for t in dict.fromkeys(tokens)})


def provenance_json(p) -> dict:
    """A provenance as the JSON object an augmented record holds, built
    field by field for ``json``: the oracle for the writer's template."""
    out = {
        "example_index": p.example_index,
        "variant": p.variant,
        "lam": p.lam,
        "spans": [list(s) for s in p.spans],
        "mixed_spans": [list(s) for s in p.mixed_spans],
        "pool_index": p.pool_index,
    }
    if p.replacements is not None:
        out["replacements"] = list(p.replacements)
    return out


def encode_array(array) -> dict:
    """An array as the payload object an augmented record holds: its shape
    and the base64 of its little-endian float32 bytes."""
    data = np.ascontiguousarray(array, dtype="<f4")
    return {"shape": list(data.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def decode_array(blob: dict) -> np.ndarray:
    """The float32 array of an :func:`encode_array` payload."""
    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, "<f4").reshape(blob["shape"])


def random_sentence(rng, min_len=2, max_len=12, p_entity=0.35, types=ENTITY_TYPES):
    n = int(rng.integers(min_len, max_len + 1))
    tokens, labels = [], []
    i = 0
    while i < n:
        if rng.random() < p_entity and i < n:
            etype = types[int(rng.integers(len(types)))]
            length = min(int(rng.integers(1, 4)), n - i)
            for j in range(length):
                tokens.append(f"e{int(rng.integers(60))}")
                labels.append(("B-" if j == 0 else "I-") + etype)
            i += length
        else:
            tokens.append(f"w{int(rng.integers(120))}")
            labels.append("O")
            i += 1
    return Sentence(tuple(tokens), tuple(labels))


def random_corpus(rng, n_sentences=8, **kw) -> TaggedCorpus:
    return TaggedCorpus.from_sentences(
        [random_sentence(rng, **kw) for _ in range(n_sentences)]
    )


def random_re_sample(rng, relations=RELATIONS) -> RESample:
    n = int(rng.integers(6, 14))
    tokens = tuple(f"t{int(rng.integers(90))}" for _ in range(n))
    len1 = int(rng.integers(1, 3))
    len2 = int(rng.integers(1, 3))
    start1 = int(rng.integers(0, n - len1 - len2))
    start2 = int(rng.integers(start1 + len1, n - len2 + 1))
    relation = relations[int(rng.integers(len(relations)))]
    return RESample(
        tokens,
        Span(start1, start1 + len1),
        Span(start2, start2 + len2),
        relation,
    )


def random_re_corpus(rng, n_samples=8) -> RECorpus:
    return RECorpus.from_samples([random_re_sample(rng) for _ in range(n_samples)])


@pytest.fixture
def hand_corpus() -> TaggedCorpus:
    """Three sentences with known mentions, incl. one all-O sentence."""
    return TaggedCorpus.from_sentences([
        Sentence(
            ("new", "york", "city", "is", "big"),
            ("B-LOC", "I-LOC", "I-LOC", "O", "O"),
        ),
        Sentence(
            ("marcello", "cuttitta", "visited", "rome"),
            ("B-PER", "I-PER", "O", "B-LOC"),
        ),
        Sentence(("nothing", "here"), ("O", "O")),
    ])


@pytest.fixture
def hand_re_corpus() -> RECorpus:
    return RECorpus.from_samples([
        RESample(
            ("the", "storm", "caused", "damage", "."),
            Span(1, 2), Span(3, 4), "Cause-Effect(e1,e2)",
        ),
        RESample(
            ("a", "wheel", "of", "the", "cart", "broke"),
            Span(1, 2), Span(4, 5), "Component-Whole(e1,e2)",
        ),
        RESample(
            ("one", "thing", "and", "another", "thing"),
            Span(1, 2), Span(3, 5), "Other",
        ),
    ])
