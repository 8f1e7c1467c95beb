"""Synthetic template corpora for pipeline tests and demos.

Mention surfaces are nonsense words composed from per-type syllable
inventories, so token identity determines entity type and the mention
token sets never collide with the filler vocabulary. Surface frequency
can be skewed (Zipf-style) to model low-resource mention coverage while
an evaluation split samples the same lexicon uniformly.
"""

from __future__ import annotations

import numpy as np

from .corpus import RECorpus, RESample, Sentence, Span, TaggedCorpus
from .rng import derive_rng

_TYPE_SYLLABLES: dict[str, tuple[str, ...]] = {
    "PER": ("bel", "dor", "mar", "lin", "tas", "ren", "vi", "ka"),
    "LOC": ("ford", "ham", "ston", "wick", "dale", "mere", "by", "ley"),
    "ORG": ("core", "dyn", "plex", "tron", "ix", "ova", "syn", "tek"),
    "PRO": ("zu", "qua", "fil", "gon", "ra", "mod", "pic", "vex"),
    "EVT": ("fest", "gala", "run", "moot", "jam", "expo", "con", "rally"),
    "GRP": ("clan", "band", "crew", "squad", "guild", "circle", "bloc", "wing"),
}

_FILLER = (
    "the", "a", "report", "visited", "near", "after", "with", "about",
    "team", "new", "old", "local", "press", "said", "again", "meeting",
    "held", "during", "yesterday", "crowd", "spoke", "around", "briefly",
)

_SUFFIXES = ("s", "en", "ar", "il", "os")


def entity_types() -> tuple[str, ...]:
    return tuple(_TYPE_SYLLABLES)


def build_lexicons(
    mentions_per_type: int = 40, lexicon_seed: int = 0
) -> dict[str, list[tuple[str, ...]]]:
    """Per-type mention surfaces (1 or 2 tokens), fixed by the lexicon seed.

    The same seed must be used for every split of an experiment so train
    and test draw from one shared inventory.
    """
    rng = derive_rng(lexicon_seed, "synth-lexicon")
    return {etype: _distinct_surfaces(rng, syllables, mentions_per_type, 0.6)
            for etype, syllables in _TYPE_SYLLABLES.items()}


def _distinct_surfaces(rng, syllables, n: int, p_one: float) -> list[tuple[str, ...]]:
    """n distinct surfaces in draw order, each of one token (probability
    ``p_one``) or two, each token two syllables."""
    seen: dict[tuple[str, ...], None] = {}
    while len(seen) < n:
        n_tokens = 1 if rng.random() < p_one else 2
        seen[tuple("".join(rng.choice(syllables, size=2)) for _ in range(n_tokens))] = None
    return list(seen)


def _surface_weights(n: int, skew: float) -> np.ndarray | None:
    if skew <= 0:
        return None
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-skew)
    return weights / weights.sum()


def _rank(rng, n: int, weights: np.ndarray | None) -> int:
    """A lexicon rank below n: Zipf-weighted when ``weights`` are given, else uniform."""
    return int(rng.choice(n, p=weights) if weights is not None else rng.integers(n))


def _filler(rng, low=1, high=3) -> list[str]:
    return [str(w) for w in rng.choice(_FILLER, size=rng.integers(low, high + 1))]


def synth_tagged_corpus(
    n_sentences: int,
    seed: int,
    mentions_per_type: int = 40,
    lexicon_seed: int = 0,
    skew: float = 0.0,
    inflect: float = 0.0,
) -> TaggedCorpus:
    """Template sentences with 1 or 2 typed mention slots.

    skew > 0 draws mention surfaces Zipf-style by lexicon rank (a small
    sample then misses much of the lexicon); skew = 0 draws uniformly.
    inflect is the probability that a mention's final token carries an
    inflection suffix, which multiplies the surface forms a split can
    contain while keeping variants adjacent in any subword vector space.
    """
    if n_sentences <= 0:
        raise ValueError("n_sentences must be positive")
    lexicons = build_lexicons(mentions_per_type, lexicon_seed)
    types = list(lexicons)
    weights = _surface_weights(mentions_per_type, skew)
    rng = derive_rng(seed, "synth-ner")
    sentences = []
    for _ in range(n_sentences):
        n_slots = 2 if rng.random() < 0.4 else 1
        tokens: list[str] = []
        labels: list[str] = []
        for slot in range(n_slots):
            filler = _filler(rng)
            tokens += filler
            labels += ["O"] * len(filler)
            etype = types[rng.integers(len(types))]
            surface = list(lexicons[etype][_rank(rng, mentions_per_type, weights)])
            if inflect > 0 and rng.random() < inflect:
                surface[-1] = surface[-1] + _SUFFIXES[rng.integers(len(_SUFFIXES))]
            tokens += surface
            labels += [f"B-{etype}"] + [f"I-{etype}"] * (len(surface) - 1)
        tokens += _filler(rng, 1, 2) + ["."]
        labels += ["O"] * (len(tokens) - len(labels))
        sentences.append(Sentence(tuple(tokens), tuple(labels)))
    return TaggedCorpus.from_sentences(sentences)


# ---------------------------------------------------------------------------
# Relation corpus: connector phrases encode the relation and direction.

_RELATION_CONNECTORS: dict[str, tuple[tuple[str, ...], ...]] = {
    "Cause-Effect(e1,e2)": (("caused",), ("led", "to"), ("produced",)),
    "Cause-Effect(e2,e1)": (("followed", "from"), ("resulted", "from"), ("stemmed", "from")),
    "Part-Whole(e1,e2)": (("belongs", "to"), ("sits", "inside"), ("forms", "part", "of")),
    "Part-Whole(e2,e1)": (("contains",), ("includes",), ("absorbed",)),
    "Member-Group(e1,e2)": (("joined",), ("signed", "with"), ("plays", "for")),
    "Member-Group(e2,e1)": (("recruited",), ("enlisted",), ("drafted",)),
    "Other": (("mentioned",), ("ignored",), ("passed",)),
}

_NOMINAL_SYLLABLES = ("gri", "pol", "van", "tur", "hes", "nim", "osk", "dra")


def build_nominal_lexicon(n_nominals: int = 60, lexicon_seed: int = 0) -> list[tuple[str, ...]]:
    return _distinct_surfaces(derive_rng(lexicon_seed, "synth-nominals"), _NOMINAL_SYLLABLES, n_nominals, 0.7)


def synth_re_corpus(
    n_samples: int,
    seed: int,
    n_nominals: int = 60,
    lexicon_seed: int = 0,
    skew: float = 0.0,
) -> RECorpus:
    """Two-nominal template samples, one relation label each."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    nominals = build_nominal_lexicon(n_nominals, lexicon_seed)
    relations = list(_RELATION_CONNECTORS)
    weights = _surface_weights(n_nominals, skew)
    rng = derive_rng(seed, "synth-re")
    samples = []
    for _ in range(n_samples):
        relation = relations[rng.integers(len(relations))]
        connectors = _RELATION_CONNECTORS[relation]
        connector = list(connectors[rng.integers(len(connectors))])
        head = _filler(rng, 1, 2)
        first, second = (nominals[_rank(rng, n_nominals, weights)] for _ in range(2))
        tokens = head + list(first)
        e1 = Span(len(head), len(tokens))
        tokens += connector
        e2_start = len(tokens)
        tokens += list(second)
        e2 = Span(e2_start, len(tokens))
        tokens += _filler(rng, 1, 2) + ["."]
        samples.append(RESample(tuple(tokens), e1, e2, relation))
    return RECorpus.from_samples(samples)
