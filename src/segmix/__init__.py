"""Segment-level mixup augmentation for tagging and relation corpora.

Sentences are embedded as float64 matrices; augmentation interpolates a
task-specific segment (a mention, a token, a synonym swap, a relation's
nominal pair, or the whole sequence) against a pool segment with a
Beta-distributed ratio, producing soft-labelled training examples.

Every name imported below is public: ``__all__`` is read off them.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .corpus import (
    BioValidationError, CorpusFormatError, RECorpus, RESample, Sentence, Span, TaggedCorpus,
    bio_spans, downsample, parse_conll, parse_re, validate_bio, write_corpus,
)
from .evaluation import (
    EvalReport, entity_f1, nearest_tokens, per_type_f1, re_scores, span_only_f1, tagging_report,
    re_report,
)
from .mixer import (
    EmbeddingTable, EmptyPoolError, MixConfig, MixedExample, MixedRESample, Provenance,
    encode_corpus, encode_re_corpus, one_hot, replacement_da, sample_mix_ratio, segmix_generate,
)
from .model import (
    REModel, TaggerModel, TrainConfig, TrainingDivergedError, TrainResult, gradient_check,
    predict_re, predict_tagger, train_re, train_tagger,
)
from .pools import (
    SegmentPool, SegmentTuple, SynonymLexicon, build_mention_pool, build_relation_pool,
    build_sequence_pool, build_token_pool, load_synonym_lexicon,
)
from .rng import derive_rng
from .serialization import (
    AugmentedFile, load_augmented, load_checkpoint, save_augmented, save_checkpoint,
)
from .synth import synth_re_corpus, synth_tagged_corpus

__all__ = [
    name for name, value in globals().items()
    if name == "__version__" or not (name.startswith("_") or isinstance(value, _ModuleType))
]
