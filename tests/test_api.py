"""The public surface: the names ``import segmix`` exports."""

import segmix

PUBLIC = [
    "AugmentedFile", "BioValidationError", "CorpusFormatError", "EmbeddingTable",
    "EmptyPoolError", "EvalReport", "MixConfig", "MixedExample", "MixedRESample", "Provenance",
    "RECorpus", "REModel", "RESample", "SegmentPool", "SegmentTuple", "Sentence", "Span",
    "SynonymLexicon", "TaggedCorpus", "TaggerModel", "TrainConfig", "TrainResult",
    "TrainingDivergedError", "__version__", "bio_spans", "build_mention_pool",
    "build_relation_pool", "build_sequence_pool", "build_token_pool", "derive_rng", "downsample",
    "encode_corpus", "encode_re_corpus", "entity_f1", "gradient_check", "load_augmented",
    "load_checkpoint", "load_synonym_lexicon", "nearest_tokens", "one_hot", "parse_conll",
    "parse_re", "per_type_f1", "predict_re", "predict_tagger", "re_report", "re_scores",
    "replacement_da", "sample_mix_ratio", "save_augmented", "save_checkpoint", "segmix_generate",
    "span_only_f1", "synth_re_corpus", "synth_tagged_corpus", "tagging_report", "train_re",
    "train_tagger", "validate_bio", "write_corpus",
]


def test_the_public_names_are_the_listed_ones():
    # a name leaves (or joins) the surface only by an edit to this list
    assert sorted(segmix.__all__) == PUBLIC
