"""Span scoring, relation accuracies, confusion matrices, recovery."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segmix.corpus import Sentence, TaggedCorpus, _mentions, bio_spans, split_bio
from segmix.evaluation import (
    PRF,
    _Predicted,
    _confusion,
    _gold_side,
    _span_counts,
    _streams,
    entity_f1,
    nearest_tokens,
    per_type_f1,
    pred_spans,
    re_confusion,
    re_report,
    re_scores,
    span_only_f1,
    split_relation,
    tagging_report,
)
from segmix.mixer import EmbeddingTable


# ---------------------------------------------------------------- spans

def test_pred_spans_well_formed():
    assert pred_spans(["B-LOC", "I-LOC", "O", "B-PER"]) == [
        (0, 2, "LOC"),
        (3, 4, "PER"),
    ]
    assert pred_spans(["O", "O"]) == []


def test_pred_spans_tolerates_ill_formed():
    # a stray I-X opens a span
    assert pred_spans(["O", "I-LOC", "I-LOC"]) == [(1, 3, "LOC")]
    # I with a type switch closes the old span and opens a new one
    assert pred_spans(["B-LOC", "I-PER"]) == [(0, 1, "LOC"), (1, 2, "PER")]
    # B always opens fresh, even after same-type I
    assert pred_spans(["I-LOC", "B-LOC"]) == [(0, 1, "LOC"), (1, 2, "LOC")]
    assert pred_spans(["B-X", "I-X", "I-X"]) == [(0, 3, "X")]


def test_scoring_reads_spans_with_the_corpus_reader():
    assert pred_spans is bio_spans


def test_prf_zero_denominators():
    assert PRF(0, 0, 0).precision == 0.0
    assert PRF(0, 0, 0).recall == 0.0
    assert PRF(0, 0, 0).f1 == 0.0
    assert PRF(0, 3, 0).f1 == 0.0


def test_entity_f1_hand_tallies():
    gold = [
        ["B-LOC", "I-LOC", "O"],   # gold span (0,2,LOC)
        ["B-PER", "O", "B-LOC"],   # gold spans (0,1,PER), (2,3,LOC)
    ]
    pred = [
        ["B-LOC", "I-LOC", "O"],   # exact match -> tp
        ["B-PER", "I-PER", "B-LOC"],  # (0,2,PER) wrong boundary -> fp+fn; LOC tp
    ]
    prf = entity_f1(gold, pred)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)
    assert prf.precision == 2 / 3
    assert prf.recall == 2 / 3


def test_entity_f1_accepts_corpus(hand_corpus):
    gold_labels = [list(s.labels) for s in hand_corpus.sentences]
    prf = entity_f1(hand_corpus, gold_labels)
    assert (prf.tp, prf.fp, prf.fn) == (3, 0, 0)
    assert prf.f1 == 1.0


def test_entity_f1_validates_alignment():
    with pytest.raises(ValueError, match="counts differ"):
        entity_f1([["O"]], [])
    with pytest.raises(ValueError, match="lengths differ"):
        entity_f1([["O", "O"]], [["O"]])


def test_per_type_f1_refuses_misaligned_predictions(hand_corpus):
    gold = [list(s.labels) for s in hand_corpus.sentences]
    with pytest.raises(ValueError, match="counts differ"):
        per_type_f1(hand_corpus, gold[:-1])
    with pytest.raises(ValueError, match="lengths differ"):
        per_type_f1(hand_corpus, [gold[0][:-1], *gold[1:]])


def test_confusions_refuse_misaligned_predictions():
    gold = TaggedCorpus.from_sentences([Sentence(("a",), ("B-X",)), Sentence(("b",), ("O",))])
    with pytest.raises(ValueError, match="counts differ"):
        tagging_report(gold, [["B-X"]])
    with pytest.raises(ValueError, match="lengths differ"):
        tagging_report(gold, [["B-X", "O"], ["O"]])
    with pytest.raises(ValueError, match="counts differ"):
        re_confusion(["R1", "R2"], ["R1"], ("R1", "R2"))


def test_span_only_f1_erases_types():
    gold = [["B-LOC", "I-LOC", "O"]]
    pred = [["B-PER", "I-PER", "O"]]  # right boundary, wrong type
    assert entity_f1(gold, pred).tp == 0
    span = span_only_f1(gold, pred)
    assert (span.tp, span.fp, span.fn) == (1, 0, 0)
    assert span.f1 == 1.0


def test_per_type_sums_match_overall():
    gold = [
        ["B-LOC", "I-LOC", "O", "B-PER"],
        ["B-ORG", "O", "B-LOC", "O"],
    ]
    pred = [
        ["B-LOC", "O", "O", "B-PER"],
        ["B-ORG", "I-ORG", "B-LOC", "O"],
    ]
    per_type = per_type_f1(gold, pred)
    overall = entity_f1(gold, pred)
    assert sum(p.tp for p in per_type.values()) == overall.tp
    assert sum(p.fp for p in per_type.values()) == overall.fp
    assert sum(p.fn for p in per_type.values()) == overall.fn
    assert list(per_type) == sorted(per_type)
    assert per_type["PER"].f1 == 1.0


def test_token_confusion():
    gold = TaggedCorpus.from_sentences([Sentence(("a", "b", "c"), ("B-X", "O", "O"))])
    report = tagging_report(gold, [["B-X", "B-X", "O"]])
    assert report.confusion_vocab == ("B-X", "O")
    assert np.array_equal(report.confusion, [[1, 0], [1, 1]])
    assert report.confusion.dtype == np.int64
    # perfect predictions are purely diagonal
    diag = tagging_report(gold, [["B-X", "O", "O"]]).confusion
    assert np.array_equal(diag, [[1, 0], [0, 2]])


# ---------------------------------------------------------------- relations

def test_split_relation():
    assert split_relation("Cause-Effect(e1,e2)") == ("Cause-Effect", "e1,e2")
    assert split_relation("Other") == ("Other", None)
    assert split_relation("Member-Group(e2,e1)") == ("Member-Group", "e2,e1")


def test_re_scores_hand_tallies():
    gold = [
        "Cause-Effect(e1,e2)",
        "Cause-Effect(e2,e1)",
        "Other",
        "Member-Group(e1,e2)",
    ]
    pred = [
        "Cause-Effect(e1,e2)",  # exact
        "Cause-Effect(e1,e2)",  # type right, direction wrong
        "Other",                # exact, no direction
        "Other",                # type wrong
    ]
    s = re_scores(gold, pred)
    assert s.n == 4
    assert s.correct == 2
    assert s.type_correct == 3
    assert s.direction_pairs == 2
    assert s.direction_correct == 1
    assert s.accuracy == 0.5
    assert s.type_accuracy == 0.75
    assert s.direction_given_type == 0.5


def test_re_scores_empty_and_mismatch():
    empty = re_scores([], [])
    assert empty.accuracy == 0.0
    with pytest.raises(ValueError, match="counts differ"):
        re_scores(["Other"], [])


def test_re_scores_accepts_corpus(hand_re_corpus):
    gold_labels = [s.relation for s in hand_re_corpus.samples]
    assert re_scores(hand_re_corpus, gold_labels).accuracy == 1.0


def test_re_confusion():
    vocab = ("A", "B")
    matrix = re_confusion(["A", "A", "B"], ["A", "B", "B"], vocab)
    assert np.array_equal(matrix, [[1, 1], [0, 1]])


# ---------------------------------------------------------------- recovery

def test_nearest_tokens_exact_rows():
    table = EmbeddingTable.random(["a", "b", "c"], 6, seed=0)
    got = nearest_tokens(table, table.vectors[:3])
    assert [t for t, _ in got] == ["a", "b", "c"]
    # the quadratic-form distance cancels to ~sqrt(eps) on identical rows
    assert all(d < 1e-5 for _, d in got)


def test_nearest_token_tracks_lambda_side():
    table = EmbeddingTable.random(["a", "b"], 8, seed=1)
    va, vb = table.vectors[0], table.vectors[1]
    tok, _ = nearest_tokens(table, [0.9 * va + 0.1 * vb])[0]
    assert tok == "a"
    tok, _ = nearest_tokens(table, [0.1 * va + 0.9 * vb])[0]
    assert tok == "b"


def test_nearest_tokens_exclude_buckets():
    # a bucket row itself must resolve to some real vocabulary token
    table = EmbeddingTable.random(["a", "b"], 4, seed=2, n_buckets=16)
    bucket_row = table.vectors[table.index("never-seen")]
    tok, dist = nearest_tokens(table, [bucket_row])[0]
    assert tok in ("a", "b")
    assert dist > 0


def test_nearest_tokens_validates_shape():
    table = EmbeddingTable.random(["a"], 4, seed=0)
    with pytest.raises(ValueError, match="table dimension"):
        nearest_tokens(table, np.zeros((2, 5)))


def test_nearest_tokens_refuses_a_table_without_vocabulary():
    table = EmbeddingTable.random([], 4, seed=0, n_buckets=8)
    with pytest.raises(ValueError, match="no vocabulary rows"):
        nearest_tokens(table, np.zeros((2, 4)))


# ---------------------------------------------------------------- reports

def test_tagging_report_structure(hand_corpus, tmp_path):
    pred = [list(s.labels) for s in hand_corpus.sentences]
    report = tagging_report(hand_corpus, pred)
    assert report.task == "ner"
    assert report.summary["f1"] == 1.0
    assert report.summary["n_sentences"] == 3
    assert set(report.per_type) == {"LOC", "PER"}

    json_path = tmp_path / "report.json"
    report.write_json(json_path)
    parsed = json.loads(json_path.read_text())
    assert parsed["task"] == "ner"
    assert parsed["confusion"]["labels"] == list(hand_corpus.label_vocab)

    csv_path = tmp_path / "confusion.csv"
    report.write_confusion_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",")[0] == "gold\\pred"
    assert len(lines) == len(hand_corpus.label_vocab) + 1

    text = report.format_text()
    assert text.startswith("task: ner\n")
    assert "f1: 1.0000" in text


def test_re_report_extends_vocab_with_unseen_predictions(hand_re_corpus):
    pred = ["Nonsense(e1,e2)"] * len(hand_re_corpus)
    report = re_report(hand_re_corpus, pred)
    assert report.summary["accuracy"] == 0.0
    assert "Nonsense(e1,e2)" in report.confusion_vocab
    assert report.confusion.sum() == len(hand_re_corpus)


def test_tagging_report_extends_vocab_with_unseen_predictions():
    gold = TaggedCorpus.from_sentences([Sentence(("Ann", "ran"), ("B-PER", "O"))])
    report = tagging_report(gold, [["B-LOC", "O"]])
    assert report.summary["f1"] == 0.0
    assert report.confusion_vocab == ("B-PER", "O", "B-LOC")
    assert report.confusion.tolist() == [[0, 0, 1], [0, 1, 0], [0, 0, 0]]


# ------------------------------------------------- id path vs string path

def _string_span_counts(gold, predicted):
    """Span counts read from the label strings, each stream flattened and
    every label split where it stands: the oracle the id path must equal."""
    gold = [s.labels for s in gold.sentences] if isinstance(gold, TaggedCorpus) else gold
    gold_flat = [label for row in gold for label in row]
    pred_flat = [label for row in predicted for label in row]
    offsets = np.concatenate([[0], np.cumsum([len(row) for row in gold])]).astype(np.int64)
    n = len(gold_flat)
    index, types = {}, {}
    kind, etype = [], []
    for label in gold_flat + pred_flat:
        k, t = split_bio(label)
        index.setdefault(label, len(index))
        kind.append("OBI".index(k))
        etype.append(-1 if t is None else types.setdefault(t, len(types)))
    kind, etype, types = np.array(kind, np.int64), np.array(etype, np.int64), tuple(types)
    starts, ends = _mentions(kind, etype, np.concatenate([offsets, offsets[1:] + n]))
    spans = [{(s - side * n, e - side * n, types[etype[s]]) for s, e in zip(starts, ends)
              if (s >= n) == side} for side in (0, 1)]
    gold_spans, pred_spans_ = spans
    per_type = {}
    for t in sorted({t for *_, t in gold_spans | pred_spans_}):
        g = {x for x in gold_spans if x[2] == t}
        p = {x for x in pred_spans_ if x[2] == t}
        per_type[t] = PRF(len(g & p), len(p - g), len(g - p))
    untyped = [{x[:2] for x in side} for side in spans]
    tp = len(gold_spans & pred_spans_)
    span_tp = len(untyped[0] & untyped[1])
    return (PRF(tp, len(pred_spans_) - tp, len(gold_spans) - tp),
            PRF(span_tp, len(pred_spans_) - span_tp, len(gold_spans) - span_tp), per_type)


def _string_confusion(gold, predicted, vocab):
    gold = [s.labels for s in gold.sentences] if isinstance(gold, TaggedCorpus) else gold
    at = {label: i for i, label in enumerate(vocab)}
    counts = np.zeros((len(vocab), len(vocab)), np.int64)
    for g_row, p_row in zip(gold, predicted):
        for g, p in zip(g_row, p_row):
            counts[at[g], at[p]] += 1
    return counts


_GOLD_LABELS = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
_MODEL_LABELS = _GOLD_LABELS + ("B-ORG", "I-ORG", "I-X")  # three the gold never uses


@st.composite
def _scored_streams(draw):
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    sentences = tuple(Sentence(("w",) * n, tuple(draw(st.lists(st.sampled_from(_GOLD_LABELS),
                                                               min_size=n, max_size=n))))
                      for n in lengths)
    # a corpus's label vocabulary as given may list labels it never uses and leave out used ones
    listed = draw(st.none() | st.lists(st.sampled_from(_MODEL_LABELS), unique=True))
    gold = TaggedCorpus.from_sentences(sentences) if listed is None else \
        TaggedCorpus(sentences, label_vocab=tuple(listed))
    # model labels may repeat, and may hold one that is not BIO ("junk")
    extra = draw(st.lists(st.sampled_from(_MODEL_LABELS + ("junk",)), max_size=3))
    labels = draw(st.permutations(_MODEL_LABELS + tuple(extra)))
    # the ids predicted: every label, or only some, so that some are never predicted
    chosen = draw(st.none() | st.lists(st.integers(0, len(labels) - 1), min_size=1, unique=True))
    ids = draw(st.lists(st.sampled_from(chosen) if chosen else st.integers(0, len(labels) - 1),
                        min_size=sum(lengths), max_size=sum(lengths)))
    return gold, tuple(labels), np.array(ids, np.int64), lengths


@settings(max_examples=200, deadline=None)
@given(_scored_streams())
def test_id_path_scores_equal_the_string_path(streams):
    gold, labels, ids, lengths = streams
    ends = np.cumsum(lengths)
    pred = [[labels[i] for i in ids[end - n : end]] for end, n in zip(ends, lengths)]
    # what predict_tagger returns: the same labels, held as ids into the model's labels
    by_id = _Predicted(ids, np.append(0, ends), labels)
    assert by_id == pred and pred == by_id and len(by_id) == len(pred)
    try:
        overall, spans, per_type = _string_span_counts(gold, pred)
    except ValueError as exc:  # a predicted label that is not BIO: every path refuses it alike
        for score in (entity_f1, span_only_f1, per_type_f1, tagging_report):
            for predicted in (pred, by_id):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    score(gold, predicted)
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _span_counts(*_streams(_gold_side(gold), ids, labels))
        return

    for predicted in (pred, by_id):
        assert entity_f1(gold, predicted) == overall
        assert span_only_f1(gold, predicted) == spans
        assert per_type_f1(gold, predicted) == per_type
        assert entity_f1([list(s.labels) for s in gold.sentences], predicted) == overall
    assert _span_counts(*_streams(_gold_side(gold), ids, labels))[0] == overall

    vocab = tuple(dict.fromkeys([*gold.label_vocab, *(p for row in pred for p in row)]))
    unlisted = [g for s in gold.sentences for g in s.labels if g not in vocab]
    reports = []
    for predicted in (pred, by_id):
        if unlisted:  # a gold label neither listed nor predicted has no column
            with pytest.raises(ValueError, match=f"label {unlisted[0]!r} not in vocabulary"):
                tagging_report(gold, predicted)
            continue
        report = tagging_report(gold, predicted)
        assert report.confusion_vocab == vocab
        assert np.array_equal(report.confusion, _string_confusion(gold, pred, vocab))
        assert report.summary["f1"] == overall.f1 and report.summary["span_f1"] == spans.f1
        assert list(report.per_type) == list(per_type)
        reports.append(report)
    if reports:
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].confusion.dtype == reports[1].confusion.dtype


def test_scoring_refuses_the_first_label_that_is_not_bio_and_only_labels_it_reads():
    with pytest.raises(ValueError, match="not a BIO label: 'X-FOO'"):
        entity_f1([["O", "B-A"]], [["X-FOO", "Y-BAR"]])
    with pytest.raises(ValueError, match="label 'I-Q' not in vocabulary"):
        _confusion(np.array([0, 2]), np.array([0, 0]), ("O", "B-A", "I-Q"), 2)
    gold = TaggedCorpus.from_sentences([Sentence(("a", "b"), ("B-A", "O"))])
    side, labels = _gold_side(gold), ("O", "B-A", "junk")  # a label never predicted is never read

    def score(ids):
        return _span_counts(*_streams(side, ids, labels))[0]

    assert score(np.array([1, 0])) == PRF(1, 0, 0)
    with pytest.raises(ValueError, match="not a BIO label: 'junk'"):
        score(np.array([2, 0]))


def test_tagging_report_reads_the_corpus_vocabulary_as_given():
    sentences = (Sentence(("Ann", "ran"), ("B-PER", "O")),)
    listed = TaggedCorpus(sentences, label_vocab=("O", "B-PER", "B-ORG"))  # ORG never used
    report = tagging_report(listed, [["B-PER", "O"]])
    assert list(report.per_type) == ["PER"]
    assert report.confusion_vocab == ("O", "B-PER", "B-ORG")
    unlisted = TaggedCorpus(sentences, label_vocab=("O",))  # B-PER used but not listed
    for predicted in (["O", "O"], ["B-LOC", "O"]):
        with pytest.raises(ValueError, match="label 'B-PER' not in vocabulary"):
            tagging_report(unlisted, [predicted])
    assert tagging_report(unlisted, [["B-PER", "O"]]).confusion_vocab == ("O", "B-PER")
