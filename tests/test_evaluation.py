"""Span scoring, relation accuracies, confusion matrices, recovery."""

import json

import numpy as np
import pytest

from segmix.corpus import Sentence, TaggedCorpus, bio_spans
from segmix.evaluation import (
    PRF,
    entity_f1,
    nearest_token,
    nearest_tokens,
    per_type_f1,
    pred_spans,
    re_confusion,
    re_report,
    re_scores,
    span_only_f1,
    split_relation,
    tagging_report,
    token_confusion,
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
    vocab = ("B-X", "O")
    with pytest.raises(ValueError, match="counts differ"):
        token_confusion([["B-X"], ["O"]], [["B-X"]], vocab)
    with pytest.raises(ValueError, match="lengths differ"):
        token_confusion([["B-X", "O"]], [["B-X"]], vocab)
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
    vocab = ("B-X", "O")
    gold = [["B-X", "O", "O"]]
    pred = [["B-X", "B-X", "O"]]
    matrix = token_confusion(gold, pred, vocab)
    assert np.array_equal(matrix, [[1, 0], [1, 1]])
    assert matrix.dtype == np.int64
    # perfect predictions are purely diagonal
    diag = token_confusion(gold, gold, vocab)
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
    tok, _ = nearest_token(table, 0.9 * va + 0.1 * vb)
    assert tok == "a"
    tok, _ = nearest_token(table, 0.1 * va + 0.9 * vb)
    assert tok == "b"


def test_nearest_tokens_exclude_buckets():
    # a bucket row itself must resolve to some real vocabulary token
    table = EmbeddingTable.random(["a", "b"], 4, seed=2, n_buckets=16)
    bucket_row = table.vectors[table.index("never-seen")]
    tok, dist = nearest_token(table, bucket_row)
    assert tok in ("a", "b")
    assert dist > 0


def test_nearest_tokens_validates_shape():
    table = EmbeddingTable.random(["a"], 4, seed=0)
    with pytest.raises(ValueError, match="table dimension"):
        nearest_tokens(table, np.zeros((2, 5)))


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
