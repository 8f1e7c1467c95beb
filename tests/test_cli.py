"""End-to-end command-line behavior: exit codes, configs, manifests."""

import base64
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from segmix import cli, mixer
from segmix.cli import build_parser, main
from segmix.corpus import Sentence, TaggedCorpus, corpus_to_text, parse_conll
from segmix.evaluation import entity_f1
from segmix.mixer import EmbeddingTable, encode_corpus
from segmix.model import TaggerModel, predict_tagger
from segmix.serialization import load_augmented, load_checkpoint, save_augmented, save_checkpoint
from segmix.synth import synth_re_corpus, synth_tagged_corpus


@pytest.fixture
def ner_file(tmp_path):
    corpus = synth_tagged_corpus(40, seed=11)
    path = tmp_path / "train.conll"
    path.write_text(corpus_to_text(corpus))
    return path


@pytest.fixture
def test_file(tmp_path):
    corpus = synth_tagged_corpus(25, seed=12)
    path = tmp_path / "test.conll"
    path.write_text(corpus_to_text(corpus))
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------- augment

def test_augment_happy_path(tmp_path, ner_file):
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, "--rate", "0.5") == 0
    with open(out) as fh:
        aug = load_augmented(fh)
    assert aug.task == "ner"
    assert aug.examples
    assert aug.meta["config"]["rate"] == 0.5
    assert aug.meta["table"]["dim"] == 32

    manifest = json.loads((tmp_path / "aug.jsonl.manifest.json").read_text())
    assert manifest["command"] == "augment"
    assert str(ner_file) in manifest["inputs"]
    assert manifest["outputs"] == [str(out)]
    assert manifest["extra"]["requested"] == 20


def test_augment_without_an_output_names_both_needed_flags(tmp_path, ner_file, capsys):
    assert run("augment", "--input", ner_file) == 1
    assert capsys.readouterr().err == "error: augment needs --input and --output\n"


def test_augment_missing_input_exits_1(tmp_path, capsys):
    code = run("augment", "--input", tmp_path / "nope.conll", "--output", tmp_path / "o")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _counting_parses(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(cli, "parse_conll",
                        lambda *a, real=cli.parse_conll, **k: calls.append(a) or real(*a, **k))
    return calls


def test_augment_synonym_without_lexicon_exits_1(tmp_path, ner_file, monkeypatch, capsys):
    parses = _counting_parses(monkeypatch)
    for variant in ("synonym", "mention+synonym"):
        code = run("augment", "--input", ner_file, "--output", tmp_path / "o", "--variant", variant)
        assert code == 1
        assert capsys.readouterr().err == "error: the synonym variant needs --synonyms LEXICON\n"
    assert parses == []  # refused before the corpus is read


@pytest.mark.parametrize("args", [(), ("--mode", "replace"), ("--variant", "synonym")])
def test_augment_names_a_missing_synonym_lexicon(tmp_path, ner_file, capsys, args):
    missing, out = tmp_path / "missing.tsv", tmp_path / "o"
    code = run("augment", "--input", ner_file, "--output", out, "--synonyms", missing, *args)
    assert (code, capsys.readouterr().err) == (1, f"error: synonym lexicon not found: {missing}\n")
    assert not out.exists()


def _synonym_lexicon(tmp_path, corpus):
    """A lexicon giving every third token two synonyms unlike itself."""
    lexicon = {t: (t + "_a", t + "_b") for t in corpus.token_vocab[::3]}
    path = tmp_path / "lex.tsv"
    path.write_text("".join(f"{t}\t{','.join(s)}\n" for t, s in lexicon.items()))
    return lexicon, path


def test_augment_mixes_synonyms_and_keeps_the_labels(tmp_path, ner_file):
    corpus = parse_conll(ner_file.read_text())
    lexicon, lex = _synonym_lexicon(tmp_path, corpus)
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, "--variant", "synonym",
               "--synonyms", lex, "--rate", "1.0") == 0
    with open(out) as fh:
        aug = load_augmented(fh)
    assert aug.examples
    vocab = list(aug.label_vocab)
    for example in aug.examples:
        prov = example.provenance
        source = corpus.sentences[prov.example_index]
        ((start, end),) = prov.spans
        assert prov.variant == "synonym" and end == start + 1
        assert prov.replacements[0] in lexicon[source.tokens[start]]
        labels = [vocab.index(label) for label in source.labels]
        assert example.soft_labels.argmax(axis=1).tolist() == labels
        assert (example.soft_labels.max(axis=1) == 1.0).all()
    manifest = json.loads((tmp_path / "aug.jsonl.manifest.json").read_text())
    assert set(manifest["inputs"]) == {str(ner_file), str(lex)}


def test_augment_replaces_synonyms_and_keeps_the_labels(tmp_path, ner_file, capsys):
    corpus = parse_conll(ner_file.read_text())
    lexicon, lex = _synonym_lexicon(tmp_path, corpus)
    out = tmp_path / "replaced.conll"
    assert run("augment", "--input", ner_file, "--output", out, "--variant", "synonym",
               "--synonyms", lex, "--mode", "replace", "--rate", "1.0") == 0
    replaced = parse_conll(out.read_text())
    assert len(replaced) > 0
    assert f"in {len(replaced)}/40 sampled sentences" in capsys.readouterr().out

    def one_swap(new, old):
        diff = [i for i, (a, b) in enumerate(zip(new.tokens, old.tokens)) if a != b]
        return (new.labels == old.labels and len(diff) == 1
                and new.tokens[diff[0]] in lexicon.get(old.tokens[diff[0]], ()))

    for sentence in replaced.sentences:
        assert any(one_swap(sentence, source) for source in corpus.sentences)


def test_augment_replace_mode_writes_corpus(tmp_path, ner_file):
    out = tmp_path / "replaced.conll"
    assert run(
        "augment", "--input", ner_file, "--output", out,
        "--mode", "replace", "--rate", "1.0",
    ) == 0
    replaced = parse_conll(out.read_text())
    assert len(replaced) > 0


def test_augment_deterministic_bytes(tmp_path, ner_file):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("augment", "--input", ner_file, "--output", a, "--seed", "3")
    run("augment", "--input", ner_file, "--output", b, "--seed", "3")
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- config files

def test_config_supplies_defaults_and_cli_wins(tmp_path, ner_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rate": 1.0, "seed": 9}))
    out = tmp_path / "aug.jsonl"

    run("augment", "--config", config, "--input", ner_file, "--output", out)
    manifest = json.loads((tmp_path / "aug.jsonl.manifest.json").read_text())
    assert manifest["extra"]["requested"] == 40  # config rate applied
    assert manifest["args"]["seed"] == 9

    run("augment", "--config", config, "--input", ner_file, "--output", out,
        "--rate", "0.1")
    manifest = json.loads((tmp_path / "aug.jsonl.manifest.json").read_text())
    assert manifest["extra"]["requested"] == 4  # explicit flag beats config


def test_unknown_config_key_is_a_usage_error(tmp_path, ner_file, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rte": 1.0}))
    with pytest.raises(SystemExit) as exc:
        run("augment", "--config", config, "--input", ner_file,
            "--output", tmp_path / "o")
    assert exc.value.code == 2
    assert "rte" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ('{"epochs": 1e400}', "config key 'epochs' must be an integer, got Infinity"),
    ('{"batch_size": null}', "config key 'batch_size' may not be null"),
    ('{"batch_size": 2.5}', "config key 'batch_size' must be an integer, got 2.5"),
    ('{"epochs": true}', "config key 'epochs' must be an integer, got true"),
    ('{"lr": "0.1"}', "config key 'lr' must be a number, got \"0.1\""),
    ('{"no_originals": 1}', "config key 'no_originals' must be true or false, got 1"),
    ('{"task": "pos"}', "config key 'task' must be one of ner, re, got \"pos\""),
    ('{"vocab_from": "extra.conll"}',
     "config key 'vocab_from' must be a list of strings, got \"extra.conll\""),
])
def test_config_value_of_the_wrong_kind_is_a_usage_error(tmp_path, ner_file, capsys, text,
                                                          message):
    config = tmp_path / "config.json"
    config.write_text(text)
    ckpt = tmp_path / "m.ckpt"
    with pytest.raises(SystemExit) as exc:
        run("train", "--config", config, "--train", ner_file, "--checkpoint", ckpt)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"segmix: error: {message}"
    assert not ckpt.exists()


def test_config_null_keeps_an_option_that_may_be_unset(tmp_path, ner_file):
    config = tmp_path / "config.json"
    config.write_text('{"fixed_lambda": null, "rate": 1}')  # and an integer stands for a float
    assert run("augment", "--config", config, "--input", ner_file,
               "--output", tmp_path / "aug.jsonl") == 0


def test_config_must_be_json_object(tmp_path, ner_file, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code = run("augment", "--config", config, "--input", ner_file,
               "--output", tmp_path / "o")
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    (None, "error: config file not found: {}\n"),
    ('{"rate": 1.0,', "error: config file {} is not valid JSON: "),
])
def test_a_config_file_that_cannot_be_read_is_one_error_line(tmp_path, ner_file, capsys, text,
                                                             message):
    config, out = tmp_path / "config.json", tmp_path / "o"
    if text is not None:
        config.write_text(text)
    assert run("augment", "--config", config, "--input", ner_file, "--output", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(message.format(config)) and err.count("\n") == 1
    assert not out.exists()


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "segmix" in capsys.readouterr().out


# ---------------------------------------------------------------- train/eval

def test_train_eval_cycle(tmp_path, ner_file, test_file, capsys):
    aug = tmp_path / "aug.jsonl"
    ckpt = tmp_path / "model.ckpt"
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    confusion = tmp_path / "confusion.csv"

    assert run("augment", "--input", ner_file, "--output", aug, "--rate", "0.3") == 0
    assert run(
        "train", "--train", ner_file, "--augmented", aug, "--checkpoint", ckpt,
        "--epochs", "3", "--loss-trace", trace,
    ) == 0
    assert ckpt.is_file()
    lines = trace.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_score"
    assert len(lines) == 4

    capsys.readouterr()
    assert run(
        "eval", "--checkpoint", ckpt, "--test", test_file,
        "--report", report, "--confusion", confusion,
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("task: ner")
    parsed = json.loads(report.read_text())
    assert set(parsed["summary"]) >= {"precision", "recall", "f1"}
    assert confusion.read_text().startswith("gold\\pred,")


@pytest.mark.parametrize("task", ["ner", "re"])
def test_train_refuses_an_empty_validation_corpus(tmp_path, task, capsys):
    corpus = synth_tagged_corpus(20, seed=11) if task == "ner" else synth_re_corpus(20, seed=11)
    train, empty, ckpt = tmp_path / "train.txt", tmp_path / "empty.txt", tmp_path / "m.ckpt"
    train.write_text(corpus_to_text(corpus))
    empty.write_text("")
    code = run("train", "--task", task, "--train", train, "--val", empty, "--epochs", "3",
               "--checkpoint", ckpt)
    assert (code, capsys.readouterr().err) == (1, "error: validation corpus is empty\n")
    assert not ckpt.exists()


@pytest.mark.parametrize("task", ["ner", "re"])
def test_eval_refuses_an_empty_test_corpus(tmp_path, task, capsys):
    corpus = synth_tagged_corpus(20, seed=11) if task == "ner" else synth_re_corpus(20, seed=11)
    train, empty, ckpt = tmp_path / "train.txt", tmp_path / "empty.txt", tmp_path / "m.ckpt"
    train.write_text(corpus_to_text(corpus))
    empty.write_text("")
    assert run("train", "--task", task, "--train", train, "--epochs", "1", "--checkpoint", ckpt) == 0
    capsys.readouterr()
    code = run("eval", "--task", task, "--checkpoint", ckpt, "--test", empty)
    assert (code, capsys.readouterr().err) == (1, "error: test corpus is empty\n")


@pytest.mark.parametrize("task", ["ner", "re"])
def test_sweep_refuses_an_empty_test_corpus_before_any_cell_trains(tmp_path, task, monkeypatch,
                                                                  capsys):
    monkeypatch.setattr(cli, "_test_side", lambda *args: pytest.fail("laid out the test side"))
    monkeypatch.setattr(cli, "_sweep_cell", lambda *args: pytest.fail("trained a cell"))
    corpus = synth_tagged_corpus(20, seed=11) if task == "ner" else synth_re_corpus(20, seed=11)
    train, empty, out = tmp_path / "train.txt", tmp_path / "empty.txt", tmp_path / "o.csv"
    train.write_text(corpus_to_text(corpus))
    empty.write_text("")
    code = run("sweep", "--task", task, "--train", train, "--test", empty, "--sizes", "10",
               "--variants", "none", "--seeds", "0", "--epochs", "1", "--output", out)
    assert (code, capsys.readouterr().err) == (1, "error: test corpus is empty\n")
    assert not out.exists()


def test_train_takes_an_augmented_file_with_no_examples(tmp_path, ner_file, capsys):
    aug, with_aug, without = tmp_path / "aug.jsonl", tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert run("augment", "--input", ner_file, "--output", aug, "--rate", "0") == 0
    with open(aug) as fh:
        assert load_augmented(fh).dim == 0
    assert run("train", "--train", ner_file, "--augmented", aug, "--epochs", "3",
               "--checkpoint", with_aug) == 0
    assert run("train", "--train", ner_file, "--epochs", "3", "--checkpoint", without) == 0
    assert with_aug.read_bytes() == without.read_bytes()
    # the table record is still checked
    assert run("train", "--train", ner_file, "--augmented", aug, "--embed-seed", "1",
               "--checkpoint", with_aug) == 1
    assert "embedded with --embed-seed 0" in capsys.readouterr().err


def test_train_rejects_label_vocab_mismatch(tmp_path, ner_file, capsys):
    other = tmp_path / "other.conll"
    other.write_text("tok\tB-NEWTYPE\n")
    aug = tmp_path / "aug.jsonl"
    run("augment", "--input", ner_file, "--output", aug)
    code = run("train", "--train", other, "--augmented", aug,
               "--checkpoint", tmp_path / "m.ckpt", "--epochs", "1")
    assert code == 1
    assert "label vocabulary" in capsys.readouterr().err


def test_train_rejects_corpus_content_change(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    run("augment", "--input", ner_file, "--output", aug)
    # same parsed corpus, different bytes: recorded hash no longer matches
    ner_file.write_text(ner_file.read_text() + "\n\n")
    code = run("train", "--train", ner_file, "--augmented", aug,
               "--checkpoint", tmp_path / "m.ckpt", "--epochs", "1")
    assert code == 1
    assert "different corpus" in capsys.readouterr().err
    code = run("train", "--train", ner_file, "--augmented", aug,
               "--checkpoint", tmp_path / "m.ckpt", "--epochs", "1",
               "--allow-corpus-mismatch")
    assert code == 0


def test_train_vocab_from_adds_a_corpus_to_the_embedding_table(tmp_path, ner_file, test_file):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--vocab-from", test_file, "--epochs", "1",
               "--checkpoint", ckpt) == 0
    _, table, _ = load_checkpoint(ckpt)
    train, test = (parse_conll(p.read_text()) for p in (ner_file, test_file))
    assert table.tokens == tuple(dict.fromkeys([*train.token_vocab, *test.token_vocab]))
    manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
    assert set(manifest["inputs"]) == {str(ner_file), str(test_file)}


def test_train_with_no_originals_and_no_augmented_file_has_nothing_to_train_on(
        tmp_path, ner_file, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--no-originals", "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == (
        "error: nothing to train on (originals disabled and no augmented file)\n")
    assert not ckpt.exists()


def test_train_refuses_an_augmented_file_of_the_other_task(tmp_path, ner_file, capsys):
    re_file, aug, ckpt = tmp_path / "re.txt", tmp_path / "re.jsonl", tmp_path / "m.ckpt"
    re_file.write_text(corpus_to_text(synth_re_corpus(20, seed=11)))
    assert run("augment", "--task", "re", "--variant", "relation", "--input", re_file,
               "--output", aug) == 0
    capsys.readouterr()
    assert run("train", "--train", ner_file, "--augmented", aug, "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == "error: augmented file is for task 're', not 'ner'\n"
    assert not ckpt.exists()


def test_train_refuses_an_augmented_file_of_another_dim(tmp_path, ner_file, capsys):
    aug, ckpt = tmp_path / "aug.jsonl", tmp_path / "m.ckpt"
    assert run("augment", "--input", ner_file, "--output", aug, "--dim", "8") == 0
    capsys.readouterr()
    assert run("train", "--train", ner_file, "--augmented", aug, "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == "error: augmented dim 8 != --dim 32\n"
    assert not ckpt.exists()


def test_eval_task_mismatch_exits_1(tmp_path, ner_file, capsys):
    ckpt = tmp_path / "model.ckpt"
    run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1")
    code = run("eval", "--task", "re", "--checkpoint", ckpt, "--test", ner_file)
    assert code == 1
    assert "task" in capsys.readouterr().err


def test_eval_takes_the_task_from_the_checkpoint_model(tmp_path, ner_file, capsys):
    # a library caller may record any task in meta; the model's class decides
    corpus = parse_conll(ner_file.read_text())
    table = EmbeddingTable.random(corpus.token_vocab, 8, seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, TaggerModel.init(corpus.label_vocab, 8), table, meta={"task": "re"})
    assert run("eval", "--task", "re", "--checkpoint", ckpt, "--test", ner_file) == 1
    assert capsys.readouterr().err == "error: checkpoint is for task 'ner', not 're'\n"


# ---------------------------------------------------------------- sweep

def test_sweep_serial_and_parallel_csv_identical(tmp_path, ner_file, test_file):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    grid = [
        "--train", ner_file, "--test", test_file,
        "--sizes", "20,40", "--rates", "0.5", "--variants", "none,mention",
        "--seeds", "0,1", "--epochs", "2", "--dim", "16",
    ]
    assert run("sweep", *grid, "--output", serial, "--jobs", "1") == 0
    assert run("sweep", *grid, "--output", parallel, "--jobs", "2") == 0
    assert serial.read_bytes() == parallel.read_bytes()
    lines = serial.read_text().splitlines()
    assert lines[0] == "size,rate,variant,seed,cell_seed,n_train,n_augmented,score"
    assert len(lines) == 1 + 2 * 1 * 2 * 2


def test_sweep_bad_grid_value_is_usage_error(tmp_path, ner_file, test_file, capsys):
    for sizes, message in (("ten", "cannot parse --sizes value 'ten'"),
                           (",", "--sizes needs at least one value")):
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--train", ner_file, "--test", test_file,
                "--sizes", sizes, "--output", tmp_path / "o.csv")
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"segmix: error: {message}"


_NER_KINDS = "is not 'none' or a '+'-joined list of mention, token, whole_sequence for --task ner"


@pytest.mark.parametrize("flag,value,message", [
    ("--sizes", "0", "--sizes value 0 must be 1 or more"),
    ("--sizes", "100,-5", "--sizes value -5 must be 1 or more"),
    ("--rates", "0.2,-1", "--rates value -1.0 must be 0 or more and finite"),
    ("--rates", "nan", "--rates value nan must be 0 or more and finite"),
    ("--variants", "bogus", f"--variants value 'bogus' {_NER_KINDS}"),
    ("--variants", "relation", f"--variants value 'relation' {_NER_KINDS}"),
    ("--variants", "mention+synonym", f"--variants value 'mention+synonym' {_NER_KINDS}"),
    ("--alpha", "0", "--alpha must be positive and finite, got 0.0"),
    ("--epochs", "-1", "train config epochs must be 0 or more, got -1"),
    ("--jobs", "0", "--jobs must be 1 or more, got 0"),
], ids=["size 0", "size -5", "rate -1", "rate nan", "unknown", "relation", "synonym", "alpha",
        "epochs", "jobs"])
def test_sweep_refuses_a_bad_value_before_reading_a_corpus(
        tmp_path, ner_file, test_file, monkeypatch, capsys, flag, value, message):
    monkeypatch.setattr(cli, "_read_corpus", lambda *args: pytest.fail("read a corpus"))
    assert run("sweep", "--train", ner_file, "--test", test_file, flag, value,
               "--output", tmp_path / "o.csv") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--variants", "none,bogus", f"--variants value 'bogus' {_NER_KINDS}"),
    ("--alpha", "nan", "--alpha must be positive and finite, got nan"),
], ids=["variant", "alpha"])
def test_sweep_runs_no_cell_when_a_later_cell_cannot_run(tmp_path, ner_file, test_file,
                                                         monkeypatch, capsys, flag, value,
                                                         message):
    cells = []
    sweep_cell = cli._sweep_cell

    def recording_cell(cell, *shared):
        cells.append(cell)
        return sweep_cell(cell, *shared)

    monkeypatch.setattr(cli, "_sweep_cell", recording_cell)
    out = tmp_path / "o.csv"
    # the grid is the default none,mention, or none,bogus: a baseline cell comes first
    assert run("sweep", "--train", ner_file, "--test", test_file, "--sizes", "20",
               "--seeds", "0", "--epochs", "1", "--dim", "8", flag, value, "--output", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cells == []
    assert not out.exists()


def test_sweep_refuses_a_rate_whose_slots_numpy_cannot_index_before_reading_a_corpus(
        tmp_path, ner_file, test_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_read_corpus", lambda *args: pytest.fail("read a corpus"))
    out = tmp_path / "o.csv"
    assert run("sweep", "--train", ner_file, "--test", test_file, "--sizes", "20,100",
               "--rates", "0.2,1e300", "--output", out) == 1
    assert capsys.readouterr().err == (
        "error: --rates at --sizes value 100: "
        "rate 1e+300 asks for 1e+302 mix slots, more than numpy can index\n")
    assert not out.exists()


def test_sweep_refuses_a_variant_of_the_other_task(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_read_corpus", lambda *args: pytest.fail("read a corpus"))
    files = [tmp_path / name for name in ("train.tsv", "test.tsv")]
    for path in files:
        path.write_text("")
    assert run("sweep", "--task", "re", "--train", files[0], "--test", files[1],
               "--variants", "mention", "--output", tmp_path / "o.csv") == 1
    assert capsys.readouterr().err == ("error: --variants value 'mention' is not 'none' or a "
                                       "'+'-joined list of relation for --task re\n")


@pytest.mark.parametrize("flag,value,cell", [
    ("--rates", "0.1,0.1000001", "size 100, rate 0.1, variant none, seed 0"),
    ("--seeds", "0,0", "size 100, rate 0.2, variant none, seed 0"),
], ids=["rates alike at :g", "seed twice"])
def test_sweep_refuses_a_grid_naming_one_cell_twice(tmp_path, ner_file, test_file, monkeypatch,
                                                    capsys, flag, value, cell):
    monkeypatch.setattr(cli, "_read_corpus", lambda *args: pytest.fail("read a corpus"))
    out = tmp_path / "o.csv"
    assert run("sweep", "--train", ner_file, "--test", test_file, flag, value,
               "--output", out) == 1
    assert capsys.readouterr().err == f"error: the grid names the cell {cell} twice\n"
    assert not out.exists()


def test_a_pool_worker_scores_a_cell_as_the_serial_path_does(monkeypatch):
    ns = cli._resolve("sweep", {}, "config file", {"epochs": 5, "dim": 16})
    train, test = synth_tagged_corpus(30, seed=11), synth_tagged_corpus(15, seed=12)
    table = EmbeddingTable.random(list(dict.fromkeys([*train.token_vocab, *test.token_vocab])),
                                  ns.dim, seed=ns.embed_seed)
    shared = (ns, train, cli._test_side(table, test, ns.window), table)
    monkeypatch.setattr(cli, "_WORKER_SWEEP", ())  # restored after the test
    cli._share_sweep(*shared)  # what the pool's initializer runs in each worker
    for cell in [(20, 0.5, "mention", 1), (100, 0.2, "none", 0)]:
        assert cli._worker_cell(cell) == cli._sweep_cell(cell, *shared)


def test_sweep_scores_every_cell_as_entity_f1_of_its_predictions(tmp_path, monkeypatch):
    rare = (Sentence(("Zed", "Vox", "spoke"), ("B-ZZZ", "I-ZZZ", "O")),
            Sentence(("Zed",), ("B-ZZZ",)))
    train_path, test_path = tmp_path / "train.conll", tmp_path / "test.conll"
    out = tmp_path / "o.csv"
    train_path.write_text(corpus_to_text(TaggedCorpus.from_sentences(
        [*synth_tagged_corpus(40, seed=11).sentences, rare[0]])))
    test_path.write_text(corpus_to_text(TaggedCorpus.from_sentences(
        [*synth_tagged_corpus(25, seed=12).sentences, *rare])))
    models, tables = [], []
    fit, sweep_cell = cli._fit, cli._sweep_cell

    def recording_fit(*args):
        result = fit(*args)
        models.append(result.model)
        return result

    def recording_cell(cell, ns, train, test, table):
        tables.append(table)
        return sweep_cell(cell, ns, train, test, table)

    monkeypatch.setattr(cli, "_fit", recording_fit)
    monkeypatch.setattr(cli, "_sweep_cell", recording_cell)
    assert run("sweep", "--train", train_path, "--test", test_path, "--sizes", "3,100",
               "--rates", "0.5", "--variants", "none,mention", "--seeds", "0,1",
               "--epochs", "10", "--dim", "16", "--jobs", "1", "--output", out) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == len(models) == len(tables) == 8
    # the small subsets lack the ZZZ type, so its gold ids join their label vocabulary
    assert {"B-ZZZ" in m.labels for m in models} == {False, True}
    test = parse_conll(test_path.read_text())
    for row, model, table in zip(rows, models, tables):
        score = entity_f1(test, predict_tagger(model, table, test)).f1
        assert row.rsplit(",", 1)[1] == f"{score:.4f}"


# ---------------------------------------------------------------- bench

def test_bench_reports_timing(tmp_path, ner_file, capsys):
    out = tmp_path / "bench.json"
    assert run(
        "bench", "--input", ner_file, "--n-sentences", "20", "--repeats", "2",
        "--train-epochs", "2", "--output", out,
    ) == 0
    text = capsys.readouterr().out
    assert "mix:" in text and "train:" in text
    report = json.loads(out.read_text())
    assert report["repeats"] == 2
    assert report["mix_seconds_mean"] > 0
    assert report["train_seconds"] > 0


# ---------------------------------------------------------------- recover

def test_recover_renders_mixed_spans(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    run("augment", "--input", ner_file, "--output", aug, "--rate", "0.5",
        "--include-originals")
    capsys.readouterr()
    assert run("recover", "--augmented", aug, "--limit", "3") == 0
    out = capsys.readouterr().out
    assert "=== example 0 (variant=original" in out

    assert run("recover", "--augmented", aug, "--limit", "2", "--mixed-only") == 0
    out = capsys.readouterr().out
    assert "variant=original" not in out
    assert "[mixed span 0]" in out


@pytest.mark.parametrize("missing", ["task", "dim", "label_vocab", "count"])
def test_recover_names_a_field_missing_from_the_augmented_header(tmp_path, capsys, missing):
    header = {"format": "segmix-augmented", "version": 1, "task": "ner", "dim": 4,
              "label_vocab": ["O"], "count": 0}
    del header[missing]
    aug = tmp_path / "aug.jsonl"
    aug.write_text(json.dumps(header) + "\n")
    assert run("recover", "--augmented", aug) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{missing}'" in err


@pytest.mark.parametrize("key,value", [
    ("task", "xx"), ("dim", "4"), ("dim", -1), ("label_vocab", 5), ("label_vocab", [1]),
    ("count", 0.0),
])
def test_recover_refuses_a_mistyped_augmented_header(tmp_path, capsys, key, value):
    header = {"format": "segmix-augmented", "version": 1, "task": "ner", "dim": 4,
              "label_vocab": ["O"], "count": 0, key: value}
    aug = tmp_path / "aug.jsonl"
    aug.write_text(json.dumps(header) + "\n")
    assert run("recover", "--augmented", aug) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{key}'" in err


def test_recover_renders_the_entity_spans_of_a_relation_file(tmp_path, capsys):
    re_file, aug = tmp_path / "re.txt", tmp_path / "re.jsonl"
    re_file.write_text(corpus_to_text(synth_re_corpus(20, seed=11)))
    assert run("augment", "--task", "re", "--variant", "relation", "--input", re_file,
               "--output", aug, "--rate", "0.5") == 0
    capsys.readouterr()
    assert run("recover", "--augmented", aug, "--limit", "2") == 0
    out = capsys.readouterr().out
    assert out.count("(variant=relation,") == 2
    assert len(re.findall(r"^      e1=\[\d+,\d+\)  e2=\[\d+,\d+\)$", out, re.M)) == 2


def test_recover_refuses_a_file_with_no_table_record(tmp_path, ner_file, capsys):
    corpus = parse_conll(ner_file.read_text())
    table = EmbeddingTable.random(corpus.token_vocab, 4, 0)
    aug = tmp_path / "aug.jsonl"
    with open(aug, "w") as fh:
        save_augmented(fh, encode_corpus(corpus, table), corpus.label_vocab, task="ner")
    assert run("recover", "--augmented", aug) == 1
    assert capsys.readouterr().err == (
        "error: augmented file carries no embedding-table record; cannot recover tokens\n")


def test_recover_to_file(tmp_path, ner_file):
    aug = tmp_path / "aug.jsonl"
    run("augment", "--input", ner_file, "--output", aug, "--rate", "0.2")
    text_out = tmp_path / "recovered.txt"
    assert run("recover", "--augmented", aug, "--output", text_out) == 0
    assert "=== example" in text_out.read_text()


def test_recover_builds_only_the_block_it_shows(tmp_path, ner_file, monkeypatch, capsys):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug, "--rate", "3.0") == 0
    with aug.open() as fh:
        assert load_augmented(fh).examples.blocks[1:]  # more than one block of records
    built = []
    build = mixer._Block.built

    def counted(block):
        if block.items is None:
            built.append(block)
        return build(block)

    monkeypatch.setattr(mixer._Block, "built", counted)
    capsys.readouterr()
    assert run("recover", "--augmented", aug, "--limit", "2") == 0
    assert capsys.readouterr().out.count("=== example") == 2
    assert len(built) == 1


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_recover_refuses_a_limit_below_one(tmp_path, ner_file, capsys, limit):
    aug, out = tmp_path / "aug.jsonl", tmp_path / "recovered.txt"
    run("augment", "--input", ner_file, "--output", aug, "--rate", "0.2")
    capsys.readouterr()
    assert run("recover", "--augmented", aug, "--limit", limit, "--output", out) == 1
    assert capsys.readouterr().err == f"error: --limit must be 1 or more, got {limit}\n"
    assert not out.exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"limit": int(limit)}))
    assert run("recover", "--config", config, "--augmented", aug, "--output", out) == 1
    assert capsys.readouterr().err == f"error: config key 'limit' must be 1 or more, got {limit}\n"
    assert not out.exists()


# ---------------------------------------------------------------- manifests

def test_from_manifest_replays_the_run(tmp_path, ner_file):
    out = tmp_path / "aug.jsonl"
    manifest = tmp_path / "run.manifest.json"
    run("augment", "--input", ner_file, "--output", out, "--rate", "0.4",
        "--seed", "5", "--manifest", manifest)
    first = out.read_bytes()
    out.unlink()

    assert run("--from-manifest", manifest) == 0
    assert out.read_bytes() == first


def test_from_manifest_rejects_changed_input(tmp_path, ner_file, capsys):
    out = tmp_path / "aug.jsonl"
    manifest = tmp_path / "run.manifest.json"
    run("augment", "--input", ner_file, "--output", out, "--manifest", manifest)
    ner_file.write_text(ner_file.read_text() + "\n")
    code = run("--from-manifest", manifest)
    assert code == 1
    assert "changed since" in capsys.readouterr().err


def test_from_manifest_reads_each_input_once(tmp_path, ner_file, test_file, monkeypatch):
    aug, ckpt = tmp_path / "aug.jsonl", tmp_path / "m.ckpt"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    assert run("train", "--train", ner_file, "--val", test_file, "--vocab-from", test_file,
               "--augmented", aug, "--checkpoint", ckpt, "--epochs", "1") == 0
    reads = []
    monkeypatch.setattr(cli, "_sha256_file",
                        lambda path, real=cli._sha256_file: reads.append(str(path)) or real(path))
    assert run("--from-manifest", tmp_path / "m.ckpt.manifest.json") == 0
    assert sorted(reads) == sorted(map(str, (ner_file, test_file, aug)))


def test_from_manifest_refuses_a_recorded_input_the_run_does_not_read(tmp_path, ner_file,
                                                                      test_file, capsys):
    out, manifest = tmp_path / "aug.jsonl", tmp_path / "run.manifest.json"
    assert run("augment", "--input", ner_file, "--output", out, "--manifest", manifest) == 0
    recorded = json.loads(manifest.read_text())
    recorded["inputs"][str(test_file)] = cli._sha256_file(test_file)
    manifest.write_text(json.dumps(recorded))
    out.unlink()
    assert run("--from-manifest", manifest) == 1
    assert capsys.readouterr().err == (f"error: input {test_file} changed since the manifest "
                                       "was written\n")
    assert not out.exists()


def _edited_manifest(tmp_path, ner_file, **args):
    """A train run's manifest with ``args`` written over its recorded ones."""
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    path = tmp_path / "m.ckpt.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["args"].update(args)
    path.write_text(json.dumps(manifest))
    ckpt.unlink()
    return path, ckpt


def test_from_manifest_checks_ranges_like_the_flags(tmp_path, ner_file, capsys):
    path, ckpt = _edited_manifest(tmp_path, ner_file, window=-1)
    capsys.readouterr()
    assert run("--from-manifest", path) == 1
    assert capsys.readouterr().err == "error: manifest key 'window' must be 0 or more, got -1\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("command,config,code,message", [
    ("train", {"window": -1}, 1, "config key 'window' must be 0 or more, got -1"),
    ("train", {"seed": 2**32}, 1, "config key 'seed' must lie in [0, 2**32), got 4294967296"),
    ("augment", {"embed_seed": -1}, 1,
     "config key 'embed_seed' must lie in [0, 2**32), got -1"),
    ("bench", {"repeats": 0}, 1, "config key 'repeats' must be 1 or more, got 0"),
    ("bench", {"train_epochs": -3}, 1, "config key 'train_epochs' must be 0 or more, got -3"),
    ("bench", {"n_sentences": 0}, 1, "config key 'n_sentences' must be 1 or more, got 0"),
])
def test_config_out_of_range_names_the_key(tmp_path, ner_file, capsys, command, config, code,
                                           message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    io_flags = (("--train", ner_file, "--checkpoint", out) if command == "train"
                else ("--input", ner_file, "--output", out))
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", path, *io_flags)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"segmix: error: {message}"
    else:
        assert run(command, "--config", path, *io_flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_typed_flag_is_named_over_a_config_key(tmp_path, ner_file, capsys):
    path, ckpt = tmp_path / "config.json", tmp_path / "m.ckpt"
    path.write_text('{"window": -1}')
    assert run("train", "--config", path, "--train", ner_file, "--checkpoint", ckpt,
               "--window", "-2") == 1
    assert capsys.readouterr().err == "error: --window must be 0 or more, got -2\n"
    assert run("train", "--config", path, "--train", ner_file, "--checkpoint", ckpt,
               "--window", "1", "--epochs", "1") == 0


@pytest.mark.parametrize("args,message", [
    ({"windw": 1}, "manifest keys not understood by 'train': windw"),
    ({"epochs": 2.5}, "manifest key 'epochs' must be an integer, got 2.5"),
    ({"batch_size": None}, "manifest key 'batch_size' may not be null"),
])
def test_from_manifest_checks_kinds_like_a_config(tmp_path, ner_file, capsys, args, message):
    path, ckpt = _edited_manifest(tmp_path, ner_file, **args)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("--from-manifest", path)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"segmix: error: {message}"
    assert not ckpt.exists()


def test_from_manifest_that_is_no_object_exits_1(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    assert run("--from-manifest", path) == 1
    assert capsys.readouterr().err == (f"error: manifest {path} must hold a JSON object "
                                       "with object inputs and args\n")


@pytest.mark.parametrize("text", ["{\n", "[" * 100_000], ids=["truncated", "nested too deep"])
def test_from_manifest_that_is_not_json_names_the_file(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run("--from-manifest", path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {path} is not valid JSON: ") and err.count("\n") == 1


def test_from_manifest_naming_an_unknown_command_exits_1(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"command": "frobnicate", "inputs": {}, "args": {}}))
    assert run("--from-manifest", path) == 1
    assert capsys.readouterr().err == "error: manifest names unknown command 'frobnicate'\n"


# ---------------------------------------------------------------- bad values

@pytest.mark.parametrize("flag,value,field", [
    ("--patience", "0", "patience must be positive, got 0"),
    ("--batch-size", "0", "batch_size must be positive, got 0"),
    ("--lr", "-1", "learning_rate must be positive, got -1.0"),
    ("--epochs", "-1", "epochs must be 0 or more, got -1"),
])
def test_train_config_error_names_the_field(tmp_path, ner_file, capsys, flag, value, field):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, flag, value) == 1
    assert capsys.readouterr().err == f"error: train config {field}\n"
    assert not ckpt.exists()


def test_augment_empty_relation_exits_1(tmp_path, capsys):
    corpus = tmp_path / "train.tsv"
    corpus.write_text("the storm caused damage\t1\t2\t3\t4\t\n")
    assert run("augment", "--task", "re", "--variant", "relation", "--input", corpus,
               "--output", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: relation '' is empty") and err.count("\n") == 1


def test_augment_refuses_nan_budget_weights(tmp_path, ner_file, capsys):
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, "--variant", "mention+token",
               "--weights", "1,nan") == 1
    assert capsys.readouterr().err == "error: weights must be nonnegative and sum to 1\n"
    assert not out.exists()


def test_augment_weights_that_will_not_parse_are_a_usage_error(tmp_path, ner_file, monkeypatch,
                                                               capsys):
    monkeypatch.setattr(cli, "_read_corpus", lambda *args: pytest.fail("read a corpus"))
    out = tmp_path / "aug.jsonl"
    with pytest.raises(SystemExit) as exc:
        run("augment", "--input", ner_file, "--output", out, "--variant", "mention+token",
            "--weights", "a,b")
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "segmix: error: cannot parse --weights value 'a,b'")
    assert not out.exists()


def test_augment_refuses_a_rate_whose_slots_numpy_cannot_index(tmp_path, ner_file, capsys):
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, "--rate", "1e300") == 1
    assert capsys.readouterr().err == ("error: rate 1e+300 asks for 4e+301 mix slots, "
                                       "more than numpy can index\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--alpha", "nan"), ("--rate", "nan")])
def test_augment_non_finite_value_exits_1(tmp_path, ner_file, capsys, flag, value):
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag[2:] in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed", "--embed-seed"])
@pytest.mark.parametrize("value", ["-1", str(2**32)])
def test_augment_out_of_range_seed_exits_1(tmp_path, ner_file, capsys, flag, value):
    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must lie in [0, 2**32)") and err.count("\n") == 1
    assert not out.exists()


def test_train_non_finite_learning_rate_exits_1(tmp_path, ner_file, capsys):
    code = run("train", "--train", ner_file, "--checkpoint", tmp_path / "m.ckpt", "--lr", "inf")
    assert code == 1
    assert "learning_rate" in capsys.readouterr().err


def test_train_refuses_weights_that_overflow_float32(tmp_path, ner_file, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--lr", "1e300",
               "--epochs", "2") == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint weights hold a non-finite value after the float32 cast\n"
    assert not ckpt.exists()


def test_eval_refuses_a_checkpoint_holding_a_nan(tmp_path, ner_file, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    _rewrite_checkpoint(ckpt, payload_edit=lambda raw: raw[:-4] + struct.pack("<f", float("nan")))
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--test", ner_file) == 1
    err = capsys.readouterr().err
    assert err == ("error: cannot load checkpoint: "
                   "checkpoint table payload holds a non-finite value\n")


def test_train_negative_window_names_the_flag(tmp_path, ner_file, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--window", "-1") == 1
    assert capsys.readouterr().err == "error: --window must be 0 or more, got -1\n"
    assert not ckpt.exists()


def test_bench_zero_repeats_is_a_range_error(tmp_path, ner_file, capsys):
    out = tmp_path / "bench.json"
    assert run("bench", "--input", ner_file, "--repeats", "0", "--output", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --repeats must be 1 or more, got 0\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command,missing", [
    ("augment", "--output"), ("augment", "--manifest"), ("train", "--checkpoint"),
    ("train", "--loss-trace"), ("train", "--manifest"), ("eval", "--report"),
    ("eval", "--confusion"), ("sweep", "--output"), ("bench", "--output"), ("recover", "--output"),
])
def test_an_output_in_a_missing_directory_fails_before_any_work(
        tmp_path, ner_file, test_file, monkeypatch, capsys, command, missing):
    aug, ckpt = tmp_path / "aug.jsonl", tmp_path / "m.ckpt"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "2") == 0
    adir = tmp_path / "adir"
    adir.mkdir()
    before = sorted(tmp_path.iterdir())
    calls = []
    for name in ("segmix_generate", "train_tagger"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    out = tmp_path / "out"
    flags = {"augment": {"--input": ner_file, "--output": out},
             "train": {"--train": ner_file, "--checkpoint": out, "--epochs": 2},
             "eval": {"--checkpoint": ckpt, "--test": test_file},
             "sweep": {"--train": ner_file, "--test": test_file, "--output": out, "--epochs": 2},
             "bench": {"--input": ner_file, "--n-sentences": 5, "--repeats": 1, "--output": out},
             "recover": {"--augmented": aug, "--output": out}}[command]
    nodir = tmp_path / "nodir" / "x"
    for bad, why in ((nodir, f": directory {nodir.parent} does not exist"), (adir, " is a directory")):
        flags[missing] = bad  # in place of the good path, if the command has one there
        args = [part for flag in flags.items() for part in flag]
        capsys.readouterr()
        assert run(command, *args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {missing} {bad}{why}\n"
        assert captured.out == ""
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before
    assert not any(adir.iterdir())


@pytest.mark.parametrize("command,flag,what", [
    ("augment", "--input", "corpus file"), ("augment", "--synonyms", "synonym lexicon"),
    ("train", "--train", "corpus file"), ("train", "--vocab-from", "corpus file"),
    ("train", "--val", "corpus file"), ("train", "--augmented", "augmented file"),
    ("eval", "--checkpoint", "checkpoint"), ("eval", "--test", "corpus file"),
    ("sweep", "--train", "training corpus"), ("sweep", "--test", "test corpus"),
    ("bench", "--input", "corpus file"), ("recover", "--augmented", "augmented file"),
])
def test_a_missing_input_fails_before_any_parse_or_load(tmp_path, monkeypatch, capsys, command,
                                                        flag, what):
    for name in ("parse_conll", "parse_re", "load_checkpoint"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"called {name}"))
    present, out = tmp_path / "present", tmp_path / "out"  # nothing reads the present file
    present.write_text("")
    flags = {"augment": {"--input": present, "--synonyms": present, "--output": out},
             "train": {"--train": present, "--vocab-from": present, "--val": present,
                       "--augmented": present, "--checkpoint": out},
             "eval": {"--checkpoint": present, "--test": present, "--report": out},
             "sweep": {"--train": present, "--test": present, "--output": out},
             "bench": {"--input": present, "--output": out},
             "recover": {"--augmented": present, "--output": out}}[command]
    missing = flags[flag] = tmp_path / "missing"
    before = sorted(tmp_path.iterdir())
    assert run(command, *[part for item in flags.items() for part in item]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {what} not found: {missing}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_every_option_a_command_names_is_one_it_takes():
    for name, spec in cli._COMMANDS.items():
        named = {*spec.needs, *spec.outputs, *(dest for dest, _ in spec.inputs)}
        assert named <= set(cli._DEFAULTS[name]), name


def test_recover_names_line_1_of_a_corpus_given_as_augmented(tmp_path, ner_file, capsys):
    assert run("recover", "--augmented", ner_file) == 1
    assert capsys.readouterr().err == ("error: not a segmix-augmented file: "
                                       "line 1 is not a segmix-augmented header\n")


def _in_a_fresh_interpreter(code: str) -> str:
    """What ``code`` prints, run by a new interpreter that imports segmix from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=60,
    )
    assert not done.returncode, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # sweep --jobs > 1 imports it; any other command never pays for it
    code = "import sys, segmix.cli; print('concurrent.futures.process' in sys.modules)"
    assert _in_a_fresh_interpreter(code) == "False\n"


def test_importing_segmix_leaves_numpy_random_unloaded():
    # numpy loads it on first use; only a call that draws numbers may pay for it
    code = ("import sys, segmix; print('numpy.random' in sys.modules); "
            "import segmix.cli; print('numpy.random' in sys.modules)")
    assert _in_a_fresh_interpreter(code) == "False\nFalse\n"


# ---------------------------------------------------------------- docs

def _readme_commands():
    """Every ``segmix ...`` line of the README's shell blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("segmix ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {c[0] for c in commands} == {"augment", "train", "eval", "sweep", "bench", "recover"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error raises SystemExit


# ---------------------------------------------------------------- refusals and edge cases

def test_eval_scores_a_label_missing_from_the_test_corpus(tmp_path, capsys):
    train = tmp_path / "train.conll"
    train.write_text("paris\tB-LOC\nis\tO\n\njohn\tB-PER\nis\tO\n\n" * 20)
    test = tmp_path / "test.conll"
    test.write_text("paris\tO\nis\tO\n\njohn\tB-PER\nis\tO\n")
    ckpt, confusion = tmp_path / "m.ckpt", tmp_path / "confusion.csv"
    assert run("train", "--train", train, "--checkpoint", ckpt, "--epochs", "30") == 0
    assert run("eval", "--checkpoint", ckpt, "--test", test, "--confusion", confusion) == 0
    assert "f1:" in capsys.readouterr().out
    header = confusion.read_text().splitlines()[0]
    assert header.split(",")[1:] == ["O", "B-PER", "B-LOC"]


@pytest.mark.parametrize("flag,value", [("--embed-seed", "1"), ("--n-buckets", "32")])
def test_train_refuses_augmented_file_from_another_embedding_table(
    tmp_path, ner_file, capsys, flag, value
):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    capsys.readouterr()
    ckpt = tmp_path / "m.ckpt"
    code = run("train", "--train", ner_file, "--augmented", aug, "--checkpoint", ckpt,
               "--epochs", "1", flag, value)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err
    assert not ckpt.exists()


def test_train_reports_the_line_of_a_malformed_augmented_record(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    lines = aug.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["embeddings"]["shape"] = [record["embeddings"]["shape"][0] * 2, 16]
    lines[2] = json.dumps(record) + "\n"
    aug.write_text("".join(lines))
    capsys.readouterr()
    code = run("train", "--train", ner_file, "--augmented", aug,
               "--checkpoint", tmp_path / "m.ckpt", "--epochs", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 3" in err


def _nan_in_record(path, line, field):
    """Rewrite the augmented file ``path`` with a NaN as the first value of
    the ``field`` payload on (1-based) ``line``."""
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[line - 1])
    raw = base64.b64decode(record[field]["data"])
    record[field]["data"] = base64.b64encode(struct.pack("<f", float("nan")) + raw[4:]).decode()
    lines[line - 1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


def test_recover_refuses_a_nan_payload_with_its_line(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    _nan_in_record(aug, 3, "embeddings")
    capsys.readouterr()
    assert run("recover", "--augmented", aug) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: embeddings hold a non-finite value\n"
    assert captured.out == ""


def test_train_names_the_line_of_a_nan_augmented_payload(tmp_path, ner_file, capsys):
    aug, ckpt = tmp_path / "aug.jsonl", tmp_path / "m.ckpt"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    _nan_in_record(aug, 4, "soft_labels")
    capsys.readouterr()
    assert run("train", "--train", ner_file, "--augmented", aug, "--checkpoint", ckpt,
               "--epochs", "1") == 1
    assert capsys.readouterr().err == "error: line 4: soft_labels hold a non-finite value\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("command,flag", [
    ("augment", "--dim"), ("train", "--window"), ("train", "--n-buckets"),
])
def test_a_size_numpy_cannot_allocate_is_one_error_line(tmp_path, ner_file, capsys, command, flag):
    out = tmp_path / "out"
    files = ("--train", ner_file, "--checkpoint", out) if command == "train" else (
        "--input", ner_file, "--output", out)
    # arrays of tens of TiB, which numpy refuses before allocating anything
    assert run(command, *files, flag, "100000000000") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _checkpoint_without(path, key):
    """Rewrite a saved checkpoint with ``key`` dropped from its JSON header."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    del header[key]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


@pytest.mark.parametrize("missing", [None, "kind", "labels", "dim", "weights_shape",
                                     "table_tokens", "table_buckets", "table_shape", "window"])
def test_eval_refuses_a_truncated_checkpoint_header(tmp_path, ner_file, capsys, missing):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    if missing is None:
        ckpt.write_bytes(b"SGMX")
    else:
        _checkpoint_without(ckpt, missing)
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--test", ner_file) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert ("truncated" if missing is None else f"'{missing}'") in err


@pytest.mark.parametrize("entry", ["recover --augmented", "train --augmented", "--config",
                                   "--from-manifest", "eval --checkpoint"])
def test_deeply_nested_json_is_one_error_line(tmp_path, ner_file, capsys, entry):
    deep, path = "[" * 100_000, tmp_path / "deep"
    if entry.endswith("--augmented"):  # a good header, then a record json cannot nest that deep
        assert run("augment", "--input", ner_file, "--output", tmp_path / "aug.jsonl") == 0
        header = (tmp_path / "aug.jsonl").read_text().splitlines(keepends=True)[0]
        path.write_text(header + deep + "\n")
    elif entry == "eval --checkpoint":  # a good magic and version, then the header
        assert run("train", "--train", ner_file, "--checkpoint", path, "--epochs", "1") == 0
        path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(deep)) + deep.encode())
    else:
        path.write_text(deep)
    argv = {"recover --augmented": ["recover", "--augmented", path],
            "train --augmented": ["train", "--train", ner_file, "--augmented", path,
                                  "--checkpoint", tmp_path / "m.ckpt"],
            "--config": ["augment", "--config", path, "--input", ner_file],
            "--from-manifest": ["--from-manifest", path],
            "eval --checkpoint": ["eval", "--checkpoint", path, "--test", ner_file]}[entry]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "maximum recursion depth exceeded" in err
    if entry.endswith("--augmented"):
        assert err.startswith("error: line 2: maximum recursion depth exceeded")


@pytest.mark.parametrize("command", ["eval", "recover"])
def test_a_loader_names_what_it_refuses_when_json_nests_too_deep(tmp_path, ner_file, capsys,
                                                                 command):
    path, deep = tmp_path / "deep", "[" * 100_000
    if command == "eval":  # a good magic and version, then the header
        assert run("train", "--train", ner_file, "--checkpoint", path, "--epochs", "1") == 0
        path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(deep)) + deep.encode())
        argv, want = ["--checkpoint", path, "--test", ner_file], (
            "error: cannot load checkpoint: checkpoint header: maximum recursion depth exceeded")
    else:  # line 1, where the header belongs
        path.write_text(deep + "\n")
        argv, want = ["--augmented", path], (
            "error: not a segmix-augmented file: line 1 is not a segmix-augmented header\n")
    capsys.readouterr()
    assert run(command, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(want) and err.count("\n") == 1


def _rewrite_checkpoint(path, header_edit=None, payload_edit=None):
    """Rewrite a saved checkpoint through ``header_edit(header)`` (in place)
    and ``payload_edit(payload) -> payload``."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    payload = raw[12 + length :]
    if header_edit:
        header_edit(header)
    if payload_edit:
        payload = payload_edit(payload)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + payload)


def _set(**fields):
    return lambda header: header.update(fields)


_CHECKPOINT_DEFECTS = {  # header edit, payload edit, what the error must name
    "weights_shape not a list": (_set(weights_shape="ab"), None, "'weights_shape'"),
    "labels not a list": (_set(labels=5), None, "'labels'"),
    "window not an integer": (_set(window="x"), None, "'window'"),
    "table_tokens not a list": (_set(table_tokens=3), None, "'table_tokens'"),
    "meta not an object": (_set(meta=[1]), None, "'meta'"),
    "labels short of the weight columns": (lambda h: h["labels"].pop(), None, "'labels'"),
    "weights_shape off labels": (
        lambda h: h.update(weights_shape=[h["weights_shape"][0], len(h["labels"]) - 1]),
        None, "'weights_shape'"),
    "table_shape off tokens": (
        lambda h: h.update(table_shape=[h["table_shape"][0] + 1, h["table_shape"][1]]),
        None, "'table_shape'"),
    "unknown kind": (_set(kind="xx"), None, "'kind'"),
    "trailing bytes": (None, lambda payload: payload + b"\x00" * 4, "bytes"),
    "payload one float short": (None, lambda payload: payload[:-4], "bytes"),
}


@pytest.mark.parametrize("defect", sorted(_CHECKPOINT_DEFECTS))
def test_eval_refuses_a_malformed_checkpoint(tmp_path, ner_file, capsys, defect):
    header_edit, payload_edit, field_name = _CHECKPOINT_DEFECTS[defect]
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    _rewrite_checkpoint(ckpt, header_edit, payload_edit)
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--test", ner_file) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert field_name in err


_TABLE_RECORD_DEFECTS = {  # meta -> the meta to write instead, and what the error names
    "table record without tokens": (
        lambda meta: {**meta, "table": {k: v for k, v in meta["table"].items() if k != "tokens"}},
        "'tokens'"),
    "table record a list": (lambda meta: {**meta, "table": [1]}, "table record"),
    "meta a list": (lambda meta: [1], "'meta'"),
}


@pytest.mark.parametrize("command", ["train", "recover"])
@pytest.mark.parametrize("defect", sorted(_TABLE_RECORD_DEFECTS))
def test_a_malformed_table_record_is_one_error_line(tmp_path, ner_file, capsys, command, defect):
    edit, field_name = _TABLE_RECORD_DEFECTS[defect]
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    lines = aug.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"] = edit(header["meta"])
    aug.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    if command == "train":
        code = run("train", "--train", ner_file, "--augmented", aug,
                   "--checkpoint", tmp_path / "m.ckpt", "--epochs", "1")
    else:
        code = run("recover", "--augmented", aug)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert field_name in err


def test_recover_from_a_table_record_with_no_tokens_is_one_error_line(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    lines = aug.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"]["table"]["tokens"] = []
    aug.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert run("recover", "--augmented", aug) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no vocabulary rows" in err


def test_recover_refuses_a_bad_provenance_record_with_its_line(tmp_path, ner_file, capsys):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    lines = aug.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["provenance"]["lam"] = 7
    aug.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
    capsys.readouterr()
    assert run("recover", "--augmented", aug) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: provenance 'lam'") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "augment"])
@pytest.mark.parametrize("flag", ["--dim", "--n-buckets"])
def test_a_table_size_below_one_is_one_error_line(tmp_path, ner_file, capsys, command, flag):
    out = tmp_path / "out"
    files = ("--train", ner_file, "--checkpoint", out) if command == "train" else (
        "--input", ner_file, "--output", out)
    assert run(command, *files, flag, "0") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: an embedding table needs dim >= 1 and n_buckets >= 1")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field_name", ["dim", "table_buckets"])
def test_eval_refuses_a_checkpoint_table_of_size_zero(tmp_path, ner_file, capsys, field_name):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    _rewrite_checkpoint(ckpt, _set(**{field_name: 0}))
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--test", ner_file) == 1
    err = capsys.readouterr().err
    assert f"checkpoint header '{field_name}' must be a positive integer, got 0" in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("field_name", ["dim", "n_buckets"])
def test_recover_refuses_a_table_record_of_size_zero(tmp_path, ner_file, capsys, field_name):
    aug = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", aug) == 0
    lines = aug.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["meta"]["table"][field_name] = 0
    aug.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert run("recover", "--augmented", aug) == 1
    err = capsys.readouterr().err
    assert f"augmented table record '{field_name}' must be a positive integer, got 0" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_malformed_label_is_reported_with_its_line(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_text("Paris\tB-LOC\nis\tO\n\nRome\tX-FOO\n")
    assert run("train", "--train", path, "--checkpoint", tmp_path / "m.ckpt") == 1
    assert capsys.readouterr().err == "error: line 4: not a BIO label: 'X-FOO'\n"


# ---------------------------------------------------------------- refusals before any parse

@pytest.mark.parametrize("flag,value,message", [
    ("--rate", "nan", "rate must be nonnegative and finite, got nan"),
    ("--variant", "bogus", "unknown variant 'bogus'"),
])
def test_bench_refuses_a_bad_mix_config_before_any_parse(tmp_path, ner_file, monkeypatch, capsys,
                                                         flag, value, message):
    parses = _counting_parses(monkeypatch)
    assert run("bench", "--input", ner_file, flag, value) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert parses == []


@pytest.mark.parametrize("command,task,variant,bad", [
    ("augment", "re", None, "mention"), ("bench", "re", None, "mention"),
    ("augment", "ner", "relation", "relation"), ("augment", "re", "relation+token", "token"),
])
def test_a_variant_the_task_does_not_take_is_refused_before_any_parse(
        tmp_path, monkeypatch, capsys, command, task, variant, bad):
    corpus = synth_re_corpus(30, seed=11) if task == "re" else synth_tagged_corpus(30, seed=11)
    path, out = tmp_path / "corpus.txt", tmp_path / "out"
    path.write_text(corpus_to_text(corpus))
    parses = []
    for name in ("parse_conll", "parse_re"):
        monkeypatch.setattr(cli, name, lambda *a, real=getattr(cli, name), **k:
                            parses.append(a) or real(*a, **k))
    chosen = ("--variant", variant) if variant else ()
    assert run(command, "--task", task, "--input", path, "--output", out, *chosen) == 1
    assert capsys.readouterr().err == f"error: --variant {bad} does not apply to --task {task}\n"
    assert parses == []
    assert not out.exists()


# ---------------------------------------------------------------- output files

def test_a_failed_write_keeps_the_earlier_output(tmp_path, ner_file, monkeypatch, capsys):
    import binascii

    out = tmp_path / "aug.jsonl"
    assert run("augment", "--input", ner_file, "--output", out, "--rate", "3.0") == 0
    before = out.read_bytes()
    calls = []

    def full_disk(*args, real=binascii.b2a_base64, **kwargs):
        calls.append(None)
        if len(calls) == 10:
            raise OSError(28, "No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(binascii, "b2a_base64", full_disk)
    capsys.readouterr()
    assert run("augment", "--input", ner_file, "--output", out, "--rate", "3.0",
               "--seed", "2") == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert out.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_a_report_to_a_device_is_written_in_place(tmp_path, ner_file, test_file):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1") == 0
    assert run("eval", "--checkpoint", ckpt, "--test", test_file, "--report", os.devnull,
               "--manifest", tmp_path / "eval.manifest.json") == 0


def test_an_output_through_a_symlink_replaces_the_file_at_its_end(tmp_path, ner_file):
    target, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run("augment", "--input", ner_file, "--output", link) == 0
    assert link.is_symlink()
    assert target.read_text().startswith('{"count":')


def test_a_replaced_output_keeps_its_permission_bits(tmp_path, ner_file):
    out = tmp_path / "aug.jsonl"
    out.write_text("old\n")
    out.chmod(0o600)
    assert run("augment", "--input", ner_file, "--output", out) == 0
    assert out.read_text() != "old\n"
    assert out.stat().st_mode & 0o777 == 0o600
