"""End-to-end command-line behavior: exit codes, configs, manifests."""

import json
import re
import shlex
import struct
from pathlib import Path

import pytest

from segmix.cli import build_parser, main
from segmix.corpus import corpus_to_text, parse_conll
from segmix.serialization import load_augmented
from segmix.synth import synth_tagged_corpus


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


def test_augment_missing_input_exits_1(tmp_path, capsys):
    code = run("augment", "--input", tmp_path / "nope.conll", "--output", tmp_path / "o")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_augment_synonym_without_lexicon_exits_1(tmp_path, ner_file, capsys):
    code = run(
        "augment", "--input", ner_file, "--output", tmp_path / "o",
        "--variant", "synonym",
    )
    assert code == 1
    assert "--synonyms" in capsys.readouterr().err


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


def test_config_must_be_json_object(tmp_path, ner_file, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code = run("augment", "--config", config, "--input", ner_file,
               "--output", tmp_path / "o")
    assert code == 1
    assert "JSON object" in capsys.readouterr().err


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


def test_eval_task_mismatch_exits_1(tmp_path, ner_file, capsys):
    ckpt = tmp_path / "model.ckpt"
    run("train", "--train", ner_file, "--checkpoint", ckpt, "--epochs", "1")
    code = run("eval", "--task", "re", "--checkpoint", ckpt, "--test", ner_file)
    assert code == 1
    assert "task" in capsys.readouterr().err


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


def test_sweep_bad_grid_value_is_usage_error(tmp_path, ner_file, test_file):
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--train", ner_file, "--test", test_file,
            "--sizes", "ten", "--output", tmp_path / "o.csv")
    assert exc.value.code == 2


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


def test_recover_to_file(tmp_path, ner_file):
    aug = tmp_path / "aug.jsonl"
    run("augment", "--input", ner_file, "--output", aug, "--rate", "0.2")
    text_out = tmp_path / "recovered.txt"
    assert run("recover", "--augmented", aug, "--output", text_out) == 0
    assert "=== example" in text_out.read_text()


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


# ---------------------------------------------------------------- bad values

def test_augment_empty_relation_exits_1(tmp_path, capsys):
    corpus = tmp_path / "train.tsv"
    corpus.write_text("the storm caused damage\t1\t2\t3\t4\t\n")
    assert run("augment", "--task", "re", "--input", corpus, "--output", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: relation '' is empty") and err.count("\n") == 1


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
