"""Byte pins for every command-line artifact, and --from-manifest replay.

Each subcommand runs once on small synthetic corpora; the sha256 of every
file it writes is pinned. A changed hash is a change of behaviour and must
be deliberate. Manifests are pinned after dropping what legitimately varies
between runs (wall-clock timings, the ``created`` stamp and the temporary
directory), and each command's ``args`` key set is pinned on its own so that
manifests written by earlier releases keep replaying.
"""

import hashlib
import json

import pytest

from segmix.cli import main
from segmix.corpus import corpus_to_text
from segmix.synth import synth_re_corpus, synth_tagged_corpus

_BENCH_TIMINGS = ("mix_seconds_mean", "mix_seconds_std", "train_seconds", "mix_over_train")

# name -> (argv, the files the run writes besides its manifest)
_RUNS = {
    "augment_ner": (
        ["augment", "--input", "@ner.conll", "--output", "@aug_ner.jsonl", "--variant", "mention",
         "--include-originals", "--rate", "0.5", "--seed", "3"],
        ["aug_ner.jsonl"],
    ),
    "augment_re": (
        ["augment", "--task", "re", "--input", "@re.conll", "--output", "@aug_re.jsonl",
         "--variant", "relation", "--rate", "0.5", "--seed", "4"],
        ["aug_re.jsonl"],
    ),
    "augment_replace": (
        ["augment", "--input", "@ner.conll", "--output", "@replaced.conll", "--mode", "replace",
         "--rate", "1.0", "--seed", "2"],
        ["replaced.conll"],
    ),
    "train_ner": (
        ["train", "--train", "@ner.conll", "--augmented", "@aug_ner.jsonl", "--val", "@test.conll",
         "--checkpoint", "@ner.ckpt", "--loss-trace", "@ner_trace.csv", "--epochs", "2",
         "--seed", "1"],
        ["ner.ckpt", "ner_trace.csv"],
    ),
    "train_re": (
        ["train", "--task", "re", "--train", "@re.conll", "--augmented", "@aug_re.jsonl",
         "--val", "@re_test.conll", "--checkpoint", "@re.ckpt", "--loss-trace", "@re_trace.csv",
         "--epochs", "2", "--seed", "1"],
        ["re.ckpt", "re_trace.csv"],
    ),
    "eval_ner": (
        ["eval", "--checkpoint", "@ner.ckpt", "--test", "@test.conll", "--report", "@ner_report.json",
         "--confusion", "@ner_confusion.csv"],
        ["ner_report.json", "ner_confusion.csv"],
    ),
    "eval_re": (
        ["eval", "--task", "re", "--checkpoint", "@re.ckpt", "--test", "@re_test.conll",
         "--report", "@re_report.json", "--confusion", "@re_confusion.csv"],
        ["re_report.json", "re_confusion.csv"],
    ),
    "recover": (
        ["recover", "--augmented", "@aug_ner.jsonl", "--limit", "3", "--output", "@recovered.txt"],
        ["recovered.txt"],
    ),
    "sweep_ner": (
        ["sweep", "--train", "@ner.conll", "--test", "@test.conll", "--sizes", "20,40",
         "--rates", "0.5", "--variants", "none,mention", "--seeds", "0", "--epochs", "2",
         "--dim", "16", "--jobs", "1", "--output", "@sweep_ner.csv"],
        ["sweep_ner.csv"],
    ),
    "sweep_re": (
        ["sweep", "--task", "re", "--train", "@re.conll", "--test", "@re_test.conll",
         "--sizes", "20", "--rates", "0.5", "--variants", "none,relation", "--seeds", "0",
         "--epochs", "2", "--dim", "16", "--jobs", "1", "--output", "@sweep_re.csv"],
        ["sweep_re.csv"],
    ),
    "bench": (
        ["bench", "--input", "@ner.conll", "--n-sentences", "20", "--repeats", "1",
         "--train-epochs", "1", "--output", "@bench.json"],
        ["bench.json"],
    ),
}

_FILE_PINS = {
    "aug_ner.jsonl": "b56ffaa16ed362fe343d2d484638e71ac45f6e2fed13e98fbe38630137b6906b",
    "aug_re.jsonl": "3382421f43240064f6068047427914f81a07b1d22e8cd8cbfe639a5c0f969244",
    "replaced.conll": "33687fa39cca176d97bff0077fe8f969df3d2a52fdd9fb65949f705494b39355",
    "ner.ckpt": "d1309610a63b224d8f72048d41d57a207eb575c8240d6653ff9697a46e555ef3",
    "ner_trace.csv": "eb0c09b5ba36ea24b112f4832c9892bc36945467dcd56a0ac695dd1e002386ae",
    "re.ckpt": "652777857256cb288e1e254a4f0b60d6186a24a742d09830716a34a937eeea49",
    "re_trace.csv": "88a7d6919075e98790f1c8b7c51908599eaf85ad0baf19394070f2b7f97fe484",
    "ner_report.json": "3acff117273b6c0bcb6452a509529a167e2046cf1a0999f41a2c0fb24c42e3cb",
    "ner_confusion.csv": "4c012a63d1aab85c15249b5bd92dfde0e2d54316b99d5d994470d96f89641afb",
    "re_report.json": "abdd8c11743b6e5a8a85f8eaa56d323140d9c218075ae32e4029ff77c97c5d61",
    "re_confusion.csv": "5c921879fcdbde709e2a274569e963db2fe8b95fd5f784c55007f9b998024187",
    "recovered.txt": "80b7181d5b364bc9297ef18714fd22965cd0d8db44fe35b2263d778ee43cd164",
    "sweep_ner.csv": "8f98b2aef7ccf42a2f030cd3f3c7042b09a833ef3cc769918c09feea1f9a095d",
    "sweep_re.csv": "7408dcfbf2f7edba214e7910d96bc49a5be8d7aef5aa64b704272fce71875a62",
}

_MANIFEST_PINS = {
    "augment_ner": "eb13ce83c5f6a42c259b754ce4ebfcd06272dd82a8dfdd447ffbacf9b720b8b0",
    "augment_re": "f9a45adeb0334afaa0d69fdd39368c16496648d36af9106bd001d9bc53a88a14",
    "augment_replace": "bcb8f6a6f5edca9ed363091da2e9fdc857687d3a7780b08ce0d27dfdf7d04bf0",
    "train_ner": "4c97e63d6b29d60fd59f83740abfbbe99283ae5b9ca7b153e91dc681921eaa49",
    "train_re": "b0eb27ac7bd42306a9222f037356ef9a23694a99aab63fe7cfaaa319a9dba274",
    "eval_ner": "0405c87b8f30fb3bdd4e5b47eb6ecb7561da2974a4c1590eb98037b3c4550f80",
    "eval_re": "1c5b3f4a060499caf434c472c2051a2bd13554cc4c03d671a83324097a3acdfa",
    "recover": "72475989833c8831b4989b6a75519a773f744cf44f1f22f78a028fce9b1fc916",
    "sweep_ner": "4708a191ca0b2f34aa4865d258700f53b802b37e9d4676d8b86b3d89d11485ec",
    "sweep_re": "37d1995f7ac6e9363d71b234531ceb784c818eeafa189e9ca243e80fe7744963",
    "bench": "16fff61d2d5d044ded7fae8b6f4694eefb00b8c3fdb3bd4b6c1e120a3b3b08fd",
}

_ARGS_KEYS = {
    "augment": {
        "config", "manifest", "seed", "task", "input", "output", "variant", "rate", "alpha",
        "fixed_lambda", "weights", "normalize_tail_labels", "same_type_only", "mode", "dim",
        "embed_seed", "n_buckets", "synonyms", "repair_bio", "include_originals",
    },
    "train": {
        "config", "manifest", "seed", "task", "train", "augmented", "val", "checkpoint",
        "loss_trace", "epochs", "lr", "batch_size", "patience", "dim", "embed_seed",
        "n_buckets", "window", "vocab_from", "no_originals", "allow_corpus_mismatch",
        "repair_bio",
    },
    "eval": {"config", "manifest", "seed", "task", "checkpoint", "test", "report", "confusion",
             "repair_bio"},
    "sweep": {
        "config", "manifest", "seed", "task", "train", "test", "output", "sizes", "rates",
        "variants", "seeds", "alpha", "epochs", "lr", "batch_size", "dim", "embed_seed",
        "window", "jobs", "repair_bio",
    },
    "bench": {
        "config", "manifest", "seed", "task", "input", "n_sentences", "repeats", "variant",
        "rate", "alpha", "dim", "embed_seed", "output", "train_epochs", "repair_bio",
    },
    "recover": {"config", "manifest", "seed", "augmented", "limit", "output", "mixed_only"},
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _argv(workdir, argv):
    """``@name`` names a file in the work directory."""
    return [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]


def _normalized_manifest(workdir, name) -> dict:
    outputs = _RUNS[name][1]
    manifest = json.loads((workdir / (outputs[0] + ".manifest.json")).read_text())
    del manifest["created"], manifest["duration_seconds"]
    manifest["extra"].pop("fit_seconds", None)
    if manifest["command"] == "bench":
        for key in _BENCH_TIMINGS:
            manifest["extra"].pop(key, None)
    return json.loads(json.dumps(manifest).replace(str(workdir), "<dir>"))


def _bench_report(data: bytes) -> dict:
    report = json.loads(data)
    for key in _BENCH_TIMINGS:
        assert report.pop(key) >= 0
    return report


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    (root / "ner.conll").write_text(corpus_to_text(synth_tagged_corpus(40, seed=11)))
    (root / "test.conll").write_text(corpus_to_text(synth_tagged_corpus(25, seed=12)))
    (root / "re.conll").write_text(corpus_to_text(synth_re_corpus(40, seed=5)))
    (root / "re_test.conll").write_text(corpus_to_text(synth_re_corpus(20, seed=6)))
    for name, (argv, _) in _RUNS.items():
        assert main(_argv(root, argv)) == 0, name
    return root


@pytest.mark.parametrize("filename", sorted(_FILE_PINS))
def test_artifact_bytes_pinned(workdir, filename):
    assert _sha(workdir / filename) == _FILE_PINS[filename]


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_manifest_pinned(workdir, name):
    manifest = _normalized_manifest(workdir, name)
    assert set(manifest["args"]) == _ARGS_KEYS[manifest["command"]]
    text = json.dumps(manifest, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _MANIFEST_PINS[name]


def test_every_subcommand_is_pinned():
    assert {argv[0] for argv, _ in _RUNS.values()} == set(_ARGS_KEYS)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_from_manifest_replays_same_bytes(workdir, name, capsys):
    outputs = [workdir / f for f in _RUNS[name][1]]
    before = {p: p.read_bytes() for p in outputs}
    for p in outputs:
        p.unlink()
    assert main(["--from-manifest", str(workdir / (outputs[0].name + ".manifest.json"))]) == 0
    capsys.readouterr()
    for p in outputs:
        if name == "bench":  # timings differ from run to run; the rest must not
            assert _bench_report(p.read_bytes()) == _bench_report(before[p])
        else:
            assert p.read_bytes() == before[p], p.name
