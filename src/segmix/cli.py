"""Command-line front end.

Subcommands: augment, train, eval, sweep, bench, recover. Every flag is
one row of ``_OPTIONS``, which names the subcommands that take it and the
default each of them starts from. The parser, the per-command defaults,
the check of config-file keys and --from-manifest replay all read that
table, so adding a flag means adding one row there and reading
``ns.<dest>`` in the command that uses it.

Values resolve in three layers: hard defaults, then a JSON config file
(--config), then explicit flags. ``_run`` wraps every command: it checks
the flags the command cannot do without, times it, and writes a JSON
manifest next to its primary output recording resolved arguments, input
fingerprints and timings; --from-manifest replays a recorded run after
checking the inputs still hash the same.

Exit codes: 0 success, 1 operational failure (bad data, missing file,
training divergence), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from .corpus import (
    downsample,
    parse_conll,
    parse_re,
    write_corpus,
)
from .evaluation import entity_f1, nearest_tokens, re_report, re_scores, tagging_report
from .mixer import (
    EmbeddingTable,
    MixConfig,
    encode_corpus,
    encode_re_corpus,
    replacement_da,
    segmix_generate,
)
from .model import (
    REModel,
    TaggerModel,
    TrainConfig,
    TrainingDivergedError,
    predict_re,
    predict_tagger,
    train_re,
    train_tagger,
)
from .pools import load_synonym_lexicon
from .serialization import (
    load_augmented, load_checkpoint, save_augmented, save_checkpoint, write_loss_trace,
)


class CliError(Exception):
    """Operational failure; maps to exit code 1."""


class UsageError(Exception):
    """Bad flag or config value; ``main`` reports it through argparse (exit code 2)."""


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {p}")
    return p


@dataclass
class RunManifest:
    command: str
    args: dict
    version: str = __version__
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    duration_seconds: float = 0.0
    created: str = ""
    extra: dict = field(default_factory=dict)

    def record_inputs(self, *paths) -> None:
        for p in paths:
            self.inputs[str(p)] = _sha256_file(p)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# The option table. One row per flag: its dest (the flag is ``--dest`` with
# dashes), its kind, its help, and the default of each subcommand that
# takes it. A kind is int, float or str (the value's type), bool (an on/off
# switch), list (a repeatable flag) or a tuple of choices. A flag left off
# the command line parses to None, so that a config file can fill it.

_ALL = ("augment", "train", "eval", "sweep", "bench", "recover")
_TASKED = ("augment", "train", "eval", "sweep", "bench")


@dataclass(frozen=True)
class Option:
    dest: str
    kind: object
    help: str | None
    defaults: dict

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.kind is bool:
            how = {"action": "store_const", "const": True}
        elif self.kind is list:
            how = {"action": "append"}
        elif isinstance(self.kind, tuple):
            how = {"choices": list(self.kind)}
        else:  # argparse hands strings over as they are
            how = {} if self.kind is str else {"type": self.kind}
        flag = "--" + self.dest.replace("_", "-")
        parser.add_argument(flag, dest=self.dest, help=self.help, **how)


def _opt(dest: str, kind, help: str | None = None, **defaults) -> Option:
    return Option(dest, kind, help, defaults)


_OPTIONS = (
    _opt("config", str, "JSON config file supplying defaults", **dict.fromkeys(_ALL)),
    _opt("manifest", str, "where to write the run manifest", **dict.fromkeys(_ALL)),
    _opt("seed", int, "root random seed", **dict.fromkeys(_ALL, 0)),
    _opt("task", ("ner", "re"), "tagging or relation extraction", **dict.fromkeys(_TASKED, "ner")),
    _opt("repair_bio", bool, "promote stray I- labels to B-", **dict.fromkeys(_TASKED, False)),
    # files read and written
    _opt("input", str, "corpus to read", augment=None, bench=None),
    _opt("train", str, "training corpus", train=None, sweep=None),
    _opt("test", str, "test corpus", eval=None, sweep=None),
    _opt("val", str, "validation corpus for early stopping", train=None),
    _opt("augmented", str, "augmented JSONL", train=None, recover=None),
    _opt("synonyms", str, "synonym lexicon TSV", augment=None),
    _opt("vocab_from", list, "extra corpus for the embedding table (repeatable)", train=[]),
    _opt("checkpoint", str, "model checkpoint", train=None, eval=None),
    _opt("output", str, "output file", augment=None, sweep=None, bench=None, recover=None),
    _opt("loss_trace", str, "per-epoch loss CSV", train=None),
    _opt("report", str, "JSON report path", eval=None),
    _opt("confusion", str, "confusion matrix CSV path", eval=None),
    # mixing
    _opt("mode", ("mix", "replace"), "mix embeddings or replace tokens", augment="mix"),
    _opt("variant", str, "pool variant, '+'-joined for combinations", augment="mention",
         bench="mention"),
    _opt("rate", float, "mixed examples per original sentence", augment=0.2, bench=1.0),
    _opt("alpha", float, "Beta(alpha, alpha) concentration", augment=8.0, sweep=8.0, bench=8.0),
    _opt("fixed_lambda", float, "use this lambda instead of drawing one", augment=None),
    _opt("weights", str, "comma list of per-variant budget weights", augment=None),
    _opt("normalize_tail_labels", bool, "rescale mixed soft labels to sum to 1", augment=False),
    _opt("same_type_only", bool, "mix mentions only with their own type", augment=False),
    _opt("include_originals", bool, "also write the unmixed examples", augment=False),
    # embeddings
    _opt("dim", int, "embedding dimension", augment=32, train=32, sweep=32, bench=32),
    _opt("embed_seed", int, "embedding table seed", augment=0, train=0, sweep=0, bench=0),
    _opt("n_buckets", int, "hash buckets for unknown tokens", augment=64, train=64),
    # training
    _opt("epochs", int, "training epochs", train=100, sweep=30),
    _opt("lr", float, "learning rate", train=0.1, sweep=0.1),
    _opt("batch_size", int, "minibatch size", train=16, sweep=16),
    _opt("patience", int, "epochs without validation gain before stopping", train=10),
    _opt("window", int, "tagger context window", train=1, sweep=1),
    _opt("no_originals", bool, "train on the augmented file alone", train=False),
    _opt("allow_corpus_mismatch", bool, "accept an augmented file of another corpus", train=False),
    # sweep grid
    _opt("sizes", str, "comma list of training sizes", sweep="100"),
    _opt("rates", str, "comma list of augmentation rates", sweep="0.2"),
    _opt("variants", str, "comma list of variants ('none' = baseline)", sweep="none,mention"),
    _opt("seeds", str, "comma list of run seeds", sweep="0,1,2"),
    _opt("jobs", int, "worker processes (1 = serial)", sweep=1),
    # bench and recover
    _opt("n_sentences", int, "sentences to mix", bench=200),
    _opt("repeats", int, "timed mixing passes", bench=5),
    _opt("train_epochs", int, "also time a training run for comparison", bench=0),
    _opt("limit", int, "examples to render", recover=5),
    _opt("mixed_only", bool, "skip examples with no mixed span", recover=False),
)

_DEFAULTS: dict[str, dict] = {
    name: {o.dest: o.defaults[name] for o in _OPTIONS if name in o.defaults} for name in _ALL
}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return config


def _resolve(command: str, ns: argparse.Namespace) -> SimpleNamespace:
    """defaults < config file < explicit CLI flags."""
    defaults = _DEFAULTS[command]
    config = _load_config(ns.config) if ns.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"config keys not understood by '{command}': {', '.join(sorted(unknown))}")
    merged = {}
    for key, default in defaults.items():
        value = getattr(ns, key)
        merged[key] = value if value is not None else config.get(key, default)
    for key in ("seed", "embed_seed"):
        value = merged.get(key)
        if value is not None and not 0 <= int(value) < 2**32:
            raise CliError(f"--{key.replace('_', '-')} must lie in [0, 2**32), got {value}")
    return SimpleNamespace(**merged)


# ---------------------------------------------------------------------------
# What differs between tagging and relation classification.


def _read_corpus(ns, path, manifest: RunManifest):
    """The ``ns.task`` corpus at ``path``, fingerprinted in ``manifest``."""
    with open(_require_file(path, "corpus file")) as fh:
        corpus = parse_conll(fh, repair_bio=ns.repair_bio) if ns.task == "ner" else parse_re(fh)
    manifest.record_inputs(path)
    return corpus


def _labels(task: str, corpus) -> tuple[str, ...]:
    return corpus.label_vocab if task == "ner" else corpus.relation_vocab


def _encode(task: str, corpus, table: EmbeddingTable) -> list:
    return (encode_corpus if task == "ner" else encode_re_corpus)(corpus, table)


def _fit(task: str, labels, examples, config: TrainConfig, dim: int, window: int,
         val_corpus=None, table=None):
    """A fresh model seeded like ``config``, trained on ``examples``."""
    if task == "ner":
        model = TaggerModel.init(labels, dim, window=window, seed=config.seed)
        return train_tagger(model, examples, config, val_corpus, table)
    model = REModel.init(labels, dim, seed=config.seed)
    return train_re(model, examples, config, val_corpus, table)


def _predict(task: str, model, table: EmbeddingTable, corpus):
    return (predict_tagger if task == "ner" else predict_re)(model, table, corpus)


def _mix_config(ns) -> MixConfig:
    weights = tuple(float(w) for w in str(ns.weights).split(",")) if ns.weights else None
    return MixConfig(
        alpha=float(ns.alpha),
        rate=float(ns.rate),
        variant=ns.variant,
        weights=weights,
        normalize_tail_labels=bool(ns.normalize_tail_labels),
        seed=int(ns.seed),
        fixed_lambda=None if ns.fixed_lambda is None else float(ns.fixed_lambda),
        same_type_only=bool(ns.same_type_only),
    )


def _train_config(ns, patience: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=int(ns.epochs), learning_rate=float(ns.lr),
                       batch_size=int(ns.batch_size), patience=patience, seed=seed)


def cmd_augment(ns: SimpleNamespace, manifest: RunManifest) -> None:
    corpus = _read_corpus(ns, ns.input, manifest)
    config = _mix_config(ns)
    pools = {}
    if "synonym" in config.variant_list():
        if not ns.synonyms:
            raise CliError("the synonym variant needs --synonyms LEXICON")
        with open(_require_file(ns.synonyms, "synonym lexicon")) as fh:
            pools["synonym"] = load_synonym_lexicon(fh)
    if ns.synonyms:
        manifest.record_inputs(ns.synonyms)
    manifest.outputs = [ns.output]

    if ns.mode == "replace":
        result = replacement_da(corpus, pools, config)
        with open(ns.output, "w") as fh:
            write_corpus(result.corpus, fh)
        manifest.extra = {"requested": result.requested, "skipped": result.skipped}
        print(f"replaced segments in {result.requested - result.skipped}/{result.requested} "
              f"sampled sentences -> {ns.output}")
        return

    tokens = corpus.token_vocab
    dim, embed_seed, n_buckets = int(ns.dim), int(ns.embed_seed), int(ns.n_buckets)
    table = EmbeddingTable.random(tokens, dim, seed=embed_seed, n_buckets=n_buckets)
    result = segmix_generate(corpus, pools, table, config)
    originals = _encode(ns.task, corpus, table) if ns.include_originals else []
    examples = originals + list(result.examples)
    meta = {
        "corpus_sha256": manifest.inputs[str(ns.input)],
        "config": {
            k: getattr(config, k) for k in ("alpha", "rate", "variant", "seed", "fixed_lambda")
        },
        "table": {"tokens": list(tokens), "dim": dim, "seed": embed_seed, "n_buckets": n_buckets},
        "skipped": result.skipped,
    }
    with open(ns.output, "w") as fh:
        save_augmented(fh, examples, _labels(ns.task, corpus), task=ns.task, meta=meta)
    manifest.extra = {
        "requested": result.requested,
        "generated": len(result.examples),
        "skipped": result.skipped,
        "written": len(examples),
    }
    print(f"wrote {len(examples)} examples ({len(result.examples)} mixed, "
          f"{result.skipped} skipped) -> {ns.output}")


def _load_matching_augmented(ns, label_vocab, manifest: RunManifest) -> list:
    """The examples of ``--augmented``, refused unless built for this training run."""
    with open(_require_file(ns.augmented, "augmented file")) as fh:
        aug = load_augmented(fh)
    manifest.record_inputs(ns.augmented)
    if aug.task != ns.task:
        raise CliError(f"augmented file is for task {aug.task!r}, not {ns.task!r}")
    if tuple(aug.label_vocab) != tuple(label_vocab):
        raise CliError("augmented file label vocabulary differs from the training corpus")
    if aug.dim != int(ns.dim):
        raise CliError(f"augmented dim {aug.dim} != --dim {ns.dim}")
    # rows embedded by another table live in another space; files without a record predate it
    spec = aug.table_record()
    if spec and (spec["seed"], spec["n_buckets"]) != (int(ns.embed_seed), int(ns.n_buckets)):
        raise CliError(
            f"augmented file was embedded with --embed-seed {spec['seed']} "
            f"--n-buckets {spec['n_buckets']}, "
            f"not --embed-seed {ns.embed_seed} --n-buckets {ns.n_buckets}; rebuild it to match"
        )
    recorded = aug.meta.get("corpus_sha256")
    if recorded and recorded != manifest.inputs[str(ns.train)] and not ns.allow_corpus_mismatch:
        raise CliError(
            "augmented file was built from a different corpus "
            "(pass --allow-corpus-mismatch to train anyway)"
        )
    return list(aug.examples)


def cmd_train(ns: SimpleNamespace, manifest: RunManifest) -> None:
    corpus = _read_corpus(ns, ns.train, manifest)
    tokens = dict.fromkeys(corpus.token_vocab)
    for extra in ns.vocab_from or []:
        tokens.update(dict.fromkeys(_read_corpus(ns, extra, manifest).token_vocab))
    table = EmbeddingTable.random(
        list(tokens), int(ns.dim), seed=int(ns.embed_seed), n_buckets=int(ns.n_buckets)
    )
    label_vocab = _labels(ns.task, corpus)
    examples = [] if ns.no_originals else _encode(ns.task, corpus, table)
    if ns.augmented:
        examples = examples + _load_matching_augmented(ns, label_vocab, manifest)
    if not examples:
        raise CliError("nothing to train on (originals disabled and no augmented file)")

    val_corpus = _read_corpus(ns, ns.val, manifest) if ns.val else None
    train_config = _train_config(ns, int(ns.patience), int(ns.seed))
    fit_started = time.perf_counter()
    result = _fit(ns.task, label_vocab, examples, train_config, int(ns.dim), int(ns.window),
                  val_corpus, table)
    fit_seconds = time.perf_counter() - fit_started

    save_checkpoint(ns.checkpoint, result.model, table, meta={"task": ns.task})
    manifest.outputs = [ns.checkpoint]
    if ns.loss_trace:
        write_loss_trace(ns.loss_trace, result)
        manifest.outputs.append(ns.loss_trace)
    manifest.extra = {
        "n_examples": len(examples),
        "epochs_run": len(result.loss_trace),
        "best_epoch": result.best_epoch,
        "final_loss": result.loss_trace[-1] if result.loss_trace else None,
        "fit_seconds": round(fit_seconds, 4),
    }
    last = f"{result.loss_trace[-1]:.4f}" if result.loss_trace else "n/a"
    print(f"trained on {len(examples)} examples for {len(result.loss_trace)} epochs "
          f"(final loss {last}) -> {ns.checkpoint}")


def cmd_eval(ns: SimpleNamespace, manifest: RunManifest) -> None:
    _require_file(ns.checkpoint, "checkpoint")
    try:
        model, table, meta = load_checkpoint(ns.checkpoint)
    except (ValueError, OSError) as exc:
        raise CliError(f"cannot load checkpoint: {exc}") from None
    task = meta.get("task") or ("re" if isinstance(model, REModel) else "ner")
    if task != ns.task:
        raise CliError(f"checkpoint is for task {task!r}, not {ns.task!r}")
    manifest.record_inputs(ns.checkpoint)
    corpus = _read_corpus(ns, ns.test, manifest)

    predicted = _predict(ns.task, model, table, corpus)
    report = (tagging_report if ns.task == "ner" else re_report)(corpus, predicted)
    if ns.report:
        report.write_json(ns.report)
        manifest.outputs.append(ns.report)
    if ns.confusion:
        report.write_confusion_csv(ns.confusion)
        manifest.outputs.append(ns.confusion)
    manifest.extra = {"summary": report.summary}
    sys.stdout.write(report.format_text())


def _cell_seed(root_seed: int, size: int, rate: float, variant: str, seed: int) -> int:
    key = f"{root_seed}|{size}|{rate:g}|{variant}|{seed}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def _sweep_cell(cell: tuple, ns: SimpleNamespace, train, test, table: EmbeddingTable) -> str:
    """Train and score one (size, rate, variant, seed) grid cell; returns its CSV row."""
    size, rate, variant, seed = cell
    cell_seed = _cell_seed(int(ns.seed), size, rate, variant, seed)
    n = min(size, len(train))
    sub = downsample(train, n, seed=cell_seed) if n < len(train) else train
    generated = []
    if variant != "none":
        config = MixConfig(alpha=float(ns.alpha), rate=rate, variant=variant, seed=cell_seed)
        generated = segmix_generate(sub, {}, table, config).examples
    examples = _encode(ns.task, sub, table) + list(generated)
    train_config = _train_config(ns, int(ns.epochs) + 1, cell_seed)
    model = _fit(ns.task, _labels(ns.task, sub), examples, train_config, int(ns.dim),
                 int(ns.window)).model
    predicted = _predict(ns.task, model, table, test)
    if ns.task == "ner":
        score = entity_f1(test, predicted).f1
    else:
        score = re_scores(test, predicted).accuracy
    return f"{size},{rate:g},{variant},{seed},{cell_seed},{len(sub)},{len(generated)},{score:.4f}\n"


# A pool worker's (ns, train corpus, test corpus, table), set once by the pool's initializer:
# a forked worker inherits it, a spawned one unpickles it once instead of once per cell.
_WORKER_SWEEP: tuple = ()


def _share_sweep(*shared) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = shared


def _worker_cell(cell: tuple) -> str:
    return _sweep_cell(cell, *_WORKER_SWEEP)


def _grid_values(raw: str, cast, flag: str) -> list:
    try:
        values = [cast(v.strip()) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse {flag} value {raw!r}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


def cmd_sweep(ns: SimpleNamespace, manifest: RunManifest) -> None:
    _require_file(ns.train, "training corpus")
    _require_file(ns.test, "test corpus")
    grid = list(itertools.product(
        _grid_values(ns.sizes, int, "--sizes"),
        _grid_values(ns.rates, float, "--rates"),
        _grid_values(ns.variants, str, "--variants"),
        _grid_values(ns.seeds, int, "--seeds"),
    ))
    train = _read_corpus(ns, ns.train, manifest)
    test = _read_corpus(ns, ns.test, manifest)
    tokens = list(dict.fromkeys([*train.token_vocab, *test.token_vocab]))
    shared = (ns, train, test, EmbeddingTable.random(tokens, int(ns.dim), seed=int(ns.embed_seed)))
    jobs = int(ns.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(jobs, initializer=_share_sweep, initargs=shared) as executor:
            rows = list(executor.map(_worker_cell, grid))
    else:
        rows = [_sweep_cell(cell, *shared) for cell in grid]
    with open(ns.output, "w", newline="") as fh:
        fh.write("size,rate,variant,seed,cell_seed,n_train,n_augmented,score\n" + "".join(rows))
    manifest.outputs = [ns.output]
    manifest.extra = {"cells": len(rows)}
    print(f"swept {len(rows)} cells -> {ns.output}")


def cmd_bench(ns: SimpleNamespace, manifest: RunManifest) -> None:
    corpus = _read_corpus(ns, ns.input, manifest)
    n = min(int(ns.n_sentences), len(corpus))
    sub = downsample(corpus, n, seed=int(ns.seed)) if n < len(corpus) else corpus
    table = EmbeddingTable.random(sub.token_vocab, int(ns.dim), seed=int(ns.embed_seed))
    config = MixConfig(
        alpha=float(ns.alpha), rate=float(ns.rate), variant=ns.variant, seed=int(ns.seed)
    )

    timings = []
    generated = 0
    for _ in range(int(ns.repeats)):
        t0 = time.perf_counter()
        result = segmix_generate(sub, {}, table, config)
        timings.append(time.perf_counter() - t0)
        generated = len(result.examples)
    mean = float(np.mean(timings))
    std = float(np.std(timings))
    report = {
        "task": ns.task,
        "n_sentences": len(sub),
        "generated_per_pass": generated,
        "repeats": int(ns.repeats),
        "mix_seconds_mean": mean,
        "mix_seconds_std": std,
    }
    print(f"mix: {mean:.4f}s +/- {std:.4f}s over {ns.repeats} passes "
          f"({len(sub)} sentences, {generated} mixed examples per pass)")

    epochs = int(ns.train_epochs)
    if epochs > 0:
        examples = _encode(ns.task, sub, table)
        train_config = TrainConfig(epochs=epochs, seed=int(ns.seed), patience=epochs + 1)
        t0 = time.perf_counter()
        _fit(ns.task, _labels(ns.task, sub), examples, train_config, int(ns.dim), window=1)
        train_seconds = time.perf_counter() - t0
        report["train_epochs"] = epochs
        report["train_seconds"] = train_seconds
        report["mix_over_train"] = mean / train_seconds if train_seconds else float("inf")
        print(f"train: {train_seconds:.4f}s for {ns.train_epochs} epochs "
              f"(mixing is {100 * report['mix_over_train']:.2f}% of that)")

    if ns.output:
        with open(ns.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest.outputs.append(ns.output)
    manifest.extra = report


def _render_example(example, table, index: int, lines: list[str]) -> None:
    prov = example.provenance
    lam = "n/a" if prov.lam is None else f"{prov.lam:.4f}"
    lines.append(f"=== example {index} (variant={prov.variant}, lambda={lam}) ===")
    mixed = sorted(tuple(s) for s in prov.mixed_spans)
    recovered = nearest_tokens(table, example.embeddings)
    for pos, (token, dist) in enumerate(recovered):
        marker = next((f"  [mixed span {k}]" for k, (s, e) in enumerate(mixed) if s <= pos < e), "")
        lines.append(f"{pos:4d}  {token:<20s} {dist:8.4f}{marker}")
    if hasattr(example, "soft_relation"):
        e1, e2 = example.e1, example.e2
        lines.append(f"      e1=[{e1.start},{e1.end})  e2=[{e2.start},{e2.end})")


def cmd_recover(ns: SimpleNamespace, manifest: RunManifest) -> None:
    with open(_require_file(ns.augmented, "augmented file")) as fh:
        aug = load_augmented(fh)
    spec = aug.table_record()
    if not spec:
        raise CliError("augmented file carries no embedding-table record; cannot recover tokens")
    table = EmbeddingTable.random(
        spec["tokens"], spec["dim"], seed=spec["seed"], n_buckets=spec["n_buckets"]
    )
    manifest.record_inputs(ns.augmented)
    lines: list[str] = []
    shown = 0
    for i, example in enumerate(aug.examples):
        if ns.mixed_only and not example.provenance.mixed_spans:
            continue
        _render_example(example, table, i, lines)
        shown += 1
        if shown >= int(ns.limit):
            break
    text = "\n".join(lines) + ("\n" if lines else "")
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
        manifest.outputs.append(ns.output)
    else:
        sys.stdout.write(text)
    manifest.extra = {"examples_shown": shown}


# ---------------------------------------------------------------------------
# commands, the runner and the parser


@dataclass(frozen=True)
class Command:
    run: Callable[[SimpleNamespace, RunManifest], None]
    help: str
    needs: tuple[str, ...]  # options the command cannot do without
    output: str  # the option naming the file its manifest sits beside


_COMMANDS = {
    "augment": Command(cmd_augment, "generate mixed training examples as augmented JSONL "
                       "(a corpus file with --mode replace)", ("input", "output"), "output"),
    "train": Command(cmd_train, "train a tagger or relation classifier",
                     ("train", "checkpoint"), "checkpoint"),
    "eval": Command(cmd_eval, "score a checkpoint on a test corpus", ("checkpoint", "test"),
                    "report"),
    "sweep": Command(cmd_sweep, "grid over sizes, rates, variants and seeds into a CSV",
                     ("train", "test", "output"), "output"),
    "bench": Command(cmd_bench, "time the mixing pass (--output: JSON report)", ("input",),
                     "output"),
    "recover": Command(cmd_recover, "render augmented examples as nearest tokens",
                       ("augmented",), "output"),
}


def _run(command: str, ns: SimpleNamespace) -> int:
    """Run one command and write its manifest; what every command shares."""
    spec = _COMMANDS[command]
    if not all(getattr(ns, dest) for dest in spec.needs):
        flags = [f"--{dest.replace('_', '-')}" for dest in spec.needs]
        listed = flags[-1] if len(flags) == 1 else f"{', '.join(flags[:-1])} and {flags[-1]}"
        raise CliError(f"{command} needs {listed}")
    started = time.perf_counter()
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    manifest = RunManifest(command=command, args=dict(vars(ns)), created=created)
    spec.run(ns, manifest)
    manifest.duration_seconds = round(time.perf_counter() - started, 4)
    manifest.outputs = [str(p) for p in manifest.outputs]
    primary = getattr(ns, spec.output)
    write_to = ns.manifest or (str(primary) + ".manifest.json" if primary else None)
    if write_to:
        manifest.write(write_to)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segmix", description="segment-level mixup augmentation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--from-manifest", metavar="MANIFEST",
        help="replay a recorded run (inputs must hash unchanged)",
    )
    commands = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        sub = commands.add_parser(name, help=spec.help, description=spec.help)
        for option in _OPTIONS:
            if name in option.defaults:
                option.add_to(sub)
    return parser


def _replay_manifest(path: str) -> int:
    with open(_require_file(path, "manifest")) as fh:
        data = json.load(fh)
    command = data.get("command")
    if command not in _COMMANDS:
        raise CliError(f"manifest names unknown command {command!r}")
    for input_path, recorded in data.get("inputs", {}).items():
        if _sha256_file(_require_file(input_path, "recorded input")) != recorded:
            raise CliError(f"input {input_path} changed since the manifest was written")
    return _run(command, SimpleNamespace(**{**_DEFAULTS[command], **data.get("args", {})}))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.from_manifest:
            return _replay_manifest(ns.from_manifest)
        if not ns.command:
            parser.error("a subcommand is required (or --from-manifest)")
        return _run(ns.command, _resolve(ns.command, ns))
    except UsageError as exc:
        parser.error(str(exc))
    except (CliError, ValueError, TrainingDivergedError, OSError) as exc:
        # bad data arrives as a ValueError, CorpusFormatError and EmptyPoolError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
