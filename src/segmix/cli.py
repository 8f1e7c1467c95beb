"""Command-line front end.

Subcommands: augment, train, eval, sweep, bench, recover. Every flag is
one row of ``_OPTIONS``, which names the subcommands that take it and the
default each of them starts from. The parser, the per-command defaults,
the check of config-file keys and --from-manifest replay all read that
table, so adding a flag means adding one row there and reading
``ns.<dest>`` in the command that uses it.

Values resolve in three layers: hard defaults, then a JSON config file
(--config), then explicit flags. ``_run`` wraps every command: before any
work it checks the flags the command cannot do without, that the
directory of every file it would write exists and that every file it
would read is there, and fingerprints those inputs; it times the command
and writes a JSON manifest next to its primary output recording resolved
arguments, input fingerprints and timings; --from-manifest replays a
recorded run after checking the inputs still hash the same.

Exit codes: 0 success, 1 operational failure (bad data, missing file,
training divergence), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .corpus import (
    _replacing,
    downsample,
    parse_conll,
    parse_re,
    write_corpus,
)
from .evaluation import _write_json, nearest_tokens, re_report, tagging_report
from .mixer import (
    NER_VARIANTS,
    RE_VARIANTS,
    EmbeddingTable,
    MixConfig,
    _slot_count,
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
    _score,
    _test_side,
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


# ---------------------------------------------------------------------------
# The option table. One row per flag: its dest (the flag is ``--dest`` with
# dashes), its kind, its help, and the default of each subcommand that
# takes it. A kind is int, float or str (the value's type), bool (an on/off
# switch), list (a repeatable flag) or a tuple of choices. A flag left off
# the command line parses to None, so that a config file can fill it.

_ALL = ("augment", "train", "eval", "sweep", "bench", "recover")
_TASKED = ("augment", "train", "eval", "sweep", "bench")


class Option(NamedTuple):
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

    def problem(self, value, default) -> str | None:
        """Why ``value``, read from a config file or a manifest, cannot stand
        for this flag, or None. Null means "not set", which only an option
        whose default is null may be."""
        if value is None:
            return None if default is None else "may not be null"
        if isinstance(self.kind, tuple):
            ok = value in self.kind
            want = f"one of {', '.join(self.kind)}"
        elif self.kind is list:
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            want = "a list of strings"
        else:  # a JSON bool is a Python int, and a JSON int stands for a float
            ok = (isinstance(value, (int, float) if self.kind is float else self.kind)
                  and isinstance(value, bool) == (self.kind is bool))
            want = _KIND_NAMES[self.kind]
        return None if ok else f"must be {want}, got {json.dumps(value)}"


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


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
_BY_DEST = {o.dest: o for o in _OPTIONS}


def _read_json(path, what: str):
    """The JSON value in the file at ``path``, a ``what`` (config file or manifest)."""
    with open(_require_file(path, what)) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to parse
            raise CliError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config(path) -> dict:
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return config


def _resolve(command: str, values: dict, source: str, flags: dict) -> SimpleNamespace:
    """defaults < ``values`` (a config file's or a manifest's, named by
    ``source``) < explicit ``flags``.

    Each of ``values`` must be a key of ``command`` holding a value of its
    option's kind; the merged values then pass the range checks. A config
    file and a replayed manifest are checked alike, one line naming the key,
    or the flag when one was typed.
    """
    defaults = _DEFAULTS[command]
    unknown = ", ".join(sorted(set(values) - set(defaults)))
    if unknown:
        raise UsageError(f"{source} keys not understood by '{command}': {unknown}")
    for key, value in values.items():
        problem = _BY_DEST[key].problem(value, defaults[key])
        if problem:
            raise UsageError(f"{source} key '{key}' {problem}")
    merged = {**defaults, **values, **flags}

    def named(key: str) -> str:  # a value no flag overrides is named by its key
        return (f"{source} key '{key}'" if key in values and key not in flags
                else f"--{key.replace('_', '-')}")

    for key in ("seed", "embed_seed"):
        value = merged.get(key)
        if value is not None and not 0 <= value < 2**32:
            raise CliError(f"{named(key)} must lie in [0, 2**32), got {value}")
    alpha = merged.get("alpha", 1.0)
    if not (alpha > 0 and math.isfinite(alpha)):  # a sweep's baseline cells would train first
        raise CliError(f"{named('alpha')} must be positive and finite, got {alpha}")
    for key, low in (("window", 0), ("train_epochs", 0), ("limit", 1), ("jobs", 1), ("n_sentences", 1),
                     ("repeats", 1)):
        if merged.get(key, low) < low:
            raise CliError(f"{named(key)} must be {low} or more, got {merged[key]}")
    return SimpleNamespace(**merged)


# ---------------------------------------------------------------------------
# What differs between tagging and relation classification.


def _read_corpus(ns, path):
    """The ``ns.task`` corpus at ``path``."""
    with open(path) as fh:
        return parse_conll(fh, repair_bio=ns.repair_bio) if ns.task == "ner" else parse_re(fh)


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


def _mix_config(ns) -> MixConfig:
    weights = tuple(_grid_values(ns.weights, float, "--weights")) if ns.weights else None
    return MixConfig(
        alpha=float(ns.alpha),
        rate=float(ns.rate),
        variant=ns.variant,
        weights=weights,
        normalize_tail_labels=ns.normalize_tail_labels,
        seed=ns.seed,
        fixed_lambda=None if ns.fixed_lambda is None else float(ns.fixed_lambda),
        same_type_only=ns.same_type_only,
    )


def _for_task(ns, config: MixConfig) -> MixConfig:
    """``config``, refused before any corpus is read if ``--task`` does not take a variant of it."""
    ok = NER_VARIANTS if ns.task == "ner" else RE_VARIANTS
    bad = next((v for v in config.variant_list() if v not in ok), None)
    if bad:
        raise CliError(f"--variant {bad} does not apply to --task {ns.task}")
    return config


def _train_config(ns, patience: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=ns.epochs, learning_rate=float(ns.lr), batch_size=ns.batch_size,
                       patience=patience, seed=seed)


def cmd_augment(ns: SimpleNamespace, inputs: dict) -> dict:
    config = _for_task(ns, _mix_config(ns))
    pools = {}
    if "synonym" in config.variant_list():
        if not ns.synonyms:
            raise CliError("the synonym variant needs --synonyms LEXICON")
        with open(ns.synonyms) as fh:
            pools["synonym"] = load_synonym_lexicon(fh)
    corpus = _read_corpus(ns, ns.input)

    if ns.mode == "replace":
        result = replacement_da(corpus, pools, config)
        with _replacing(ns.output) as fh:
            write_corpus(result.corpus, fh)
        print(f"replaced segments in {result.requested - result.skipped}/{result.requested} "
              f"sampled sentences -> {ns.output}")
        return {"requested": result.requested, "skipped": result.skipped}

    tokens = corpus.token_vocab
    table = EmbeddingTable.random(tokens, ns.dim, seed=ns.embed_seed, n_buckets=ns.n_buckets)
    result = segmix_generate(corpus, pools, table, config)
    originals = _encode(ns.task, corpus, table) if ns.include_originals else []
    examples = originals + result.examples
    meta = {
        "corpus_sha256": inputs[ns.input],
        "config": {
            k: getattr(config, k) for k in ("alpha", "rate", "variant", "seed", "fixed_lambda")
        },
        "table": {"tokens": list(tokens), "dim": ns.dim, "seed": ns.embed_seed,
                  "n_buckets": ns.n_buckets},
        "skipped": result.skipped,
    }
    with _replacing(ns.output) as fh:
        save_augmented(fh, examples, _labels(ns.task, corpus), task=ns.task, meta=meta)
    print(f"wrote {len(examples)} examples ({len(result.examples)} mixed, "
          f"{result.skipped} skipped) -> {ns.output}")
    return {"requested": result.requested, "generated": len(result.examples),
            "skipped": result.skipped, "written": len(examples)}


def _load_matching_augmented(ns, label_vocab, inputs: dict):
    """The examples of ``--augmented``, refused unless built for this training run."""
    with open(ns.augmented) as fh:
        aug = load_augmented(fh)
    if aug.task != ns.task:
        raise CliError(f"augmented file is for task {aug.task!r}, not {ns.task!r}")
    if tuple(aug.label_vocab) != tuple(label_vocab):
        raise CliError("augmented file label vocabulary differs from the training corpus")
    if aug.examples and aug.dim != ns.dim:  # a file with no examples records dim 0
        raise CliError(f"augmented dim {aug.dim} != --dim {ns.dim}")
    # rows embedded by another table live in another space; files without a record predate it
    spec = aug.table_record()
    if spec and (spec["seed"], spec["n_buckets"]) != (ns.embed_seed, ns.n_buckets):
        raise CliError(
            f"augmented file was embedded with --embed-seed {spec['seed']} "
            f"--n-buckets {spec['n_buckets']}, "
            f"not --embed-seed {ns.embed_seed} --n-buckets {ns.n_buckets}; rebuild it to match"
        )
    recorded = aug.meta.get("corpus_sha256")
    if recorded and recorded != inputs[ns.train] and not ns.allow_corpus_mismatch:
        raise CliError(
            "augmented file was built from a different corpus "
            "(pass --allow-corpus-mismatch to train anyway)"
        )
    return aug.examples


def cmd_train(ns: SimpleNamespace, inputs: dict) -> dict:
    corpus = _read_corpus(ns, ns.train)
    tokens = dict.fromkeys(corpus.token_vocab)
    for extra in ns.vocab_from:
        tokens.update(dict.fromkeys(_read_corpus(ns, extra).token_vocab))
    table = EmbeddingTable.random(list(tokens), ns.dim, seed=ns.embed_seed, n_buckets=ns.n_buckets)
    label_vocab = _labels(ns.task, corpus)
    examples = [] if ns.no_originals else _encode(ns.task, corpus, table)
    if ns.augmented:
        examples = examples + _load_matching_augmented(ns, label_vocab, inputs)
    if not examples:
        raise CliError("nothing to train on (originals disabled and no augmented file)")

    val_corpus = _read_corpus(ns, ns.val) if ns.val else None
    train_config = _train_config(ns, ns.patience, ns.seed)
    fit_started = time.perf_counter()
    result = _fit(ns.task, label_vocab, examples, train_config, ns.dim, ns.window, val_corpus,
                  table)
    fit_seconds = time.perf_counter() - fit_started

    save_checkpoint(ns.checkpoint, result.model, table, meta={"task": ns.task})
    if ns.loss_trace:
        write_loss_trace(ns.loss_trace, result)
    last = f"{result.loss_trace[-1]:.4f}" if result.loss_trace else "n/a"
    print(f"trained on {len(examples)} examples for {len(result.loss_trace)} epochs "
          f"(final loss {last}) -> {ns.checkpoint}")
    return {"n_examples": len(examples), "epochs_run": len(result.loss_trace),
            "best_epoch": result.best_epoch,
            "final_loss": result.loss_trace[-1] if result.loss_trace else None,
            "fit_seconds": round(fit_seconds, 4)}


def cmd_eval(ns: SimpleNamespace, inputs: dict) -> dict:
    try:
        model, table, _ = load_checkpoint(ns.checkpoint)
    except (ValueError, OSError) as exc:
        raise CliError(f"cannot load checkpoint: {exc}") from None
    task = "re" if isinstance(model, REModel) else "ner"
    if task != ns.task:
        raise CliError(f"checkpoint is for task {task!r}, not {ns.task!r}")
    corpus = _read_corpus(ns, ns.test)
    if not len(corpus):  # it would score 0.0
        raise CliError("test corpus is empty")

    predicted = (predict_tagger if ns.task == "ner" else predict_re)(model, table, corpus)
    report = (tagging_report if ns.task == "ner" else re_report)(corpus, predicted)
    if ns.report:
        report.write_json(ns.report)
    if ns.confusion:
        report.write_confusion_csv(ns.confusion)
    sys.stdout.write(report.format_text())
    return {"summary": report.summary}


def _cell_seed(root_seed: int, size: int, rate: float, variant: str, seed: int) -> int:
    key = f"{root_seed}|{size}|{rate:g}|{variant}|{seed}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def _sweep_cell(cell: tuple, ns: SimpleNamespace, train, test, table: EmbeddingTable) -> str:
    """Train and score one (size, rate, variant, seed) grid cell; returns its CSV row.

    ``test`` is the test corpus laid out once per sweep (``model._test_side``)."""
    size, rate, variant, seed = cell
    cell_seed = _cell_seed(ns.seed, size, rate, variant, seed)
    n = min(size, len(train))
    sub = downsample(train, n, seed=cell_seed) if n < len(train) else train
    generated = []
    if variant != "none":
        config = MixConfig(alpha=float(ns.alpha), rate=rate, variant=variant, seed=cell_seed)
        generated = segmix_generate(sub, {}, table, config).examples
    examples = _encode(ns.task, sub, table) + generated
    train_config = _train_config(ns, ns.epochs + 1, cell_seed)
    model = _fit(ns.task, _labels(ns.task, sub), examples, train_config, ns.dim, ns.window).model
    score = _score(model, table, test)
    return f"{size},{rate:g},{variant},{seed},{cell_seed},{len(sub)},{len(generated)},{score:.4f}\n"


# A pool worker's (ns, train corpus, test side, table), set once by the pool's initializer:
# a forked worker inherits it, a spawned one unpickles it once instead of once per cell.
_WORKER_SWEEP: tuple = ()


def _share_sweep(*shared) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = shared


def _worker_cell(cell: tuple) -> str:
    return _sweep_cell(cell, *_WORKER_SWEEP)


def _grid_values(raw: str, cast, flag: str, ok=None, want: str = "") -> list:
    """The comma list ``raw`` of a grid flag, each value cast; a value that
    will not cast is a usage error, one that fails ``ok`` a one-line error."""
    try:
        values = [cast(v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse {flag} value {raw!r}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    bad = next((v for v in values if ok and not ok(v)), None)
    if bad is not None:
        raise CliError(f"{flag} value {bad!r} {want}")
    return values


def cmd_sweep(ns: SimpleNamespace, inputs: dict) -> dict:
    # each grid value is checked before any corpus is read; a sweep has no lexicon flag, so
    # the synonym variant cannot run in one
    kinds = [v for v in (NER_VARIANTS if ns.task == "ner" else RE_VARIANTS) if v != "synonym"]
    sizes = _grid_values(ns.sizes, int, "--sizes", lambda v: v >= 1, "must be 1 or more")
    rates = _grid_values(ns.rates, float, "--rates", lambda v: v >= 0 and math.isfinite(v),
                         "must be 0 or more and finite")
    try:  # a cell over n <= size examples asks for round(rate * n) slots
        _slot_count(max(rates), max(sizes))
    except ValueError as exc:
        raise CliError(f"--rates at --sizes value {max(sizes)}: {exc}") from None
    grid = list(itertools.product(
        sizes, rates,
        _grid_values(ns.variants, str, "--variants",
                     lambda v: v == "none" or set(v.split("+")) <= set(kinds),
                     f"is not 'none' or a '+'-joined list of {', '.join(kinds)} "
                     f"for --task {ns.task}"),
        _grid_values(ns.seeds, int, "--seeds"),
    ))
    printed = [f"size {z}, rate {r:g}, variant {v}, seed {s}" for z, r, v, s in grid]
    if len(set(printed)) < len(printed):  # two cells would write one row and share a cell seed
        twice = next(cell for i, cell in enumerate(printed) if cell in printed[:i])
        raise CliError(f"the grid names the cell {twice} twice")
    _train_config(ns, 1, 0)  # refuses a bad --epochs, --lr or --batch-size here, not per cell
    train = _read_corpus(ns, ns.train)
    test = _read_corpus(ns, ns.test)
    if not len(test):  # every cell would score 0.0
        raise CliError("test corpus is empty")
    tokens = list(dict.fromkeys([*train.token_vocab, *test.token_vocab]))
    table = EmbeddingTable.random(tokens, ns.dim, seed=ns.embed_seed)
    shared = (ns, train, _test_side(table, test, ns.window), table)
    if ns.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # half the import time of this module

        with ProcessPoolExecutor(ns.jobs, initializer=_share_sweep, initargs=shared) as executor:
            rows = list(executor.map(_worker_cell, grid))
    else:
        rows = [_sweep_cell(cell, *shared) for cell in grid]
    with _replacing(ns.output, newline="") as fh:
        fh.write("size,rate,variant,seed,cell_seed,n_train,n_augmented,score\n" + "".join(rows))
    print(f"swept {len(rows)} cells -> {ns.output}")
    return {"cells": len(rows)}


def cmd_bench(ns: SimpleNamespace, inputs: dict) -> dict:
    config = _for_task(ns, MixConfig(float(ns.alpha), float(ns.rate), ns.variant, seed=ns.seed))
    corpus = _read_corpus(ns, ns.input)
    n = min(ns.n_sentences, len(corpus))
    sub = downsample(corpus, n, seed=ns.seed) if n < len(corpus) else corpus
    table = EmbeddingTable.random(sub.token_vocab, ns.dim, seed=ns.embed_seed)

    timings = []
    for _ in range(ns.repeats):
        t0 = time.perf_counter()
        generated = len(segmix_generate(sub, {}, table, config).examples)
        timings.append(time.perf_counter() - t0)
    mean = float(np.mean(timings))
    std = float(np.std(timings))
    report = {
        "task": ns.task,
        "n_sentences": len(sub),
        "generated_per_pass": generated,
        "repeats": ns.repeats,
        "mix_seconds_mean": mean,
        "mix_seconds_std": std,
    }
    print(f"mix: {mean:.4f}s +/- {std:.4f}s over {ns.repeats} passes "
          f"({len(sub)} sentences, {generated} mixed examples per pass)")

    if ns.train_epochs > 0:
        examples = _encode(ns.task, sub, table)
        train_config = TrainConfig(epochs=ns.train_epochs, seed=ns.seed, patience=ns.train_epochs + 1)
        t0 = time.perf_counter()
        _fit(ns.task, _labels(ns.task, sub), examples, train_config, ns.dim, window=1)
        train_seconds = time.perf_counter() - t0
        report["train_epochs"] = ns.train_epochs
        report["train_seconds"] = train_seconds
        report["mix_over_train"] = mean / train_seconds if train_seconds else float("inf")
        print(f"train: {train_seconds:.4f}s for {ns.train_epochs} epochs "
              f"(mixing is {100 * report['mix_over_train']:.2f}% of that)")

    if ns.output:
        _write_json(ns.output, report)
    return report


def _render_example(example, table, index: int, lines: list[str]) -> None:
    prov = example.provenance
    lines.append(f"=== example {index} (variant={prov.variant}, lambda={prov.lam:.4f}) ===")
    mixed = sorted(prov.mixed_spans)
    recovered = nearest_tokens(table, example.embeddings)
    for pos, (token, dist) in enumerate(recovered):
        marker = next((f"  [mixed span {k}]" for k, (s, e) in enumerate(mixed) if s <= pos < e), "")
        lines.append(f"{pos:4d}  {token:<20s} {dist:8.4f}{marker}")
    if hasattr(example, "soft_relation"):
        e1, e2 = example.e1, example.e2
        lines.append(f"      e1=[{e1.start},{e1.end})  e2=[{e2.start},{e2.end})")


def cmd_recover(ns: SimpleNamespace, inputs: dict) -> dict:
    with open(ns.augmented) as fh:
        aug = load_augmented(fh)
    spec = aug.table_record()
    if not spec:
        raise CliError("augmented file carries no embedding-table record; cannot recover tokens")
    table = EmbeddingTable.random(
        spec["tokens"], spec["dim"], seed=spec["seed"], n_buckets=spec["n_buckets"]
    )
    shown = [(i, example) for i, example in enumerate(aug.examples)
             if example.provenance.mixed_spans or not ns.mixed_only][:ns.limit]
    lines: list[str] = []
    for i, example in shown:
        _render_example(example, table, i, lines)
    text = "\n".join(lines) + ("\n" if lines else "")
    if ns.output:
        with _replacing(ns.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return {"examples_shown": len(shown)}


# ---------------------------------------------------------------------------
# commands, the runner and the parser


class Command(NamedTuple):
    run: Callable[[SimpleNamespace, dict], dict]  # (values, input fingerprints) -> manifest extra
    help: str
    needs: tuple[str, ...]  # options the command cannot do without
    outputs: tuple[str, ...]  # options naming the files it writes; its manifest sits beside the first
    inputs: tuple[tuple[str, str], ...]  # options naming the files it reads, each with its name


_CORPUS, _AUGMENTED = "corpus file", "augmented file"
_COMMANDS = {
    "augment": Command(cmd_augment, "generate mixed training examples as augmented JSONL "
                       "(a corpus file with --mode replace)", ("input", "output"), ("output",),
                       (("input", _CORPUS), ("synonyms", "synonym lexicon"))),
    "train": Command(cmd_train, "train a tagger or relation classifier",
                     ("train", "checkpoint"), ("checkpoint", "loss_trace"),
                     (("train", _CORPUS), ("vocab_from", _CORPUS), ("augmented", _AUGMENTED),
                      ("val", _CORPUS))),
    "eval": Command(cmd_eval, "score a checkpoint on a test corpus", ("checkpoint", "test"),
                    ("report", "confusion"), (("checkpoint", "checkpoint"), ("test", _CORPUS))),
    "sweep": Command(cmd_sweep, "grid over sizes, rates, variants and seeds into a CSV",
                     ("train", "test", "output"), ("output",),
                     (("train", "training corpus"), ("test", "test corpus"))),
    "bench": Command(cmd_bench, "time the mixing pass (--output: JSON report)", ("input",),
                     ("output",), (("input", _CORPUS),)),
    "recover": Command(cmd_recover, "render augmented examples as nearest tokens",
                       ("augmented",), ("output",), (("augmented", _AUGMENTED),)),
}


def _run(command: str, ns: SimpleNamespace, recorded: dict | None = None) -> int:
    """Run one command and write its manifest; what every command shares."""
    spec = _COMMANDS[command]
    if not all(getattr(ns, dest) for dest in spec.needs):
        flags = [f"--{dest.replace('_', '-')}" for dest in spec.needs]
        listed = flags[-1] if len(flags) == 1 else f"{', '.join(flags[:-1])} and {flags[-1]}"
        raise CliError(f"{command} needs {listed}")
    for dest in (*spec.outputs, "manifest"):  # before any work, so a bad path writes nothing
        flag, path = f"--{dest.replace('_', '-')}", Path(getattr(ns, dest) or ".")
        if not path.parent.is_dir():
            raise CliError(f"{flag} {path}: directory {path.parent} does not exist")
        if getattr(ns, dest) and path.is_dir():  # an unset output's "." is a directory
            raise CliError(f"{flag} {path} is a directory")
    reads = []
    for dest, what in spec.inputs:  # all there before any is fingerprinted
        value = getattr(ns, dest) or []
        for path in value if isinstance(value, list) else [value]:
            _require_file(path, what)
            reads.append(path)
    started = time.perf_counter()
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    inputs = {path: _sha256_file(path) for path in dict.fromkeys(reads)}  # once if two flags name it
    for path, digest in (recorded or {}).items():  # a replay must read what it recorded, unchanged
        if inputs.get(path) != digest:
            raise CliError(f"input {path} changed since the manifest was written")
    extra = spec.run(ns, inputs)
    primary = getattr(ns, spec.outputs[0])
    write_to = ns.manifest or (primary + ".manifest.json" if primary else None)
    if write_to:
        _write_json(write_to, {
            "command": command, "args": vars(ns), "version": __version__, "inputs": inputs,
            "outputs": [getattr(ns, dest) for dest in spec.outputs if getattr(ns, dest)],
            "duration_seconds": round(time.perf_counter() - started, 4), "created": created,
            "extra": extra})
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
    data = _read_json(path, "manifest")
    if not (isinstance(data, dict) and isinstance(data.get("inputs", {}), dict)
            and isinstance(data.get("args", {}), dict)):
        raise CliError(f"manifest {path} must hold a JSON object with object inputs and args")
    command = data.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise CliError(f"manifest names unknown command {command!r}")
    return _run(command, _resolve(command, data.get("args", {}), "manifest", {}), data.get("inputs"))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.from_manifest:
            return _replay_manifest(ns.from_manifest)
        if not ns.command:
            parser.error("a subcommand is required (or --from-manifest)")
        config = _load_config(ns.config) if ns.config else {}
        flags = {k: v for k, v in vars(ns).items() if k in _DEFAULTS[ns.command] and v is not None}
        return _run(ns.command, _resolve(ns.command, config, "config", flags))
    except UsageError as exc:
        parser.error(str(exc))
    except (CliError, ValueError, TrainingDivergedError, OSError, MemoryError, RecursionError) as exc:
        # bad data arrives as a ValueError, CorpusFormatError and EmptyPoolError among them;
        # numpy refuses an array it cannot allocate (a huge --dim, say) with a MemoryError, and
        # json a deeply nested value with a RecursionError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
