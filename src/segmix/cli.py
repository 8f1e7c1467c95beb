"""Command-line front end.

Subcommands: augment, train, eval, sweep, bench, recover. Values
resolve in three layers: hard defaults, then a JSON config file
(--config), then explicit flags. Every run writes a JSON manifest next
to its primary output recording resolved arguments, input fingerprints
and timings; --from-manifest replays a recorded run after checking the
inputs still hash the same.

Exit codes: 0 success, 1 operational failure (bad data, missing file,
training divergence), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .corpus import (
    CorpusFormatError,
    downsample,
    parse_conll,
    parse_re,
    write_corpus,
)
from .evaluation import entity_f1, nearest_tokens, re_report, re_scores, tagging_report
from .mixer import (
    EmbeddingTable,
    EmptyPoolError,
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
    load_checkpoint,
    predict_re,
    predict_tagger,
    save_checkpoint,
    train_re,
    train_tagger,
    write_loss_trace,
)
from .pools import load_synonym_lexicon
from .serialization import load_augmented, save_augmented


class CliError(Exception):
    """Operational failure; maps to exit code 1."""


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

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _start_manifest(command: str, ns: SimpleNamespace, input_paths: list) -> RunManifest:
    manifest = RunManifest(command=command, args=dict(vars(ns)))
    manifest.created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for p in input_paths:
        manifest.inputs[str(p)] = _sha256_file(p)
    return manifest


def _finish_manifest(manifest: RunManifest, started: float, outputs: list, write_to) -> None:
    manifest.duration_seconds = round(time.perf_counter() - started, 4)
    manifest.outputs = [str(p) for p in outputs]
    if write_to:
        manifest.write(write_to)


# ---------------------------------------------------------------------------
# Defaults and three-layer resolution.

_COMMON = {"config": None, "manifest": None, "seed": 0}

_DEFAULTS: dict[str, dict] = {
    "augment": {
        **_COMMON,
        "task": "ner",
        "input": None,
        "output": None,
        "variant": "mention",
        "rate": 0.2,
        "alpha": 8.0,
        "fixed_lambda": None,
        "weights": None,
        "normalize_tail_labels": False,
        "same_type_only": False,
        "mode": "mix",
        "dim": 32,
        "embed_seed": 0,
        "n_buckets": 64,
        "synonyms": None,
        "repair_bio": False,
        "include_originals": False,
    },
    "train": {
        **_COMMON,
        "task": "ner",
        "train": None,
        "augmented": None,
        "val": None,
        "checkpoint": None,
        "loss_trace": None,
        "epochs": 100,
        "lr": 0.1,
        "batch_size": 16,
        "patience": 10,
        "dim": 32,
        "embed_seed": 0,
        "n_buckets": 64,
        "window": 1,
        "vocab_from": [],
        "no_originals": False,
        "allow_corpus_mismatch": False,
        "repair_bio": False,
    },
    "eval": {
        **_COMMON,
        "task": "ner",
        "checkpoint": None,
        "test": None,
        "report": None,
        "confusion": None,
        "repair_bio": False,
    },
    "sweep": {
        **_COMMON,
        "task": "ner",
        "train": None,
        "test": None,
        "output": None,
        "sizes": "100",
        "rates": "0.2",
        "variants": "none,mention",
        "seeds": "0,1,2",
        "alpha": 8.0,
        "epochs": 30,
        "lr": 0.1,
        "batch_size": 16,
        "dim": 32,
        "embed_seed": 0,
        "window": 1,
        "jobs": 1,
        "repair_bio": False,
    },
    "bench": {
        **_COMMON,
        "task": "ner",
        "input": None,
        "n_sentences": 200,
        "repeats": 5,
        "variant": "mention",
        "rate": 1.0,
        "alpha": 8.0,
        "dim": 32,
        "embed_seed": 0,
        "output": None,
        "train_epochs": 0,
        "repair_bio": False,
    },
    "recover": {
        **_COMMON,
        "augmented": None,
        "limit": 5,
        "output": None,
        "mixed_only": False,
    },
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


def _resolve(command: str, ns: argparse.Namespace, parser: argparse.ArgumentParser) -> SimpleNamespace:
    """defaults < config file < explicit CLI flags."""
    defaults = _DEFAULTS[command]
    config = _load_config(ns.config) if getattr(ns, "config", None) else {}
    unknown = set(config) - set(defaults)
    if unknown:
        parser.error(f"config keys not understood by '{command}': {', '.join(sorted(unknown))}")
    merged = {}
    for key, default in defaults.items():
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config:
            merged[key] = config[key]
        else:
            merged[key] = default
    for key in ("seed", "embed_seed"):
        value = merged.get(key)
        if value is not None and not 0 <= int(value) < 2**32:
            raise CliError(f"--{key.replace('_', '-')} must lie in [0, 2**32), got {value}")
    return SimpleNamespace(**merged)


def _parse_corpus(task: str, path, repair_bio: bool):
    path = _require_file(path, "corpus file")
    with open(path) as fh:
        if task == "ner":
            return parse_conll(fh, repair_bio=repair_bio)
        return parse_re(fh)


def _build_table(tokens, dim: int, embed_seed: int, n_buckets: int) -> EmbeddingTable:
    return EmbeddingTable.random(tokens, dim, seed=embed_seed, n_buckets=n_buckets)


def _manifest_path(ns, primary_output) -> str | None:
    if ns.manifest:
        return ns.manifest
    if primary_output:
        return str(primary_output) + ".manifest.json"
    return None


# ---------------------------------------------------------------------------
# augment


def _mix_config(ns) -> MixConfig:
    weights = None
    if ns.weights:
        weights = tuple(float(w) for w in str(ns.weights).split(","))
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


def cmd_augment(ns: SimpleNamespace) -> int:
    if not ns.input or not ns.output:
        raise CliError("augment needs --input and --output")
    started = time.perf_counter()
    corpus = _parse_corpus(ns.task, ns.input, ns.repair_bio)
    config = _mix_config(ns)
    pools = {}
    if "synonym" in config.variant_list():
        if not ns.synonyms:
            raise CliError("the synonym variant needs --synonyms LEXICON")
        with open(_require_file(ns.synonyms, "synonym lexicon")) as fh:
            pools["synonym"] = load_synonym_lexicon(fh)

    manifest = _start_manifest("augment", ns, [ns.input] + ([ns.synonyms] if ns.synonyms else []))

    if ns.mode == "replace":
        result = replacement_da(corpus, pools, config)
        with open(ns.output, "w") as fh:
            write_corpus(result.corpus, fh)
        manifest.extra = {"requested": result.requested, "skipped": result.skipped}
        _finish_manifest(manifest, started, [ns.output], _manifest_path(ns, ns.output))
        print(f"replaced segments in {result.requested - result.skipped}/{result.requested} "
              f"sampled sentences -> {ns.output}")
        return 0

    tokens = corpus.token_vocab
    table = _build_table(tokens, int(ns.dim), int(ns.embed_seed), int(ns.n_buckets))
    result = segmix_generate(corpus, pools, table, config)
    examples = list(result.examples)
    if ns.include_originals:
        originals = (
            encode_corpus(corpus, table) if ns.task == "ner" else encode_re_corpus(corpus, table)
        )
        examples = originals + examples
    if ns.task == "ner":
        label_vocab = corpus.label_vocab
    else:
        label_vocab = corpus.relation_vocab
    meta = {
        "corpus_sha256": _sha256_file(ns.input),
        "config": {
            "alpha": config.alpha,
            "rate": config.rate,
            "variant": config.variant,
            "seed": config.seed,
            "fixed_lambda": config.fixed_lambda,
        },
        "table": {
            "tokens": list(tokens),
            "dim": int(ns.dim),
            "seed": int(ns.embed_seed),
            "n_buckets": int(ns.n_buckets),
        },
        "skipped": result.skipped,
    }
    with open(ns.output, "w") as fh:
        save_augmented(fh, examples, label_vocab, task=ns.task, meta=meta)
    manifest.extra = {
        "requested": result.requested,
        "generated": len(result.examples),
        "skipped": result.skipped,
        "written": len(examples),
    }
    _finish_manifest(manifest, started, [ns.output], _manifest_path(ns, ns.output))
    print(f"wrote {len(examples)} examples ({len(result.examples)} mixed, "
          f"{result.skipped} skipped) -> {ns.output}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(ns: SimpleNamespace) -> int:
    if not ns.train or not ns.checkpoint:
        raise CliError("train needs --train and --checkpoint")
    started = time.perf_counter()
    corpus = _parse_corpus(ns.task, ns.train, ns.repair_bio)
    inputs = [ns.train]
    tokens = list(corpus.token_vocab)
    for extra in ns.vocab_from or []:
        extra_corpus = _parse_corpus(ns.task, extra, ns.repair_bio)
        for tok in extra_corpus.token_vocab:
            if tok not in tokens:
                tokens.append(tok)
        inputs.append(extra)
    table = _build_table(tokens, int(ns.dim), int(ns.embed_seed), int(ns.n_buckets))

    if ns.task == "ner":
        label_vocab = corpus.label_vocab
        examples = [] if ns.no_originals else encode_corpus(corpus, table)
    else:
        label_vocab = corpus.relation_vocab
        examples = [] if ns.no_originals else encode_re_corpus(corpus, table)

    if ns.augmented:
        inputs.append(ns.augmented)
        with open(_require_file(ns.augmented, "augmented file")) as fh:
            aug = load_augmented(fh)
        if aug.task != ns.task:
            raise CliError(f"augmented file is for task {aug.task!r}, not {ns.task!r}")
        if tuple(aug.label_vocab) != tuple(label_vocab):
            raise CliError("augmented file label vocabulary differs from the training corpus")
        if aug.dim != int(ns.dim):
            raise CliError(f"augmented dim {aug.dim} != --dim {ns.dim}")
        recorded = aug.meta.get("corpus_sha256")
        if recorded and recorded != _sha256_file(ns.train) and not ns.allow_corpus_mismatch:
            raise CliError(
                "augmented file was built from a different corpus "
                "(pass --allow-corpus-mismatch to train anyway)"
            )
        examples = examples + list(aug.examples)
    if not examples:
        raise CliError("nothing to train on (originals disabled and no augmented file)")

    val_corpus = None
    if ns.val:
        val_corpus = _parse_corpus(ns.task, ns.val, ns.repair_bio)
        inputs.append(ns.val)

    manifest = _start_manifest("train", ns, inputs)
    train_config = TrainConfig(
        epochs=int(ns.epochs),
        learning_rate=float(ns.lr),
        batch_size=int(ns.batch_size),
        patience=int(ns.patience),
        seed=int(ns.seed),
    )
    fit_started = time.perf_counter()
    if ns.task == "ner":
        model = TaggerModel.init(label_vocab, int(ns.dim), window=int(ns.window), seed=int(ns.seed))
        result = train_tagger(model, examples, train_config, val_corpus, table)
    else:
        model = REModel.init(label_vocab, int(ns.dim), seed=int(ns.seed))
        result = train_re(model, examples, train_config, val_corpus, table)
    fit_seconds = time.perf_counter() - fit_started

    save_checkpoint(ns.checkpoint, result.model, table, meta={"task": ns.task})
    outputs = [ns.checkpoint]
    if ns.loss_trace:
        write_loss_trace(ns.loss_trace, result)
        outputs.append(ns.loss_trace)
    manifest.extra = {
        "n_examples": len(examples),
        "epochs_run": len(result.loss_trace),
        "best_epoch": result.best_epoch,
        "final_loss": result.loss_trace[-1] if result.loss_trace else None,
        "fit_seconds": round(fit_seconds, 4),
    }
    _finish_manifest(manifest, started, outputs, _manifest_path(ns, ns.checkpoint))
    last = f"{result.loss_trace[-1]:.4f}" if result.loss_trace else "n/a"
    print(f"trained on {len(examples)} examples for {len(result.loss_trace)} epochs "
          f"(final loss {last}) -> {ns.checkpoint}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(ns: SimpleNamespace) -> int:
    if not ns.checkpoint or not ns.test:
        raise CliError("eval needs --checkpoint and --test")
    started = time.perf_counter()
    _require_file(ns.checkpoint, "checkpoint")
    try:
        model, table, meta = load_checkpoint(ns.checkpoint)
    except (ValueError, OSError) as exc:
        raise CliError(f"cannot load checkpoint: {exc}") from None
    task = meta.get("task") or ("re" if isinstance(model, REModel) else "ner")
    if task != ns.task:
        raise CliError(f"checkpoint is for task {task!r}, not {ns.task!r}")
    corpus = _parse_corpus(ns.task, ns.test, ns.repair_bio)
    manifest = _start_manifest("eval", ns, [ns.checkpoint, ns.test])

    if ns.task == "ner":
        predicted = predict_tagger(model, table, corpus)
        report = tagging_report(corpus, predicted)
    else:
        predicted = predict_re(model, table, corpus)
        report = re_report(corpus, predicted)

    outputs = []
    if ns.report:
        report.write_json(ns.report)
        outputs.append(ns.report)
    if ns.confusion:
        report.write_confusion_csv(ns.confusion)
        outputs.append(ns.confusion)
    manifest.extra = {"summary": report.summary}
    _finish_manifest(manifest, started, outputs, _manifest_path(ns, ns.report))
    sys.stdout.write(report.format_text())
    return 0


# ---------------------------------------------------------------------------
# sweep


def _cell_seed(root_seed: int, size: int, rate: float, variant: str, seed: int) -> int:
    key = f"{root_seed}|{size}|{rate:g}|{variant}|{seed}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def _sweep_cell(params: dict) -> dict:
    """One grid cell; module-level so worker processes can unpickle it."""
    task = params["task"]
    if task == "ner":
        with open(params["train_path"]) as fh:
            corpus = parse_conll(fh, repair_bio=params["repair_bio"])
        with open(params["test_path"]) as fh:
            test = parse_conll(fh, repair_bio=params["repair_bio"])
    else:
        with open(params["train_path"]) as fh:
            corpus = parse_re(fh)
        with open(params["test_path"]) as fh:
            test = parse_re(fh)
    cell_seed = params["cell_seed"]
    size = min(params["size"], len(corpus))
    sub = downsample(corpus, size, seed=cell_seed) if size < len(corpus) else corpus

    tokens = list(corpus.token_vocab)
    for tok in test.token_vocab:
        if tok not in tokens:
            tokens.append(tok)
    table = EmbeddingTable.random(tokens, params["dim"], seed=params["embed_seed"])

    if task == "ner":
        examples = encode_corpus(sub, table)
    else:
        examples = encode_re_corpus(sub, table)
    n_aug = 0
    if params["variant"] != "none":
        config = MixConfig(
            alpha=params["alpha"],
            rate=params["rate"],
            variant=params["variant"],
            seed=cell_seed,
        )
        generated = segmix_generate(sub, {}, table, config)
        examples = examples + list(generated.examples)
        n_aug = len(generated.examples)

    train_config = TrainConfig(
        epochs=params["epochs"],
        learning_rate=params["lr"],
        batch_size=params["batch_size"],
        patience=params["epochs"] + 1,
        seed=cell_seed,
    )
    if task == "ner":
        labels = sub.label_vocab
        model = TaggerModel.init(labels, params["dim"], window=params["window"], seed=cell_seed)
        result = train_tagger(model, examples, train_config)
        score = entity_f1(test, predict_tagger(result.model, table, test)).f1
    else:
        model = REModel.init(sub.relation_vocab, params["dim"], seed=cell_seed)
        result = train_re(model, examples, train_config)
        score = re_scores(test, predict_re(result.model, table, test)).accuracy
    return {
        "size": params["size"],
        "rate": params["rate"],
        "variant": params["variant"],
        "seed": params["seed"],
        "cell_seed": cell_seed,
        "n_train": len(sub),
        "n_augmented": n_aug,
        "score": score,
    }


def _parse_grid_list(raw: str, cast, flag: str, parser_error) -> list:
    try:
        values = [cast(v.strip()) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        parser_error(f"cannot parse {flag} value {raw!r}")
    if not values:
        parser_error(f"{flag} needs at least one value")
    return values


def sweep_rows(ns: SimpleNamespace, parser_error) -> list[dict]:
    sizes = _parse_grid_list(ns.sizes, int, "--sizes", parser_error)
    rates = _parse_grid_list(ns.rates, float, "--rates", parser_error)
    variants = _parse_grid_list(ns.variants, str, "--variants", parser_error)
    seeds = _parse_grid_list(ns.seeds, int, "--seeds", parser_error)
    grid = []
    for size in sizes:
        for rate in rates:
            for variant in variants:
                for seed in seeds:
                    grid.append({
                        "task": ns.task,
                        "train_path": str(ns.train),
                        "test_path": str(ns.test),
                        "repair_bio": bool(ns.repair_bio),
                        "size": size,
                        "rate": rate,
                        "variant": variant,
                        "seed": seed,
                        "cell_seed": _cell_seed(int(ns.seed), size, rate, variant, seed),
                        "alpha": float(ns.alpha),
                        "dim": int(ns.dim),
                        "embed_seed": int(ns.embed_seed),
                        "window": int(ns.window),
                        "epochs": int(ns.epochs),
                        "lr": float(ns.lr),
                        "batch_size": int(ns.batch_size),
                    })
    jobs = int(ns.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as executor:
            rows = list(executor.map(_sweep_cell, grid))
    else:
        rows = [_sweep_cell(cell) for cell in grid]
    return rows


def format_sweep_csv(rows: list[dict]) -> str:
    lines = ["size,rate,variant,seed,cell_seed,n_train,n_augmented,score"]
    for row in rows:
        lines.append(
            f"{row['size']},{row['rate']:g},{row['variant']},{row['seed']},"
            f"{row['cell_seed']},{row['n_train']},{row['n_augmented']},{row['score']:.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(ns: SimpleNamespace, parser_error=None) -> int:
    if not ns.train or not ns.test or not ns.output:
        raise CliError("sweep needs --train, --test and --output")
    _require_file(ns.train, "training corpus")
    _require_file(ns.test, "test corpus")

    def fail(msg):
        raise CliError(msg)

    parser_error = parser_error or fail
    started = time.perf_counter()
    manifest = _start_manifest("sweep", ns, [ns.train, ns.test])
    rows = sweep_rows(ns, parser_error)
    text = format_sweep_csv(rows)
    with open(ns.output, "w", newline="") as fh:
        fh.write(text)
    manifest.extra = {"cells": len(rows)}
    _finish_manifest(manifest, started, [ns.output], _manifest_path(ns, ns.output))
    print(f"swept {len(rows)} cells -> {ns.output}")
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(ns: SimpleNamespace) -> int:
    if not ns.input:
        raise CliError("bench needs --input")
    started = time.perf_counter()
    corpus = _parse_corpus(ns.task, ns.input, ns.repair_bio)
    n = min(int(ns.n_sentences), len(corpus))
    sub = downsample(corpus, n, seed=int(ns.seed)) if n < len(corpus) else corpus
    table = _build_table(sub.token_vocab, int(ns.dim), int(ns.embed_seed), 64)
    config = MixConfig(
        alpha=float(ns.alpha), rate=float(ns.rate), variant=ns.variant, seed=int(ns.seed)
    )
    manifest = _start_manifest("bench", ns, [ns.input])

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

    if int(ns.train_epochs) > 0:
        if ns.task == "ner":
            examples = encode_corpus(sub, table)
            model = TaggerModel.init(sub.label_vocab, int(ns.dim), seed=int(ns.seed))
            trainer = train_tagger
        else:
            examples = encode_re_corpus(sub, table)
            model = REModel.init(sub.relation_vocab, int(ns.dim), seed=int(ns.seed))
            trainer = train_re
        train_config = TrainConfig(
            epochs=int(ns.train_epochs), seed=int(ns.seed), patience=int(ns.train_epochs) + 1
        )
        t0 = time.perf_counter()
        trainer(model, examples, train_config)
        train_seconds = time.perf_counter() - t0
        report["train_epochs"] = int(ns.train_epochs)
        report["train_seconds"] = train_seconds
        report["mix_over_train"] = mean / train_seconds if train_seconds else float("inf")
        print(f"train: {train_seconds:.4f}s for {ns.train_epochs} epochs "
              f"(mixing is {100 * report['mix_over_train']:.2f}% of that)")

    outputs = []
    if ns.output:
        with open(ns.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(ns.output)
    manifest.extra = report
    _finish_manifest(manifest, started, outputs, _manifest_path(ns, ns.output))
    return 0


# ---------------------------------------------------------------------------
# recover


def _render_example(example, table, index: int, lines: list[str]) -> None:
    prov = example.provenance
    lam = "n/a" if prov.lam is None else f"{prov.lam:.4f}"
    lines.append(f"=== example {index} (variant={prov.variant}, lambda={lam}) ===")
    mixed = sorted(tuple(s) for s in prov.mixed_spans)
    recovered = nearest_tokens(table, example.embeddings)
    for pos, (token, dist) in enumerate(recovered):
        marker = ""
        for k, (s, e) in enumerate(mixed):
            if s <= pos < e:
                marker = f"  [mixed span {k}]"
                break
        lines.append(f"{pos:4d}  {token:<20s} {dist:8.4f}{marker}")
    if hasattr(example, "soft_relation"):
        e1, e2 = example.e1, example.e2
        lines.append(f"      e1=[{e1.start},{e1.end})  e2=[{e2.start},{e2.end})")


def cmd_recover(ns: SimpleNamespace) -> int:
    if not ns.augmented:
        raise CliError("recover needs --augmented")
    started = time.perf_counter()
    with open(_require_file(ns.augmented, "augmented file")) as fh:
        aug = load_augmented(fh)
    spec = aug.meta.get("table")
    if not spec:
        raise CliError("augmented file carries no embedding-table record; cannot recover tokens")
    table = EmbeddingTable.random(
        spec["tokens"], spec["dim"], seed=spec["seed"], n_buckets=spec.get("n_buckets", 64)
    )
    manifest = _start_manifest("recover", ns, [ns.augmented])
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
    outputs = []
    if ns.output:
        with open(ns.output, "w") as fh:
            fh.write(text)
        outputs.append(ns.output)
    else:
        sys.stdout.write(text)
    manifest.extra = {"examples_shown": shown}
    _finish_manifest(manifest, started, outputs, _manifest_path(ns, ns.output))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file supplying defaults")
    sub.add_argument("--manifest", help="where to write the run manifest")
    sub.add_argument("--seed", type=int, help="root random seed")


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

    p = commands.add_parser("augment", help="generate mixed training examples")
    _add_common(p)
    p.add_argument("--task", choices=["ner", "re"])
    p.add_argument("--input", help="corpus to augment")
    p.add_argument("--output", help="augmented JSONL (or corpus file in replace mode)")
    p.add_argument("--variant", help="pool variant, '+'-joined for combinations")
    p.add_argument("--rate", type=float, help="mixed examples requested per original sentence")
    p.add_argument("--alpha", type=float, help="Beta(alpha, alpha) concentration")
    p.add_argument("--fixed-lambda", type=float, dest="fixed_lambda")
    p.add_argument("--weights", help="comma list of per-variant budget weights")
    p.add_argument("--normalize-tail-labels", action="store_const", const=True,
                   dest="normalize_tail_labels")
    p.add_argument("--same-type-only", action="store_const", const=True, dest="same_type_only")
    p.add_argument("--mode", choices=["mix", "replace"])
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--embed-seed", type=int, dest="embed_seed")
    p.add_argument("--n-buckets", type=int, dest="n_buckets")
    p.add_argument("--synonyms", help="synonym lexicon TSV")
    p.add_argument("--repair-bio", action="store_const", const=True, dest="repair_bio")
    p.add_argument("--include-originals", action="store_const", const=True,
                   dest="include_originals")

    p = commands.add_parser("train", help="train a tagger or relation classifier")
    _add_common(p)
    p.add_argument("--task", choices=["ner", "re"])
    p.add_argument("--train", help="training corpus")
    p.add_argument("--augmented", help="augmented JSONL to add")
    p.add_argument("--val", help="validation corpus for early stopping")
    p.add_argument("--checkpoint", help="where to save the model")
    p.add_argument("--loss-trace", dest="loss_trace", help="per-epoch loss CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--patience", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--embed-seed", type=int, dest="embed_seed")
    p.add_argument("--n-buckets", type=int, dest="n_buckets")
    p.add_argument("--window", type=int)
    p.add_argument("--vocab-from", action="append", dest="vocab_from",
                   help="extra corpus whose tokens join the embedding table (repeatable)")
    p.add_argument("--no-originals", action="store_const", const=True, dest="no_originals")
    p.add_argument("--allow-corpus-mismatch", action="store_const", const=True,
                   dest="allow_corpus_mismatch")
    p.add_argument("--repair-bio", action="store_const", const=True, dest="repair_bio")

    p = commands.add_parser("eval", help="score a checkpoint on a test corpus")
    _add_common(p)
    p.add_argument("--task", choices=["ner", "re"])
    p.add_argument("--checkpoint")
    p.add_argument("--test")
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--confusion", help="confusion matrix CSV path")
    p.add_argument("--repair-bio", action="store_const", const=True, dest="repair_bio")

    p = commands.add_parser("sweep", help="grid over sizes, rates, variants and seeds")
    _add_common(p)
    p.add_argument("--task", choices=["ner", "re"])
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--output", help="results CSV")
    p.add_argument("--sizes", help="comma list of training sizes")
    p.add_argument("--rates", help="comma list of augmentation rates")
    p.add_argument("--variants", help="comma list of variants ('none' = baseline)")
    p.add_argument("--seeds", help="comma list of run seeds")
    p.add_argument("--alpha", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--dim", type=int)
    p.add_argument("--embed-seed", type=int, dest="embed_seed")
    p.add_argument("--window", type=int)
    p.add_argument("--jobs", type=int, help="worker processes (1 = serial)")
    p.add_argument("--repair-bio", action="store_const", const=True, dest="repair_bio")

    p = commands.add_parser("bench", help="time the mixing pass")
    _add_common(p)
    p.add_argument("--task", choices=["ner", "re"])
    p.add_argument("--input")
    p.add_argument("--n-sentences", type=int, dest="n_sentences")
    p.add_argument("--repeats", type=int)
    p.add_argument("--variant")
    p.add_argument("--rate", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--embed-seed", type=int, dest="embed_seed")
    p.add_argument("--output", help="JSON timing report")
    p.add_argument("--train-epochs", type=int, dest="train_epochs",
                   help="also time a training run for comparison")
    p.add_argument("--repair-bio", action="store_const", const=True, dest="repair_bio")

    p = commands.add_parser("recover", help="render augmented examples as nearest tokens")
    _add_common(p)
    p.add_argument("--augmented", help="augmented JSONL")
    p.add_argument("--limit", type=int, help="examples to render")
    p.add_argument("--output", help="write text here instead of stdout")
    p.add_argument("--mixed-only", action="store_const", const=True, dest="mixed_only")

    return parser


_HANDLERS = {
    "augment": cmd_augment,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "recover": cmd_recover,
}


def _dispatch(command: str, ns: SimpleNamespace, parser: argparse.ArgumentParser) -> int:
    if command == "sweep":
        return cmd_sweep(ns, parser.error)
    return _HANDLERS[command](ns)


def _replay_manifest(path: str, parser: argparse.ArgumentParser) -> int:
    manifest_path = _require_file(path, "manifest")
    with open(manifest_path) as fh:
        data = json.load(fh)
    command = data.get("command")
    if command not in _DEFAULTS:
        raise CliError(f"manifest names unknown command {command!r}")
    for input_path, recorded in data.get("inputs", {}).items():
        current = _sha256_file(_require_file(input_path, "recorded input"))
        if current != recorded:
            raise CliError(f"input {input_path} changed since the manifest was written")
    args = dict(_DEFAULTS[command])
    args.update(data.get("args", {}))
    return _dispatch(command, SimpleNamespace(**args), parser)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.from_manifest:
            return _replay_manifest(ns.from_manifest, parser)
        if not ns.command:
            parser.error("a subcommand is required (or --from-manifest)")
        resolved = _resolve(ns.command, ns, parser)
        return _dispatch(ns.command, resolved, parser)
    except (CliError, CorpusFormatError, EmptyPoolError, TrainingDivergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
