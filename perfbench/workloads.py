"""The benchmark's four workloads, each driving segmix through its public API.

``prepare`` makes a workload's inputs from the seed with ``segmix.synth``
and ``corpus_to_text``; that time is not counted, and the passes see only
the resulting text. ``run`` is one pass, from input text to its final
artifact, with every call into a package layer wrapped in a span named
``<layer>.<call>``. ``check`` returns the ways a pass's output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segmix import (
    EmbeddingTable,
    MixConfig,
    REModel,
    TaggerModel,
    TrainConfig,
    build_mention_pool,
    build_relation_pool,
    build_sequence_pool,
    build_token_pool,
    cli,
    encode_corpus,
    encode_re_corpus,
    load_augmented,
    load_checkpoint,
    parse_conll,
    parse_re,
    predict_re,
    predict_tagger,
    re_report,
    save_augmented,
    save_checkpoint,
    segmix_generate,
    synth_re_corpus,
    synth_tagged_corpus,
    tagging_report,
    train_re,
    train_tagger,
)
from segmix.corpus import corpus_to_text

DIM = 48
TABLE_SEED = 0
# Lowest test F1 the tagger may reach on any seed; measured 0.41-0.52 on seeds 0-29.
TAGGER_F1_FLOOR = 0.35


@dataclass
class PassResult:
    counts: dict = field(default_factory=dict)  # counters and scores of one pass
    artifacts: dict = field(default_factory=dict)  # what ``check`` inspects


def _union_vocab(*corpora) -> list[str]:
    return list(dict.fromkeys(t for c in corpora for t in c.token_vocab))


def _generation_counts(gen) -> dict:
    return {
        "mixer.requested": gen.requested,
        "mixer.emitted": len(gen.examples),
        "mixer.skipped": gen.skipped,
    }


def _float32(array: np.ndarray) -> np.ndarray:
    return array.astype(np.float32).astype(np.float64)


def _outside(length: int, spans) -> np.ndarray:
    keep = np.ones(length, dtype=bool)
    for start, end in spans:
        keep[start:end] = False
    return keep


def mixing_problems(gen, loaded, sources, table) -> list[str]:
    """Checks shared by the workloads that mix and round-trip a corpus.

    ``sources`` are the corpus's sentences or samples, indexed by each
    example's ``provenance.example_index``.
    """
    problems = []
    if len(gen.examples) + gen.skipped != gen.requested:
        problems.append(
            f"emitted {len(gen.examples)} + skipped {gen.skipped} != requested {gen.requested}"
        )
    if len(loaded.examples) != len(gen.examples):
        problems.append(f"loaded {len(loaded.examples)} of {len(gen.examples)} examples")
    bad_trip = bad_rows = bad_lam = 0
    for mixed, back in zip(gen.examples, loaded.examples):
        prov = mixed.provenance
        if back.provenance != prov or not np.array_equal(
            back.embeddings, _float32(mixed.embeddings)
        ):
            bad_trip += 1
        elif hasattr(mixed, "soft_labels"):
            bad_trip += not np.array_equal(back.soft_labels, _float32(mixed.soft_labels))
        else:
            bad_trip += not (
                np.array_equal(back.soft_relation, _float32(mixed.soft_relation))
                and (back.e1, back.e2) == (mixed.e1, mixed.e2)
            )
        original = table.embed(sources[prov.example_index].tokens)
        keep_src = _outside(len(original), prov.spans)
        keep_out = _outside(len(mixed.embeddings), prov.mixed_spans)
        if keep_src.sum() != keep_out.sum() or not np.array_equal(
            mixed.embeddings[keep_out], original[keep_src]
        ):
            bad_rows += 1
        bad_lam += not 0.0 < prov.lam < 1.0
    if bad_trip:
        problems.append(f"{bad_trip} examples differ after save/load")
    if bad_rows:
        problems.append(f"{bad_rows} examples changed rows outside their mixed spans")
    if bad_lam:
        problems.append(f"{bad_lam} examples have lambda outside (0, 1)")
    return problems


class Augment:
    name = "augment"
    why = (
        "the segmix augment path: mixing and augmented-file save/load do about 90% "
        "of a pass and the model does none"
    )
    layers = frozenset({"corpus", "mixer", "pools", "serialization"})

    def prepare(self, seed: int, workdir: Path) -> dict:
        corpus = synth_tagged_corpus(2000, seed=seed, skew=1.0, inflect=0.3)
        return {"seed": seed, "text": corpus_to_text(corpus)}

    def run(self, inputs: dict, tracer) -> PassResult:
        with tracer.span("corpus.parse"):
            corpus = parse_conll(inputs["text"])
        with tracer.span("mixer.table"):
            table = EmbeddingTable.subword(corpus.token_vocab, DIM, seed=TABLE_SEED)
        with tracer.span("pools.build"):
            pools = {
                "mention": build_mention_pool(corpus),
                "token": build_token_pool(corpus),
                "whole_sequence": build_sequence_pool(corpus),
            }
        config = MixConfig(
            variant="mention+token+whole_sequence", rate=3.0, alpha=8.0, seed=inputs["seed"]
        )
        with tracer.span("mixer.generate"):
            gen = segmix_generate(corpus, pools, table, config)
        stream = io.StringIO()
        with tracer.span("serialization.save"):
            save_augmented(stream, gen.examples, corpus.label_vocab, "ner")
        size = stream.tell()
        stream.seek(0)
        with tracer.span("serialization.load"):
            loaded = load_augmented(stream)
        counts = {
            "corpus.tokens": sum(len(s) for s in corpus.sentences),
            "pools.entries": sum(len(p) for p in pools.values()),
            **_generation_counts(gen),
            "serialization.bytes": size,
        }
        return PassResult(counts, {"gen": gen, "loaded": loaded, "corpus": corpus, "table": table})

    def check(self, inputs: dict, result: PassResult, first: PassResult) -> list[str]:
        a = result.artifacts
        return mixing_problems(a["gen"], a["loaded"], a["corpus"].sentences, a["table"])


class Tagger:
    name = "tagger"
    why = (
        "the paper's low-resource NER cell: training does about 77% of a pass and "
        "mixing under 1%, so only a trainer change should show"
    )
    layers = frozenset({"corpus", "mixer", "pools", "model", "evaluation"})

    def prepare(self, seed: int, workdir: Path) -> dict:
        train = synth_tagged_corpus(200, seed=2 * seed, skew=1.0, inflect=0.3)
        test = synth_tagged_corpus(2000, seed=2 * seed + 1, skew=0.0, inflect=0.3)
        return {
            "seed": seed,
            "train": corpus_to_text(train),
            "test": corpus_to_text(test),
            "checkpoint": workdir / "tagger.ckpt",
        }

    def run(self, inputs: dict, tracer) -> PassResult:
        seed = inputs["seed"]
        with tracer.span("corpus.parse"):
            train = parse_conll(inputs["train"])
            test = parse_conll(inputs["test"])
        with tracer.span("mixer.table"):
            table = EmbeddingTable.subword(_union_vocab(train, test), DIM, seed=TABLE_SEED)
        with tracer.span("pools.build"):
            pool = build_mention_pool(train)
        with tracer.span("mixer.generate"):
            gen = segmix_generate(
                train, pool, table, MixConfig(variant="mention", rate=0.2, alpha=8.0, seed=seed)
            )
        with tracer.span("mixer.encode"):
            originals = encode_corpus(train, table)
        examples = originals + gen.examples
        config = TrainConfig(epochs=60, learning_rate=0.3, batch_size=16, patience=61, seed=seed)
        with tracer.span("model.train"):
            model = TaggerModel.init(train.label_vocab, DIM, window=1, seed=seed)
            trained = train_tagger(model, examples, config)
        with tracer.span("model.checkpoint"):
            save_checkpoint(inputs["checkpoint"], trained.model, table)
            model, table, _ = load_checkpoint(inputs["checkpoint"])
        with tracer.span("model.predict"):
            predicted = predict_tagger(model, table, test)
        with tracer.span("evaluation.report"):
            report = tagging_report(test, predicted)
        test_tokens = sum(len(s) for s in test.sentences)
        counts = {
            "corpus.tokens": sum(len(s) for s in train.sentences) + test_tokens,
            "pools.entries": len(pool),
            **_generation_counts(gen),
            "model.epochs": len(trained.loss_trace),
            "model.rows": sum(len(e) for e in examples),
            "model.final_loss": trained.loss_trace[-1],
            "model.predict_rows": test_tokens,
            "evaluation.entity_f1": report.summary["f1"],
        }
        return PassResult(counts, {"gen": gen})

    def check(self, inputs: dict, result: PassResult, first: PassResult) -> list[str]:
        problems = []
        gen = result.artifacts["gen"]
        if len(gen.examples) + gen.skipped != gen.requested:
            problems.append("emitted + skipped != requested")
        if not all(0.0 < e.provenance.lam < 1.0 for e in gen.examples):
            problems.append("lambda outside (0, 1)")
        for key in ("evaluation.entity_f1", "model.final_loss"):
            if result.counts[key] != first.counts[key]:
                problems.append(f"{key} {result.counts[key]!r} != first pass {first.counts[key]!r}")
        f1 = result.counts["evaluation.entity_f1"]
        if not f1 > TAGGER_F1_FLOOR:
            problems.append(f"entity F1 {f1:.4f} not above the floor {TAGGER_F1_FLOOR}")
        return problems


class Relation:
    name = "relation"
    why = (
        "relation extraction: arity-2 pools, RE materialize and the pooled-feature loss; "
        "a change that helps NER but slows RE shows here"
    )
    layers = frozenset({"corpus", "mixer", "pools", "serialization", "model", "evaluation"})

    def prepare(self, seed: int, workdir: Path) -> dict:
        train = synth_re_corpus(2000, seed=2 * seed, skew=1.0)
        test = synth_re_corpus(500, seed=2 * seed + 1, skew=1.0)
        return {"seed": seed, "train": corpus_to_text(train), "test": corpus_to_text(test)}

    def run(self, inputs: dict, tracer) -> PassResult:
        seed = inputs["seed"]
        with tracer.span("corpus.parse"):
            train = parse_re(inputs["train"])
            test = parse_re(inputs["test"])
        with tracer.span("mixer.table"):
            table = EmbeddingTable.subword(_union_vocab(train, test), DIM, seed=TABLE_SEED)
        with tracer.span("pools.build"):
            pool = build_relation_pool(train)
        with tracer.span("mixer.generate"):
            gen = segmix_generate(
                train, pool, table, MixConfig(variant="relation", rate=1.0, alpha=8.0, seed=seed)
            )
        stream = io.StringIO()
        with tracer.span("serialization.save"):
            save_augmented(stream, gen.examples, train.relation_vocab, "re")
        size = stream.tell()
        stream.seek(0)
        with tracer.span("serialization.load"):
            loaded = load_augmented(stream)
        with tracer.span("mixer.encode"):
            originals = encode_re_corpus(train, table)
        examples = originals + loaded.examples
        config = TrainConfig(epochs=8, learning_rate=0.1, batch_size=16, patience=9, seed=seed)
        with tracer.span("model.train"):
            model = REModel.init(train.relation_vocab, DIM, seed=seed)
            trained = train_re(model, examples, config)
        with tracer.span("model.predict"):
            predicted = predict_re(trained.model, table, test)
        with tracer.span("evaluation.report"):
            re_report(test, predicted)
        counts = {
            "corpus.tokens": sum(len(s.tokens) for s in train.samples + test.samples),
            "pools.entries": len(pool),
            **_generation_counts(gen),
            "serialization.bytes": size,
            "model.epochs": len(trained.loss_trace),
            "model.rows": len(examples),
            "model.final_loss": trained.loss_trace[-1],
            "model.predict_rows": len(test),
        }
        return PassResult(counts, {"gen": gen, "loaded": loaded, "train": train, "table": table})

    def check(self, inputs: dict, result: PassResult, first: PassResult) -> list[str]:
        a = result.artifacts
        problems = mixing_problems(a["gen"], a["loaded"], a["train"].samples, a["table"])
        if result.counts["model.final_loss"] != first.counts["model.final_loss"]:
            problems.append("model.final_loss differs from the first pass")
        return problems


class Sweep:
    name = "sweep"
    why = (
        "the CLI sweep grid through the process pool, re-parsing both corpora per cell; "
        "the only workload that measures the cli layer and parallel path"
    )
    layers = frozenset({"cli"})
    grid = ("--sizes", "100,200", "--rates", "0.2", "--variants", "none,mention",
            "--seeds", "0,1")

    def prepare(self, seed: int, workdir: Path) -> dict:
        train = synth_tagged_corpus(1000, seed=2 * seed, skew=1.0, inflect=0.3)
        test = synth_tagged_corpus(1000, seed=2 * seed + 1, skew=0.0, inflect=0.3)
        train_path, test_path = workdir / "sweep-train.conll", workdir / "sweep-test.conll"
        train_path.write_text(corpus_to_text(train))
        test_path.write_text(corpus_to_text(test))
        output = workdir / "sweep.csv"
        argv = [
            "sweep", "--task", "ner", "--train", str(train_path), "--test", str(test_path),
            "--output", str(output), *self.grid, "--epochs", "20", "--dim", str(DIM),
            "--seed", str(seed), "--jobs", str(min(2, os.cpu_count() or 1)),
        ]
        return {"seed": seed, "argv": argv, "output": output}

    def run(self, inputs: dict, tracer) -> PassResult:
        with tracer.span("cli.sweep"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs["argv"])
        csv = inputs["output"].read_bytes()
        rows = csv.decode().splitlines()[1:]
        scores = [float(row.rsplit(",", 1)[1]) for row in rows]
        counts = {
            "cli.cells": len(rows),
            "evaluation.entity_f1": sum(scores) / len(scores) if scores else 0.0,
        }
        return PassResult(counts, {"code": code, "csv": csv})

    def check(self, inputs: dict, result: PassResult, first: PassResult) -> list[str]:
        problems = []
        if result.artifacts["code"] != 0:
            problems.append(f"sweep exited {result.artifacts['code']}")
        if result.counts["cli.cells"] != 8:
            problems.append(f"sweep wrote {result.counts['cli.cells']} cells, expected 8")
        if result.artifacts["csv"] != first.artifacts["csv"]:
            problems.append("sweep CSV differs from the first pass")
        return problems


WORKLOADS = {w.name: w for w in (Augment(), Tagger(), Relation(), Sweep())}
