"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from benchlib import (  # noqa: E402
    Span,
    Tracer,
    covered,
    pass_breakdown,
    quartile_spread,
    self_time,
    tail_percentile,
)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    assert tail_percentile(samples) == (90.0, 90, 10)
    assert tail_percentile(range(1, 21)) == (50.0, 10, 10)
    pct, value, beyond = tail_percentile(range(1, 1001))
    assert (pct, value, beyond) == (99.0, 990, 10)


def test_tail_percentile_with_too_few_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tail_percentile(range(1, 11)) == (100.0, 10, 0)
    pct, value, beyond = tail_percentile(range(1, 12))
    assert value == 1 and beyond == 10 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail_percentile([])


def _span(id_, start, end, parent=1, name="mixer.generate"):
    return Span(id_, name, start, end, 0, parent)


def test_self_time_with_overlapping_children_and_gaps():
    parent = _span(1, 0.0, 10.0, parent=None, name="pass")
    children = [_span(2, 1.0, 3.0), _span(3, 2.0, 5.0), _span(4, 7.0, 8.0)]
    # union of children is [1, 5] + [7, 8]: 5 of the 10 seconds
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span(1, 0.0, 10.0, parent=None, name="pass")
    children = [_span(2, -2.0, 1.0), _span(3, 9.0, 12.0), _span(4, 20.0, 30.0)]
    assert self_time(parent, children) == pytest.approx(8.0)
    assert covered([(0.0, 4.0), (0.0, 4.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(4.0)


def test_pass_breakdown_sums_layers_and_keeps_glue():
    spans = [
        _span(1, 0.0, 10.0, parent=None, name="pass"),
        _span(2, 1.0, 3.0, name="corpus.parse"),
        _span(3, 3.0, 4.0, name="corpus.parse"),
        _span(4, 4.0, 9.0, name="mixer.generate"),
    ]
    (only,) = pass_breakdown(spans).values()
    assert only["pass_s"] == pytest.approx(10.0)
    assert only["glue_s"] == pytest.approx(2.0)
    assert only["layers"] == pytest.approx({"corpus": 3.0, "mixer": 5.0})
    assert only["calls"] == pytest.approx({"corpus.parse": 3.0, "mixer.generate": 5.0})


def test_tracer_parents_spans_to_their_pass_and_disabled_keeps_nothing():
    tracer = Tracer(enabled=True)
    for index in (1, 2):
        with tracer.run_pass(index):
            with tracer.span("model.train"):
                pass
    roots = {s.pass_id: s.id for s in tracer.spans if s.parent is None}
    children = [s for s in tracer.spans if s.parent is not None]
    assert sorted(roots) == [1, 2]
    assert all(s.parent == roots[s.pass_id] and s.layer == "model" for s in children)
    with pytest.raises(RuntimeError):
        with tracer.span("outside"):
            pass
    off = Tracer(enabled=False)
    with off.run_pass(1), off.span("model.train"):
        pass
    assert off.spans == []


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    # statistics.quantiles (exclusive method) gives 1.5, 3 and 4.5 for 1..5
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_benchmark_json_matches_the_driver():
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def _mixed_augment_pass():
    from segmix import EmbeddingTable, MixConfig, load_augmented, save_augmented, segmix_generate
    from segmix import synth_tagged_corpus

    corpus = synth_tagged_corpus(60, seed=3)
    table = EmbeddingTable.subword(corpus.token_vocab, 8, seed=0)
    gen = segmix_generate(corpus, None, table, MixConfig(variant="mention", rate=1.0, seed=3))
    stream = io.StringIO()
    save_augmented(stream, gen.examples, corpus.label_vocab, "ner")
    stream.seek(0)
    return gen, load_augmented(stream), corpus, table


def test_mixing_checks_pass_and_catch_damage():
    from workloads import mixing_problems

    gen, loaded, corpus, table = _mixed_augment_pass()
    assert mixing_problems(gen, loaded, corpus.sentences, table) == []

    first = gen.examples[0]
    outside = [i for i in range(len(first)) if not any(s <= i < e for s, e in first.provenance.mixed_spans)]
    first.embeddings[outside[0], 0] += 1.0
    problems = mixing_problems(gen, loaded, corpus.sentences, table)
    assert any("outside their mixed spans" in p for p in problems)
    assert any("differ after save/load" in p for p in problems)

    gen, loaded, corpus, table = _mixed_augment_pass()
    gen.examples[1].provenance = dataclasses.replace(gen.examples[1].provenance, lam=1.0)
    loaded.examples[1].provenance = gen.examples[1].provenance
    gen.skipped += 1
    problems = mixing_problems(gen, loaded, corpus.sentences, table)
    assert any("lambda outside" in p for p in problems)
    assert any("!= requested" in p for p in problems)
