"""Run one segmix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tagger --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy. The run
times ``import segmix`` in fresh interpreters (set-up), makes the
workload's inputs from the seed (not timed), then runs passes until
``--seconds`` have passed (and, untraced, at least MIN_PASSES of them),
checking every pass's output.

Times are reported at a nominal machine speed. On a shared machine the
speed of the CPU drifts by tens of percent over seconds to minutes, so
a fixed reference computation (``benchlib.reference_seconds``) is timed
after every pass and after every set-up import, and each time t is
reported as t * REF_NOMINAL_S / r, r being the reference time measured
around it. The raw wall-clock times are printed and kept in the result
file beside the scaled ones.

With ``--trace 0`` it prints the end-to-end metrics of untraced passes.
With ``--trace 1`` it alternates untraced and traced passes, records a
span around every call into a package layer, writes the spans to
``perfbench/out/`` and prints the per-layer metrics, including each
layer's self time and share of the pass and the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from benchlib import (  # noqa: E402
    REF_NOMINAL_S,
    Tracer,
    machine_info,
    pass_breakdown,
    reference_seconds,
    tail_percentile,
)

END_TO_END = {  # name: unit
    "setup_s": "s",
    "pass_s": "s",
    "pass_s_tail": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("corpus", "pools", "mixer", "serialization", "model", "evaluation", "cli")

# Per-layer metrics: name -> unit. Each timed metric is the median over
# traced passes of the summed duration of the spans of that name, scaled
# like the end-to-end times; a layer a workload never calls reads 0.
PER_LAYER = {
    "corpus.parse_s": "s",
    "corpus.tokens": "count",
    "mixer.table_s": "s",
    "pools.build_s": "s",
    "pools.entries": "count",
    "mixer.generate_s": "s",
    "mixer.us_per_example": "us",
    "mixer.requested": "count",
    "mixer.emitted": "count",
    "mixer.skipped": "count",
    "mixer.emit_ratio": "ratio",
    "mixer.encode_s": "s",
    "mixer.generate_over_train": "ratio",
    "serialization.save_s": "s",
    "serialization.load_s": "s",
    "serialization.bytes": "B",
    "serialization.save_mb_per_s": "MB/s",
    "serialization.load_mb_per_s": "MB/s",
    "model.train_s": "s",
    "model.epoch_s": "s",
    "model.rows_per_s": "1/s",
    "model.final_loss": "nats",
    "model.checkpoint_s": "s",
    "model.predict_s": "s",
    "model.predict_rows_per_s": "1/s",
    "evaluation.report_s": "s",
    "evaluation.entity_f1": "F1",
    "cli.sweep_s": "s",
    "cli.cells": "count",
    "cli.cell_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.pass_s": "s",
    "trace.glue_s": "s",
    "trace.glue_share": "ratio",
    "trace.overhead_s": "s",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import segmix, segmix.cli\n"
    "t = time.perf_counter() - t\n"
    "from benchlib import reference_seconds\n"
    "print(t, reference_seconds())\n"
)
IMPORT_REPEATS = 7
# An untraced run makes at least this many passes, so that pass_s_tail
# is a percentile with ten samples beyond it rather than the maximum.
MIN_PASSES = 11


def import_seconds() -> list[tuple[float, float]]:
    """(import seconds, reference seconds) in each of several fresh interpreters.

    One untimed import first, so that no bytecode compilation is counted.
    """
    samples = []
    for i in range(IMPORT_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            seconds, ref = done.stdout.split()
            samples.append((float(seconds), float(ref)))
    return samples


def nominal(seconds: float, ref: float) -> float:
    """A measured time scaled to the nominal machine speed."""
    return seconds * REF_NOMINAL_S / ref


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(breakdowns: list[dict], counts: dict, untraced_pass_s: float) -> dict:
    def median_of(get) -> float:
        return statistics.median(get(b) for b in breakdowns)

    def call(name: str) -> float:
        return median_of(lambda b: b["calls"].get(name, 0.0))

    values = {name: call(name[:-2]) for name in PER_LAYER if name.endswith("_s")}
    for key in ("corpus.tokens", "pools.entries", "mixer.requested", "mixer.emitted",
                "mixer.skipped", "serialization.bytes", "model.final_loss",
                "evaluation.entity_f1", "cli.cells"):
        values[key] = counts.get(key, 0)
    emitted, size = counts.get("mixer.emitted", 0), counts.get("serialization.bytes", 0)
    epochs = counts.get("model.epochs", 0)
    values["mixer.us_per_example"] = 1e6 * _ratio(values["mixer.generate_s"], emitted)
    values["mixer.emit_ratio"] = _ratio(emitted, counts.get("mixer.requested", 0))
    values["mixer.generate_over_train"] = _ratio(values["mixer.generate_s"], values["model.train_s"])
    values["serialization.save_mb_per_s"] = _ratio(size / 1e6, values["serialization.save_s"])
    values["serialization.load_mb_per_s"] = _ratio(size / 1e6, values["serialization.load_s"])
    values["model.epoch_s"] = _ratio(values["model.train_s"], epochs)
    values["model.rows_per_s"] = _ratio(counts.get("model.rows", 0) * epochs, values["model.train_s"])
    values["model.predict_rows_per_s"] = _ratio(
        counts.get("model.predict_rows", 0), values["model.predict_s"]
    )
    values["cli.cell_s"] = _ratio(values["cli.sweep_s"], values["cli.cells"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = median_of(lambda b: b["layers"].get(layer, 0.0))
        values[f"{layer}.share"] = median_of(lambda b: b["layers"].get(layer, 0.0) / b["pass_s"])
    values["trace.pass_s"] = median_of(lambda b: b["pass_s"])
    values["trace.glue_s"] = median_of(lambda b: b["glue_s"])
    values["trace.glue_share"] = median_of(lambda b: b["glue_s"] / b["pass_s"])
    values["trace.overhead_s"] = values["trace.pass_s"] - untraced_pass_s
    return {name: values[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "segmix" / "__init__.py").is_file():
        print(f"error: no segmix sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import segmix

    if Path(segmix.__file__).resolve().parent != SRC / "segmix":
        print(f"error: imported segmix from {segmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup = import_seconds()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return measure(workload, args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _scaled(breakdown: dict, factor: float) -> dict:
    return {
        "pass_s": breakdown["pass_s"] * factor,
        "glue_s": breakdown["glue_s"] * factor,
        "layers": {k: v * factor for k, v in breakdown["layers"].items()},
        "calls": {k: v * factor for k, v in breakdown["calls"].items()},
    }


def measure(workload, args, setup: list[tuple[float, float]], workdir: Path) -> int:
    inputs = workload.prepare(args.seed, workdir)
    tracer = Tracer(enabled=True)
    untraced_tracer = Tracer(enabled=False)
    passes = []  # one dict per completed pass: index, traced, wall and reference seconds
    first = last = None
    attempted = failed = 0
    min_untraced = 1 if args.trace else MIN_PASSES

    def count(traced: bool) -> int:
        return sum(p["traced"] == traced for p in passes)

    ref_before = reference_seconds()
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or count(False) < min_untraced
           or (args.trace and not count(True))):
        traced = bool(args.trace) and attempted % 2 == 1
        active = tracer if traced else untraced_tracer
        attempted += 1
        try:
            start = time.perf_counter()
            with active.run_pass(attempted):
                result = workload.run(inputs, active)
            wall = time.perf_counter() - start
            ref_after = reference_seconds()
            passes.append({"index": attempted, "traced": traced, "wall_s": wall,
                           "ref_s": (ref_before + ref_after) / 2})
            ref_before = ref_after
            first = first or result
            problems = workload.check(inputs, result, first)
        except Exception:  # a pass that raises counts as failed and ends the run
            traceback.print_exc()
            failed += 1
            break
        if traced:
            seen = {s.layer for s in tracer.spans if s.pass_id == attempted and s.parent is not None}
            if seen != workload.layers:
                problems.append(f"traced layers {sorted(seen)} != expected {sorted(workload.layers)}")
        if problems:
            failed += 1
            print(f"pass {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        last = result
    if last is None or (args.trace and not count(True)):
        print("error: no pass completed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p for p in passes if not p["traced"]]
    untraced_s = [nominal(p["wall_s"], p["ref_s"]) for p in untraced]
    pct, tail, beyond = tail_percentile(untraced_s)
    end_to_end = {
        "setup_s": statistics.median(nominal(t, ref) for t, ref in setup),
        "pass_s": statistics.median(untraced_s),
        "pass_s_tail": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "setup_s": statistics.median(t for t, _ in setup),
        "pass_s": statistics.median(p["wall_s"] for p in untraced),
        "reference_s": statistics.median(p["ref_s"] for p in passes),
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(ROOT),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "reference_nominal_s": REF_NOMINAL_S,
        "setup": [{"wall_s": t, "ref_s": ref} for t, ref in setup],
        "passes": passes,
        "wall": wall,
        "tail": {"percentile": pct, "samples": len(untraced_s), "beyond": beyond},
        "counts": last.counts,
        "end_to_end": end_to_end,
    }
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"passes {attempted} ({count(True)} traced), failed {failed}, "
          f"fail_ratio {failed / attempted:.4f}")
    print(f"wall clock: setup {wall['setup_s']:.4f} s, pass {wall['pass_s']:.4f} s, "
          f"reference {wall['reference_s']:.4f} s (nominal {REF_NOMINAL_S} s)")
    if args.trace:
        factors = {p["index"]: REF_NOMINAL_S / p["ref_s"] for p in passes if p["traced"]}
        breakdowns = [_scaled(b, factors[i]) for i, b in pass_breakdown(tracer.spans).items()]
        metrics = layer_metrics(breakdowns, last.counts, end_to_end["pass_s"])
        units = PER_LAYER
        tracer.write_jsonl(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl",
                           {"workload": workload.name, "seed": args.seed, "passes": passes})
        record["per_layer"] = metrics
        for layer in LAYERS:
            print(f"layer {layer:<14} self {metrics[layer + '.self_s']:.4f} s  "
                  f"share {100 * metrics[layer + '.share']:5.1f}%")
        print(f"glue {metrics['trace.glue_s']:.4f} s ({100 * metrics['trace.glue_share']:.1f}%), "
              f"tracing overhead {metrics['trace.overhead_s']:+.5f} s per pass")
    else:
        metrics, units = end_to_end, END_TO_END
        if "evaluation.entity_f1" in last.counts:
            print(f"entity_f1 {last.counts['evaluation.entity_f1']:.4f} F1")
    for key, value in metrics.items():
        extra = f" (p{pct:.1f} of {len(untraced_s)} passes, {beyond} beyond)" if key == "pass_s_tail" else ""
        print(f"{key} {value:.6g} {units[key]}{extra}")
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
