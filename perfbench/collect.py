"""Run the benchmark over several seeds and summarise it per workload.

    python3 perfbench/collect.py --seeds 0-9 --seconds 20 --trace \\
        --output perfbench/results/BENCH_<n>.json [--baseline perfbench/results/BENCH_<m>.json]

For each workload it runs ``run.py`` once per seed with tracing off and
reports each end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median) against the bound in
``BENCHMARK.json``. ``--trace`` adds one traced run per workload on the
first seed, for the per-layer figures. ``--baseline`` compares every
median with a summary written earlier by this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from benchlib import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, result record) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": quartile_spread(values)}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--output", type=Path, help="write the summary here as JSON")
    parser.add_argument("--baseline", type=Path, help="summary to compare medians with")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(args.baseline.read_text())["workloads"] if args.baseline else {}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        tails, wall = [], {}
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            tails.append(record["tail"])
            for name, value in record["wall"].items():
                wall.setdefault(name, []).append(value)
            summary["machine"] = record["machine"]
            summary["reference_nominal_s"] = record["reference_nominal_s"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"why": why.get(workload), "attempted": attempted, "failed": failed,
                 "tail": tails, "wall_clock": wall, "end_to_end": {}}
        print(f"\n{workload}: {attempted} passes over {len(seeds)} seeds, {failed} failed")
        for name, vals in values.items():
            stats = summarise(vals)
            entry["end_to_end"][name] = stats
            bound = bounds[name]["bound"]
            ok = name == "setup_s" or stats["spread"] < bound / 3
            steady &= ok
            line = (f"  {name:<12} median {stats['median']:.6g} {bounds[name]['unit']}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                    f"(bound {bound}){'' if ok else '  NOT STEADY'}")
            old = baseline.get(workload, {}).get("end_to_end", {}).get(name)
            if old:
                change = stats["median"] / old["median"] - 1.0
                line += f"  vs baseline {change:+.2%}{'  WORSE THAN BOUND' if change > bound else ''}"
            print(line)
        if args.trace:
            result, record = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            shares = {k: v for k, v in entry["per_layer"].items() if k.endswith(".share") and v}
            print("  shares " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
                  + f"; tracing overhead {entry['per_layer']['trace.overhead_s']:+.4f} s")
        summary["workloads"][workload] = entry
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("\nsteady" if steady else "\nnot steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
