"""Where CPython's cyclic garbage collector runs in a benchmark workload.

Runs passes of one ``perfbench`` workload as ``perfbench/run.py`` runs
untraced ones: each pass is followed by the reference computation and the
workload's check, and the results of the first and of the latest pass are
kept alive while the next one runs. A ``gc.callbacks`` hook counts every
collection and its milliseconds by generation and by the span it ran in.
A collection between spans is counted as ``after <span>``, the span that
closed last; the reference computation and the check are spans of their
own, outside the pass. Prints one block of lines per pass. Standard
library only, beside what the workloads import::

    python tools/gcprobe.py --workload augment [--passes 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATIONS = (0, 1, 2)


class Probe:
    """A workload's tracer that books each collection to the span it ran in."""

    def __init__(self):
        self.where = "start"
        self.order: list[str] = []  # the regions of the current pass, in the order entered
        self.spans: set[str] = set()
        self.seen: dict[tuple[str, int], list] = {}  # (region, generation) -> [count, seconds]
        self._started = 0.0

    def _enter(self, region: str) -> None:
        self.where = region
        if region not in self.order:
            self.order.append(region)

    @contextmanager
    def span(self, name: str):
        self.spans.add(name)
        self._enter(name)
        try:
            yield
        finally:
            self._enter(f"after {name}")

    def reset(self) -> None:
        self.order, self.seen = [], {}
        self._enter("start")

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        booked = self.seen.setdefault((self.where, info["generation"]), [0, 0.0])
        booked[0] += 1
        booked[1] += time.perf_counter() - self._started

    def lines(self) -> list[str]:
        width = max(map(len, self.order))
        rows = []
        for region in self.order:
            cells = [self.seen.get((region, g), [0, 0.0]) for g in GENERATIONS]
            if region not in self.spans and not any(n for n, _ in cells):
                continue  # a gap between spans is listed only when something ran in it
            rows.append(f"  {region:<{width}}" + "".join(
                f"  gen{g} {n:>3} {1e3 * s:7.2f} ms" for g, (n, s) in zip(GENERATIONS, cells)))
        return rows

    def total(self, regions) -> tuple[int, float]:
        booked = [v for (region, _), v in self.seen.items() if region in regions]
        return sum(n for n, _ in booked), sum(s for _, s in booked)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.passes < 1 or args.seed < 0:
        parser.error("--passes must be >= 1 and --seed >= 0")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from benchlib import reference_seconds
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as workdir:
        return probe_passes(workload, workload.prepare(args.seed, Path(workdir)), args.passes,
                            reference_seconds)


def probe_passes(workload, inputs: dict, passes: int, reference_seconds) -> int:
    """Run and print ``passes`` probed passes; 1 if a check failed."""
    probe = Probe()
    first = last = None
    failed = 0
    gc.callbacks.append(probe)
    try:
        for index in range(1, passes + 1):
            probe.reset()
            start = time.perf_counter()
            result = workload.run(inputs, probe)
            wall = time.perf_counter() - start
            in_pass = set(probe.order)
            with probe.span("reference"):
                reference_seconds()
            first = first or result
            with probe.span("check"):
                problems = workload.check(inputs, result, first)
            failed += bool(problems)
            count, seconds = probe.total(in_pass)
            print(f"pass {index}: {wall:.4f} s, {count} collections and {1e3 * seconds:.2f} ms "
                  f"of gc in the pass{'; check failed: ' + '; '.join(problems) if problems else ''}")
            print("\n".join(probe.lines()))
            last = result  # kept alive through the next pass, as run.py keeps it
    finally:
        gc.callbacks.remove(probe)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
