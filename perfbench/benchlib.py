"""Measurement helpers for the segmix benchmark.

None of it imports segmix, so the helpers can be tested on their own:
span recording, self time under overlapping children, the tail
percentile, quartile spread, the reference computation that measures
machine speed, and the machine record written next to every result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the pass span, None for a pass."""

    id: int
    name: str
    start: float
    end: float
    pass_id: int
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans in memory; a disabled tracer times nothing and keeps nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0
        self._pass: tuple[int, int] | None = None  # (pass index, pass span id)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def run_pass(self, index: int):
        """Root span of one pass; every span opened inside is its child."""
        if not self.enabled:
            yield
            return
        span_id = self._new_id()
        self._pass = (index, span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._pass = None
            self.spans.append(Span(span_id, "pass", start, end, index, None))

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        if self._pass is None:
            raise RuntimeError(f"span {name!r} opened outside a pass")
        index, parent = self._pass
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(span_id, name, start, time.perf_counter(), index, parent))

    def write_jsonl(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that its children cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


def pass_breakdown(spans) -> dict[int, dict]:
    """Per pass: its duration, the self time of each layer, and the glue.

    Glue is the pass span's own self time: work between the layer calls
    that no span names.
    """
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    out = {}
    for root in by_parent.get(None, []):
        children = by_parent.get(root.id, [])
        layers: dict[str, float] = {}
        calls: dict[str, float] = {}
        for child in children:
            own = self_time(child, by_parent.get(child.id, []))
            layers[child.layer] = layers.get(child.layer, 0.0) + own
            calls[child.name] = calls.get(child.name, 0.0) + child.duration
        out[root.pass_id] = {
            "pass_s": root.duration,
            "glue_s": self_time(root, children),
            "layers": layers,
            "calls": calls,
        }
    return out


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest nearest-rank
    percentile that leaves at least ``min_beyond`` samples above it.

    With ``min_beyond`` samples or fewer no percentile qualifies; the
    maximum is returned as p100 with nothing beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - min_beyond
    if rank < 1:
        return 100.0, ordered[-1], 0
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


# Seconds the reference computation takes on the nominal machine; a
# measured time t next to a reference that took r reads t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 0.06


def reference_seconds() -> float:
    """Wall time of a fixed computation shaped like the package's work.

    Dict updates in an interpreter loop, a JSON round trip of many small
    strings, and small numpy arithmetic. The benchmark runs it next to
    each timed pass to measure how fast the machine is at that moment.
    """
    import numpy

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(300_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(5):
        json.loads(json.dumps([str(i) for i in range(10_000)]))
    row = numpy.ones(48)
    for _ in range(5_000):
        row = row * 1.0000001 + 1e-9
    return time.perf_counter() - start


def source_digest(package_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git checkout, else None."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs_dir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "segmix"),
    }
