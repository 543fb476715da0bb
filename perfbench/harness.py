"""Measurement: timed runs, set-up probes, the digest, and every metric.

An untraced run (``trace=False``) measures the end-to-end metrics.  It
runs the workload's points round-robin, each time on freshly built
systems, for ``seconds`` of wall time (at least one full pass), and
reports per point the median host time of its timed runs.  A traced run
(``trace=True``) first makes one untraced pass as the overhead reference,
then whole traced passes for the rest of ``seconds`` (at least one), and
reports the per-layer metrics of its median traced pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.runner import ExperimentRow
from repro.units import MiB

from .paper_ref import paper_error_pct
from .trace import LAYERS, Collector, Tracer
from .workloads import SIZES, WORKLOADS, Outcome, Point

__all__ = ["END_TO_END", "PER_LAYER", "Report", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics (untraced run): name -> unit
END_TO_END: Dict[str, str] = {
    "host_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "paper_err_pct": "%",
}

#: per-layer metrics (traced run): name -> unit
PER_LAYER: Dict[str, str] = {
    "pcie.self_s": "s", "pcie.resumes": "count", "pcie.calls": "count",
    "pcie.wire_mib": "MiB", "pcie.payload_ratio": "ratio",
    "mem.self_s": "s", "mem.resumes": "count", "mem.calls": "count",
    "mem.accesses": "count", "mem.mib": "MiB", "mem.turnarounds": "count",
    "nvme.self_s": "s", "nvme.resumes": "count", "nvme.calls": "count",
    "nvme.cmds": "count", "nvme.cmds_per_fetch": "ratio",
    "nvme.prp_list_reads": "count", "nvme.errors": "count",
    "core.self_s": "s", "core.resumes": "count", "core.calls": "count",
    "core.user_cmds": "count", "core.nvme_cmds": "count",
    "core.errors": "count",
    "spdk.self_s": "s", "spdk.resumes": "count", "spdk.calls": "count",
    "spdk.cmds": "count", "spdk.cpu_util_pct": "%",
    "net.self_s": "s", "net.resumes": "count", "net.calls": "count",
    "net.frames": "count", "net.pause_frames": "count",
    "net.dropped": "count",
    "fleet.self_s": "s", "fleet.resumes": "count",
    "fleet.requests": "count", "fleet.spilled": "count",
    "fleet.in_flight_end": "count",
    "apps.self_s": "s", "apps.resumes": "count", "apps.images": "count",
    "apps.pcie_mb_per_image": "MB",
    "fpga.self_s": "s", "fpga.resumes": "count", "fpga.calls": "count",
    "sim.self_s": "s", "sim.events": "count", "sim.events_per_host_s": "1/s",
    "trace.host_s": "s", "trace.overhead_pct": "%",
}

#: fresh interpreters timed per run for ``setup_s``
SETUP_SAMPLES = 5


@dataclass
class Sample:
    """One build + timed run of a point."""

    host_s: float
    outcome: Optional[Outcome] = None
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def digest(self) -> str:
        """sha256 of everything the run produced that must repeat."""
        assert self.outcome is not None
        doc = {"rows": [row.to_json() for row in self.outcome.rows],
               "ops_done": self.outcome.ops_done,
               "detail": self.outcome.detail, "counters": self.counters}
        text = json.dumps(doc, sort_keys=True, default=_plain)
        return hashlib.sha256(text.encode()).hexdigest()


def _plain(value: Any) -> Any:
    """JSON fallback for numpy scalars and arrays."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {value!r}")


@dataclass
class Report:
    """Everything one run found; :attr:`result` is the contract's JSON."""

    workload: str
    seed: int
    traced: bool
    result: Dict[str, Any]
    digest: str
    rows: List[ExperimentRow]
    #: failed invariants and out-of-band rows, by name
    missed: List[str]
    #: points that raised or did not repeat, with the reason
    problems: List[str]
    #: point name -> host seconds of each timed run
    samples: Dict[str, List[float]]
    #: traced runs: per (layer, kind) aggregates of the median pass
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    raw_spans: List[Tuple[int, int, str, str, float, float]] = field(
        default_factory=list)


def _measure(point: Point, tracer: Optional[Tracer] = None) -> Sample:
    """Build *point* on fresh systems, then time one run of it."""
    with Collector() as collector:
        try:
            state = point.build()
            gc.collect()  # no collection debt carried into the timed run
            if tracer is not None:
                tracer.on = True
            start = time.perf_counter()
            try:
                outcome = point.run(state)
            finally:
                host_s = time.perf_counter() - start
                if tracer is not None:
                    tracer.on = False
            counters = collector.counters()
        except Exception as exc:  # a failing point must not stop the run
            traceback.print_exc(file=sys.stderr)
            return Sample(0.0, error=f"{point.name}: {type(exc).__name__}: "
                                     f"{exc}")
    counters.update(outcome.counters)
    return Sample(host_s, outcome, counters)


def _round_robin(points: List[Point], seconds: float
                 ) -> Tuple[List[List[Sample]], float]:
    """Timed runs for *seconds* of wall time; also peak RSS after pass 1."""
    samples: List[List[Sample]] = [[] for _ in points]
    cost = [0.0] * len(points)
    deadline = time.perf_counter() + seconds
    rss_mib = 0.0
    k = 0
    while True:
        i = k % len(points)
        k += 1
        if k > len(points):
            if all(s[0].error for s in samples):
                break
            if samples[i][0].error:
                continue
            if time.perf_counter() + cost[i] > deadline:
                break
        began = time.perf_counter()
        samples[i].append(_measure(points[i]))
        cost[i] = time.perf_counter() - began
        if k == len(points):
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return samples, rss_mib


def _setup_seconds(workload: str, seed: int, size: str) -> List[float]:
    """Interpreter start to "ready" of fresh set-up probes, in seconds."""
    cmd = [sys.executable, "-m", "perfbench.setup_probe", workload,
           str(seed), size]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(ready - start)
    return times


def _judge(workload: str, points: List[Point], samples: List[List[Sample]]
           ) -> Tuple[str, List[ExperimentRow], List[str], List[str],
                      int, int]:
    """Digest, rows, missed bands, problems, ops attempted and failed."""
    rows: List[ExperimentRow] = []
    problems: List[str] = []
    digests = []
    attempted = failed = 0
    for point, runs in zip(points, samples):
        first = runs[0]
        for run in runs:
            attempted += point.ops
            if run.error:
                failed += point.ops
            else:
                failed += max(0, point.ops - run.outcome.ops_done)
        if first.error:
            problems.append(first.error)
            digests.append("failed")
            continue
        rows.extend(first.outcome.rows)
        digest = first.digest()
        digests.append(digest)
        for again in runs[1:]:
            if again.error:
                problems.append(again.error)
            elif again.digest() != digest:
                problems.append(f"{point.name}: a repeat run differed")
    missed = [f"{r.series}/{r.system}={r.measured:.6g} not in "
              f"{r.expected}" for r in rows if r.in_band is False]
    checks = WORKLOADS[workload].checks
    if checks is not None:
        missed += [name for name, held in checks(rows).items() if not held]
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    return digest, rows, missed, problems, attempted, failed


def _layer_metrics(counters: Dict[str, float],
                   spans: Dict[Tuple[str, str], List[float]],
                   calls: Counter, host_s: float) -> Dict[str, float]:
    self_s: Dict[str, float] = defaultdict(float)
    resumes: Counter = Counter()
    ncalls: Counter = Counter()
    for (layer, _kind), (count, seconds) in spans.items():
        self_s[layer] += seconds
        resumes[layer] += count
    for (layer, _kind), count in calls.items():
        ncalls[layer] += count
    c: Dict[str, float] = defaultdict(int, counters)
    # exact counters by metric name (0 where a layer did nothing) ...
    m: Dict[str, float] = {name: c[name] for name in PER_LAYER}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.resumes"] = resumes[layer]
        m[f"{layer}.calls"] = ncalls[layer]
    # ... and the metrics derived from them
    m.update({
        "pcie.wire_mib": c["pcie.wire_bytes"] / MiB,
        "pcie.payload_ratio": (c["pcie.payload_bytes"] / c["pcie.wire_bytes"]
                               if c["pcie.wire_bytes"] else 0.0),
        "mem.mib": c["mem.bytes"] / MiB,
        "nvme.cmds_per_fetch": (c["nvme.cmds"] / c["nvme.sqe_fetches"]
                                if c["nvme.sqe_fetches"] else 0.0),
        "spdk.cpu_util_pct": (100.0 * c["spdk.cpu_util_sum"] / c["spdk.drivers"]
                              if c["spdk.drivers"] else 0.0),
        "apps.pcie_mb_per_image": (c["apps.pcie_bytes"] / c["apps.images"]
                                   / 1e6 if c["apps.images"] else 0.0),
        "sim.self_s": host_s - sum(self_s.values()),
    })
    return m


def _sum_counters(samples: List[Sample]) -> Dict[str, float]:
    total: Dict[str, float] = defaultdict(int)
    for sample in samples:
        for name, value in sample.counters.items():
            total[name] += value
    return total


def run_workload(name: str, seed: int = 1, seconds: float = 20.0,
                 trace: bool = False, size: str = "full",
                 setup: bool = True) -> Report:
    """Run workload *name* once; ``setup=False`` skips the set-up probes."""
    points = WORKLOADS[name].points(seed, SIZES[size])
    if not trace:
        samples, rss_mib = _round_robin(points, seconds)
        digest, rows, missed, problems, attempted, failed = _judge(
            name, points, samples)
        host_s = sum(statistics.median(s.host_s for s in runs)
                     for runs in samples if not runs[0].error)
        setup_s = (statistics.median(_setup_seconds(name, seed, size))
                   if setup else 0.0)
        metrics = {"host_s": host_s, "setup_s": setup_s,
                   "peak_rss_mib": rss_mib,
                   "paper_err_pct": paper_error_pct(rows)}
        spans: Dict[str, Dict[str, float]] = {}
        raw: List[Tuple[int, int, str, str, float, float]] = []
    else:
        deadline = time.perf_counter() + seconds
        plain = [_measure(p) for p in points]
        passes = []
        with Tracer() as tracer:
            while True:
                began = time.perf_counter()
                runs = [_measure(p, tracer) for p in points]
                passes.append((runs, *tracer.take()))
                now = time.perf_counter()
                if now + (now - began) > deadline:
                    break
        raw = tracer.spans
        samples = [[p] + [runs[i] for runs, _, _ in passes]
                   for i, p in enumerate(plain)]
        digest, rows, missed, problems, attempted, failed = _judge(
            name, points, samples)
        pass_host = [sum(r.host_s for r in runs) for runs, _, _ in passes]
        median = sorted(range(len(passes)),
                        key=pass_host.__getitem__)[(len(passes) - 1) // 2]
        runs, agg, calls = passes[median]
        traced_s = pass_host[median]
        plain_s = sum(p.host_s for p in plain)
        metrics = _layer_metrics(_sum_counters(runs), agg, calls, traced_s)
        metrics["sim.events_per_host_s"] = (
            metrics["sim.events"] / plain_s if plain_s else 0.0)
        metrics["trace.host_s"] = traced_s
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1)
                                         if plain_s else 0.0)
        spans = {f"{layer}:{kind}": {"spans": a[0], "self_s": a[1],
                                     "calls": calls.get((layer, kind), 0)}
                 for (layer, kind), a in sorted(agg.items())}
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not (missed or problems or failed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return Report(name, seed, trace, result, digest, rows, missed, problems,
                  {p.name: [s.host_s for s in runs]
                   for p, runs in zip(points, samples)}, spans, raw)
