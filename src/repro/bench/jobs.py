"""Deterministic parallel experiment runner: the bench job graph.

The full reproduction decomposes into a flat list of spawn-safe
:class:`JobSpec` points — one per independent (experiment, system,
config) cell — grouped into :class:`Stage`\\ s that remember the declared
order.  Every point builds its own private ``Simulator`` inside the
worker, so jobs share no state and can execute on any number of
``ProcessPoolExecutor`` workers — since this PR, the *persistent warm*
pool of :mod:`repro.bench.pool`, fed one round-robin batch per worker
(:func:`run_batch`) so dispatch/pickle overhead is paid per worker, not
per job.  The merge step reassembles per-job rows in declared order,
which makes the rendered report **byte-identical** to the serial run at
any worker count (``--jobs 1`` executes in-process in declared order,
preserving the historical serial behaviour exactly).

Payloads crossing the process boundary are plain JSON (rows via
``repro.bench.runner``, case-study runs via ``CaseStudyResult.to_json``),
which is also the unit the content-addressed cache in
``repro.bench.cache`` stores — a job that already ran against unchanged
code is a cache hit, not a re-simulation.

This file is allowlisted for wall-clock reads in SIM004: it *times* the
simulations for host-side progress reporting (stderr only — never in the
report text); the simulated workloads themselves stay deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import (Any, Callable, Collection, Dict, List, Optional,
                    Sequence, Tuple)

from ..apps.case_study import CaseStudyResult, IMPLEMENTATIONS
from ..units import KiB, MiB
from .cache import ResultCache
from .experiments.ablations import (ABLATION_TITLES, BURST_SIZES,
                                    HBM_MEMORIES, ablation_buffer_size_point,
                                    ablation_burst_point,
                                    ablation_flow_control_point,
                                    ablation_gen5_point, ablation_hbm_point,
                                    ablation_multi_ssd_point,
                                    ablation_ooo_point,
                                    ablation_queue_depth_point)
from .experiments.fault_tolerance import (DEFAULT_FAULT_RATES,
                                          ablation_fault_rate_point)
from .experiments.fig4 import SYSTEMS, fig4a_point, fig4b_point, fig4c_point
from .experiments.fork_sweep import FORK_SWEEP_TITLE, fork_sweep_point
from .experiments.fleet import (FLEET_NODE_COUNTS, FLEET_SCALE_SKEW,
                                FLEET_SKEW_NODES, FLEET_SKEWS, FLEET_TITLE,
                                fleet_incast_point, fleet_scale_point)
from .experiments.fig6_fig7 import (case_study_point, fig6_from_results,
                                    fig7_from_results)
from .experiments.table1 import table1_point
from .paper import CLAIMS, TABLE1
from .pool import get_pool
from .runner import ExperimentResult, rows_from_json, rows_to_json

__all__ = ["JobSpec", "Stage", "RunStats", "EXPERIMENTS", "PROFILES",
           "build_plan", "execute_job", "execute_plan", "render_report",
           "results_to_json", "run_batch"]


# --------------------------------------------------------------- job specs
@dataclass(frozen=True)
class JobSpec:
    """One independent simulation point; picklable and spawn-safe.

    ``fn`` names an entry in :data:`POINT_FUNCTIONS`; ``kwargs`` is a
    sorted tuple of (name, JSON value) pairs so the spec is hashable and
    has a canonical form for cache keying.
    """

    experiment: str                       # stage id, e.g. 'fig4a'
    point: str                            # unique within the stage
    fn: str                               # key into POINT_FUNCTIONS
    kwargs: Tuple[Tuple[str, Any], ...]   # sorted (name, value) pairs

    @property
    def label(self) -> str:
        return f"{self.experiment}:{self.point}"

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)


def _job(experiment: str, point: str, fn: str, **kwargs: Any) -> JobSpec:
    return JobSpec(experiment, point, fn, tuple(sorted(kwargs.items())))


# --------------------------------------------------- point function registry
#: ``JobSpec.fn`` -> the ``*_point`` function it runs.  Worker processes
#: resolve entries by name after import (spawn-safe); :func:`execute_job`
#: turns the return value into the JSON payload the cache stores.
POINT_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "table1_point": table1_point,
    "fig4a_point": fig4a_point,
    "fig4b_point": fig4b_point,
    "fig4c_point": fig4c_point,
    "case_study_point": case_study_point,
    "ablation_qd_point": ablation_queue_depth_point,
    "ablation_ooo_point": ablation_ooo_point,
    "ablation_gen5_point": ablation_gen5_point,
    "ablation_multi_ssd_point": ablation_multi_ssd_point,
    "ablation_hbm_point": ablation_hbm_point,
    "ablation_burst_point": ablation_burst_point,
    "ablation_fc_point": ablation_flow_control_point,
    "ablation_bufsize_point": ablation_buffer_size_point,
    "ablation_faults_point": ablation_fault_rate_point,
    "fleet_scale_point": fleet_scale_point,
    "fleet_incast_point": fleet_incast_point,
    "fork_sweep_point": fork_sweep_point,
}


def execute_job(spec: JobSpec) -> Any:
    """Run one job in the current process; the worker entry point.

    Returns the JSON payload: ``to_json()`` of a case-study run, the
    serialized rows of every other point.
    """
    out = POINT_FUNCTIONS[spec.fn](**spec.kwargs_dict())
    if isinstance(out, CaseStudyResult):
        return out.to_json()
    return rows_to_json(out)


def run_batch(specs: Sequence[JobSpec]) -> List[Any]:
    """Run a batch of jobs in the current worker, in the given order.

    Batching is the dispatch-side half of the warm-pool optimization:
    one pickle/submit round-trip per *worker* instead of per *job*
    amortizes executor overhead across the many short point-jobs.
    Results come back positionally aligned with *specs*.
    """
    return [execute_job(spec) for spec in specs]


# ------------------------------------------------------------------ stages
MergeFn = Callable[[List[Any]], List[ExperimentResult]]


@dataclass
class Stage:
    """One report section: its jobs in declared order plus the merge."""

    label: str                  # progress label, e.g. 'Fig 4a'
    experiment: str             # id used by --only / --list
    jobs: List[JobSpec]
    #: merge closures are per-instance, so they don't take part in
    #: equality — two plans are equal when their job graphs are.
    merge: MergeFn = field(repr=False, compare=False,
                           default=lambda payloads: [])


def _merge_rows(experiment: str, title: str) -> MergeFn:
    """Concatenate per-job rows in declared order into one result."""
    def merge(payloads: List[Any]) -> List[ExperimentResult]:
        result = ExperimentResult(experiment, title)
        for payload in payloads:
            result.rows.extend(rows_from_json(payload))
        return [result]
    return merge


def _merge_case_study(payloads: List[Any]) -> List[ExperimentResult]:
    """Rebuild the per-implementation dict, then derive Figs 6 and 7."""
    results = {}
    for doc in payloads:
        run = CaseStudyResult.from_json(doc)
        results[run.implementation] = run
    return [fig6_from_results(results), fig7_from_results(results)]


# ------------------------------------------------------------------- plans
#: workload sizes per profile: 'full' and 'quick' are ``python -m
#: repro.bench [--quick]`` (the ablations run at the same sizes in both);
#: 'tiny' is the test/smoke profile (1-2 MiB transfers).
PROFILES: Dict[str, Dict[str, int]] = {
    "full": dict(seq_bytes=512 * MiB, rand_bytes=32 * MiB, fig4c_samples=250,
                 images=48, warmup_images=8, qd_bytes=24 * MiB,
                 ooo_bytes=24 * MiB, gen5_bytes=256 * MiB,
                 multi_ssd_bytes=128 * MiB, hbm_bytes=96 * MiB,
                 burst_bytes=128 * MiB, fc_frames=400,
                 bufsize_bytes=128 * MiB, fault_rand_bytes=8 * MiB,
                 fault_seq_bytes=32 * MiB, fleet_requests=4000,
                 fleet_objects=2048, fleet_scale_gap_ns=2000,
                 fleet_skew_gap_ns=4000, fleet_incast_senders=8,
                 fleet_incast_mib=4, fork_branches=16,
                 fork_warm_bytes=4 * MiB, fork_branch_bytes=256 * KiB),
    "quick": dict(seq_bytes=128 * MiB, rand_bytes=16 * MiB,
                  fig4c_samples=150, images=24, warmup_images=4,
                  qd_bytes=24 * MiB, ooo_bytes=24 * MiB,
                  gen5_bytes=256 * MiB, multi_ssd_bytes=128 * MiB,
                  hbm_bytes=96 * MiB, burst_bytes=128 * MiB, fc_frames=400,
                  bufsize_bytes=128 * MiB, fault_rand_bytes=8 * MiB,
                  fault_seq_bytes=32 * MiB, fleet_requests=1500,
                  fleet_objects=1024, fleet_scale_gap_ns=2000,
                  fleet_skew_gap_ns=4000, fleet_incast_senders=6,
                  fleet_incast_mib=2, fork_branches=8,
                  fork_warm_bytes=2 * MiB, fork_branch_bytes=128 * KiB),
    "tiny": dict(seq_bytes=2 * MiB, rand_bytes=1 * MiB, fig4c_samples=20,
                 images=6, warmup_images=1, qd_bytes=1 * MiB,
                 ooo_bytes=1 * MiB, gen5_bytes=2 * MiB,
                 multi_ssd_bytes=2 * MiB, hbm_bytes=2 * MiB,
                 burst_bytes=2 * MiB, fc_frames=60, bufsize_bytes=2 * MiB,
                 fault_rand_bytes=1 * MiB, fault_seq_bytes=2 * MiB,
                 fleet_requests=160, fleet_objects=128,
                 fleet_scale_gap_ns=4000, fleet_skew_gap_ns=6000,
                 fleet_incast_senders=3, fleet_incast_mib=1,
                 fork_branches=4, fork_warm_bytes=512 * KiB,
                 fork_branch_bytes=64 * KiB),
}

#: stage ids in declared (report) order; the vocabulary of ``--only``.
EXPERIMENTS: Tuple[str, ...] = (
    "table1", "fig4a", "fig4b", "fig4c", "case_study", "ablation_qd",
    "ablation_ooo", "ablation_gen5", "ablation_multi_ssd", "ablation_hbm",
    "ablation_burst", "ablation_fc", "ablation_bufsize", "ablation_faults",
    "fleet", "fork_sweep")


def build_plan(profile: str = "full",
               only: Optional[Collection[str]] = None,
               coarsening: str = "train") -> List[Stage]:
    """The full job graph in declared order, optionally filtered.

    ``only`` keeps the named stages (ids from :data:`EXPERIMENTS`);
    unknown names raise ``ValueError`` listing the vocabulary.
    ``coarsening`` selects the frame-train fast path (``"train"``, the
    default) or the per-frame reference path (``"per_frame"``) for the
    case-study, A7 flow-control and fleet jobs; both produce
    byte-identical reports — the knob only changes wall-clock (and those
    jobs' cache keys, since it is part of their kwargs).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    if coarsening not in ("train", "per_frame"):
        raise ValueError(f"unknown coarsening {coarsening!r}; "
                         f"choose from ['per_frame', 'train']")
    sizes = PROFILES[profile]
    if only is not None:
        unknown = sorted(set(only) - set(EXPERIMENTS))
        if unknown:
            raise ValueError(f"unknown experiment(s) {unknown}; "
                             f"choose from {list(EXPERIMENTS)}")

    stages = [
        Stage("Table 1", "table1",
              [_job("table1", variant, "table1_point", variant=variant)
               for variant in TABLE1],
              _merge_rows("table1", "NVMe Streamer FPGA utilization")),
        Stage("Fig 4a", "fig4a",
              [_job("fig4a", f"{kind}/{name}", "fig4a_point", kind=kind,
                    system_name=name, transfer_bytes=sizes["seq_bytes"],
                    repetitions=2)
               for kind in ("seq_read", "seq_write") for name in SYSTEMS],
              _merge_rows("fig4a", "sequential NVMe bandwidth (GB/s)")),
        Stage("Fig 4b", "fig4b",
              [_job("fig4b", f"{kind}/{name}", "fig4b_point", kind=kind,
                    system_name=name, transfer_bytes=sizes["rand_bytes"])
               for kind in ("rand_read", "rand_write") for name in SYSTEMS],
              _merge_rows("fig4b", "random 4 KiB NVMe bandwidth (GB/s)")),
        Stage("Fig 4c", "fig4c",
              [_job("fig4c", name, "fig4c_point", system_name=name,
                    samples=sizes["fig4c_samples"])
               for name in SYSTEMS],
              _merge_rows("fig4c", "single 4 KiB access latency (us)")),
        Stage("case study", "case_study",
              [_job("case_study", impl, "case_study_point",
                    implementation=impl, n_images=sizes["images"],
                    warmup_images=sizes["warmup_images"],
                    coarsening=coarsening)
               for impl in IMPLEMENTATIONS],
              _merge_case_study),
        Stage("A1 queue depth", "ablation_qd",
              [_job("ablation_qd", f"qd{qd}", "ablation_qd_point", qd=qd,
                    total_bytes=sizes["qd_bytes"])
               for qd in (16, 64, 256)],
              _merge_rows("ablation_qd", ABLATION_TITLES["ablation_qd"])),
        Stage("A2 retirement", "ablation_ooo",
              [_job("ablation_ooo", policy, "ablation_ooo_point",
                    policy=policy, total_bytes=sizes["ooo_bytes"])
               for policy in ("in_order", "out_of_order")],
              _merge_rows("ablation_ooo", ABLATION_TITLES["ablation_ooo"])),
        Stage("A3 Gen5", "ablation_gen5",
              [_job("ablation_gen5", f"{generation}/{kind}",
                    "ablation_gen5_point", generation=generation, kind=kind,
                    transfer_bytes=sizes["gen5_bytes"])
               for generation in ("gen4", "gen5")
               for kind in ("seq_read", "seq_write")],
              _merge_rows("ablation_gen5", ABLATION_TITLES["ablation_gen5"])),
        Stage("A4 multi-SSD", "ablation_multi_ssd",
              [_job("ablation_multi_ssd", f"{n}_ssd",
                    "ablation_multi_ssd_point", n=n,
                    transfer_bytes=sizes["multi_ssd_bytes"])
               for n in (1, 2)],
              _merge_rows("ablation_multi_ssd",
                          ABLATION_TITLES["ablation_multi_ssd"])),
        Stage("A6 buffer memory", "ablation_hbm",
              [_job("ablation_hbm", memory, "ablation_hbm_point",
                    memory=memory, n_ssds=2,
                    transfer_bytes=sizes["hbm_bytes"])
               for memory in HBM_MEMORIES],
              _merge_rows("ablation_hbm", ABLATION_TITLES["ablation_hbm"])),
        Stage("A5 burst coalescing", "ablation_burst",
              [_job("ablation_burst", burst_label, "ablation_burst_point",
                    burst_label=burst_label,
                    transfer_bytes=sizes["burst_bytes"])
               for burst_label in BURST_SIZES],
              _merge_rows("ablation_burst",
                          ABLATION_TITLES["ablation_burst"])),
        Stage("A7 flow control", "ablation_fc",
              [_job("ablation_fc", fc_label, "ablation_fc_point",
                    fc_label=fc_label, n_frames=sizes["fc_frames"],
                    coarsening=coarsening)
               for fc_label in ("flow_control_on", "flow_control_off")],
              _merge_rows("ablation_fc", ABLATION_TITLES["ablation_fc"])),
        Stage("A8 buffer size", "ablation_bufsize",
              [_job("ablation_bufsize", f"{mib}MiB",
                    "ablation_bufsize_point", mib=mib,
                    transfer_bytes=sizes["bufsize_bytes"])
               for mib in (2, 4, 8)],
              _merge_rows("ablation_bufsize",
                          ABLATION_TITLES["ablation_bufsize"])),
        Stage("A9 fault rate", "ablation_faults",
              [_job("ablation_faults", f"rate{rate:g}",
                    "ablation_faults_point", rate=rate,
                    rand_bytes=sizes["fault_rand_bytes"],
                    seq_bytes=sizes["fault_seq_bytes"])
               for rate in DEFAULT_FAULT_RATES],
              _merge_rows(
                  "ablation_faults",
                  "delivered read bandwidth + recovery vs injected "
                  "fault rate")),
        Stage("fleet", "fleet",
              [_job("fleet", f"scale/{n}n", "fleet_scale_point",
                    n_nodes=n, zipf_skew=FLEET_SCALE_SKEW,
                    n_requests=sizes["fleet_requests"],
                    n_objects=sizes["fleet_objects"],
                    mean_interarrival_ns=sizes["fleet_scale_gap_ns"],
                    coarsening=coarsening)
               for n in FLEET_NODE_COUNTS]
              + [_job("fleet", f"skew/z{skew:g}", "fleet_scale_point",
                      n_nodes=FLEET_SKEW_NODES, zipf_skew=skew,
                      n_requests=sizes["fleet_requests"],
                      n_objects=sizes["fleet_objects"],
                      mean_interarrival_ns=sizes["fleet_skew_gap_ns"],
                      coarsening=coarsening)
                 for skew in FLEET_SKEWS]
              + [_job("fleet", "incast", "fleet_incast_point",
                      n_senders=sizes["fleet_incast_senders"],
                      put_mib=sizes["fleet_incast_mib"],
                      coarsening=coarsening)],
              _merge_rows("fleet", FLEET_TITLE)),
        # One job carries the WHOLE branchy sweep: the shared warm prefix
        # lives in process memory, so the branches cannot be split across
        # pool workers the way independent points are.  The payload is
        # mechanism-independent (fork on single-threaded POSIX workers,
        # replay elsewhere), so caching and --jobs N byte-identity hold.
        Stage("fork sweep", "fork_sweep",
              [_job("fork_sweep", f"storm_x{sizes['fork_branches']}",
                    "fork_sweep_point",
                    n_branches=sizes["fork_branches"],
                    warm_bytes=sizes["fork_warm_bytes"],
                    branch_bytes=sizes["fork_branch_bytes"])],
              _merge_rows("fork_sweep", FORK_SWEEP_TITLE)),
    ]
    if only is not None:
        stages = [s for s in stages if s.experiment in only]
    return stages


# --------------------------------------------------------------- execution
@dataclass
class RunStats:
    """Cache and execution counters for one ``execute_plan`` call."""

    hits: int = 0
    misses: int = 0
    executed: int = 0
    #: host seconds of the jobs run in this process (``jobs == 1``), by
    #: stage label in declared order; pool workers' jobs are not timed
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.executed} job(s) simulated, "
                f"{self.hits} cache hit(s), {self.misses} miss(es)")


def execute_plan(stages: Sequence[Stage], jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 echo: Optional[Callable[[str], None]] = None,
                 ) -> Tuple[List[ExperimentResult], RunStats]:
    """Run every job of *stages* and merge results in declared order.

    ``jobs == 1`` executes in-process, in declared order — the historical
    serial behaviour.  ``jobs > 1`` groups the cache misses into one
    round-robin batch per worker and fans the batches out over the
    persistent warm pool (:mod:`repro.bench.pool`); completion order is
    irrelevant because each payload is merged back at its declared
    position, so the rendered report is byte-identical at any worker
    count.  With a *cache*, hits skip simulation entirely and fresh
    payloads are stored (from this process, atomically) after execution.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    echo = echo or (lambda message: None)
    stats = RunStats()
    indexed = [(si, ji, spec) for si, stage in enumerate(stages)
               for ji, spec in enumerate(stage.jobs)]
    payloads: Dict[Tuple[int, int], Any] = {}
    pending = []
    for si, ji, spec in indexed:
        if cache is not None:
            payload = cache.load(spec.fn, spec.kwargs_dict())
            if payload is not None:
                payloads[si, ji] = payload
                stats.hits += 1
                echo(f"  {spec.label}: cache hit")
                continue
            stats.misses += 1
        pending.append((si, ji, spec))

    if jobs == 1 or len(pending) <= 1:
        for si, ji, spec in pending:
            t0 = time.perf_counter()
            payloads[si, ji] = execute_job(spec)
            took = time.perf_counter() - t0
            echo(f"  {spec.label}: ran in {took:.1f}s")
            label = stages[si].label
            stats.stage_seconds[label] = \
                stats.stage_seconds.get(label, 0.0) + took
    elif pending:
        pool = get_pool(jobs)
        # Round-robin striping interleaves adjacent (similar-cost) jobs
        # across batches so the per-worker batches finish at roughly the
        # same time; a contiguous split would serialize the heavy
        # case-study stage onto one worker.
        n_batches = min(jobs, len(pending))
        batches = [pending[b::n_batches] for b in range(n_batches)]
        futures = {pool.submit(run_batch,
                               [spec for _, _, spec in batch]): batch
                   for batch in batches}
        t0 = time.perf_counter()
        for future in as_completed(futures):
            batch = futures[future]
            for (si, ji, spec), payload in zip(batch, future.result()):
                payloads[si, ji] = payload
                echo(f"  {spec.label}: done at "
                     f"+{time.perf_counter() - t0:.1f}s")
    stats.executed = len(pending)
    if cache is not None:
        for si, ji, spec in pending:
            cache.store(spec.fn, spec.kwargs_dict(), payloads[si, ji])

    results: List[ExperimentResult] = []
    for si, stage in enumerate(stages):
        results.extend(
            stage.merge([payloads[si, ji]
                         for ji in range(len(stage.jobs))]))
    return results, stats


# --------------------------------------------------------------- reporting
def render_report(results: Sequence[ExperimentResult]) -> Tuple[str, bool]:
    """The deterministic report text and the paper verdict.

    Every result with paper bands — ablations included — feeds the
    verdict, and so does every claim of :data:`~repro.bench.paper.CLAIMS`
    whose result ran: an out-of-band row or a failing claim fails the run
    instead of hiding behind "ALL PAPER BANDS HIT".  The claims section
    follows the tables; claims of results that did not run are skipped.
    """
    parts = [result.render() + "\n\n" for result in results]
    cells = {result.experiment: {(r.series, r.system): r.measured
                                 for r in result.rows}
             for result in results}
    lines: List[str] = []
    claims_ok = True
    for number, claim in enumerate(CLAIMS, 1):
        if claim.experiment not in cells:
            continue
        holds = claim.holds(cells[claim.experiment])
        claims_ok = claims_ok and holds
        mark = "[holds]" if holds else "[CLAIM FAILS]"
        lines.append(f"  C{number:<2}  {claim.experiment}: {claim.text}"
                     f"  {mark}\n")
    if lines:
        parts.append("== claims: the paper's shape claims ==\n"
                     + "".join(lines) + "\n")
    bands_ok = all(result.all_in_band for result in results)
    verdict: List[str] = []
    if not bands_ok:
        verdict.append("SOME ROWS OUT OF BAND")
    if not claims_ok:
        verdict.append("SOME PAPER CLAIMS FAIL")
    parts.append("; ".join(verdict) if verdict else "ALL PAPER BANDS HIT")
    parts.append("\n")
    return "".join(parts), bands_ok and claims_ok


def results_to_json(results: Sequence[ExperimentResult],
                    ok: bool) -> Dict[str, Any]:
    """JSON document for ``--json``: every row of every result."""
    return {
        "schema": 1,
        "ok": ok,
        "results": [{"experiment": r.experiment, "title": r.title,
                     "rows": rows_to_json(r.rows)} for r in results],
    }
