"""Benchmark of the LLMSched simulator: host speed and simulated outcomes.

Run from the repository root::

    python3 perfbench/run.py --workload open_fcfs_backlog --seed 1 --seconds 30 --trace 0

Every draw goes through the public front door, ``repro.api.run``.  With
``--trace 0`` the benchmark runs one untimed warm-up draw, then draws 0, 1,
2, ... of the workload (see ``scenarios.py``), each a separate small
simulation: the workload's ``sim_draws`` always, then more while the next
draw still fits in ``--seconds``, and finally draw 0 once more.  While the
draws run, a fixed reference kernel is timed every 50 ms (``hostspeed.py``);
each draw's host times, less the samples' own time, are scaled by the
mean sample time during the draw (``to_reference``), so that they read as
on the reference host whatever the shared host's speed at that moment.  It reports the end-to-end metrics: host throughput and
scheduler overhead pool the scaled times of every draw, set-up time is the
median of the draws' scaled set-up times, and peak RSS is the process's;
the simulated JCTs pool the first ``sim_draws`` draws, a fixed set, so they
depend on the seed alone.  The unscaled throughput and the samples' median
time are printed as comments, and every draw's unscaled figures are written
to ``perfbench/out/<workload>-seed<n>-draws.tsv``.
With ``--trace 1`` it runs the first ``TRACED_DRAWS`` draws untraced, the
same draws with every layer's public functions wrapped in spans
(``spans.py``), and draw 0 traced once more, and reports the per-layer
metrics, unscaled.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
print every metric by name with its unit, plus ``failed_frac`` and, for
token-level serving, SLO ``goodput``.  Reports and spans are written to
``perfbench/out/``, which git ignores.

Correctness is checked on every run, from invariants rather than pinned
values, so a scheduling-policy change may still move the simulated metrics:

* every submitted job completes exactly once and no job stays active;
* a draw run twice gives the same event count and the same digest of its
  job -> JCT map;
* the traced draw's simulated outputs equal the untraced draw's;
* every count of the traced draw 0 repeats exactly when it is traced again;
* the traced run's self times, summed over all spans, cover the traced run
  phase to within ``CLOSURE_TOLERANCE``.

A draw that raises or fails a check counts all of its jobs as failed, and
the benchmark then exits with status 1 after printing its JSON line.

Seed 1 is the default; seed 2 is held out for checking a claimed gain on a
seed that was not used while the change was written.  Both pass every check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import REFERENCE_SAMPLE_S, HostSpeed, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
#: Jobs of the untimed warm-up draw that fills lazy caches before timing,
#: and its replica index, which no measured draw reaches.
WARMUP_JOBS = 20
WARMUP_REPLICA = 999
#: Largest share of the traced run phase that the summed span self times
#: may miss or exceed; the rest is the engine loop and the wrappers' own
#: bookkeeping between spans.
CLOSURE_TOLERANCE = 0.02
#: Draws the traced run measures, once untraced and once traced.  One keeps
#: a traced run shorter than an untraced one.
TRACED_DRAWS = 1

#: Spans that run before the first simulation step.
SETUP_SPANS = ("prep.profiler_fit", "workloads.generate")

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sched_overhead_ms": "ms",
    "avg_jct_s": "s",
    "p95_jct_s": "s",
}

PER_LAYER_UNITS = {
    "engine.steps": "count",
    "engine.step_s": "s",
    "engine.self_s": "s",
    "engine.peak_active_jobs": "count",
    "schedulers.calls": "count",
    "schedulers.self_s": "s",
    "schedulers.call_p50_us": "us",
    "schedulers.call_p99_us": "us",
    "schedulers.tasks_listed": "count",
    "schedulers.tasks_placed": "count",
    "schedulers.useful_ratio": "ratio",
    "schedulers.empty_calls": "count",
    "context.calls": "count",
    "context.s": "s",
    "context.jobs_mean": "count",
    "context.jobs_max": "count",
    "profiler.queries": "count",
    "profiler.query_s": "s",
    "profiler.queries_per_call": "ratio",
    "prep.profiler_fit_s": "s",
    "cluster.advance_calls": "count",
    "cluster.advance_s": "s",
    "cluster.finishes": "count",
    "cluster.preemptions": "count",
    "placement.calls": "count",
    "placement.s": "s",
    "placement.miss_ratio": "ratio",
    "async.requests": "count",
    "async.request_self_s": "s",
    "async.stale_ratio": "ratio",
    "snapshot.calls": "count",
    "snapshot.s": "s",
    "federation.route_calls": "count",
    "federation.route_s": "s",
    "federation.migrations": "count",
    "workloads.jobs": "count",
    "workloads.gen_s": "s",
    "serving.goodput": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.closure_gap_frac": "ratio",
}

clock = time.perf_counter


class CheckFailed(Exception):
    """A correctness invariant did not hold."""


@dataclass
class Draw:
    """What one ``api.run`` call produced, host timings and sim outputs."""

    jobs: int
    setup_s: float = 0.0
    run_s: float = 0.0
    events: int = 0
    jcts: Dict[str, float] = field(default_factory=dict)
    overhead_s: float = 0.0
    invocations: int = 0
    stale_entries: int = 0
    migrations: int = 0
    served: int = 0
    goodput_met: float = 0.0
    #: Mean time of the reference-kernel samples taken during the draw.
    sample_s: float = REFERENCE_SAMPLE_S
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def scale(self) -> float:
        """Factor that turns this draw's host times into reference-host times."""
        return to_reference(self.sample_s)

    @property
    def digest(self) -> str:
        payload = json.dumps(sorted(self.jcts.items()), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def sim_key(self):
        return (self.events, self.digest, self.served, self.goodput_met)


# ---------------------------------------------------------------------- #
# One draw
# ---------------------------------------------------------------------- #
class _EngineProbe:
    """Marks where ``api.run``'s set-up ends and its simulation starts.

    ``SimulationEngine.run`` / ``FederatedSimulationEngine.run`` are wrapped
    for the length of one draw: the wrapper stamps the clock, counts every
    job completion the engine records (to prove exactly-once completion)
    and, in the traced run, instruments the engine before its first step.
    """

    def __init__(self, tracer=None) -> None:
        from repro.simulator.engine import SimulationEngine
        from repro.simulator.federation import FederatedSimulationEngine

        self.tracer = tracer
        self.engine = None
        self.started = self.ended = 0.0
        self.completions: Dict[str, int] = {}
        self._classes = (SimulationEngine, FederatedSimulationEngine)

    def __enter__(self) -> "_EngineProbe":
        for cls in self._classes:
            cls.run = self._wrap(cls.run)
        return self

    def __exit__(self, *exc) -> None:
        for cls in self._classes:
            cls.run = cls.run.__wrapped__

    def _wrap(self, original):
        probe = self

        def run(engine):
            probe.engine = engine
            for metrics in _shard_metrics_of(engine):
                metrics.record_job_completion = probe._counting(metrics.record_job_completion)
            if probe.tracer is not None:
                probe.tracer.instrument_engine(engine)
            probe.started = clock()
            try:
                return original(engine)
            finally:
                probe.ended = clock()

        run.__wrapped__ = original
        return run

    def _counting(self, record):
        completions = self.completions

        def counted(job_id, application, jct):
            completions[job_id] = completions.get(job_id, 0) + 1
            return record(job_id, application, jct)

        return counted


def _shard_metrics_of(engine) -> list:
    if hasattr(engine, "federation"):
        return [shard.engine.metrics for shard in engine.federation.shards]
    return [engine.metrics]


def run_draw(
    workload, seed: int, replica: int, tracer=None, jobs: Optional[int] = None,
    speed: Optional[HostSpeed] = None,
) -> Draw:
    from repro import api

    jobs = workload.jobs if jobs is None else jobs
    draw = Draw(jobs=jobs)
    spec = workload.spec(workload.draw_seed(seed, replica), jobs)
    try:
        with _EngineProbe(tracer) as probe:
            began = clock()
            result = api.run(spec)
        draw.setup_s = probe.started - began
        draw.run_s = probe.ended - probe.started
        _read_result(draw, result, probe)
        if speed is not None:
            _take_out_samples(draw, speed, began, probe.started, probe.ended)
    except Exception:  # a failing draw is reported, not fatal to the benchmark
        draw.error = traceback.format_exc()
    return draw


def _take_out_samples(draw: Draw, speed: HostSpeed, began: float, started: float, ended: float) -> None:
    """Takes the time the host-speed samples took out of the draw's host
    times and records the samples' mean time during the draw.  A sample may
    land inside a scheduler call as anywhere else in the run phase, so the
    engine's overhead is cut by the samples' share of the run phase."""
    raw_run_s = draw.run_s
    draw.setup_s -= speed.spent(began, started)
    draw.run_s -= speed.spent(started, ended)
    draw.overhead_s *= draw.run_s / raw_run_s
    draw.sample_s = speed.sample_s(began, ended)


def _read_result(draw: Draw, result, probe: _EngineProbe) -> None:
    metrics = result.metrics
    shards = _shard_metrics_of(probe.engine)
    draw.jcts = dict(result.job_completion_times)
    if result.is_federated:
        draw.events = metrics.num_fleet_iterations
        draw.migrations = metrics.num_migrations
        active = sum(s.engine.num_active_jobs for s in probe.engine.federation.shards)
    else:
        draw.events = metrics.num_events
        active = probe.engine.num_active_jobs
    for shard in shards:
        draw.overhead_s += shard.scheduling_overhead.mean * shard.scheduling_overhead.count
        draw.invocations += shard.scheduling_overhead.count
        draw.stale_entries += (
            shard.num_stale_placements + shard.num_placement_conflicts
            + shard.num_stale_preemptions
        )
    serving = result.serving
    if serving is not None:
        draw.served = int(serving["num_requests"])
        draw.goodput_met = serving["goodput_overall"] * draw.served

    recorded = sum(len(shard.job_completion_times) for shard in shards)
    twice = sorted(job for job, n in probe.completions.items() if n != 1)
    if twice:
        raise CheckFailed(f"jobs completed more than once: {twice[:5]}")
    if len(draw.jcts) != draw.jobs or recorded != draw.jobs or len(probe.completions) != draw.jobs:
        raise CheckFailed(
            f"{draw.jobs} jobs submitted, {len(draw.jcts)} completed "
            f"({recorded} shard records, {len(probe.completions)} completion calls)"
        )
    if active:
        raise CheckFailed(f"{active} jobs still active after the run")
    if any(not 0.0 <= jct < float("inf") for jct in draw.jcts.values()):
        raise CheckFailed("a JCT is negative or not finite")


def run_round(workload, seed: int, draws: int, tracer=None) -> List[Draw]:
    out = []
    for replica in range(draws):
        gc.collect()
        if tracer is not None:
            tracer.run_id = _run_id(workload, seed, replica)
        out.append(run_draw(workload, seed, replica, tracer))
    return out


def _run_id(workload, seed: int, replica: int) -> str:
    return f"{workload.name}/seed{seed}/draw{replica}"


# ---------------------------------------------------------------------- #
# Checks and figures
# ---------------------------------------------------------------------- #
class Report:
    """Attempted/failed job counts and the reasons draws failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, draws: List[Draw]) -> None:
        for draw in draws:
            self.attempted += draw.jobs
            if not draw.ok:
                self.fail(draw, draw.error)

    def fail(self, draw: Draw, reason: str) -> None:
        if draw.ok:
            draw.error = reason
        self.failed += draw.jobs
        self.errors.append(reason.strip().splitlines()[-1])

    def expect_same(self, reference: List[Draw], draws: List[Draw], what: str) -> None:
        for index, (ref, draw) in enumerate(zip(reference, draws)):
            if ref.ok and draw.ok and ref.sim_key != draw.sim_key:
                self.fail(draw, f"draw {index}: {what}")


def pooled_sim(draws: List[Draw]) -> Dict[str, float]:
    from repro.utils.stats import percentile_summary

    jcts = [jct for draw in draws if draw.ok for jct in draw.jcts.values()]
    summary = percentile_summary(jcts, (95.0,))
    served = sum(draw.served for draw in draws if draw.ok)
    met = sum(draw.goodput_met for draw in draws if draw.ok)
    return {
        "avg_jct_s": summary["mean"],
        "p95_jct_s": summary["p95"],
        "goodput": met / served if served else 0.0,
    }


def measure_end_to_end(workload, seed: int, seconds: float, report: Report) -> Dict[str, float]:
    """Draws 0, 1, 2, ...: the first ``sim_draws`` always, then more while
    the next one and the closing repeat of draw 0 still fit in ``seconds``.
    Host figures pool every draw's times, each scaled to the reference
    host; sim figures pool the first ``sim_draws`` draws."""
    draws: List[Draw] = []
    started = clock()
    with HostSpeed() as speed:
        while len(draws) < workload.sim_draws or (
            (clock() - started) * (len(draws) + 2) / len(draws) <= seconds
        ):
            gc.collect()
            draws.append(run_draw(workload, seed, len(draws), speed=speed))
        gc.collect()
        repeat = run_draw(workload, seed, 0, speed=speed)
    report.add(draws)
    report.add([repeat])
    report.expect_same(draws[:1], [repeat], "a repeated draw diverged")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [draw for draw in draws if draw.ok]
    if not ok:
        raise SystemExit("every draw failed:\n" + "\n".join(report.errors))
    run_s = sum(draw.run_s * draw.scale for draw in ok)
    figures = {
        "events_per_s": sum(draw.events for draw in ok) / run_s,
        "jobs_per_s": sum(len(draw.jcts) for draw in ok) / run_s,
        "sched_overhead_ms": 1000.0 * sum(draw.overhead_s * draw.scale for draw in ok)
        / sum(draw.invocations for draw in ok),
        "setup_s": statistics.median(draw.setup_s * draw.scale for draw in ok),
        "peak_rss_mb": rss_mb,
    }
    sim = pooled_sim(draws[: workload.sim_draws])
    figures["avg_jct_s"] = sim["avg_jct_s"]
    figures["p95_jct_s"] = sim["p95_jct_s"]
    print(f"# {len(draws)} draws x {workload.jobs} jobs in {clock() - started:.1f}s; "
          f"sim figures pool the first {workload.sim_draws}")
    print(f"# unscaled events_per_s {sum(d.events for d in ok) / sum(d.run_s for d in ok):.3f} 1/s; "
          f"reference sample median {statistics.median(d.sample_s for d in ok):.6f} s here, "
          f"{REFERENCE_SAMPLE_S} s on the reference host")
    if sim["goodput"]:
        print(f"# goodput {sim['goodput']:.6f} ratio")
    _write_draws(OUT / f"{workload.name}-seed{seed}-draws.tsv", draws + [repeat])
    return figures


def _write_draws(path: Path, draws: List[Draw]) -> None:
    """One line per draw, for a look behind the figures: host times with
    the samples' own time taken out, not yet scaled."""
    OUT.mkdir(exist_ok=True)
    columns = ("events", "jobs", "setup_s", "run_s", "overhead_s", "invocations", "sample_s")
    lines = ["\t".join(columns)]
    for draw in draws:
        if draw.ok:
            lines.append("\t".join(str(getattr(draw, name)) for name in columns))
    path.write_text("\n".join(lines) + "\n")


def measure_per_layer(workload, seed: int, report: Report) -> Dict[str, float]:
    """The first draws untraced, the same draws traced, then draw 0 traced
    again to prove that every count repeats exactly."""
    from spans import Tracer

    draws = TRACED_DRAWS
    untraced = run_round(workload, seed, draws)
    report.add(untraced)
    tracer = Tracer()
    first = _run_id(workload, seed, 0)
    with tracer.global_patches():
        traced = run_round(workload, seed, draws, tracer)
        tracer.run_id = first + "/repeat"
        repeat = run_draw(workload, seed, 0, tracer)
    report.add(traced)
    report.add([repeat])
    report.expect_same(untraced, traced, "tracing changed the simulation")
    report.expect_same(untraced[:1], [repeat], "tracing changed the simulation")
    if _counts(tracer, first) != _counts(tracer, first + "/repeat"):
        report.fail(repeat, "per-layer counts of draw 0 did not repeat exactly")

    run_ids = [_run_id(workload, seed, i) for i in range(draws)]
    figures = layer_figures(tracer, run_ids, traced, untraced)
    if abs(figures["trace.closure_gap_frac"]) > CLOSURE_TOLERANCE:
        report.fail(traced[0], (
            f"span self times miss {figures['trace.closure_gap_frac']:.2%} of the traced "
            f"run phase (tolerance {CLOSURE_TOLERANCE:.0%})"
        ))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{seed}.spans.tsv")
    return figures


def _counts(tracer, run_id: str) -> Dict[str, float]:
    counts = {f"calls:{name}": entry["calls"] for name, entry in tracer.summarize([run_id]).items()}
    counts.update(tracer.counters[run_id])
    counts.update(tracer.peaks[run_id])
    return counts


def layer_figures(tracer, run_ids, traced: List[Draw], untraced: List[Draw]) -> Dict[str, float]:
    from repro.utils.stats import percentile_summary

    spans = tracer.summarize(run_ids)
    counters: Dict[str, float] = {}
    for run_id in run_ids:
        for key, value in tracer.counters[run_id].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in tracer.peaks[run_id].items():
            counters[key] = max(counters.get(key, 0.0), value)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names: str) -> float:
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    durations = spans.get("schedulers.schedule", {}).get("durations", [])
    latency = percentile_summary(durations, (50.0, 99.0)) if durations else {"p50": 0.0, "p99": 0.0}
    placed = counters.get("cluster.assigned", 0.0)
    listed = counters.get("schedulers.tasks_listed", 0.0)
    traced_run_s = sum(draw.run_s for draw in traced if draw.ok)
    untraced_run_s = sum(draw.run_s for draw in untraced if draw.ok)
    run_phase_self = sum(
        entry["self_s"] for name, entry in spans.items() if name not in SETUP_SPANS
    )
    ok = [draw for draw in traced if draw.ok]
    return {
        "engine.steps": calls("engine.step"),
        "engine.step_s": spans.get("engine.step", {}).get("total_s", 0.0),
        "engine.self_s": self_s("engine.step", "engine.finalize"),
        "engine.peak_active_jobs": counters.get("engine.peak_active_jobs", 0.0),
        "schedulers.calls": calls("schedulers.schedule"),
        "schedulers.self_s": self_s("schedulers.schedule"),
        "schedulers.call_p50_us": latency["p50"] * 1e6,
        "schedulers.call_p99_us": latency["p99"] * 1e6,
        "schedulers.tasks_listed": listed,
        "schedulers.tasks_placed": placed,
        "schedulers.useful_ratio": ratio(placed, listed),
        "schedulers.empty_calls": counters.get("schedulers.empty_calls", 0.0),
        "context.calls": calls("context.schedulable_tasks"),
        "context.s": self_s("context.schedulable_tasks"),
        "context.jobs_mean": ratio(counters.get("context.jobs_sum", 0.0), calls("context.schedulable_tasks")),
        "context.jobs_max": counters.get("context.jobs_max", 0.0),
        "profiler.queries": calls("profiler.query"),
        "profiler.query_s": self_s("profiler.query"),
        "profiler.queries_per_call": ratio(calls("profiler.query"), calls("schedulers.schedule")),
        "prep.profiler_fit_s": self_s("prep.profiler_fit"),
        "cluster.advance_calls": calls("cluster.advance_to"),
        "cluster.advance_s": self_s("cluster.advance_to"),
        "cluster.finishes": calls("cluster.finish"),
        "cluster.preemptions": calls("cluster.preempt"),
        "placement.calls": calls("placement.select_pool"),
        "placement.s": self_s("placement.select_pool"),
        "placement.miss_ratio": ratio(calls("placement.select_pool") - placed, calls("placement.select_pool")),
        "async.requests": calls("async.request"),
        "async.request_self_s": self_s("async.request"),
        "async.stale_ratio": ratio(sum(d.stale_entries for d in ok), counters.get("async.offered", 0.0)),
        "snapshot.calls": calls("snapshot.take"),
        "snapshot.s": self_s("snapshot.take"),
        "federation.route_calls": calls("federation.select_shard"),
        "federation.route_s": self_s("federation.select_shard"),
        "federation.migrations": float(sum(d.migrations for d in ok)),
        "workloads.jobs": counters.get("workloads.jobs", 0.0),
        "workloads.gen_s": self_s("workloads.next", "workloads.generate"),
        "serving.goodput": pooled_sim(traced)["goodput"],
        "trace.overhead_frac": ratio(traced_run_s, untraced_run_s) - 1.0,
        "trace.closure_gap_frac": ratio(traced_run_s - run_phase_self, traced_run_s),
    }


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from scenarios import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    warmup = run_draw(workload, args.seed, WARMUP_REPLICA, jobs=WARMUP_JOBS)
    if not warmup.ok:
        print(warmup.error, file=sys.stderr)
        return 1
    report = Report()
    if args.trace:
        figures = measure_per_layer(workload, args.seed, report)
        units = PER_LAYER_UNITS
    else:
        figures = measure_end_to_end(workload, args.seed, args.seconds, report)
        units = END_TO_END_UNITS
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"# failed_frac {report.failed / report.attempted:.6f}")
    for error in report.errors:
        print(f"# check failed: {error}")
    summary = {
        "correct": not report.errors,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=workload.name, seed=args.seed, trace=args.trace)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 1 if report.errors else 0


if __name__ == "__main__":
    sys.exit(main())
