"""Span tracing for the benchmark's traced run, recorded from outside ``src/``.

The simulator has no tracing of its own yet, so the traced run wraps the
public functions of each layer (``Scheduler.schedule``,
``SchedulingContext.schedulable_tasks``/``snapshot``, the Bayesian
profiler's queries, ``Cluster.advance_to``, ``PlacementPolicy.select_pool``,
``AsyncSchedulerBackend.request``, ``JobRouter.select_shard``, the engines'
``step``/``finalize`` and the job stream's ``next()``) for the length of one
run and restores them afterwards.  Every call becomes a span with a name, a
start, an end, its parent span and the run id; spans stay in memory and are
written out once the benchmark ends.

A span's self time is its duration minus the time its child spans cover.
Calls on one thread nest strictly, so that is the duration minus the sum of
the direct children's durations.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.api import dispatch
from repro.core.profiler import BayesianProfiler
from repro.schedulers.base import SchedulingContext
from repro.simulator.federation import FederatedSimulationEngine
from repro.workloads.arrivals import OpenLoopSpec

clock = time.perf_counter
_MISSING = object()

_PROFILER_QUERIES = (
    "estimate_remaining_duration",
    "estimate_remaining_interval",
    "uncertainty_reduction",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name: str, start: float, parent: int, run_id: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id


class Tracer:
    """Records spans and counters for any number of runs, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: run id -> counter name -> running sum / running maximum.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, args)`` adds
        counters once the call returned (its cost lands in the span)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class, instance or module) by a traced
        wrapper until :meth:`restore`."""
        saved = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self.run_id][key] += amount

    def peak(self, key: str, value: float) -> None:
        peaks = self.peaks[self.run_id]
        if value > peaks[key]:
            peaks[key] = value

    # ------------------------------------------------------------------ #
    @contextmanager
    def global_patches(self) -> Iterator[None]:
        """Class- and module-level wrappers for layers whose objects are
        created inside ``repro.api.run`` (contexts, the profiler, the
        closed-loop generator and the open-loop stream)."""
        self.patch(
            SchedulingContext, "schedulable_tasks", "context.schedulable_tasks",
            lambda result, args: self._context_jobs(args[0]),
        )
        self.patch(SchedulingContext, "snapshot", "snapshot.take")
        for method in _PROFILER_QUERIES:
            self.patch(BayesianProfiler, method, "profiler.query")
        self.patch(BayesianProfiler, "fit", "prep.profiler_fit")
        self.patch(
            dispatch, "generate_workload", "workloads.generate",
            lambda result, args: self.count("workloads.jobs", len(result)),
        )
        self._patch_stream_factory()
        try:
            yield
        finally:
            self.restore()

    def _context_jobs(self, context: SchedulingContext) -> None:
        jobs = len(context.jobs)
        self.count("context.jobs_sum", jobs)
        self.peak("context.jobs_max", jobs)

    def _patch_stream_factory(self) -> None:
        original = OpenLoopSpec.jobs
        tracer = self

        def jobs(spec, applications=None):
            return _TracedStream(tracer, original(spec, applications))

        self._patches.append((OpenLoopSpec, "jobs", original))
        OpenLoopSpec.jobs = jobs

    # ------------------------------------------------------------------ #
    def instrument_engine(self, engine) -> None:
        """Instance-level wrappers on one engine (single or federated)."""
        if isinstance(engine, FederatedSimulationEngine):
            shards = [shard.engine for shard in engine.federation.shards]
            self.patch(
                engine.federation.router, "select_shard", "federation.select_shard"
            )

            def active() -> int:
                return sum(shard.num_active_jobs for shard in shards)
        else:
            shards = [engine]

            def active() -> int:
                return engine.num_active_jobs

        self.patch(
            engine, "step", "engine.step",
            lambda result, args: self.peak("engine.peak_active_jobs", active()),
        )
        self.patch(engine, "finalize", "engine.finalize")
        for shard in shards:
            self._instrument_shard(shard)

    def _instrument_shard(self, engine) -> None:
        self.patch(engine.scheduler, "schedule", "schedulers.schedule", self._decision)
        cluster = engine.cluster
        self.patch(cluster, "advance_to", "cluster.advance_to")
        self.patch(cluster, "finish_regular_task", "cluster.finish")
        self.patch(cluster, "finish_llm_task", "cluster.finish")
        self.patch(cluster, "preempt_task", "cluster.preempt")
        for pool in cluster.pools:
            self.patch(
                pool, "assign", "cluster.assign",
                lambda result, args: self.count("cluster.assigned", result is not None),
            )
        self.patch(engine.placement, "select_pool", "placement.select_pool")
        if engine.async_backend is not None:
            self.patch(engine.async_backend, "request", "async.request")

    def _decision(self, decision, args) -> None:
        context = args[0]
        listed = decision.total_tasks
        self.count("schedulers.tasks_listed", listed)
        if listed == 0 and not decision.preemptions:
            self.count("schedulers.empty_calls")
        if context.is_snapshot:
            self.count("async.offered", _offered_entries(decision, context))

    # ------------------------------------------------------------------ #
    def summarize(self, run_ids) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and every
        duration, over the spans of ``run_ids``."""
        wanted = set(run_ids)
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0 and span.run_id in wanted:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, object]] = {}
        for index, span in enumerate(self.spans):
            if span.run_id not in wanted:
                continue
            duration = span.end - span.start
            entry = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(index, 0.0)
            entry["durations"].append(duration)
        return out

    def write(self, path) -> None:
        """All spans as TSV: run, span id, parent id, name, start, end (s)."""
        epoch = self.spans[0].start if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
            writer.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for index, span in enumerate(self.spans):
                writer.writerow([
                    span.run_id, index, span.parent, span.name,
                    f"{span.start - epoch:.9f}", f"{span.end - epoch:.9f}",
                ])


def _offered_entries(decision, context) -> int:
    """Entries of an in-flight decision that the async apply path meters
    for staleness: every preemption, and per task type the first unique
    entries up to the snapshot's free slots (duplicates within a decision
    are skipped and the overflow of a preference list is dropped silently,
    as on the synchronous path).

    Exact for non-preemptive schedulers such as FCFS.  The engine also
    grows a type's budget by one for each preemption it accepts at apply
    time, which a count taken when the decision is made cannot see, so
    with preemptions this undercounts the metered placements.
    """
    seen = set()
    offered = len(decision.preemptions)
    for tasks, free in (
        (decision.regular_tasks, context.free_regular_slots),
        (decision.llm_tasks, context.free_llm_slots),
    ):
        unique = 0
        for task in tasks:
            key = task.key()
            if key not in seen:
                seen.add(key)
                unique += 1
        offered += min(unique, free)
    return offered


class _TracedStream:
    """The open-loop job stream with one ``workloads.next`` span per pull."""

    def __init__(self, tracer: Tracer, stream: Iterator) -> None:
        def pulled(result, args) -> None:
            tracer.count("workloads.jobs")

        self._next = tracer.wrap("workloads.next", stream.__next__, pulled)

    def __iter__(self) -> "_TracedStream":
        return self

    def __next__(self):
        return self._next()

