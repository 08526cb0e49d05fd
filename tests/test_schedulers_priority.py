"""Exactness of the demand-bounded static-priority schedulers (FCFS/SJF/SRTF).

On a live context a :class:`~repro.schedulers.base.PriorityScheduler` caps
each preference list at the free slots of its type.  That is exact only if
(a) the capped list is the prefix of the uncapped one, and (b) the engine
places every capped entry.  Both are checked on contexts taken from real
engine runs: (a) against the same scheduler's decision on
``context.snapshot()``, which stays uncapped, and (b) under every placement
policy plus a pool with draining executors.
"""

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageType
from repro.dag.task import TaskState, TaskType
from repro.schedulers.base import SchedulingContext
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.preemptive import PreemptiveSrtfScheduler
from repro.schedulers.priors import ApplicationPriors
from repro.schedulers.sjf import SjfScheduler
from repro.schedulers.srtf import SrtfScheduler
from repro.simulator.autoscaler import AutoscalerConfig, ThresholdAutoscaler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.placement import (
    BestFitPlacement,
    GreedyFirstFitPlacement,
    PlacementPolicy,
    PoolAffinityPlacement,
    PrefillDecodePlacement,
)
from repro.simulator.pool import PoolSpec
from repro.workloads.arrivals import DiurnalProcess, PoissonProcess, open_loop_jobs
from repro.workloads.mixtures import default_applications
from repro.workloads.serving import attach_token_model
from test_api_spec import _cluster_configs, _rates, _seeds

APPLICATIONS = default_applications()
PRIORS = ApplicationPriors.from_applications(APPLICATIONS.values(), n_samples=20, seed=9)

#: name -> (class, constructor args, constructor kwargs).
SCHEDULERS = {
    "fcfs": (FcfsScheduler, (), {}),
    "sjf": (SjfScheduler, (PRIORS,), {}),
    "srtf": (SrtfScheduler, (), {"priors": PRIORS}),
}

CONGESTED = ClusterConfig(num_regular_executors=2, num_llm_executors=1, max_batch_size=2)


def keys(tasks):
    return [task.key() for task in tasks]


def exactness_probe(base):
    """``base`` plus a check, at every call, that the capped live decision
    is the ``free``-long prefix of the uncapped decision on a snapshot."""

    class Probe(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = 0
            self.cut = 0  # calls where capping dropped entries

        def schedule(self, context):
            assert not context.is_snapshot
            uncapped = super().schedule(context.snapshot())
            decision = super().schedule(context)
            for capped, full, free in (
                (decision.regular_tasks, uncapped.regular_tasks, context.free_regular_slots),
                (decision.llm_tasks, uncapped.llm_tasks, context.free_llm_slots),
            ):
                assert keys(capped) == keys(full)[:free]
                self.cut += len(full) > len(capped)
            self.calls += 1
            return decision

    return Probe


def make_probe(probe, name):
    base, args, kwargs = SCHEDULERS[name]
    return probe(base)(*args, **kwargs)


def poisson_stream(rate, seed, jobs):
    return open_loop_jobs(
        PoissonProcess(rate=rate, seed=seed), APPLICATIONS, seed=seed, max_jobs=jobs
    )


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize("snapshot_policy", ["cow", "deepcopy"])
def test_capped_lists_are_prefixes_of_snapshot_decisions(name, snapshot_policy):
    scheduler = make_probe(exactness_probe, name)
    engine = SimulationEngine(
        poisson_stream(3.0, 5, 30),
        scheduler,
        cluster=Cluster(CONGESTED),
        config=SimulationConfig(snapshot_policy=snapshot_policy),
    )
    assert len(engine.run().job_completion_times) == 30
    assert scheduler.calls > 0
    assert scheduler.cut > 0  # the backlog outgrew capacity: the cap bit


@hyp_settings(max_examples=15, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    config=_cluster_configs,
    rate=_rates,
    seed=_seeds,
)
def test_capped_lists_are_prefixes_on_generated_scenarios(name, config, rate, seed):
    scheduler = make_probe(exactness_probe, name)
    metrics = SimulationEngine(
        poisson_stream(rate, seed, 15), scheduler, cluster=Cluster(config)
    ).run()
    assert len(metrics.job_completion_times) == 15


def two_root_job(job_id, arrival):
    """A job whose LLM and regular root stages are both schedulable."""
    job = Job(job_id, "short_app", arrival)
    job.add_stage(Stage(StageSpec("llm", StageType.LLM), job_id, [1.0] * 3))
    job.add_stage(Stage(StageSpec("reg", StageType.REGULAR), job_id, [1.0] * 3))
    job.finalize()
    return job


def test_snapshot_and_preemptive_lists_stay_uncapped():
    jobs = [two_root_job(f"j{i}", float(i)) for i in range(4)]
    live = SchedulingContext(time=5.0, jobs=jobs, free_regular_slots=1, free_llm_slots=2)
    snapshot = live.snapshot()
    priors = ApplicationPriors({"short_app": 2.0})
    for scheduler in (FcfsScheduler(), SjfScheduler(priors), SrtfScheduler(priors=priors)):
        capped = scheduler.schedule(live)
        assert (len(capped.regular_tasks), len(capped.llm_tasks)) == (1, 2)
        full = scheduler.schedule(snapshot)
        assert (len(full.regular_tasks), len(full.llm_tasks)) == (12, 12)
    preemptive = PreemptiveSrtfScheduler(priors=priors).schedule(live)
    assert (len(preemptive.regular_tasks), len(preemptive.llm_tasks)) == (12, 12)


# --------------------------------------------------------------------------- #
# Every capped entry is placed
# --------------------------------------------------------------------------- #
class MissCounting(PlacementPolicy):
    """Wraps a placement policy and counts the tasks it could not place."""

    name = "miss_counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.misses = 0

    def select_pool(self, cluster, task):
        pool = self.inner.select_pool(cluster, task)
        self.calls += 1
        self.misses += pool is None
        return pool


def placement_probe(base):
    """``base`` plus a check that the previous decision's entries all left
    PENDING (the synchronous engine applies a decision before the next call)."""

    class Probe(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.listed = []
            self.saw_draining = False

        def schedule(self, context):
            assert all(task.state is not TaskState.PENDING for task in self.listed)
            self.saw_draining |= bool(context.inactive_executor_ids)
            decision = super().schedule(context)
            self.listed = decision.regular_tasks + decision.llm_tasks
            return decision

    return Probe


def two_llm_pools():
    return Cluster(
        pools=[
            PoolSpec("cpu", TaskType.REGULAR, 2),
            PoolSpec("gpu-a", TaskType.LLM, 1, max_batch_size=2),
            PoolSpec("gpu-b", TaskType.LLM, 1, max_batch_size=2),
        ]
    )


def disaggregated_pools():
    return Cluster(
        pools=[
            PoolSpec("cpu", TaskType.REGULAR, 2),
            PoolSpec("prefill", TaskType.LLM, 1, max_batch_size=2, role="prefill"),
            PoolSpec("decode", TaskType.LLM, 1, max_batch_size=2, role="decode"),
        ]
    )


def elastic_pools():
    return Cluster(
        pools=[
            PoolSpec("cpu", TaskType.REGULAR, 4, min_executors=1, max_executors=8),
            PoolSpec("gpu", TaskType.LLM, 2, max_batch_size=2, min_executors=1, max_executors=4),
        ]
    )


PLACEMENTS = {
    "greedy": (GreedyFirstFitPlacement, two_llm_pools),
    "best_fit": (BestFitPlacement, two_llm_pools),
    "affinity": (lambda: PoolAffinityPlacement(lambda task: "gpu-b"), two_llm_pools),
    "prefill_decode": (PrefillDecodePlacement, disaggregated_pools),
}


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize("placement_name", sorted(PLACEMENTS))
def test_every_capped_entry_is_placed(name, placement_name):
    scheduler = make_probe(placement_probe, name)
    policy_factory, cluster_factory = PLACEMENTS[placement_name]
    placement = MissCounting(policy_factory())
    jobs = list(poisson_stream(3.0, 4, 25))
    if placement_name == "prefill_decode":
        attach_token_model(jobs, "chat", seed=4)
    engine = SimulationEngine(jobs, scheduler, cluster=cluster_factory(), placement=placement)
    assert len(engine.run().job_completion_times) == 25
    assert placement.calls > 0
    assert placement.misses == 0


def test_every_capped_entry_is_placed_with_draining_executors():
    scheduler = make_probe(placement_probe, "fcfs")
    placement = MissCounting(GreedyFirstFitPlacement())
    stream = open_loop_jobs(
        DiurnalProcess(mean_rate=1.0, amplitude=0.9, period=300.0, seed=3),
        APPLICATIONS,
        seed=3,
        max_jobs=80,
    )
    autoscaler = ThresholdAutoscaler(
        AutoscalerConfig(
            interval=10.0, scale_up_occupancy=0.85, scale_down_occupancy=0.5, step=2
        )
    )
    engine = SimulationEngine(
        stream, scheduler, cluster=elastic_pools(), placement=placement, autoscaler=autoscaler
    )
    metrics = engine.run()
    assert len(metrics.job_completion_times) == 80
    assert scheduler.saw_draining  # some calls ran while executors drained
    assert placement.misses == 0
