"""Tests for the LLMSched scheduler (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core.llmsched import LLMSchedConfig, LLMSchedScheduler
from repro.core.profiler import BayesianProfiler
from repro.schedulers.base import SchedulingContext
from repro.schedulers.fcfs import FcfsScheduler
from repro.schedulers.registry import create_scheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import SimulationEngine
from repro.utils.rng import make_rng
from repro.workloads import (
    CodeGenerationApplication,
    SequenceSortingApplication,
    TaskAutomationApplication,
    WebSearchApplication,
)
from repro.workloads.mixtures import WorkloadSpec, WorkloadType, default_applications, generate_workload


@pytest.fixture(scope="module")
def profiler():
    instance = BayesianProfiler()
    instance.fit(
        [
            SequenceSortingApplication(),
            CodeGenerationApplication(),
            WebSearchApplication(),
            TaskAutomationApplication(),
        ],
        n_profile_jobs=80,
        seed=3,
    )
    return instance


def make_context(jobs, time=0.0):
    return SchedulingContext(
        time=time, jobs=list(jobs), free_regular_slots=4, free_llm_slots=8, llm_batch_sizes=[1, 1]
    )


class TestConfig:
    def test_defaults_valid(self):
        config = LLMSchedConfig()
        assert 0 <= config.epsilon <= 1
        assert 0 <= config.sampling_ratio <= 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LLMSchedConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            LLMSchedConfig(sampling_ratio=-0.1)


class TestSchedulingBehaviour:
    def test_all_schedulable_tasks_are_returned(self, profiler):
        rng = make_rng(0)
        jobs = [
            SequenceSortingApplication().sample_job("a", 0.0, rng),
            CodeGenerationApplication().sample_job("b", 0.0, rng),
        ]
        scheduler = LLMSchedScheduler(profiler)
        decision = scheduler.schedule(make_context(jobs))
        schedulable = {t.uid for j in jobs for t in j.schedulable_tasks()}
        returned = {t.uid for t in decision.llm_tasks + decision.regular_tasks}
        assert returned == schedulable

    def test_no_duplicate_tasks_in_preferences(self, profiler):
        rng = make_rng(1)
        jobs = [TaskAutomationApplication().sample_job(f"j{i}", 0.0, rng) for i in range(4)]
        scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(epsilon=0.5))
        decision = scheduler.schedule(make_context(jobs))
        uids = [t.uid for t in decision.llm_tasks + decision.regular_tasks]
        assert len(uids) == len(set(uids))

    def test_shorter_job_preferred_under_pure_exploitation(self, profiler):
        """With epsilon=0 LLMSched degenerates to SRTF on posterior estimates."""
        rng = make_rng(2)
        short_job = WebSearchApplication().sample_job("short", 0.0, rng)
        long_job = SequenceSortingApplication().sample_job("long", 0.0, rng)
        scheduler = LLMSchedScheduler(profiler, LLMSchedConfig(epsilon=0.0))
        decision = scheduler.schedule(make_context([long_job, short_job]))
        assert decision.llm_tasks[0].job_id == "short"

    def test_empty_context_returns_empty_decision(self, profiler):
        scheduler = LLMSchedScheduler(profiler)
        assert scheduler.schedule(make_context([])).total_tasks == 0

    def test_unprofiled_application_gets_fallback_estimate(self, profiler):
        from repro.dag.job import Job
        from repro.dag.stage import Stage, StageSpec, StageType

        job = Job("x", "unknown_app", 0.0)
        job.add_stage(Stage(StageSpec("s", StageType.LLM), "x", [1.0]))
        job.finalize()
        scheduler = LLMSchedScheduler(profiler)
        estimate = scheduler.estimate_remaining(job, make_context([job]))
        assert estimate > 0
        decision = scheduler.schedule(make_context([job]))
        assert decision.total_tasks == 1

    def test_exploration_samples_fraction_of_tasks_first(self, profiler):
        """With epsilon=1 the first scheduled stage comes from the exploration
        list and only a sampled fraction of a multi-task stage is released
        ahead of the rest."""
        rng = make_rng(3)
        job = SequenceSortingApplication().sample_job("a", 0.0, rng)
        scheduler = LLMSchedScheduler(
            profiler, LLMSchedConfig(epsilon=1.0, sampling_ratio=0.34, seed=1)
        )
        decision = scheduler.schedule(make_context([job]))
        # All tasks still appear exactly once overall.
        schedulable = {t.uid for t in job.schedulable_tasks()}
        returned = [t.uid for t in decision.llm_tasks + decision.regular_tasks]
        assert set(returned) == schedulable
        assert len(returned) == len(set(returned))

    def test_ablation_flags_change_behaviour(self, profiler):
        rng = make_rng(4)
        jobs = [SequenceSortingApplication().sample_job(f"j{i}", 0.0, rng) for i in range(3)]
        full = LLMSchedScheduler(profiler, LLMSchedConfig(seed=0))
        no_unc = LLMSchedScheduler(profiler, LLMSchedConfig(use_uncertainty=False, seed=0))
        no_bn = LLMSchedScheduler(profiler, LLMSchedConfig(use_bn=False, seed=0))
        for scheduler in (full, no_unc, no_bn):
            decision = scheduler.schedule(make_context(jobs))
            assert decision.total_tasks > 0
        # Without BN the estimates equal the historical application mean.
        job = jobs[0]
        mean_total = profiler.profile_for("sequence_sorting").mean_total_duration
        assert no_bn.estimate_remaining(job, make_context(jobs)) == pytest.approx(
            mean_total, rel=1e-6
        )


class TestEndToEnd:
    def test_runs_mixed_workload_to_completion(self, profiler):
        apps = default_applications()
        full_profiler = BayesianProfiler().fit(apps.values(), n_profile_jobs=60, seed=5)
        spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=20, arrival_rate=1.0, seed=9)
        jobs = generate_workload(spec, applications=apps)
        scheduler = LLMSchedScheduler(full_profiler, LLMSchedConfig(seed=0))
        cluster = Cluster(ClusterConfig(num_regular_executors=6, num_llm_executors=3, max_batch_size=8))
        metrics = SimulationEngine(jobs, scheduler, cluster=cluster, workload_name="mixed").run()
        assert len(metrics.job_completion_times) == len(jobs)
        assert metrics.average_jct > 0

    def test_registry_constructs_llmsched(self, profiler):
        scheduler = create_scheduler("llmsched", profiler=profiler)
        assert isinstance(scheduler, LLMSchedScheduler)
        assert scheduler.name == "llmsched"


# --------------------------------------------------------------------------- #
# Cached per-job estimates against the uncached per-variable loops
# --------------------------------------------------------------------------- #
def _oracle_is_resolved(job, variable):
    for stage in job.stages.values():
        if stage.profile_key == variable:
            return stage.is_complete
    return True


def _oracle_remaining(profiler, job, target_batch_size, calibrator, use_posterior):
    """The per-variable remaining-duration loop, recomputed from scratch."""
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    marginals = profiler.posterior_marginals(job.application, evidence) if use_posterior else None
    remaining_regular = 0.0
    remaining_llm = 0.0
    for variable in profile.variables:
        if variable in evidence and _oracle_is_resolved(job, variable):
            continue
        if use_posterior:
            representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
            expected = float(np.dot(marginals[variable], representatives))
        else:
            expected = profile.mean_durations[variable]
        if variable in profile.llm_variables:
            remaining_llm += expected
        else:
            remaining_regular += expected
    if calibrator is not None:
        remaining_llm = calibrator.calibrate(remaining_llm, target_batch_size)
    return remaining_regular + remaining_llm


def _oracle_interval(profiler, job, use_posterior):
    """The per-variable remaining-interval loop, recomputed from scratch."""
    profile = profiler.profile_for(job.application)
    evidence = profiler.evidence_for(job)
    marginals = profiler.posterior_marginals(job.application, evidence) if use_posterior else None
    mean_total = 0.0
    variance_total = 0.0
    for variable in profile.variables:
        if variable in evidence and _oracle_is_resolved(job, variable):
            continue
        representatives = np.asarray(profile.specs[variable].representatives, dtype=float)
        if use_posterior:
            distribution = np.asarray(marginals[variable], dtype=float)
        else:
            distribution = np.full(representatives.size, 1.0 / representatives.size)
        mean = float(np.dot(distribution, representatives))
        second_moment = float(np.dot(distribution, representatives**2))
        mean_total += mean
        variance_total += max(0.0, second_moment - mean**2)
    spread = math.sqrt(variance_total)
    return max(0.0, mean_total - spread), mean_total + spread


@pytest.fixture(scope="module")
def mixed_profiler():
    return BayesianProfiler().fit(default_applications().values(), n_profile_jobs=60, seed=5)


def _run_mixed(scheduler):
    spec = WorkloadSpec(workload_type=WorkloadType.MIXED, num_jobs=24, arrival_rate=1.5, seed=9)
    jobs = generate_workload(spec, applications=default_applications())
    cluster = Cluster(ClusterConfig(num_regular_executors=4, num_llm_executors=2, max_batch_size=8))
    metrics = SimulationEngine(jobs, scheduler, cluster=cluster, workload_name="mixed").run()
    assert len(metrics.job_completion_times) == len(jobs)


class _OracleCheckedScheduler(LLMSchedScheduler):
    """Compares every unfinished job's cached estimates with the oracle
    loops before each scheduling decision."""

    def __init__(self, profiler, config):
        super().__init__(profiler, config)
        self.applications = set()
        self.partial_task_evidence = 0
        self.pinned_candidates = set()

    def schedule(self, context):
        use_bn = self.config.use_bn
        batch = context.average_llm_batch_size
        for job in context.jobs:
            if job.is_finished:
                continue
            self.applications.add(job.application)
            evidence = self.profiler.evidence_for(job)
            observed = job.observed_durations()
            present = {s.profile_key for s in job.stages.values()}
            if any(v not in present for v in evidence):
                self.pinned_candidates.add(job.application)
            self.partial_task_evidence += sum(
                1
                for s in job.stages.values()
                if s.profile_key in evidence and s.profile_key not in observed
            )
            expected = _oracle_remaining(self.profiler, job, batch, self.calibrator, use_bn)
            assert self.estimate_remaining(job, context) == expected
            assert self.profiler.estimate_remaining_duration(
                job, target_batch_size=batch, calibrator=self.calibrator, use_posterior=use_bn
            ) == expected
            assert self.profiler.estimate_remaining_interval(
                job, use_posterior=use_bn
            ) == _oracle_interval(self.profiler, job, use_bn)
        return super().schedule(context)


class TestCachedEstimates:
    @pytest.mark.parametrize("use_bn", [True, False])
    def test_cached_estimates_equal_oracle_at_every_call(self, mixed_profiler, use_bn):
        scheduler = _OracleCheckedScheduler(mixed_profiler, LLMSchedConfig(use_bn=use_bn, seed=0))
        _run_mixed(scheduler)
        assert scheduler.applications == set(default_applications())
        # Evidence from running stages' finished tasks and zero-pinned
        # unselected dynamic candidates were both exercised.
        assert scheduler.partial_task_evidence > 0
        assert "task_automation" in scheduler.pinned_candidates

    def test_evidence_derived_once_per_job_per_call(self, mixed_profiler, monkeypatch):
        scheduler = LLMSchedScheduler(mixed_profiler, LLMSchedConfig(seed=0))
        calls = []
        original = mixed_profiler.evidence_for

        def spy(job):
            calls[-1].append(job.job_id)
            return original(job)

        def schedule(context):
            calls.append([])
            decision = LLMSchedScheduler.schedule(scheduler, context)
            unfinished = {j.job_id for j in context.jobs if not j.is_finished}
            assert len(calls[-1]) == len(set(calls[-1]))
            assert set(calls[-1]) <= unfinished
            return decision

        monkeypatch.setattr(mixed_profiler, "evidence_for", spy)
        monkeypatch.setattr(scheduler, "schedule", schedule)
        _run_mixed(scheduler)
        assert calls and any(calls)
