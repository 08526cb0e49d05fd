"""Tests for runtime jobs (dependency propagation, reveals, skipping)."""

import pytest

from repro.dag.job import Job
from repro.dag.stage import Stage, StageSpec, StageState, StageType


def stage(job_id, stage_id, stage_type=StageType.REGULAR, durations=(1.0,), **kwargs):
    spec = StageSpec(stage_id=stage_id, stage_type=stage_type, name=stage_id)
    return Stage(spec, job_id=job_id, task_durations=durations, **kwargs)


def finish_stage(job, stage_id, time):
    """Drive a stage's tasks to completion and notify the job."""
    target = job.stage(stage_id)
    target.mark_running()
    for task in target.tasks:
        task.mark_running(time, "e")
        task.mark_finished(time)
    return job.notify_stage_finished(stage_id, time)


class TestConstruction:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Job("j", "app", -1.0)

    def test_duplicate_stage_rejected(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a"))
        with pytest.raises(ValueError):
            job.add_stage(stage("j", "a"))

    def test_foreign_stage_rejected(self):
        job = Job("j", "app", 0.0)
        with pytest.raises(ValueError):
            job.add_stage(stage("other", "a"))

    def test_cycle_rejected(self):
        job = Job("j", "app", 0.0)
        for sid in "abc":
            job.add_stage(stage("j", sid))
        job.add_dependency("a", "b")
        with pytest.raises(ValueError):
            job.add_dependency("b", "a")
        # A longer cycle a -> b -> c -> a is rejected too, leaving the graph as it was.
        job.add_dependency("b", "c")
        before = job.edges()
        with pytest.raises(ValueError, match="would create a cycle"):
            job.add_dependency("c", "a")
        assert job.edges() == before

    def test_self_dependency_rejected(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a"))
        with pytest.raises(ValueError):
            job.add_dependency("a", "a")

    def test_empty_job_cannot_finalize(self):
        with pytest.raises(ValueError):
            Job("j", "app", 0.0).finalize()

    def test_no_mutation_after_finalize(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a"))
        job.finalize()
        with pytest.raises(RuntimeError):
            job.add_stage(stage("j", "b"))

    def test_methods_require_finalize(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a"))
        with pytest.raises(RuntimeError):
            job.schedulable_stages()


def build_linear_job():
    """a -> b -> c, all regular, finalized."""
    job = Job("j", "app", 0.0)
    for sid in "abc":
        job.add_stage(stage("j", sid))
    job.add_dependency("a", "b")
    job.add_dependency("b", "c")
    job.finalize()
    return job


class TestDependencyPropagation:
    def test_roots_ready_after_finalize(self):
        job = build_linear_job()
        assert job.stage("a").state is StageState.READY
        assert job.stage("b").state is StageState.BLOCKED
        assert [s.stage_id for s in job.schedulable_stages()] == ["a"]

    def test_children_unlock_in_order(self):
        job = build_linear_job()
        finish_stage(job, "a", 1.0)
        assert job.stage("b").state is StageState.READY
        assert job.stage("c").state is StageState.BLOCKED
        finish_stage(job, "b", 2.0)
        finish_stage(job, "c", 3.0)
        assert job.is_finished
        assert job.jct == pytest.approx(3.0)

    def test_join_requires_all_parents(self):
        job = Job("j", "app", 0.0)
        for sid in "abc":
            job.add_stage(stage("j", sid))
        job.add_dependency("a", "c")
        job.add_dependency("b", "c")
        job.finalize()
        finish_stage(job, "a", 1.0)
        assert job.stage("c").state is StageState.BLOCKED
        finish_stage(job, "b", 2.0)
        assert job.stage("c").state is StageState.READY

    def test_topological_order_and_depth(self):
        job = build_linear_job()
        order = job.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")
        assert job.stage_depth("a") == 0
        assert job.stage_depth("c") == 2


class TestSkipping:
    def test_padded_chain_stages_skip_automatically(self):
        job = Job("j", "chain", 0.0)
        job.add_stage(stage("j", "iter0"))
        job.add_stage(stage("j", "iter1", will_execute=False, durations=(5.0,)))
        job.add_stage(stage("j", "iter2", will_execute=False, durations=(5.0,)))
        job.add_dependency("iter0", "iter1")
        job.add_dependency("iter1", "iter2")
        job.finalize()
        finish_stage(job, "iter0", 2.0)
        assert job.stage("iter1").state is StageState.SKIPPED
        assert job.stage("iter2").state is StageState.SKIPPED
        assert job.is_finished
        assert job.finish_time == pytest.approx(2.0)

    def test_skipped_stage_reports_zero_duration(self):
        job = Job("j", "chain", 0.0)
        job.add_stage(stage("j", "a"))
        job.add_stage(stage("j", "b", will_execute=False))
        job.add_dependency("a", "b")
        job.finalize()
        finish_stage(job, "a", 1.0)
        assert job.observed_durations()["b"] == 0.0


class TestRevealAndPlaceholders:
    def build_planning_job(self):
        """planner (LLM) -> {tool_a, tool_b hidden} -> dynamic placeholder."""
        job = Job("j", "planning", 0.0)
        job.add_stage(stage("j", "planner", StageType.LLM, durations=(2.0,)))
        job.add_stage(stage("j", "tool_a", durations=(1.0,), visible=False))
        job.add_stage(stage("j", "tool_b", durations=(1.5,), visible=False))
        job.add_stage(stage("j", "dyn", StageType.DYNAMIC, durations=()))
        job.add_dependency("planner", "tool_a")
        job.add_dependency("planner", "tool_b")
        job.add_dependency("tool_a", "dyn")
        job.add_dependency("tool_b", "dyn")
        job.add_reveal("planner", "tool_a")
        job.add_reveal("planner", "tool_b")
        job.finalize()
        return job

    def test_hidden_stages_not_schedulable_before_reveal(self):
        job = self.build_planning_job()
        schedulable = {s.stage_id for s in job.schedulable_stages()}
        assert schedulable == {"planner"}
        assert not job.stage("tool_a").visible

    def test_reveal_after_planner_finishes(self):
        job = self.build_planning_job()
        finish_stage(job, "planner", 2.0)
        assert job.stage("tool_a").visible
        assert job.stage("tool_b").visible
        schedulable = {s.stage_id for s in job.schedulable_stages()}
        assert schedulable == {"tool_a", "tool_b"}

    def test_placeholder_completes_when_inner_stages_finish(self):
        job = self.build_planning_job()
        finish_stage(job, "planner", 2.0)
        finish_stage(job, "tool_a", 3.0)
        assert not job.is_finished
        finish_stage(job, "tool_b", 4.0)
        assert job.stage("dyn").state is StageState.FINISHED
        assert job.is_finished
        assert job.jct == pytest.approx(4.0)

    def test_unknown_reveal_stage_rejected(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a"))
        with pytest.raises(ValueError):
            job.add_reveal("a", "missing")


class TestGroundTruthViews:
    def test_true_total_and_remaining_work(self):
        job = Job("j", "app", 0.0)
        job.add_stage(stage("j", "a", durations=(2.0,)))
        job.add_stage(stage("j", "b", durations=(3.0,)))
        job.add_stage(stage("j", "skip", durations=(7.0,), will_execute=False))
        job.add_dependency("a", "b")
        job.add_dependency("b", "skip")
        job.finalize()
        assert job.true_total_work == pytest.approx(5.0)
        assert job.true_remaining_work() == pytest.approx(5.0)
        finish_stage(job, "a", 2.0)
        assert job.true_remaining_work() == pytest.approx(3.0)

    def test_observed_durations_only_for_complete_stages(self):
        job = build_linear_job()
        assert job.observed_durations() == {}
        finish_stage(job, "a", 1.0)
        assert job.observed_durations() == {"a": pytest.approx(1.0)}
