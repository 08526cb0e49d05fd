"""LLMSched — the uncertainty-aware scheduler (paper Algorithm 1).

The scheduler maintains two orderings of the currently schedulable stages:

* **St** — stages of jobs sorted by their estimated remaining duration
  (Shortest Remaining Time First; the estimates come from the Bayesian
  profiler's posterior, calibrated for the current batch size), and
* **Su** — stages sorted by their quantified uncertainty reduction, computed
  within non-overlapping groups of jobs (jobs whose remaining-duration
  intervals overlap are grouped together so that exploration never jumps
  ahead of a provably shorter job).

An ε-greedy rule merges the two lists: with probability ε the next scheduled
stage comes from Su (exploration — only a sampled fraction ``r`` of its
tasks is released, enough to learn its duration without monopolising the
cluster), otherwise from St (exploitation).  The two ablations of the paper
are exposed as flags: ``use_bn=False`` replaces the posterior estimates with
historical means ("LLMSched w/o BN"), and ``use_uncertainty=False`` disables
the exploration list entirely ("LLMSched w/o uncertainty", i.e. plain SRTF
on Bayesian estimates).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.calibration import BatchingAwareCalibrator
from repro.core.profiler import BayesianProfiler
from repro.dag.job import Job
from repro.dag.stage import Stage
from repro.dag.task import Task
from repro.schedulers.base import Scheduler, SchedulingContext, SchedulingDecision
from repro.utils.rng import make_rng
from repro.utils.validation import require_probability

__all__ = ["LLMSchedConfig", "LLMSchedScheduler"]

#: Remaining-duration estimate used for jobs of applications that were never
#: profiled; a neutral middle-of-the-road value keeps the scheduler robust.
_UNPROFILED_REMAINING = 10.0
_UNPROFILED_INTERVAL = (_UNPROFILED_REMAINING * 0.5, _UNPROFILED_REMAINING * 1.5)


@dataclass(frozen=True)
class LLMSchedConfig:
    """Knobs of Algorithm 1.

    ``epsilon`` is the exploration probability, ``sampling_ratio`` the
    fraction of an explored stage's tasks that is actually released
    (Algorithm 1's ``r``).  The defaults are the sweet spot of this
    reproduction's sensitivity sweep (Fig. 9a/9b harness); the paper's own
    sweep favours a slightly larger ε on its testbed workloads.
    """

    epsilon: float = 0.1
    sampling_ratio: float = 0.3
    use_bn: bool = True
    use_uncertainty: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        require_probability(self.epsilon, "epsilon")
        require_probability(self.sampling_ratio, "sampling_ratio")


class LLMSchedScheduler(Scheduler):
    """The paper's uncertainty-aware scheduler."""

    name = "llmsched"

    def __init__(
        self,
        profiler: BayesianProfiler,
        config: Optional[LLMSchedConfig] = None,
        calibrator: Optional[BatchingAwareCalibrator] = None,
    ) -> None:
        self.profiler = profiler
        self.config = config or LLMSchedConfig()
        self.calibrator = calibrator or BatchingAwareCalibrator()
        self._rng = make_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # Estimation helpers
    # ------------------------------------------------------------------ #
    def _job_estimate(
        self, job: Job, context: SchedulingContext
    ) -> Tuple[Optional[Dict[str, int]], float, Tuple[float, float]]:
        """(evidence, batch-calibrated remaining duration, remaining-duration
        interval) of a job, derived once per :meth:`schedule` call.  The
        evidence is ``None`` for applications that were never profiled."""
        if not self.profiler.has_profile(job.application):
            return None, _UNPROFILED_REMAINING, _UNPROFILED_INTERVAL
        evidence = self.profiler.evidence_for(job)
        estimate = self.profiler.remaining_estimate(job, evidence, self.config.use_bn)
        remaining = estimate.remaining(context.average_llm_batch_size, self.calibrator)
        return evidence, remaining, estimate.interval

    def estimate_remaining(self, job: Job, context: SchedulingContext) -> float:
        """Posterior (or historical) remaining duration, batch-calibrated."""
        return self._job_estimate(job, context)[1]

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def schedule(self, context: SchedulingContext) -> SchedulingDecision:
        jobs = [j for j in context.jobs if not j.is_finished]
        if not jobs:
            return SchedulingDecision()
        estimates = {job.job_id: self._job_estimate(job, context) for job in jobs}
        intervals = {job_id: interval for job_id, (_, _, interval) in estimates.items()}

        # Lines 1-4: SRTF-ordered stage list St.
        jobs_by_remaining = sorted(
            jobs, key=lambda j: (estimates[j.job_id][1], j.arrival_time, j.job_id)
        )
        srtf_stages: List[Tuple[Job, Stage]] = []
        for job in jobs_by_remaining:
            stages = sorted(
                job.schedulable_stages(),
                key=lambda s: (job.stage_depth(s.stage_id), s.stage_id),
            )
            srtf_stages.extend((job, s) for s in stages)

        # Lines 5-10: uncertainty-ordered stage list Su over non-overlapping
        # job groups.  Only uncertainty-reducing stages (R > 0) are worth
        # exploring; stages with nothing to reveal stay exclusively in St.
        exploration_stages: List[Tuple[Job, Stage]] = []
        if self.config.use_uncertainty and self.config.epsilon > 0.0:
            for group in self._non_overlapping_groups(jobs, intervals):
                group_stages: List[Tuple[float, float, str, Job, Stage]] = []
                for job in group:
                    evidence = estimates[job.job_id][0]
                    if evidence is None:
                        continue
                    for stage in job.schedulable_stages():
                        reduction = self.profiler.uncertainty_reduction(
                            job, stage.profile_key, evidence
                        )
                        if reduction <= 0.0:
                            continue
                        group_stages.append(
                            (-reduction, job.arrival_time, stage.stage_id, job, stage)
                        )
                group_stages.sort(key=lambda item: (item[0], item[1], item[2]))
                exploration_stages.extend((job, stage) for *_, job, stage in group_stages)

        # Lines 11-21: epsilon-greedy merge with task sampling.
        return self._merge_preferences(srtf_stages, exploration_stages, intervals)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _non_overlapping_groups(
        jobs: Sequence[Job], intervals: Dict[str, Tuple[float, float]]
    ) -> List[List[Job]]:
        """Group jobs whose remaining-duration intervals overlap (line 5).

        The groups themselves are ordered by their lower bound, so stages of
        a group of provably-shorter jobs always precede stages of longer
        ones in the exploration list.
        """
        ordered = []
        for job in jobs:
            lower, upper = intervals[job.job_id]
            ordered.append((lower, max(upper, lower), job))
        ordered.sort(key=lambda item: (item[0], item[1], item[2].job_id))

        groups: List[List[Job]] = []
        current: List[Job] = []
        current_upper = -math.inf
        for lower, upper, job in ordered:
            if not current or lower <= current_upper:
                current.append(job)
                current_upper = max(current_upper, upper)
            else:
                groups.append(current)
                current = [job]
                current_upper = upper
        if current:
            groups.append(current)
        return groups

    def _merge_preferences(
        self,
        srtf_stages: List[Tuple[Job, Stage]],
        exploration_stages: List[Tuple[Job, Stage]],
        intervals: Dict[str, Tuple[float, float]],
    ) -> SchedulingDecision:
        """ε-greedy merge of the exploitation and exploration lists.

        An exploration pick is only allowed to displace the current SRTF head
        when the explored job's remaining-duration interval overlaps the head
        job's interval — for non-overlapping jobs the SRTF order is already
        provably correct (the paper's rationale for the non-overlapping
        grouping), so exploring them ahead of a certainly-shorter job would
        only inflate the average JCT.
        """
        ordered_tasks: List[Task] = []
        seen_tasks: Set[int] = set()
        seen_stages: Set[Tuple[str, str]] = set()

        def stage_key(job: Job, stage: Stage) -> Tuple[str, str]:
            return (job.job_id, stage.stage_id)

        def add_tasks(tasks: Sequence[Task]) -> None:
            for task in tasks:
                if task.uid not in seen_tasks:
                    seen_tasks.add(task.uid)
                    ordered_tasks.append(task)

        def overlaps(job_a: Job, job_b: Job) -> bool:
            low_a, high_a = intervals[job_a.job_id]
            low_b, high_b = intervals[job_b.job_id]
            return low_a <= high_b and low_b <= high_a

        srtf_queue = deque(srtf_stages)
        exploration_queue = deque(exploration_stages)
        while srtf_queue and exploration_queue:
            job_t, stage_t = srtf_queue.popleft()
            explore = self._rng.random() <= self.config.epsilon
            candidate_index = None
            if explore:
                for index, (job_u, _) in enumerate(exploration_queue):
                    if job_u.job_id == job_t.job_id or overlaps(job_u, job_t):
                        candidate_index = index
                        break
            if candidate_index is not None:
                job_u, stage_u = exploration_queue[candidate_index]
                del exploration_queue[candidate_index]
                if stage_key(job_u, stage_u) not in seen_stages:
                    seen_stages.add(stage_key(job_u, stage_u))
                    add_tasks(self._sample_tasks(stage_u))
            else:
                if explore and exploration_queue:
                    exploration_queue.popleft()
                if stage_key(job_t, stage_t) not in seen_stages:
                    seen_stages.add(stage_key(job_t, stage_t))
                    add_tasks(stage_t.pending_tasks())

        # Line 21: attach every remaining task, SRTF stages first.
        for _job, stage in chain(srtf_queue, exploration_queue, srtf_stages, exploration_stages):
            add_tasks(stage.pending_tasks())

        return SchedulingDecision.from_tasks(ordered_tasks)

    def _sample_tasks(self, stage: Stage) -> List[Task]:
        """Release only a sampled fraction of an explored stage's tasks (line 15)."""
        pending = stage.pending_tasks()
        if not pending:
            return []
        count = max(1, int(math.ceil(len(pending) * self.config.sampling_ratio)))
        if count >= len(pending):
            return pending
        indices = self._rng.choice(len(pending), size=count, replace=False)
        return [pending[i] for i in sorted(int(i) for i in indices)]
