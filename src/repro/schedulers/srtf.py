"""Shortest Remaining Time First with pluggable remaining-time estimation.

Plain SRTF (historical mean minus observed progress) is the JCT-efficient
component inside LLMSched's Algorithm 1 and also serves as the
"LLMSched w/o uncertainty" ablation when driven by the Bayesian estimator.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.dag.job import Job
from repro.schedulers.base import (
    JobKey,
    PriorityScheduler,
    SchedulingContext,
    SchedulingDecision,
)
from repro.schedulers.priors import ApplicationPriors

__all__ = ["SrtfScheduler"]

RemainingEstimator = Callable[[Job, SchedulingContext], float]


class SrtfScheduler(PriorityScheduler):
    """Order jobs by their estimated *remaining* duration.

    Parameters
    ----------
    priors:
        Historical per-application means used by the default estimator.
    remaining_estimator:
        Optional replacement estimator ``f(job, context) -> seconds``; the
        Bayesian profiler plugs in here for the "w/o uncertainty" ablation.
    """

    name = "srtf"

    def __init__(
        self,
        priors: Optional[ApplicationPriors] = None,
        remaining_estimator: Optional[RemainingEstimator] = None,
    ) -> None:
        if priors is None and remaining_estimator is None:
            raise ValueError("provide priors or a remaining_estimator")
        self._priors = priors
        self._estimator = remaining_estimator

    def estimate_remaining(self, job: Job, context: SchedulingContext) -> float:
        if self._estimator is not None:
            return self._estimator(job, context)
        assert self._priors is not None
        return self._priors.estimate_remaining(job)

    def job_key(self, context: SchedulingContext) -> JobKey:
        remaining = {
            job.job_id: self.estimate_remaining(job, context) for job in context.jobs
        }
        return lambda j: (remaining[j.job_id], j.arrival_time, j.job_id)

    def _schedule_with_remaining(
        self, context: SchedulingContext
    ) -> Tuple[SchedulingDecision, Dict[str, float]]:
        """(decision, job_id → estimated remaining) for one scheduling pass.

        The estimates are computed once and shared — the preemptive
        subclass reuses them for victim selection, so pluggable (expensive)
        estimators run once per job per pass, not twice.
        """
        key = self.job_key(context)
        decision = self._prioritized(context, key)
        return decision, {job.job_id: key(job)[0] for job in context.jobs}
