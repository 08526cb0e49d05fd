"""Shortest Job First — prioritise the job with the shortest estimated duration."""

from __future__ import annotations

from repro.schedulers.base import JobKey, PriorityScheduler, SchedulingContext
from repro.schedulers.priors import ApplicationPriors

__all__ = ["SjfScheduler"]


class SjfScheduler(PriorityScheduler):
    """Order jobs by the historical mean duration of their application.

    This is the strongest simple baseline on mixed workloads in the paper,
    but it ignores duration uncertainty: two jobs of the same application are
    indistinguishable, and a job whose actual duration deviates from the
    historical mean is mis-ranked.
    """

    name = "sjf"

    def __init__(self, priors: ApplicationPriors) -> None:
        self._priors = priors

    def job_key(self, context: SchedulingContext) -> JobKey:
        estimate = self._priors.estimate_total
        return lambda j: (estimate(j), j.arrival_time, j.job_id)
