"""First Come First Serve — Spark's default policy (job-agnostic baseline)."""

from __future__ import annotations

from typing import Tuple

from repro.dag.job import Job
from repro.schedulers.base import JobKey, PriorityScheduler, SchedulingContext

__all__ = ["FcfsScheduler"]


def _by_arrival(job: Job) -> Tuple[float, str]:
    return (job.arrival_time, job.job_id)


class FcfsScheduler(PriorityScheduler):
    """Schedule jobs strictly in arrival order.

    Within a job, stages are ordered by DAG depth so upstream work runs
    first; the policy uses no duration or structure profile at all.
    """

    name = "fcfs"

    def job_key(self, context: SchedulingContext) -> JobKey:
        return _by_arrival
