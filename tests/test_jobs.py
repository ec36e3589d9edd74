"""Job lifecycle bookkeeping of the ``repro serve`` daemon."""

import asyncio

import repro.server.jobs as jobs_mod
from repro.server.jobs import Job, JobState, parse_job_spec


class _Clock:
    """``time`` stand-in asserting the job is not terminal when read."""

    def __init__(self, job):
        self.job = job

    def time(self):
        assert self.job.state not in JobState.TERMINAL
        return 123.0


def test_finish_sets_state_last(monkeypatch):
    loop = asyncio.new_event_loop()
    try:
        job = Job("j1", parse_job_spec({"scenario": "quick"}), "c", loop)
        job.state = JobState.RUNNING
        monkeypatch.setattr(jobs_mod, "time", _Clock(job))
        job.finish(JobState.FAILED, "boom")
        status = job.status_dict()
    finally:
        loop.close()
    assert (job.state, job.finished, job.error) == (JobState.FAILED, 123.0, "boom")
    assert (status["state"], status["finished"]) == (JobState.FAILED, 123.0)
