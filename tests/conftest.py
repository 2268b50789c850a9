import threading

import pytest

from shiftparse import nn


@pytest.fixture(scope="session")
def helper():
    """A helper thread of nn's own, started whatever the CPU count."""
    return nn._Helper()


@pytest.fixture
def two_threads(monkeypatch, helper):
    """Returns a function that switches nn to its two-thread path on the
    helper fixture, the serial path being nn._get_helper returning None.
    From then on the caller runs none of a call's shared jobs until the
    helper has started one, and takes none of a one-job call's, so both
    threads surely run some jobs of a call with two or more and the helper
    runs a lone one; the returned set collects the index of every thread
    that ran one. Likewise a Background's finish() waits until the helper
    has started one of its jobs, if it has any; the function's attribute
    background collects the index of every thread that ran one of those."""
    threads = set()
    side_by_side = nn.side_by_side

    class HelperFirst(nn.Background):
        def __init__(self):
            super().__init__()
            self.started = threading.Event()
            self.queued = False

        def add(self, jobs):
            self.queued = self.queued or bool(jobs)

            def wrap(job):
                def run(thread):
                    if not thread:
                        self.started.set()
                    switch_on.background.add(thread)
                    job(thread)
                return run

            super().add([wrap(job) for job in jobs])

        def finish(self):
            if self.queued:
                assert self.started.wait(10), "the helper ran no background job in 10 s"
            super().finish()

    def first_one_to_the_helper(jobs, caller_jobs=()):
        started = threading.Event()

        def wait_for_the_helper():
            assert started.wait(10), "the helper ran no job in 10 s"

        def wrap(job):
            def run(thread):
                if thread:
                    wait_for_the_helper()
                else:
                    started.set()
                threads.add(thread)
                job(thread)
            return run

        # the caller would leave the helper nothing if it took a lone job
        own = [*caller_jobs, wait_for_the_helper] if len(jobs) == 1 else caller_jobs
        side_by_side([wrap(job) for job in jobs], own)

    def switch_on():
        monkeypatch.setattr(nn, "_get_helper", lambda: helper)
        monkeypatch.setattr(nn, "side_by_side", first_one_to_the_helper)
        monkeypatch.setattr(nn, "Background", HelperFirst)
        return threads

    switch_on.background = set()
    return switch_on


@pytest.fixture
def at_release(monkeypatch):
    """Returns a function that makes nn run each background job on the
    caller as soon as it is added: the earliest schedule there is."""
    class AtOnce(nn.Background):
        def add(self, jobs):
            for job in jobs:
                job(1)

    def switch_on():
        monkeypatch.setattr(nn, "Background", AtOnce)

    return switch_on
