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
    From then on the caller takes none of a call's shared jobs until the
    helper has run one, so both threads surely run some; the returned set
    collects the index of every thread that ran one."""
    threads = set()
    side_by_side = nn.side_by_side

    def first_one_to_the_helper(jobs, caller_jobs=()):
        started = threading.Event()

        def wrap(job):
            def run(thread):
                if thread:
                    assert started.wait(10), "the helper ran no job in 10 s"
                else:
                    started.set()
                threads.add(thread)
                job(thread)
            return run

        side_by_side([wrap(job) for job in jobs], caller_jobs)

    def switch_on():
        monkeypatch.setattr(nn, "_get_helper", lambda: helper)
        monkeypatch.setattr(nn, "side_by_side", first_one_to_the_helper)
        return threads

    return switch_on
