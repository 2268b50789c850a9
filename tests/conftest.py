import sys
import threading

import pytest

from shiftparse import nn


def running_thread() -> str:
    """"helper" on a thread that nn._Helper started, else "caller"."""
    return "helper" if threading.current_thread().name == "shiftparse.nn helper" else "caller"


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
    runs a lone one; while a call runs, the threads switch every
    microsecond, so the two threads often run job bodies at once.
    The returned set collects running_thread() of every thread that ran a
    shared job. Likewise a Background's finish() waits until the helper
    has started one of its jobs, if it has any; the function's attribute
    background collects the threads that ran one of those."""
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
                def run():
                    if running_thread() == "helper":
                        self.started.set()
                    switch_on.background.add(running_thread())
                    job()
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
            def run():
                me = running_thread()
                if me == "helper":
                    started.set()
                else:
                    wait_for_the_helper()
                threads.add(me)
                job()
            return run

        # the caller would leave the helper nothing if it took a lone job
        own = [*caller_jobs, wait_for_the_helper] if len(jobs) == 1 else caller_jobs
        # job bodies are a few microseconds at test sizes: without frequent
        # switches the thread that goes on first ends its job before the
        # other thread runs again
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            side_by_side([wrap(job) for job in jobs], own)
        finally:
            sys.setswitchinterval(interval)

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
                job()

    def switch_on():
        monkeypatch.setattr(nn, "Background", AtOnce)

    return switch_on
