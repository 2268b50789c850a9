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
    From then on the caller runs none of a batch's jobs until the helper
    has started one, and takes none of a one-job batch's, so both threads
    surely run some jobs of a batch with two or more and the helper runs a
    lone one; while a side_by_side call runs, the threads switch every
    microsecond, so the two threads often run job bodies at once.
    The returned set collects running_thread() of every thread that ran a
    job of a call; the function's attribute background collects those that
    ran a job of a queued batch."""
    threads = set()

    class HelperFirst(nn.Batch):
        def __init__(self, jobs, first=False):
            jobs = list(jobs)
            self.started = threading.Event()
            self.lone = len(jobs) == 1
            ran = threads if first else switch_on.background

            def wrap(job):
                def run():
                    me = running_thread()
                    if me == "helper":
                        self.started.set()
                    else:
                        self.wait_for_the_helper()
                    ran.add(me)
                    job()
                return run

            # job bodies are a few microseconds at test sizes: without
            # frequent switches the thread that goes on first ends its job
            # before the other thread runs again
            self.interval = sys.getswitchinterval() if first else None
            if first:
                sys.setswitchinterval(1e-6)
            super().__init__([wrap(job) for job in jobs], first)

        def wait_for_the_helper(self):
            assert self.started.wait(10), "the helper ran no job in 10 s"

        def finish(self):
            # the caller would leave the helper nothing if it took a lone job
            if self.lone:
                self.wait_for_the_helper()
            super().finish()

        def cancel(self):
            super().cancel()
            if self.interval is not None:
                sys.setswitchinterval(self.interval)
                self.interval = None

    def switch_on():
        monkeypatch.setattr(nn, "_get_helper", lambda: helper)
        monkeypatch.setattr(nn, "Batch", HelperFirst)
        return threads

    switch_on.background = set()
    return switch_on


@pytest.fixture
def at_release(monkeypatch):
    """Returns a function that makes nn run each queued batch's jobs on the
    caller as soon as it is made: the earliest schedule there is. A call's
    batch keeps the schedule of the nn.Batch in place then (two_threads's,
    say)."""
    def switch_on():
        class AtOnce(nn.Batch):
            def __init__(self, jobs, first=False):
                if not first:
                    for job in jobs:
                        job()
                    jobs = ()
                super().__init__(jobs, first)

        monkeypatch.setattr(nn, "Batch", AtOnce)

    return switch_on
