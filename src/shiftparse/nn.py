"""Self-contained numeric core on top of numpy arrays.

Everything that needs gradients is written out by hand: embedding gathers,
a standard non-peephole LSTM with exact backpropagation through time, a
single-ReLU-hidden-layer classifier, inverted dropout, negative log
softmax, and ADADELTA. A finite-difference checker verifies any of it
against central differences.

Parameters live in a ParamStore: each named array is paired with a
gradient accumulator and the two ADADELTA running averages. Matrices are
initialized Glorot-uniform, embeddings uniform in [-0.01, 0.01], LSTM
forget-gate biases at 1.0.

Gate layout inside the fused LSTM weight matrix is [input, forget,
output, candidate], each block H wide; the first input_size rows act on
the input and the last H rows on the previous hidden state.

The LSTM runs one sequence or a packed batch of them (Packed: rows stored
time-major, longest sequence first, as in PyTorch's PackedSequence) and
keeps only the true recurrence inside its time loop (after Appleyard et
al. 2016). The forward pass computes the input side xs @ W_x + b for all
rows as one GEMM; step t then adds h[:a_t] @ W_h to its contiguous block
of a_t rows, where h is the previous step's block, whose first a_t rows
are the sequences still running. The backward pass fills one block of an
(n, 4H) matrix dZ of gate pre-activation gradients per step, with every
gate-derivative factor computed beforehand for all rows at once. After
the loop, the weight and input gradients are GEMMs over dZ:
dW_x += xs^T dZ, dW_h += H_prev^T dZ (H_prev gathers each row's
previous-step row), db += sum(dZ), dxs = dZ W_x^T. Each pass is built from
these phases (input GEMM, step loop, gradient GEMMs), the one copy of the
LSTM arithmetic; bilstm_forward and bilstm_backward run a Bi-LSTM layer's
two directions through the same phases, interleaved across two threads.
ADADELTA updates each parameter in place, one cache-sized chunk of its
flattened arrays at a time, through two scratch chunks per thread, and
each chunk is read from main memory once for the whole op sequence
instead of once per op. Without L2, a matrix most of
whose rows got no gradient (an embedding table) runs the sequence on a
copy of the other rows only; the rest just decay their two running
averages, which is what the sequence does at g = 0.

The classifier takes integer row ids. Its first layer is a gather-sum
over w1, a table of precomputed rows (one block per input slot, see
model.py): a state's pre-activation is b1 plus the rows its ids select,
which is x @ w1 + b1 for the dense x counting each selected row (the
tests' reference). Training passes (m, slots) ids, gathered and summed a
cache-sized chunk of states at a time, and decoding one state's (slots,)
ids in one gather; each row is summed the same way. The backward pass
accumulates each row's pre-activation gradient into the table gradient at
the rows it selected, as one counts-matrix GEMM over the distinct
selected rows only, so a large table (e.g. one stacked over a minibatch)
costs no more than the rows actually used. It can also hold back what it
would add (MlpTerms) for a later add in a fixed order.

Independent matrix work runs side by side on two threads, the "streams"
of Appleyard et al. 2016: both threads take the jobs of a Batch,
ADADELTA's chunks, model.py's per-slot first-layer GEMMs, or its
classifier's per-sentence forward, loss and backward passes. In a
Bi-LSTM layer, the helper takes whole GEMMs that overlap the other
direction's step loop: forward, the backward direction's input GEMM
while the caller runs the forward direction; backward, the forward
direction's three gradient GEMMs while the caller runs the backward
direction's step loop, and then either thread takes the backward
direction's three. A step loop always runs on the calling thread: two
of them at once only take turns at the GIL. A GEMM is never split
across the threads, as a split by rows can change its bits.

The helper keeps one list of batches and runs the front job of the
first, one job at a time. A side_by_side call, whose caller waits, puts
its batch at the front; queued work, whose caller goes on, at the back:
a training update (ParamStore.update) queues a parameter group's
ADADELTA chunks as soon as its gradient is final, and the helper runs
them during the rest of the backward pass, where it would otherwise
wait in the step loops. So a GEMM of a call waits for one chunk at
most. adadelta_step finishes the queued batches on both threads, then
updates the parameters not released.

The second thread starts on first use, and only when the process may run
on at least two CPUs (os.sched_getaffinity); a forked child starts its
own; without it, the caller runs every job itself.
Every output element goes through the same op sequence on either
thread, so results are bitwise those of one thread and do not depend on
the CPU count, at the one BLAS thread the shiftparse command runs with
(see __main__.py).

Training memory belongs to the model that trains (a Workspace, see
model.py), not to the ops. An op takes its large arrays through take(),
take_zeros() and gather(), which read the current workspace from a
context variable, so the ops keep their signatures: the LSTM's gates, c,
tanh c, h, backward factors, dZ, previous-row gather, product buffers and
dxs; the MLP's gathered w1 rows, pre-activations, hidden units, scores
and backward scratch; softmax's probabilities. An op that releases
scratch of its own before returning does so in scratch(). With no
workspace current (a caller of the ops), each is a new numpy array.
Decoding has no workspace, and its one-state classifier pass, run once
or twice per decode step, makes no take() or scratch() call at all. The
reason for workspaces is the kernel: freed at the end of each update,
the 30 MB (dependency parser) to 55 MB (constituency parser) of
such arrays of a ten-sentence update at the paper's sizes went back to
the operating system, and the next update faulted them in again as
zeroed pages: 6k-10k minor page faults and 10-45 ms of kernel time per
update, which took 130-350 ms in all. Taken from a workspace that an
earlier update filled, they touch no fresh page. A workspace is not
thread-safe, so a job takes its scratch where it runs: on the caller from
the current workspace, on the helper from that workspace's twin, released
when the job ends; never from the helper's malloc arena, which would keep
it resident. A caller takes only what outlives a job, such as its output.
ADADELTA's two scratch rows are the exception: each thread makes its own
pair on its first chunk and keeps it for its life (a take per chunk made a
float64 chunk take 147 us instead of 142, 2-core Xeon VM), so a job need
not know which thread runs it.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import math
import os
import queue
import threading

import numpy as np

# When enabled, key ops assert their outputs are finite. Cheap insurance
# while training without gradient clipping.
debug_checks = False

# ADADELTA updates each parameter in chunks of this many bytes: a chunk of
# its four arrays plus a thread's two scratch rows (1.5 MB) stay in a 2 MB
# L2.
ADADELTA_CHUNK_BYTES = 256 * 1024
# Training's mlp_forward gathers and sums the selected w1 rows of this many
# bytes at a time, a chunk that stays in cache: 32-40% faster at m = 100 and
# 170 states, 13 slots and 1000 hidden units, at either precision, than one
# (m, slots, hidden) gather, which also set the constituency workspace's peak
GATHER_CHUNK_BYTES = 256 * 1024
# model.py scores a minibatch's sentences as side_by_side jobs only where
# their hidden layers take this many bytes each on average: a smaller job
# spends much of its time in Python, where two threads take turns at the
# GIL. Dependency training's items, about 56 KB each, took 4.0-4.4 ms per
# update one by one and 6.0-6.3 ms as jobs; constituency training's, about
# 800 KB each, 24 and 18 ms (2-core Xeon VM, one BLAS thread)
CLASSIFIER_JOB_BYTES = 256 * 1024
# ParamStore.copy_values copies in chunks of this many values: the 68 MB of
# a default-size constituency model take 2.3-2.4 ms on two threads, against
# 2.8 ms in 256 KB chunks and 4.4 ms on one thread
_COPY_CHUNK_VALUES = 128 * 1024


def _check_finite(name, arr):
    if debug_checks and not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite values in %s" % name)


# ---------------------------------------------------------------------------
# second thread
# ---------------------------------------------------------------------------

class Batch:
    """Jobs that either thread may run: the helper takes them from the
    front, the caller from the back.

    Every job is a callable of no arguments. Creating a batch puts it on
    the helper's list, at the front when first (a side_by_side call, whose
    caller waits for it) and else at the back (queued work, whose caller
    goes on); with no helper (one CPU) it is put nowhere. finish() runs on
    the caller, from the back, the jobs the helper has not taken, waits for
    the one it runs, takes the batch off the list, and raises the error a
    job raised. cancel() drops the jobs not started and waits for the one
    running, as after an error nothing more may start. Jobs must be pure
    numpy calls that release the GIL and write only memory that no other
    job reads or writes, nor the caller before finish() returns, so the
    result does not depend on which thread runs what.

    The helper runs jobs in a copy of the caller's context, so np.errstate
    applies to them (numpy 2 keeps it in a context variable), and where the
    caller has a workspace current, its twin is current there instead: a
    job takes its scratch with take() and scratch() on either thread, and
    on the helper it is released when the job ends."""

    def __init__(self, jobs, first=False):
        self.jobs = collections.deque(jobs)
        self.context = contextvars.copy_context()
        # where the caller has a workspace, the helper's jobs take its twin's
        self.twin = None
        workspace = _current.get()
        if workspace is not None:
            self.twin = workspace.twin
            self.context.run(_current.set, self.twin)
        # held by the helper from taking a job until it has run it
        self.running = threading.Lock()
        self.error: BaseException | None = None
        helper = self.helper = _get_helper()
        if helper is not None:
            (helper.batches.appendleft if first else helper.batches.append)(self)
            helper.wake.put(None)

    def run_one(self) -> bool:
        """The helper's part, a job at a time: run the front job, and
        release what it took; False once none is left or one has raised."""
        with self.running:
            try:
                job = self.jobs.popleft()
            except IndexError:
                return False
            top = self.twin._top if self.twin is not None else 0
            try:
                self.context.run(job)
            except BaseException as exc:    # raised by the caller
                self.error = exc
                return False
            finally:
                if self.twin is not None:
                    self.twin._top = top
                # the caller goes on once the lock is free, and the job's
                # arrays (a released model's, say) must not outlive that
                del job
        return True

    def finish(self):
        try:
            while True:
                try:
                    job = self.jobs.pop()
                except IndexError:
                    break
                job()
        finally:
            self.cancel()   # also after an error here
        if self.error is not None:
            raise self.error

    def cancel(self):
        self.jobs.clear()
        with self.running:
            pass
        if self.helper is not None:
            try:
                self.helper.batches.remove(self)
            except ValueError:  # the helper took it off
                pass


class _Helper:
    """A daemon thread that runs the front job of the first batch on its
    list, one job at a time."""

    def __init__(self):
        self.batches = collections.deque()
        self.wake = queue.SimpleQueue()     # a token per batch added
        threading.Thread(target=self._serve, name="shiftparse.nn helper", daemon=True).start()

    def _serve(self):
        while True:
            self.wake.get()
            while self._run_front():
                pass

    def _run_front(self) -> bool:
        """Run the front job of the first batch; False when there is none."""
        try:
            batch = self.batches[0]
        except IndexError:
            return False
        if not batch.run_one():
            # none left, or one raised: its caller finishes it
            try:
                self.batches.remove(batch)
            except ValueError:  # its caller took it off
                pass
        return True


_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _get_helper() -> _Helper | None:
    """The helper thread, started on first use; None when this process may
    run on one CPU only."""
    global _helper
    with _helper_lock:
        if _helper is None and _cpus() >= 2:
            _helper = _Helper()
        return _helper


def _forget_helper():
    # a forked child has only the thread that forked; it starts its own
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def side_by_side(jobs, caller_jobs=()):
    """Run independent jobs on two threads and return when all are done.

    jobs become a Batch at the front of the helper's list, so the
    helper's next job is one of them; the caller runs caller_jobs in order
    and then finishes the batch, so it never waits for a helper that is
    slow to start, only for the job the helper is running. Without a
    helper the caller runs caller_jobs and then jobs, in order. Raises the
    caller's exception, or else the helper's. A caller job may call side_by_side itself (as
    bilstm_backward's does): that call's batch goes in front of this one,
    so a free helper takes its jobs first."""
    if not jobs or _get_helper() is None:
        for job in (*caller_jobs, *jobs):
            job()
        return
    batch = Batch(jobs, first=True)
    try:
        for job in caller_jobs:
            job()
    except BaseException:
        batch.cancel()
        raise
    batch.finish()


# ---------------------------------------------------------------------------
# training memory
# ---------------------------------------------------------------------------

_current: contextvars.ContextVar = contextvars.ContextVar("shiftparse.nn workspace",
                                                          default=None)
_ALIGN = 64     # bytes; every array taken starts on a cache line
_NO_SCOPE = contextlib.nullcontext()
# bytes in a workspace's first block at least: glibc's largest dynamic mmap
# threshold, so that every block is a mapping of its own, never heap memory
# that the program's other arrays would share; its pages are mapped only
# once touched
_FIRST_BLOCK = 32 << 20


def _aligned(nbytes: int) -> np.ndarray:
    """nbytes of uninitialised memory that start on a cache line (np.empty's
    start 16 bytes past one)."""
    memory = np.empty(nbytes + _ALIGN, np.uint8)
    lead = -memory.ctypes.data % _ALIGN
    return memory[lead:lead + nbytes]


class Workspace:
    """Memory that training keeps from one update to the next.

    A stack of bytes: take() hands out the next free bytes as an array, and
    a scope() gives back, when it ends, everything taken inside it. So two
    arrays share memory only when one was released before the other was
    taken. The bytes lie in blocks, each at least as large as all before it
    together, so a few blocks hold any update; an array that does not fit
    in what is left of a block starts the next one, and where there is
    none, a block is added. Nothing is freed before the workspace is: it
    grows to the largest update seen, and an update that fits touches no
    fresh page.

    While a scope is open the workspace is current in its context, and
    take(), take_zeros(), gather() and scratch() below use it; with none
    current they allocate as numpy does."""

    def __init__(self):
        # (first byte, end, memory), with bytes numbered on from one block
        # to the next
        self._blocks: list[tuple[int, int, np.ndarray]] = []
        self._top = 0       # the bytes below are taken by the open scopes

    @functools.cached_property
    def twin(self) -> Workspace:
        """The workspace of the jobs that the helper runs for this one's caller."""
        return Workspace()

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised C-contiguous array, valid until the innermost
        open scope ends."""
        dtype = np.dtype(dtype)
        nbytes = -(-math.prod(shape) * dtype.itemsize // _ALIGN) * _ALIGN
        for start, end, memory in self._blocks:
            at = max(self._top, start)
            if at + nbytes <= end:
                break
        else:
            start = at = self._blocks[-1][1] if self._blocks else 0
            memory = _aligned(max(nbytes, start, _FIRST_BLOCK))
            self._blocks.append((start, start + len(memory), memory))
        self._top = at + nbytes
        return np.ndarray(shape, dtype, buffer=memory, offset=at - start)

    @contextlib.contextmanager
    def scope(self):
        """Make this workspace current; release what is taken inside."""
        top, token = self._top, _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)
            self._top = top


def take(shape: tuple, dtype) -> np.ndarray:
    """np.empty(shape, dtype), from the current workspace when there is one."""
    workspace = _current.get()
    return np.empty(shape, dtype) if workspace is None else workspace.take(shape, dtype)


def take_zeros(shape: tuple, dtype) -> np.ndarray:
    """np.zeros(shape, dtype), from the current workspace when there is one."""
    workspace = _current.get()
    if workspace is None:
        return np.zeros(shape, dtype)
    out = workspace.take(shape, dtype)
    out.fill(0)
    return out


def scratch():
    """A scope of the current workspace, if any: what is taken inside is
    released when it ends."""
    workspace = _current.get()
    return _NO_SCOPE if workspace is None else workspace.scope()


def gather(a: np.ndarray, rows) -> np.ndarray:
    """a[rows] for rows a slice or an integer array: a copy of the rows it
    selects, from the current workspace when there is one."""
    workspace = _current.get()
    if workspace is None or isinstance(rows, slice):
        return a[rows]
    # rows are the program's own and in range; mode="raise" would make
    # np.take fill a temporary copy first
    return np.take(a, rows, axis=0, out=workspace.take(rows.shape + a.shape[1:], a.dtype),
                   mode="clip")


class Param:
    """A named value with its gradient and ADADELTA averages."""

    __slots__ = ("name", "value", "grad", "eg2", "ed2")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        # np.zeros maps pages lazily, so a model that never trains holds no
        # resident gradient or optimizer state
        self.grad = np.zeros(value.shape, value.dtype)
        self.eg2 = np.zeros(value.shape, value.dtype)   # E[g^2]
        self.ed2 = np.zeros(value.shape, value.dtype)   # E[dx^2]


class _Update:
    """An open ParamStore.update: its queued batches and arguments, the
    names of the parameters released, the rows declared per parameter name
    and the row subsets to write back."""

    __slots__ = ("batches", "rates", "released", "rows", "subsets")

    def __init__(self, rates: tuple):
        self.batches: list[Batch] = []
        self.rates = rates
        self.released: set[str] = set()
        self.rows: dict[str, list] = {}
        self.subsets: list = []


def _check_rates(rho: float, eps: float):
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")


def _chunks(arrays, size: int) -> list:
    """The same slices of size values of each flattened C-contiguous array,
    as views, chunk by chunk."""
    flats = [arr.reshape(-1) for arr in arrays]
    return [[flat[start:start + size] for flat in flats] for start in range(0, len(flats[0]), size)]


class ParamStore:
    """Named trainable arrays with gradient and optimizer state."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Param] = {}
        self._update: _Update | None = None

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._params:
            raise ValueError("duplicate parameter name %r" % name)
        param = Param(name, np.ascontiguousarray(value, dtype=self.dtype))
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def zero_grads(self):
        for p in self:
            p.grad[...] = 0.0

    def copy_values(self, out: dict[str, np.ndarray]):
        """out[name][...] = value for every parameter, out's arrays being
        C-contiguous, in chunk jobs on both threads."""
        side_by_side([functools.partial(_copy, *views) for p in self
                      for views in _chunks((out[p.name], p.value), _COPY_CHUNK_VALUES)])

    @contextlib.contextmanager
    def update(self, rho: float, eps: float, l2: float):
        """The scope of one training update, ended by one adadelta_step(rho,
        eps, l2), whose ADADELTA step starts early: release(params) queues
        the chunks of parameters whose gradients are final as a Batch, and
        the helper thread runs them while the caller goes on with the
        backward pass; adadelta_step finishes them and updates the rest.
        When the scope ends in an error, the jobs not started are dropped
        and the running one is awaited before the error goes on."""
        _check_rates(rho, eps)
        self._update = update = _Update((rho, eps, l2))
        try:
            yield
        finally:
            self._update = None
            for batch in update.batches:
                batch.cancel()

    def release(self, params):
        """Inside update(), start the ADADELTA update of params, whose
        gradients are final and whose values nothing reads before the
        update's adadelta_step; elsewhere nothing."""
        update = self._update
        if update is not None:
            params = list(params)
            update.released.update(p.name for p in params)
            update.batches.append(Batch(self._adadelta_jobs(params, *update.rates, update.rows,
                                                            update.subsets)))

    def declare_rows(self, p: Param, rows):
        """Inside update(), declare integer rows among which lie all rows of
        the matrix p whose gradient this update makes nonzero (rows may
        repeat), so that its ADADELTA step need not scan the gradient for
        them; elsewhere nothing."""
        if self._update is not None:
            self._update.rows.setdefault(p.name, []).append(rows)

    def _adadelta_jobs(self, params, rho, eps, l2, declared, subsets) -> list:
        """adadelta_step's jobs for params, chunk by chunk. The row subset
        of a sparse parameter (see adadelta_step) is updated in a copy,
        which goes into subsets, (param, rows, copies), to be written back
        once the jobs have run; the jobs decay its whole accumulators.
        declared maps a parameter's name to the rows declare_rows gave for
        it."""
        chunk = ADADELTA_CHUNK_BYTES // self.dtype.itemsize
        jobs = []
        for p in params:
            arrays = (p.value, p.grad, p.eg2, p.ed2)
            if not l2 and p.value.ndim == 2:
                touched = _touched_rows(p, declared.get(p.name))
                if touched is not None and 2 * len(touched) < len(p.value):
                    arrays = tuple(arr[touched] for arr in arrays)
                    subsets.append((p, touched, arrays))
                    jobs += [functools.partial(_decay, *views, rho)
                             for views in _chunks((p.eg2, p.ed2), chunk)]
            # walked a chunk at a time, so that the whole op sequence runs
            # on data held in cache
            jobs += [functools.partial(_adadelta_chunk, *views, rho, eps, l2)
                     for views in _chunks(arrays, chunk)]
        return jobs

    def adadelta_step(self, rho: float = 0.99, eps: float = 1e-7, l2: float = 0.0):
        """One ADADELTA update over every parameter; clears gradients.

        Per coordinate: E[g2] <- rho E[g2] + (1-rho) g^2;
        dx = -sqrt(E[dx2]+eps)/sqrt(E[g2]+eps) * g;
        E[dx2] <- rho E[dx2] + (1-rho) dx^2; x <- x + dx.
        The update is elementwise, so parameter ordering cannot change it.
        Every operation is done in place, in the order of the formulas
        above, so the result is bitwise that of evaluating them directly.
        With l2 > 0 the gradient buffer itself becomes g + l2 x before it
        is cleared.

        With l2 = 0, a coordinate of zero gradient only decays its
        accumulators: E[g2] <- rho E[g2], E[dx2] <- rho E[dx2], x unchanged;
        the op sequence gives it those very bits. So where fewer than half
        the rows of a matrix (e.g. an embedding table) have a nonzero
        gradient, the op sequence runs on a copy of those rows only, the
        rest get just the two decays, and the result is bitwise that of the
        dense update. The rows are those declared for it inside update()
        (declare_rows), where that was done, else those the gradient shows.

        Both threads take the chunks. Inside update(), with that update's
        arguments, the parameters released are updated by the queued
        batches this finishes, newest first, and the others as above.
        """
        _check_rates(rho, eps)
        update, self._update = self._update, None
        if update is None:
            update = _Update((rho, eps, l2))
        elif update.rates != (rho, eps, l2):
            raise ValueError("adadelta_step takes its update's rho, eps and l2 %r"
                             % (update.rates,))
        jobs = self._adadelta_jobs([p for p in self if p.name not in update.released],
                                   rho, eps, l2, update.rows, update.subsets)
        for batch in reversed(update.batches):
            batch.finish()
        side_by_side(jobs)
        for p, rows, arrays in update.subsets:
            p.value[rows], p.eg2[rows], p.ed2[rows] = arrays[0], arrays[2], arrays[3]
            p.grad[rows] = 0.0
        for p in self:
            _check_finite(p.name, p.value)


def _touched_rows(p: Param, declared):
    """Sorted rows of the matrix p holding every nonzero of its gradient:
    the declared rows, where there are any, else the gradient's nonzero
    rows, or None where half of its rows or more are nonzero."""
    if declared is not None:
        return np.unique(np.concatenate(declared))
    # the rows with a nonzero gradient include those nonzero in column 0,
    # so if half of those are, the matrix is dense
    if 2 * np.count_nonzero(p.grad[:, 0]) >= len(p.value):
        return None
    return np.flatnonzero(p.grad.any(axis=1))


def _copy(out, value):
    """out[...] = value"""
    np.copyto(out, value)


def _decay(eg2, ed2, rho):
    """The accumulators of a zero gradient: E[g2] <- rho E[g2], E[dx2] <- rho E[dx2]"""
    eg2 *= rho
    ed2 *= rho


# each thread's two ADADELTA scratch rows, as a (2, row bytes) array made
# on the thread's first chunk and made again only for a longer chunk
_thread_rows = threading.local()


def _adadelta_chunk(x, g, eg2, ed2, rho, eps, l2):
    """ParamStore.adadelta_step's op sequence on one chunk of a parameter's
    value, gradient and accumulators, through the running thread's two
    scratch rows. Each starts on a cache line: np.empty's start 16 bytes
    past one, and a float64 chunk took 241-301 us on them against 232-282
    on aligned rows (2-core Xeon VM)."""
    rows = getattr(_thread_rows, "rows", None)
    if rows is None or rows.shape[1] < x.nbytes:
        size = -(-max(x.nbytes, ADADELTA_CHUNK_BYTES) // _ALIGN) * _ALIGN
        rows = _thread_rows.rows = _aligned(2 * size).reshape(2, size)
    a, b = rows.view(x.dtype)[:, :len(x)]
    if l2:
        np.multiply(l2, x, out=a)
        g += a
    eg2 *= rho
    np.multiply(1.0 - rho, g, out=a)
    a *= g
    eg2 += a
    # a <- -dx = sqrt(E[dx2] + eps) / sqrt(E[g2] + eps) * g; negating is
    # exact, so dx*dx and x - (-dx) round as in the formulas
    np.add(ed2, eps, out=a)
    np.sqrt(a, out=a)
    np.add(eg2, eps, out=b)
    np.sqrt(b, out=b)
    a /= b
    a *= g
    ed2 *= rho
    np.multiply(1.0 - rho, a, out=b)
    b *= a
    ed2 += b
    x -= a
    g[...] = 0.0


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape=None, dtype=np.float64) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)


def embedding_init(rng: np.random.Generator, rows: int, dims: int,
                   scale: float = 0.01, dtype=np.float64) -> np.ndarray:
    return rng.uniform(-scale, scale, size=(rows, dims)).astype(dtype, copy=False)


def lstm_init(rng: np.random.Generator, input_size: int, hidden: int,
              dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Fused (input_size+hidden, 4H) weight matrix and (4H,) bias with the
    forget-gate block of the bias at 1.0."""
    w = glorot(rng, input_size + hidden, hidden, shape=(input_size + hidden, 4 * hidden),
               dtype=dtype)
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = 1.0
    return w, b


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

class Packed:
    """Variable-length sequences packed time-major for one LSTM call.

    rows holds step 0 of every sequence, then step 1 of the sequences still
    running, and so on, with the sequences sorted longest first (the layout
    of PyTorch's PackedSequence). batch_sizes[t] is how many sequences run at
    step t, so step t is one contiguous block of rows, and the sequences that
    run on at step t+1 are the first batch_sizes[t+1] rows of that block.
    shape is that of rows.

    gates, when given, holds the rows' input pre-activations rows @ W_x + b
    for the weights the batch is run with, computed beforehand (as
    bilstm_forward has the helper thread do); lstm_forward takes them as
    they are and overwrites them with the gate activations.
    """

    __slots__ = ("rows", "batch_sizes", "gates")

    def __init__(self, rows: np.ndarray, batch_sizes, gates: np.ndarray | None = None):
        sizes = np.asarray(batch_sizes, dtype=np.intp)
        if np.any(sizes <= 0):
            raise ValueError("batch_sizes must be positive")
        if np.any(sizes[1:] > sizes[:-1]):
            raise ValueError("batch_sizes must be non-increasing")
        if sizes.sum() != len(rows):
            raise ValueError("batch_sizes sum to %d, not to len(rows) %d"
                             % (sizes.sum(), len(rows)))
        self.rows = rows
        self.batch_sizes = sizes
        self.gates = gates

    @property
    def shape(self):
        return self.rows.shape


def _block(start: int, size: int):
    """Index of size rows from start: a lone row as an int, so that a step
    of a single sequence works on 1-D rows, where each numpy call costs
    less than on a (1, n) block."""
    return start if size == 1 else slice(start, start + size)


# jobs for side_by_side; each keeps the op sequence of the expression in its
# docstring, so either thread gives the same bits

def set_product(a, b, out):
    """out = a @ b"""
    np.matmul(a, b, out=out)


def set_gathered_product(a, rows, b, out):
    """out = gather(a, rows) @ b"""
    with scratch():
        np.matmul(gather(a, rows), b, out=out)


def add_product(a, b, out):
    """out += a @ b"""
    with scratch():
        out += np.matmul(a, b, out=take(out.shape, np.result_type(a, b)))


def add_gathered_product(a, rows, b, out):
    """out += gather(a, rows)^T @ b"""
    with scratch():
        add_product(gather(a, rows).T, b, out)


def _lstm_input(w, b, xs, out):
    """out = xs @ W_x + b: the input-side gate pre-activations of every row"""
    np.matmul(xs, w[:xs.shape[1]], out=out)
    out += b


def lstm_forward(w: np.ndarray, b: np.ndarray, xs):
    """Run an LSTM from zero initial state over xs: one sequence as an
    (n, input_size) array, or a Packed batch of sequences.

    Per step: i,f,o = sigmoid, g = tanh, c = f*c_prev + i*g,
    h = o*tanh(c), with sigmoid(z) computed as (1 + tanh(z/2)) / 2.
    Returns (hs, cache) with hs of shape (n, H), row for row with the
    input; the cache carries every per-step activation the backward pass
    needs and the batch sizes.
    """
    gates = None
    if isinstance(xs, Packed):
        xs, sizes, gates = xs.rows, xs.batch_sizes, xs.gates
    else:
        sizes = np.ones(len(xs), dtype=np.intp)
    n, input_size = xs.shape
    hidden = b.shape[0] // 4
    if input_size + hidden != w.shape[0]:
        raise ValueError("input size %d does not match weight matrix %r" % (input_size, w.shape))
    if gates is None:
        # input-side pre-activations of every row, activated block by block below
        gates = take((n, 4 * hidden), xs.dtype)     # i,f,o,g
        _lstm_input(w, b, xs, gates)
    s3 = 3 * hidden
    w_h = w[input_size:]
    cs = take((n, hidden), xs.dtype)
    tanh_cs = take((n, hidden), xs.dtype)
    hs = take((n, hidden), xs.dtype)
    # h and c of the previous step's block, from its row at; the first
    # step's is the zero state
    h = c = take_zeros((sizes[0] if len(sizes) else 0, hidden), xs.dtype)
    at = start = 0
    for size in sizes.tolist():
        rows, prev = _block(start, size), _block(at, size)
        z = gates[rows]
        z += h[prev] @ w_h
        sig = z[..., :s3]
        sig *= 0.5
        np.tanh(sig, out=sig)
        sig += 1.0
        sig *= 0.5
        np.tanh(z[..., s3:], out=z[..., s3:])
        np.multiply(z[..., hidden:2 * hidden], c[prev], out=cs[rows])
        cs[rows] += z[..., :hidden] * z[..., s3:]
        np.tanh(cs[rows], out=tanh_cs[rows])
        np.multiply(z[..., 2 * hidden:s3], tanh_cs[rows], out=hs[rows])
        h, c, at = hs, cs, start
        start += size
    _check_finite("lstm_forward", hs)
    cache = (xs, gates, cs, tanh_cs, hs, sizes)
    return hs, cache


def lstm_backward(w: np.ndarray, b: np.ndarray, cache, dhs: np.ndarray,
                  dw: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Exact BPTT for lstm_forward. Accumulates into dw/db, returns dxs
    row for row with the forward input. The step loop runs on the calling
    thread; its three gradient GEMMs run side by side."""
    dZ, prev = _lstm_backward_steps(w, cache, dhs)
    return _lstm_gradients(w, cache, dZ, prev, dw, db)


def _sigmoid_factor(s, by, t, out):
    """out = by * (s * (1 - s)), by times the sigmoid's derivative at its
    value s, through the scratch array t"""
    np.subtract(1.0, s, out=t)
    np.multiply(s, t, out=t)
    np.multiply(by, t, out=out)


def _tanh_factor(s, by, t, out):
    """out = by * (1 - s * s), by times tanh's derivative at its value s,
    through the scratch array t"""
    np.multiply(s, s, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(by, t, out=out)


def _lstm_backward_steps(w, cache, dhs):
    """lstm_backward's step loop: returns dZ, the gate pre-activation
    gradients of every row, and prev, the row of each row of steps 1.. at
    the step before."""
    xs, gates, cs, tanh_cs, hs, sizes = cache
    n, hidden = hs.shape
    s3 = 3 * hidden
    i = gates[:, :hidden]
    f = gates[:, hidden:2 * hidden]
    o = gates[:, 2 * hidden:s3]
    g = gates[:, s3:]
    # row of each step-t row's own sequence at step t-1, for the rows of
    # steps 1.. (the first block's previous state is zero): the first
    # sizes[t] rows of block t-1
    first = sizes[0] if len(sizes) else 0
    prev = np.arange(first, n) - np.repeat(sizes[:-1], sizes[1:])
    w_h = w[xs.shape[1]:]
    dZ = take((n, 4 * hidden), xs.dtype)
    with scratch():
        c_prev = take((n, hidden), xs.dtype)
        c_prev[:first] = 0.0
        np.take(cs, prev, axis=0, out=c_prev[first:], mode="clip")
        # dZ[r] = [dc, dc, dh, dc][r] * factors[r], gate block by gate block
        factors = take((n, 4 * hidden), xs.dtype)
        dc_dh = take((n, hidden), xs.dtype)     # dh/dc of h = o*tanh(c)
        t = take((n, hidden), xs.dtype)
        _sigmoid_factor(i, g, t, factors[:, :hidden])
        _sigmoid_factor(f, c_prev, t, factors[:, hidden:2 * hidden])
        _sigmoid_factor(o, tanh_cs, t, factors[:, 2 * hidden:s3])
        _tanh_factor(g, i, t, factors[:, s3:])
        _tanh_factor(tanh_cs, o, t, dc_dh)
        # gradients into the next step's previous state, in its first rows;
        # the rows past the sequences that run on stay zero
        dh_next = take_zeros((first, hidden), xs.dtype)
        dc_next = take_zeros((first, hidden), xs.dtype)
        stop = n
        for size in sizes[::-1].tolist():
            rows, nxt = _block(stop - size, size), _block(0, size)
            dh = dhs[rows] + dh_next[nxt]
            dc = dh * dc_dh[rows]
            dc += dc_next[nxt]
            dz, k = dZ[rows], factors[rows]
            np.multiply(dc, k[..., :hidden], out=dz[..., :hidden])
            np.multiply(dc, k[..., hidden:2 * hidden], out=dz[..., hidden:2 * hidden])
            np.multiply(dh, k[..., 2 * hidden:s3], out=dz[..., 2 * hidden:s3])
            np.multiply(dc, k[..., s3:], out=dz[..., s3:])
            np.matmul(dz, w_h.T, out=dh_next[nxt])
            np.multiply(dc, f[rows], out=dc_next[nxt])
            stop -= size
    return dZ, prev


def _lstm_gradients(w, cache, dZ, prev, dw, db, caller_jobs=()):
    """The rest of lstm_backward, from its step loop's dZ and prev: the
    three GEMMs dw[:input_size] += xs^T dZ, dw[input_size:] += H_prev^T dZ
    and dxs = dZ W_x^T as side_by_side jobs, each whole on one thread,
    after the caller has run caller_jobs; then db += sum(dZ). Returns dxs."""
    xs = cache[0]
    n, input_size = xs.shape
    dxs = take((n, input_size), np.result_type(dZ, w))
    side_by_side([functools.partial(add_product, xs.T, dZ, dw[:input_size]),
                  functools.partial(add_gathered_product, cache[4], prev, dZ[n - len(prev):],
                                    dw[input_size:]),
                  functools.partial(set_product, dZ, w[:input_size].T, dxs)],
                 caller_jobs)
    db += dZ.sum(axis=0)
    return dxs


def bilstm_forward(fwd, bwd):
    """lstm_forward(*fwd) and lstm_forward(*bwd), returning both (hs,
    cache), for two LSTMs over Packed batches that share no array (a
    Bi-LSTM layer's directions). While the caller runs lstm_forward(*fwd),
    the helper thread computes bwd's input pre-activations; the caller then
    runs bwd's step loop, in lstm_forward on a Packed batch that carries
    them. The results are bitwise those of the two calls."""
    w, b, xs = bwd
    gates = take((len(xs.rows), len(b)), xs.rows.dtype)
    first = []
    side_by_side([functools.partial(_lstm_input, w, b, xs.rows, gates)],
                 [lambda: first.append(lstm_forward(*fwd))])
    return first[0], lstm_forward(w, b, Packed(xs.rows, xs.batch_sizes, gates))


def bilstm_backward(fwd, bwd):
    """lstm_backward(*fwd) and lstm_backward(*bwd), returning both dxs,
    for two LSTMs that share no array (a Bi-LSTM layer's directions). The
    caller runs fwd's step loop, then all of lstm_backward(*bwd) while the
    helper thread takes fwd's three gradient GEMMs, and whichever thread is
    free takes those of bwd. So fwd's work runs outside any lstm_backward
    call. The results are bitwise those of the two calls."""
    w, b, cache, dhs, dw, db = fwd
    dZ, prev = _lstm_backward_steps(w, cache, dhs)
    second = []
    first = _lstm_gradients(w, cache, dZ, prev, dw, db,
                            [lambda: second.append(lstm_backward(*bwd))])
    return first, second[0]


# ---------------------------------------------------------------------------
# dropout, MLP, loss
# ---------------------------------------------------------------------------

def dropout_mask(rng: np.random.Generator, shape, p: float, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability p, survivors scaled by
    1/(1-p), so the train-mode expectation equals the input."""
    if not (0.0 <= p < 1.0):
        raise ValueError("dropout probability must lie in [0, 1)")
    keep = rng.random(shape) >= p
    return keep.astype(dtype) / (1.0 - p)


def mlp_forward(w1, b1, w2, b2, x: np.ndarray):
    """Affine -> ReLU -> affine over the rows of w1 that the integer ids x,
    (m, slots) or (slots,), select: the hidden pre-activation is b1 plus
    the sum of the selected rows. Returns (scores, cache), scores (m, K)
    or (K,). Training's (m, slots) ids gather and sum GATHER_CHUNK_BYTES
    of rows at a time, each row summed as w1[x].sum(axis=-2) sums it, into
    arrays taken from the current workspace. Decoding's one state, (slots,)
    ids, is one gather and sum into new arrays, by the same ops."""
    if x.ndim == 1:
        pre = np.add.reduce(w1[x], axis=-2)
        pre += b1
        hid = np.maximum(pre, 0.0)
        scores = np.matmul(hid, w2)
    else:
        pre = take(x.shape[:-1] + w1.shape[1:], w1.dtype)
        with scratch():
            rows = max(1, GATHER_CHUNK_BYTES // (x.shape[1] * w1.shape[1] * w1.itemsize))
            part = take((min(rows, len(x)),) + x.shape[1:] + w1.shape[1:], w1.dtype)
            for start in range(0, len(x), rows):
                ids = x[start:start + rows]
                np.take(w1, ids, axis=0, out=part[:len(ids)], mode="clip")
                np.add.reduce(part[:len(ids)], axis=-2, out=pre[start:start + rows])
        pre += b1
        hid = np.maximum(pre, 0.0, out=take(pre.shape, pre.dtype))
        scores = np.matmul(hid, w2, out=take(hid.shape[:-1] + w2.shape[1:], hid.dtype))
    scores += b2
    _check_finite("mlp_forward", scores)
    return scores, (x, pre, hid)


def mlp_backward(w1, b1, w2, b2, cache, dscores, dw1, db1, dw2, db2, terms=None):
    """Backward for mlp_forward over (m, slots) ids, given (m, K) dscores;
    accumulates into the d* arrays, dw1 receiving each row's pre-activation
    gradient at every row of w1 it selected.

    Given terms, an MlpTerms taken for this call (passed positionally), it
    adds to dw1 only at the rows that terms.shared leaves out, which no
    other call selects, and writes everything else it would add into terms:
    terms.add(dw1, db1, dw2, db2) adds that later, by the same ops. So calls
    that run on two threads can be added in a fixed order."""
    x = cache[0]
    with scratch():
        used, inverse = np.unique(x.ravel(), return_inverse=True)
        own = terms if terms is not None else MlpTerms(len(used), *w2.shape, dscores.dtype)
        _mlp_terms(w2, cache, dscores, used, inverse, dw1, own)
        if terms is None:
            own.add(dw1, db1, dw2, db2)


class MlpTerms:
    """What an mlp_backward call adds to the gradients, held until add():
    the product for dW2, the sums for db2 and db1, and the products for the
    rows of dw1 that other calls may select too, with those rows. shared
    marks such rows of dw1 (a boolean mask; None marks them all). Its arrays
    are taken on construction, for that many rows at most."""

    __slots__ = ("dw2", "db2", "db1", "drows", "used", "shared")

    def __init__(self, rows: int, hidden: int, classes: int, dtype, shared=None):
        self.dw2 = take((hidden, classes), dtype)
        self.db2 = take((classes,), dtype)
        self.db1 = take((hidden,), dtype)
        self.drows = take((rows, hidden), dtype)
        self.used = None
        self.shared = shared

    def add(self, dw1, db1, dw2, db2):
        """dW2 += hid^T dscores, db2 += sum(dscores), db1 += sum(dpre) and
        dw1[used] += counts dpre at the rows held, as mlp_backward adds them."""
        dw2 += self.dw2
        db2 += self.db2
        db1 += self.db1
        _scatter_add(dw1, self.used, self.drows[:len(self.used)])


def _scatter_add(out, rows, values, at=None):
    """out[rows] += values[at], or values itself without at, for sorted
    distinct rows, GATHER_CHUNK_BYTES of rows at a time"""
    step = max(1, GATHER_CHUNK_BYTES // (math.prod(out.shape[1:]) * out.itemsize))
    with scratch():
        summed = take((min(step, len(rows)),) + out.shape[1:], out.dtype)
        picked = None if at is None else take(summed.shape, values.dtype)
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            part = summed[:len(chunk)]
            np.take(out, chunk, axis=0, out=part, mode="clip")
            if at is None:
                part += values[start:start + step]
            else:
                part += np.take(values, at[start:start + step], axis=0,
                                out=picked[:len(chunk)], mode="clip")
            out[chunk] = part


def _mlp_terms(w2, cache, dscores, used, inverse, dw1, terms):
    """mlp_backward's products and sums, into terms, or into dw1 at the rows
    terms.shared leaves out; used and inverse are np.unique's of the ids."""
    x, pre, hid = cache
    np.matmul(hid.T, dscores, out=terms.dw2)
    np.add.reduce(dscores, axis=0, out=terms.db2)
    # the table rows' products, and then, where some go to dw1, their own
    # buffer, which outlives dpre
    if terms.shared is None:
        product = terms.drows[:len(used)]
    else:
        product = take((len(used), pre.shape[1]), pre.dtype)
    with scratch():
        dpre = np.matmul(dscores, w2.T, out=take(pre.shape, pre.dtype))    # dhid
        dpre *= np.greater(pre, 0.0, out=take(pre.shape, bool))
        np.add.reduce(dpre, axis=0, out=terms.db1)
        # counts[r, i]: how often row i selected the r-th distinct selected
        # row of w1; as a GEMM this is far faster than np.add.at over the
        # (m, slots, hidden) scatter, and it spans only the selected rows,
        # so its cost does not grow with the table
        m = len(x)
        weights = take_zeros((len(used), m), dpre.dtype)
        np.add.at(weights.reshape(-1), (inverse.reshape(x.shape) * m + np.arange(m)[:, None]),
                  1.0)
        np.matmul(weights, dpre, out=product)
    if terms.shared is None:
        terms.used = used
        return
    held = terms.shared[used]
    own = np.flatnonzero(~held)
    _scatter_add(dw1, used[own], product, own)
    held = np.flatnonzero(held)
    np.take(product, held, axis=0, out=terms.drows[:len(held)])
    terms.used = used[held]


def softmax(scores: np.ndarray) -> np.ndarray:
    e = np.subtract(scores, scores.max(axis=-1, keepdims=True),
                    out=take(scores.shape, scores.dtype))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def nll_softmax_loss(scores: np.ndarray, gold):
    """Negative log softmax of (m, K) scores against m gold indices,
    stabilized by max subtraction and summed over rows. Returns
    (loss, dscores) where dscores is softmax(scores) - onehot(gold)."""
    gold = np.asarray(gold)
    probs = softmax(scores)
    rows = np.arange(scores.shape[0])
    loss = float(-np.log(probs[rows, gold]).sum())
    dscores = probs
    dscores[rows, gold] -= 1.0
    return loss, dscores


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, store: ParamStore, rng: np.random.Generator,
               samples_per_param: int = 25, h: float = 1e-5,
               tolerance: float = 1e-4, *, analytic: dict):
    """Compare analytic gradients against central finite differences.

    loss_fn() must be a deterministic pure forward pass over the store's
    current values. analytic maps parameter name -> gradient array. For
    each parameter, samples_per_param coordinates are sampled (all of them
    for small tensors). The relative error uses an absolute floor so that
    near-zero coordinate pairs are compared on an absolute scale:
    |a - n| / max(|a|, |n|, 1e-3).

    A coordinate whose probe at h lands outside tolerance is re-probed at
    h/10 and h/100 and scored by its best probe: stepping across a ReLU
    kink biases the difference quotient at one step size but the bias
    vanishes as h shrinks, while a genuinely wrong gradient stays wrong at
    every step size.

    Returns a report dict with the overall max and every offending
    coordinate above tolerance, identified by parameter name. The step h
    must be positive and finite.
    """
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError("finite-difference step must be positive and finite, not %r" % h)
    worst = 0.0
    by_param = {}
    failures = []

    def probe(flat_value, idx, step):
        orig = flat_value[idx]
        flat_value[idx] = orig + step
        up = loss_fn()
        flat_value[idx] = orig - step
        down = loss_fn()
        flat_value[idx] = orig
        return (up - down) / (2.0 * step)

    for p in store:
        flat_value = p.value.reshape(-1)
        flat_grad = analytic[p.name].reshape(-1)
        size = flat_value.size
        if size <= samples_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=samples_per_param, replace=False)
        param_worst = 0.0
        for idx in coords:
            idx = int(idx)
            a = float(flat_grad[idx])
            best_err = np.inf
            best_numeric = None
            for step in (h, h / 10.0, h / 100.0):
                numeric = probe(flat_value, idx, step)
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
                if err < best_err:
                    best_err = err
                    best_numeric = numeric
                if best_err <= tolerance:
                    break
            param_worst = max(param_worst, best_err)
            if best_err > tolerance:
                failures.append((p.name, idx, a, best_numeric, best_err))
        by_param[p.name] = param_worst
        worst = max(worst, param_worst)
    return {
        "max_rel_error": worst,
        "by_param": by_param,
        "failures": failures,
        "ok": not failures,
        "tolerance": tolerance,
    }
