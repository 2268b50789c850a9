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
flattened arrays at a time, through two scratch chunks per thread
allocated per call, and each chunk is read from main memory once for the
whole op sequence instead of once per op. Without L2, a matrix most of
whose rows got no gradient (an embedding table) runs the sequence on a
copy of the other rows only; the rest just decay their two running
averages, which is what the sequence does at g = 0.

The classifier takes integer row ids. Its first layer is a gather-sum
over w1, a table of precomputed rows (one block per input slot, see
model.py): a state's pre-activation is b1 plus the rows its ids select,
which is x @ w1 + b1 for the dense x counting each selected row (the
tests' reference). Training passes (m, slots) ids and decoding one state's
(slots,) ids, through the same indexing. The backward pass accumulates
each row's pre-activation gradient into the table gradient at the rows it
selected, as one counts-matrix GEMM over the distinct selected rows only,
so a large table (e.g. one stacked over a minibatch) costs no more than
the rows actually used.

Independent matrix work runs side by side on two threads, the "streams"
of Appleyard et al. 2016 (side_by_side): both threads take ADADELTA's
chunks, or model.py's per-slot first-layer GEMMs, from one queue. In a
Bi-LSTM layer, the helper takes whole GEMMs that overlap the other
direction's step loop: forward, the backward direction's input GEMM
while the caller runs the forward direction; backward, the forward
direction's three gradient GEMMs while the caller runs the backward
direction's step loop, and then either thread takes the backward
direction's three. A step loop always runs on the calling thread: two
of them at once only take turns at the GIL. A GEMM is never split
across the threads, as a split by rows can change its bits. The second
thread starts on first use, and only when the process may run on at
least two CPUs (os.sched_getaffinity); a forked child starts its own.
Every output element goes through the same op sequence on either
thread, so results are bitwise those of one thread and do not depend on
the CPU count, provided the BLAS thread count is fixed: left unset,
OpenBLAS takes one thread per CPU and its GEMMs round differently. CI and
bench/run.py pin one BLAS thread.
"""

from __future__ import annotations

import collections
import contextvars
import functools
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


def _check_finite(name, arr):
    if debug_checks and not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite values in %s" % name)


# ---------------------------------------------------------------------------
# second thread
# ---------------------------------------------------------------------------

class _Shared:
    """The jobs of one side_by_side call that either thread may run: the
    helper takes them from the front, the caller from the back."""

    def __init__(self, jobs):
        self.jobs = collections.deque(jobs)
        self.context = contextvars.copy_context()
        # held by the helper from taking a job until it has run it
        self.running = threading.Lock()
        self.error: BaseException | None = None

    def serve(self):
        """The helper's part: run jobs until none is left or one raises."""
        while True:
            with self.running:
                try:
                    job = self.jobs.popleft()
                except IndexError:
                    return
                try:
                    self.context.run(job, 0)
                except BaseException as exc:    # raised by the caller
                    self.error = exc
                    return
                finally:
                    # the caller goes on once the lock is free, and the
                    # job's arrays (a released model's, say) must not
                    # outlive that
                    del job


class _Helper:
    """A daemon thread that serves one side_by_side call at a time."""

    def __init__(self):
        self.calls = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="shiftparse.nn helper", daemon=True).start()

    def _serve(self):
        while True:
            self.calls.get().serve()


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

    The helper thread takes jobs from the front of jobs; the caller runs
    caller_jobs (callables of no arguments) in order, then takes jobs from
    the back, so it never waits for a helper that is slow to start, only
    for the job the helper is running. A job of jobs is called with the
    index of the thread running it, 0 for the helper and 1 for the caller,
    so that it can use scratch memory of that thread's own. Without a
    helper the caller runs them all. Raises the caller's exception, or
    else the helper's. A caller job may call side_by_side itself (as
    bilstm_backward's does): the helper serves one call at a time, so it
    takes the inner call's jobs once this call has none left for it, and
    until then the caller runs them.

    Jobs must be pure numpy calls that release the GIL and write only
    arrays no other job reads or writes, so the result does not depend on
    which thread runs what. Run as 0, a job allocates no array (the caller
    passes it every output, gathered input and scratch buffer): memory a
    second thread allocates comes from its own malloc arena and stays
    resident. The helper runs jobs in a copy of the caller's context, so
    np.errstate applies to them (numpy 2 keeps it in a context variable)."""
    helper = _get_helper() if jobs else None
    if helper is None:
        for job in caller_jobs:
            job()
        for job in jobs:
            job(1)
        return
    shared = _Shared(jobs)
    helper.calls.put(shared)
    try:
        for job in caller_jobs:
            job()
        while True:
            try:
                job = shared.jobs.pop()
            except IndexError:
                break
            job(1)
    finally:
        shared.jobs.clear()     # after an error here, the helper takes no more
        with shared.running:    # and finishes the one it has
            pass
    if shared.error is not None:
        raise shared.error


class Param:
    __slots__ = ("name", "value", "grad", "eg2", "ed2")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        # np.zeros maps pages lazily, so a model that never trains holds no
        # resident gradient or optimizer state
        self.grad = np.zeros(value.shape, value.dtype)
        self.eg2 = np.zeros(value.shape, value.dtype)   # E[g^2]
        self.ed2 = np.zeros(value.shape, value.dtype)   # E[dx^2]


class ParamStore:
    """Named trainable arrays with gradient and optimizer state."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Param] = {}

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
        accumulators: E[g2] <- rho E[g2], E[dx2] <- rho E[dx2], x unchanged.
        So where fewer than half the rows of a matrix (e.g. an embedding
        table) have a nonzero gradient, the op sequence runs on a copy of
        those rows only, the rest get just the two decays, and the result
        is bitwise that of the dense update.
        """
        if not (0.0 < rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        chunk = ADADELTA_CHUNK_BYTES // self.dtype.itemsize
        chunks, subsets = [], []
        for p in self:
            arrays = (p.value, p.grad, p.eg2, p.ed2)
            # the rows with a nonzero gradient include those nonzero in
            # column 0, so if half of those are, the matrix is dense
            if (not l2 and p.value.ndim == 2
                    and 2 * np.count_nonzero(p.grad[:, 0]) < len(p.value)):
                touched = np.flatnonzero(p.grad.any(axis=1))
                if 2 * len(touched) < len(p.value):
                    arrays = tuple(arr[touched] for arr in arrays)
                    subsets.append((p, touched, arrays))
                    p.eg2 *= rho
                    p.ed2 *= rho
            # views of C-contiguous arrays, walked a chunk at a time so that
            # the whole op sequence runs on data held in cache
            flats = [arr.reshape(-1) for arr in arrays]
            chunks += [[flat[start:start + chunk] for flat in flats]
                       for start in range(0, len(flats[0]), chunk)]
        # both threads take chunks, each with its own two scratch rows
        scratch = np.empty((2, 2, chunk), dtype=self.dtype)
        side_by_side([functools.partial(_adadelta_chunk, *arrays, rho, eps, l2, scratch)
                      for arrays in chunks])
        for p, rows, arrays in subsets:
            p.value[rows], p.eg2[rows], p.ed2[rows] = arrays[0], arrays[2], arrays[3]
            p.grad[rows] = 0.0
        for p in self:
            _check_finite(p.name, p.value)


def _adadelta_chunk(x, g, eg2, ed2, rho, eps, l2, scratch, thread):
    """ParamStore.adadelta_step's op sequence on one chunk of a parameter's
    value, gradient and accumulators, through the thread's scratch rows."""
    a, b = scratch[thread, :, :len(x)]
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

def set_product(a, b, out, thread):
    """out = a @ b"""
    np.matmul(a, b, out=out)


def add_product(a, b, out, product, thread):
    """out += a @ b; the helper (thread 0) forms a @ b in product"""
    if thread:
        out += a @ b
    else:
        np.matmul(a, b, out=product)
        out += product


def _lstm_input(w, b, xs, out, thread):
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
        gates = np.empty((n, 4 * hidden), dtype=xs.dtype)     # i,f,o,g
        _lstm_input(w, b, xs, gates, 1)
    s3 = 3 * hidden
    w_h = w[input_size:]
    cs = np.empty((n, hidden), dtype=xs.dtype)
    tanh_cs = np.empty((n, hidden), dtype=xs.dtype)
    hs = np.empty((n, hidden), dtype=xs.dtype)
    # h and c of the previous step's block, from its row at; the first
    # step's is the zero state
    h = c = np.zeros((sizes[0] if len(sizes) else 0, hidden), dtype=xs.dtype)
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
    c_prev = np.zeros_like(cs)
    c_prev[first:] = cs[prev]
    # dZ[r] = [dc, dc, dh, dc][r] * factors[r], gate block by gate block
    factors = np.empty((n, 4 * hidden), dtype=xs.dtype)
    factors[:, :hidden] = g * (i * (1.0 - i))
    factors[:, hidden:2 * hidden] = c_prev * (f * (1.0 - f))
    factors[:, 2 * hidden:s3] = tanh_cs * (o * (1.0 - o))
    factors[:, s3:] = i * (1.0 - g * g)
    dc_dh = o * (1.0 - tanh_cs * tanh_cs)     # dh/dc of h = o*tanh(c)
    w_h = w[xs.shape[1]:]
    dZ = np.empty((n, 4 * hidden), dtype=xs.dtype)
    # gradients into the next step's previous state, in its first rows; the
    # rows past the sequences that run on stay zero
    dh_next = np.zeros((first, hidden), dtype=xs.dtype)
    dc_next = np.zeros((first, hidden), dtype=xs.dtype)
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
    and dxs = dZ W_x^T as side_by_side jobs, each whole on one thread (the
    helper's sums through one product buffer), after the caller has run
    caller_jobs; then db += sum(dZ). Returns dxs."""
    xs, hs = cache[0], cache[4]
    n, input_size = xs.shape
    hidden = hs.shape[1]
    dxs = np.empty((n, input_size), dtype=np.result_type(dZ, w))
    product = np.empty((max(input_size, hidden), 4 * hidden), dtype=dZ.dtype)
    h_prev = hs[prev]     # gathered here, so that no job allocates
    side_by_side([functools.partial(add_product, xs.T, dZ, dw[:input_size],
                                    product[:input_size]),
                  functools.partial(add_product, h_prev.T, dZ[n - len(prev):], dw[input_size:],
                                    product[:hidden]),
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
    gates = np.empty((len(xs.rows), len(b)), dtype=xs.rows.dtype)
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
    or (K,)."""
    pre = w1[x].sum(axis=-2) + b1
    hid = np.maximum(pre, 0.0)
    scores = hid @ w2 + b2
    _check_finite("mlp_forward", scores)
    return scores, (x, pre, hid)


def mlp_backward(w1, b1, w2, b2, cache, dscores, dw1, db1, dw2, db2):
    """Backward for mlp_forward over (m, slots) ids, given (m, K) dscores;
    accumulates into the d* arrays, dw1 receiving each row's pre-activation
    gradient at every row of w1 it selected."""
    x, pre, hid = cache
    dw2 += hid.T @ dscores
    db2 += dscores.sum(axis=0)
    dhid = dscores @ w2.T
    dpre = dhid * (pre > 0)
    db1 += dpre.sum(axis=0)
    # counts[r, i]: how often row i selected the r-th distinct selected row
    # of w1; as a GEMM this is far faster than np.add.at over the
    # (m, slots, hidden) scatter, and it spans only the selected rows, so
    # its cost does not grow with the table
    m = len(x)
    used, inverse = np.unique(x.ravel(), return_inverse=True)
    counts = np.bincount((inverse.reshape(x.shape) * m + np.arange(m)[:, None]).ravel(),
                         minlength=len(used) * m)
    dw1[used] += counts.reshape(len(used), m).astype(dpre.dtype) @ dpre


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
