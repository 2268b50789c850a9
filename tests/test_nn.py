import contextlib
import functools
import itertools
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from shiftparse import nn

from conftest import running_thread


def make_store(**arrays):
    store = nn.ParamStore(np.float64)
    for name, value in arrays.items():
        store.add(name, value)
    return store


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

# Per-step reference cell and BPTT: the straightforward loop that the
# sequence-level kernels in nn (input GEMM hoisted out of the time loop,
# weight gradients as GEMMs after it) must reproduce.

def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_step(w, b, x, h_prev, c_prev):
    """One LSTM step: i,f,o = sigmoid, g = tanh, c = f*c_prev + i*g,
    h = o*tanh(c). Returns (h, c, activated gates [i, f, o, g])."""
    hidden = b.shape[0] // 4
    z = np.concatenate([x, h_prev]) @ w + b
    gates = np.concatenate([_sigmoid(z[:3 * hidden]), np.tanh(z[3 * hidden:])])
    i, f, g = gates[:hidden], gates[hidden:2 * hidden], gates[3 * hidden:]
    c = f * c_prev + i * g
    h = gates[2 * hidden:3 * hidden] * np.tanh(c)
    return h, c, gates


def reference_lstm_forward(w, b, xs):
    n, hidden = xs.shape[0], b.shape[0] // 4
    gates = np.empty((n, 4 * hidden))
    cs, tanh_cs, hs = (np.empty((n, hidden)) for _ in range(3))
    h, c = np.zeros(hidden), np.zeros(hidden)
    for t in range(n):
        h, c, gates[t] = lstm_step(w, b, xs[t], h, c)
        cs[t], tanh_cs[t], hs[t] = c, np.tanh(c), h
    return hs, (xs, gates, cs, tanh_cs, hs)


def reference_lstm_backward(w, b, cache, dhs, dw, db):
    xs, gates, cs, tanh_cs, hs = cache
    n, input_size = xs.shape
    hidden = b.shape[0] // 4
    dxs = np.zeros_like(xs)
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(n - 1, -1, -1):
        i = gates[t, :hidden]
        f = gates[t, hidden:2 * hidden]
        o = gates[t, 2 * hidden:3 * hidden]
        g = gates[t, 3 * hidden:]
        dh = dhs[t] + dh_next
        do = dh * tanh_cs[t]
        dc = dc_next + dh * o * (1.0 - tanh_cs[t] ** 2)
        c_prev = cs[t - 1] if t > 0 else np.zeros(hidden)
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             do * o * (1.0 - o), dc * i * (1.0 - g ** 2)])
        h_prev = hs[t - 1] if t > 0 else np.zeros(hidden)
        dw += np.outer(np.concatenate([xs[t], h_prev]), dz)
        db += dz
        dxh = w @ dz
        dxs[t] = dxh[:input_size]
        dh_next = dxh[input_size:]
        dc_next = dc * f
    return dxs


def test_lstm_step_zero_weights():
    hidden = 4
    w = np.zeros((3 + hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    h, c, _ = lstm_step(w, b, np.array([1.0, -2.0, 3.0]), np.zeros(hidden), np.zeros(hidden))
    assert np.allclose(c, 0.0) and np.allclose(h, 0.0)
    hs, (_, _, cs, _, _, _) = nn.lstm_forward(w, b, np.array([[1.0, -2.0, 3.0]]))
    assert np.allclose(cs, 0.0) and np.allclose(hs, 0.0)


def test_lstm_step_saturated_forget_gate():
    hidden = 3
    w = np.zeros((2 + hidden, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 10.0     # forget-gate bias block
    c_prev = np.array([0.3, -0.8, 0.5])
    h, c, _ = lstm_step(w, b, np.array([0.4, 0.1]), np.zeros(hidden), c_prev)
    assert np.max(np.abs(c - c_prev)) < 1e-4


def test_lstm_step_dimension_mismatch():
    w = np.zeros((7, 12))
    b = np.zeros(12)
    with pytest.raises(ValueError, match="input size"):
        nn.lstm_forward(w, b, np.zeros((1, 2)))


def _lstm_case(seed, n, input_size, hidden, dtype=np.float64):
    rng = np.random.default_rng(seed)
    w, b = nn.lstm_init(rng, input_size, hidden)
    b = b + 0.5 * rng.standard_normal(b.shape)      # every gate off its default
    xs = 2.0 * rng.standard_normal((n, input_size))
    dhs = rng.standard_normal((n, hidden))
    dw0 = rng.standard_normal(w.shape)               # gradients accumulate into
    db0 = rng.standard_normal(b.shape)               # whatever is already there
    return [a.astype(dtype) for a in (w, b, xs, dhs, dw0, db0)]


@pytest.mark.parametrize("n, input_size, hidden, reverse", [
    (0, 3, 4, False), (1, 3, 4, False), (25, 7, 5, False), (25, 4, 4, False),
    (25, 40, 16, False),
    (25, 7, 5, True),    # the encoder's backward direction runs over reversed views
])
def test_lstm_kernels_match_per_step_reference(n, input_size, hidden, reverse):
    w, b, xs, dhs, dw0, db0 = _lstm_case(n + input_size, n, input_size, hidden)
    if reverse:
        xs, dhs = xs[::-1], dhs[::-1]
    hs_ref, cache_ref = reference_lstm_forward(w, b, xs)
    hs, cache = nn.lstm_forward(w, b, xs)
    assert hs.shape == (n, hidden)
    for got, want in zip(cache[:5], cache_ref):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    dw_ref, db_ref = dw0.copy(), db0.copy()
    dxs_ref = reference_lstm_backward(w, b, cache_ref, dhs, dw_ref, db_ref)
    dw, db = dw0.copy(), db0.copy()
    dxs = nn.lstm_backward(w, b, cache, dhs, dw, db)
    assert dxs.shape == xs.shape
    for got, want in ((dxs, dxs_ref), (dw, dw_ref), (db, db_ref)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lstm_kernels_stay_float32():
    w, b, xs, dhs, dw0, db0 = _lstm_case(12, 25, 7, 5, dtype=np.float32)
    hs, cache = nn.lstm_forward(w, b, xs)
    dw, db = dw0.copy(), db0.copy()
    dxs = nn.lstm_backward(w, b, cache, dhs, dw, db)
    assert all(a.dtype == np.float32 for a in (hs, dxs, dw, db) + cache[:5])
    # against the float64 reference on the same (float32-representable) inputs
    w64, b64, xs64, dhs64 = (a.astype(np.float64) for a in (w, b, xs, dhs))
    _, cache_ref = reference_lstm_forward(w64, b64, xs64)
    dw_ref, db_ref = dw0.astype(np.float64), db0.astype(np.float64)
    dxs_ref = reference_lstm_backward(w64, b64, cache_ref, dhs64, dw_ref, db_ref)
    tol = 1e3 * np.finfo(np.float32).eps
    for got, want in ((hs, cache_ref[4]), (dxs, dxs_ref), (dw, dw_ref), (db, db_ref)):
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def _pack(seqs):
    """Rows of sequences given longest first, time-major: step 0 of each,
    then step 1 of those still running, and so on."""
    steps = max(len(s) for s in seqs)
    return np.concatenate([np.stack([s[t] for s in seqs if len(s) > t])
                           for t in range(steps)])


@pytest.mark.parametrize("lengths, reverse, dtype", [
    ((5, 5, 3, 1), False, np.float64),
    ((8, 5, 5, 3, 1), False, np.float64),   # the longest runs on alone
    ((9,), False, np.float64),
    ((1, 1, 1), False, np.float64),
    ((5, 5, 3, 1), True, np.float64),    # each sequence reversed, as the
                                         # encoder's backward direction feeds it
    ((5, 5, 3, 1), False, np.float32),
], ids=["ragged", "lone-tail", "single", "all-length-1", "reversed", "float32"])
def test_packed_lstm_matches_per_sequence_reference(lengths, reverse, dtype):
    w, b, _, _, dw0, db0 = _lstm_case(len(lengths), 1, 7, 5, dtype=dtype)
    rng = np.random.default_rng(sum(lengths))
    xs = [(2.0 * rng.standard_normal((n, 7))).astype(dtype) for n in lengths]
    dhs = [rng.standard_normal((n, 5)).astype(dtype) for n in lengths]
    if reverse:
        xs, dhs = [x[::-1] for x in xs], [d[::-1] for d in dhs]
    sizes = [sum(n > t for n in lengths) for t in range(max(lengths))]
    hs, cache = nn.lstm_forward(w, b, nn.Packed(_pack(xs), sizes))
    dw, db = dw0.copy(), db0.copy()
    dxs = nn.lstm_backward(w, b, cache, _pack(dhs), dw, db)
    if dtype == np.float32:
        assert all(a.dtype == np.float32 for a in (hs, dxs, dw, db) + cache[:5])
        rtol = atol = 1e3 * np.finfo(np.float32).eps
    else:
        rtol, atol = 0, 1e-12
    w64, b64 = w.astype(np.float64), b.astype(np.float64)
    dw_ref, db_ref = dw0.astype(np.float64), db0.astype(np.float64)
    hs_ref, dxs_ref = [], []
    for x, dh in zip(xs, dhs):
        h, c = reference_lstm_forward(w64, b64, x.astype(np.float64))
        hs_ref.append(h)
        dxs_ref.append(reference_lstm_backward(w64, b64, c, dh.astype(np.float64),
                                               dw_ref, db_ref))
    for got, want in ((hs, _pack(hs_ref)), (dxs, _pack(dxs_ref)), (dw, dw_ref), (db, db_ref)):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("lengths", [(1,), (8,), (12, 10, 9, 9, 7, 5, 4, 3, 2, 1)],
                         ids=["1-word", "8-word", "packed-10"])
def test_bilstm_layer_on_two_threads_is_bitwise_per_direction(monkeypatch, two_threads,
                                                              lengths, dtype):
    # each direction with weights, inputs and gradients of its own: the
    # scheduled layer on two threads and on one, and lstm_forward and
    # lstm_backward run per direction on one, give the same bits
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    sizes = [sum(n > t for n in lengths) for t in range(max(lengths))]
    rng = np.random.default_rng(len(lengths) + max(lengths))
    directions = []
    for _ in range(2):
        w, b = nn.lstm_init(rng, 9, 6)
        xs, dhs = (rng.standard_normal((sum(lengths), k)) for k in (9, 6))
        dw0, db0 = rng.standard_normal(w.shape), rng.standard_normal(b.shape)
        directions.append([a.astype(dtype) for a in (w, b, xs, dhs, dw0, db0)])

    def per_direction():
        out = []
        for w, b, xs, dhs, dw0, db0 in directions:
            dw, db = dw0.copy(), db0.copy()
            hs, cache = nn.lstm_forward(w, b, nn.Packed(xs, sizes))
            dxs = nn.lstm_backward(w, b, cache, dhs, dw, db)
            out.append([hs, *cache[:5], dxs, dw, db])
        return out

    def scheduled():
        grads = [(dw0.copy(), db0.copy()) for *_, dw0, db0 in directions]
        results = nn.bilstm_forward(*((w, b, nn.Packed(xs, sizes))
                                      for w, b, xs, *_ in directions))
        dxs = nn.bilstm_backward(*((w, b, cache, dhs, dw, db)
                                   for (w, b, _, dhs, _, _), (_, cache), (dw, db)
                                   in zip(directions, results, grads)))
        return [[hs, *cache[:5], dx, dw, db]
                for (hs, cache), dx, (dw, db) in zip(results, dxs, grads)]

    runs = [per_direction(), scheduled()]
    threads = two_threads()
    runs.append(scheduled())
    assert threads == {"helper", "caller"}
    assert all(a.dtype == dtype for direction in runs[0] for a in direction)
    want = [[a.tobytes() for a in direction] for direction in runs[0]]
    for run in runs[1:]:
        assert [[a.tobytes() for a in direction] for direction in run] == want


@pytest.mark.parametrize("sizes, rows, message", [
    ([2, 0, 1], 3, "batch_sizes must be positive"),
    ([1, 2], 3, "batch_sizes must be non-increasing"),
    ([2, 1], 4, "batch_sizes sum to 3, not to len\\(rows\\) 4"),
], ids=["zero", "increasing", "wrong-sum"])
def test_packed_rejects_bad_batch_sizes(sizes, rows, message):
    with pytest.raises(ValueError, match=message):
        nn.Packed(np.zeros((rows, 3)), sizes)


def _fd_check_via_store(store, loss_fn, analytic, tolerance, h=1e-5):
    rng = np.random.default_rng(0)
    report = nn.grad_check(loss_fn, store, rng, samples_per_param=40, h=h,
                           tolerance=tolerance, analytic=analytic)
    assert report["ok"], report["failures"][:3]
    return report["max_rel_error"]


def test_lstm_forward_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    n, input_size, hidden = 5, 3, 4
    w0, b0 = nn.lstm_init(rng, input_size, hidden)
    xs0 = rng.standard_normal((n, input_size))
    weight = rng.standard_normal((n, hidden))
    store = make_store(w=w0, b=b0, xs=xs0)

    def loss():
        hs, _ = nn.lstm_forward(store["w"].value, store["b"].value, store["xs"].value)
        return float((weight * hs).sum())

    hs, cache = nn.lstm_forward(store["w"].value, store["b"].value, store["xs"].value)
    dw = np.zeros_like(w0)
    db = np.zeros_like(b0)
    dxs = nn.lstm_backward(store["w"].value, store["b"].value, cache, weight, dw, db)
    err = _fd_check_via_store(store, loss, {"w": dw, "b": db, "xs": dxs}, 1e-6)
    assert err < 1e-6


def test_backward_direction_symmetry_with_tied_weights():
    # one weight set run both ways: the forward output at i reads xs[:i+1]
    # only, the backward run (over the reversed input, mirrored back) xs[i:]
    # only, so perturbing xs[k] leaves forward outputs before k and backward
    # outputs after k bitwise unchanged and changes both outputs at k
    rng = np.random.default_rng(3)
    w, b = nn.lstm_init(rng, 3, 4)
    xs = rng.standard_normal((6, 3))

    def both_directions(inputs):
        fwd, _ = nn.lstm_forward(w, b, inputs)
        bwd, _ = nn.lstm_forward(w, b, inputs[::-1])
        return fwd, bwd[::-1]

    fwd, bwd = both_directions(xs)
    for k in range(len(xs)):
        perturbed = xs.copy()
        perturbed[k] += 0.5
        fwd_k, bwd_k = both_directions(perturbed)
        assert np.array_equal(fwd_k[:k], fwd[:k])
        assert np.array_equal(bwd_k[k + 1:], bwd[k + 1:])
        assert np.all(fwd_k[k] != fwd[k]) and np.all(bwd_k[k] != bwd[k])


def test_two_layer_bilstm_composition_gradient():
    # hand-rolled 2-layer bi-directional encoder, checked end to end
    rng = np.random.default_rng(4)
    n, d_in, hidden = 4, 3, 3
    wf1, bf1 = nn.lstm_init(rng, d_in, hidden)
    wb1, bb1 = nn.lstm_init(rng, d_in, hidden)
    wf2, bf2 = nn.lstm_init(rng, 2 * hidden, hidden)
    wb2, bb2 = nn.lstm_init(rng, 2 * hidden, hidden)
    xs = rng.standard_normal((n, d_in))
    weight = rng.standard_normal((n, 2 * hidden))
    store = make_store(wf1=wf1, bf1=bf1, wb1=wb1, bb1=bb1,
                       wf2=wf2, bf2=bf2, wb2=wb2, bb2=bb2, xs=xs)

    def encode():
        x = store["xs"].value
        f1, cf1 = nn.lstm_forward(store["wf1"].value, store["bf1"].value, x)
        b1, cb1 = nn.lstm_forward(store["wb1"].value, store["bb1"].value, x[::-1])
        o1 = np.concatenate([f1, b1[::-1]], axis=1)
        f2, cf2 = nn.lstm_forward(store["wf2"].value, store["bf2"].value, o1)
        b2, cb2 = nn.lstm_forward(store["wb2"].value, store["bb2"].value, o1[::-1])
        feat = np.concatenate([o1, np.concatenate([f2, b2[::-1]], axis=1)], axis=1)
        return feat, (cf1, cb1, cf2, cb2)

    def loss():
        feat, _ = encode()
        return float((weight * feat[:, 2 * hidden:]).sum() + feat[:, :2 * hidden].sum())

    feat, (cf1, cb1, cf2, cb2) = encode()
    grads = {p.name: np.zeros_like(p.value) for p in store}
    dfeat1 = np.ones((n, 2 * hidden))
    dfeat2 = weight
    do2 = dfeat2
    da = nn.lstm_backward(store["wf2"].value, store["bf2"].value, cf2,
                          do2[:, :hidden], grads["wf2"], grads["bf2"])
    da = da + nn.lstm_backward(store["wb2"].value, store["bb2"].value, cb2,
                               do2[:, hidden:][::-1], grads["wb2"], grads["bb2"])[::-1]
    do1 = dfeat1 + da
    dx = nn.lstm_backward(store["wf1"].value, store["bf1"].value, cf1,
                          do1[:, :hidden], grads["wf1"], grads["bf1"])
    dx = dx + nn.lstm_backward(store["wb1"].value, store["bb1"].value, cb1,
                               do1[:, hidden:][::-1], grads["wb1"], grads["bb1"])[::-1]
    grads["xs"] = dx
    err = _fd_check_via_store(store, loss, grads, 1e-6)
    assert err < 1e-6


def test_single_position_encoding_depends_only_on_itself():
    rng = np.random.default_rng(5)
    w, b = nn.lstm_init(rng, 3, 4)
    x = rng.standard_normal((1, 3))
    hs, _ = nn.lstm_forward(w, b, x)
    h_step, _c, _gates = lstm_step(w, b, x[0], np.zeros(4), np.zeros(4))
    assert np.allclose(hs[0], h_step)


def test_empty_sequence_rejected_by_encoder_contract():
    rng = np.random.default_rng(6)
    w, b = nn.lstm_init(rng, 3, 4)
    hs, _ = nn.lstm_forward(w, b, np.zeros((0, 3)))
    assert hs.shape == (0, 4)   # the model layer refuses empty sentences


# ---------------------------------------------------------------------------
# MLP, softmax
# ---------------------------------------------------------------------------

# Dense references: the classifier on a dense input, which the integer-id
# kernels in nn must reproduce with the 0/1 input that counts each selected
# table row, and the loss of one score row.

def dense_mlp_forward(w1, b1, w2, b2, x):
    """Affine -> ReLU -> affine on a dense (m, in) input x."""
    pre = x @ w1 + b1
    hid = np.maximum(pre, 0.0)
    return hid @ w2 + b2, (x, pre, hid)


def dense_mlp_backward(w2, cache, dscores):
    """Gradients of dense_mlp_forward for (m, K) dscores: dw1, db1, dw2, db2."""
    x, pre, hid = cache
    dpre = (dscores @ w2.T) * (pre > 0)
    return x.T @ dpre, dpre.sum(axis=0), hid.T @ dscores, dscores.sum(axis=0)


def one_row_nll(scores, gold):
    """Negative log softmax of one (K,) score row and its gradient."""
    shifted = scores - scores.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    dscores = np.exp(log_probs)
    dscores[gold] -= 1.0
    return float(-log_probs[gold]), dscores


def _one_hot_rows(ids, rows):
    """The dense 0/1 input whose product with a (rows, hidden) table sums
    the rows that ids selects; a repeated index counts twice."""
    ids = np.atleast_2d(ids)
    dense = np.zeros((len(ids), rows))
    for i, row in enumerate(ids):
        np.add.at(dense[i], row, 1.0)
    return dense


def _mlp_case(rng, table_rows, hidden=6, classes=3, offset=0.0):
    table = rng.standard_normal((table_rows, hidden)) + offset
    b1 = rng.standard_normal(hidden) * 0.1
    w2 = nn.glorot(rng, hidden, classes)
    b2 = rng.standard_normal(classes) * 0.1
    return table, b1, w2, b2


def _mlp_table_gradients(table, b1, w2, b2, ids, gold):
    """The loss gradients of w1, b1, w2 and b2 through nn's integer-id path."""
    scores, cache = nn.mlp_forward(table, b1, w2, b2, ids)
    _, dscores = nn.nll_softmax_loss(scores, gold)
    grads = {name: np.zeros_like(value)
             for name, value in (("w1", table), ("b1", b1), ("w2", w2), ("b2", b2))}
    assert nn.mlp_backward(table, b1, w2, b2, cache, dscores,
                           grads["w1"], grads["b1"], grads["w2"], grads["b2"]) is None
    return grads


def _mlp_store_loss(store, ids, gold):
    def loss():
        scores, _ = nn.mlp_forward(store["w1"].value, store["b1"].value,
                                   store["w2"].value, store["b2"].value, ids)
        value, _ = nn.nll_softmax_loss(scores, gold)
        return value
    return loss


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mlp_forward_chunks_keep_the_single_gather_bits(monkeypatch, dtype):
    # training's (m, slots) ids are gathered and summed a chunk of rows at a
    # time; with chunks of 4 rows, 3, 4 and 5 states give the bits of one
    # gather of all the rows, with a workspace current and without one
    rng = np.random.default_rng(21)
    slots, hidden = 5, 7
    table, b1, w2, b2 = (a.astype(dtype) for a in _mlp_case(rng, 30, hidden, 4))
    monkeypatch.setattr(nn, "GATHER_CHUNK_BYTES", 4 * slots * hidden * np.dtype(dtype).itemsize)
    for m in (3, 4, 5):
        ids = rng.integers(0, 30, size=(m, slots))
        pre = np.add.reduce(table[ids], axis=-2)
        pre += b1
        scores = np.maximum(pre, 0.0) @ w2
        scores += b2
        for workspace in (None, nn.Workspace()):
            with workspace.scope() if workspace else contextlib.nullcontext():
                got, (_, got_pre, _) = nn.mlp_forward(table, b1, w2, b2, ids)
                assert got_pre.tobytes() == pre.tobytes(), (m, workspace)
                assert got.tobytes() == scores.tobytes(), (m, workspace)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_state_mlp_forward_gives_the_bits_of_its_row_without_the_workspace(dtype):
    # decoding's (slots,) ids: the pre-activation and hidden units are
    # bitwise the matching row of an (m, slots) call, and the scores those
    # of a (1, slots) call; the m-row call's scores come from a GEMM, whose
    # rows may round otherwise than one row's. Inside a workspace scope the
    # one-state call takes nothing from it
    rng = np.random.default_rng(23)
    table, b1, w2, b2 = (a.astype(dtype) for a in _mlp_case(rng, 40, 9, 5))
    ids = rng.integers(0, 40, size=(6, 13))
    workspace = nn.Workspace()
    with workspace.scope():
        batch, (_, pre, hid) = nn.mlp_forward(table, b1, w2, b2, ids)
        for i, row in enumerate(ids):
            top = workspace._top
            scores, (x, row_pre, row_hid) = nn.mlp_forward(table, b1, w2, b2, row)
            assert workspace._top == top
            assert not any(np.shares_memory(a, memory) for a in (scores, row_pre, row_hid)
                           for _, _, memory in workspace._blocks)
            assert x is row and scores.shape == (5,) and scores.dtype == dtype
            assert row_pre.tobytes() == pre[i].tobytes()
            assert row_hid.tobytes() == hid[i].tobytes()
            one, _ = nn.mlp_forward(table, b1, w2, b2, row[None])
            assert scores.tobytes() == one[0].tobytes()
            np.testing.assert_allclose(scores, batch[i],
                                       rtol=1e-5 if dtype == np.float32 else 1e-12)


def test_mlp_backward_terms_added_later_give_the_bits_of_adding_at_once():
    # three calls over one table: rows 0-4 are shared, which any call may
    # select, and each call selects other rows of its own. Each call holds
    # all it would add as terms, so nothing reaches the gradients before
    # the terms are added; added in call order afterwards, they give every
    # bit of three calls that add as they go
    rng = np.random.default_rng(22)
    table, b1, w2, b2 = _mlp_case(rng, 20, offset=0.1)
    direct = [np.zeros_like(a) for a in (table, b1, w2, b2)]
    later = [np.zeros_like(a) for a in (table, b1, w2, b2)]
    terms = []
    for m, own in ((4, 5), (6, 10), (3, 15)):
        ids = np.concatenate([rng.integers(0, 5, (m, 2)), rng.integers(own, own + 5, (m, 2))],
                             axis=1)
        scores, cache = nn.mlp_forward(table, b1, w2, b2, ids)
        _, dscores = nn.nll_softmax_loss(scores, rng.integers(0, 3, m))
        nn.mlp_backward(table, b1, w2, b2, cache, dscores, *direct)
        terms.append(nn.MlpTerms(len(np.unique(ids)), 6, 3, table.dtype))
        nn.mlp_backward(table, b1, w2, b2, cache, dscores, *later, terms[-1])
        assert not any(a.any() for a in later)
    for held in terms:
        held.add(*later)
    assert [a.tobytes() for a in later] == [a.tobytes() for a in direct]


def test_mlp_zero_weights():
    scores, _ = nn.mlp_forward(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)),
                               np.zeros(2), np.array([[0, 1, 2], [2, 2, 1]]))
    assert np.allclose(scores, 0.0)


def test_mlp_identity_negative_input_hits_bias():
    w1 = np.array([[-3.0]])     # the one table row: a negative pre-activation
    b1 = np.zeros(1)
    w2 = np.array([[1.0]])
    b2 = np.array([7.5])
    scores, _ = nn.mlp_forward(w1, b1, w2, b2, np.array([[0]]))
    assert np.allclose(scores, [[7.5]])   # hidden clamps to 0, bias passes through


def test_mlp_gradients():
    rng = np.random.default_rng(7)
    table, b1, w2, b2 = _mlp_case(rng, 5, offset=0.5)
    ids = np.array([[0, 3], [4, 1], [2, 2], [1, 3]])
    gold = np.array([0, 2, 1, 2])
    store = make_store(w1=table, b1=b1, w2=w2, b2=b2)
    grads = _mlp_table_gradients(table, b1, w2, b2, ids, gold)
    err = _fd_check_via_store(store, _mlp_store_loss(store, ids, gold), grads, 1e-6)
    assert err < 1e-6


def test_mlp_integer_input_sums_selected_rows():
    rng = np.random.default_rng(8)
    table, b1, w2, b2 = _mlp_case(rng, 9)
    ids = np.array([[0, 4, 8], [3, 3, 5], [8, 1, 2], [7, 7, 7]])
    scores, (_, pre, _) = nn.mlp_forward(table, b1, w2, b2, ids)
    dense_scores, (_, dense_pre, _) = dense_mlp_forward(table, b1, w2, b2,
                                                        _one_hot_rows(ids, len(table)))
    assert np.abs(pre - dense_pre).max() < 1e-12
    assert np.abs(scores - dense_scores).max() < 1e-12
    # decoding scores one state: (slots,) ids give (K,) scores
    one, _ = nn.mlp_forward(table, b1, w2, b2, ids[1])
    assert one.shape == (3,)
    assert np.abs(one - dense_scores[1]).max() < 1e-12


@pytest.mark.parametrize("ids, table_rows", [
    (np.array([[0, 4, 8], [3, 3, 5], [8, 1, 2], [7, 7, 7]]), 9),
    (np.array([[2, 6, 6]]), 9),
    # a table far larger than the rows selected, as one stacked over a minibatch
    (np.array([[350, 4, 17], [17, 17, 399], [0, 350, 250]]), 400),
], ids=["rows", "one-row", "large-table"])
def test_mlp_integer_input_table_gradient(ids, table_rows):
    rng = np.random.default_rng(9)
    table, b1, w2, b2 = _mlp_case(rng, table_rows, offset=0.2)
    gold = np.array([0, 2, 1, 2])[:len(ids)]
    store = make_store(w1=table, b1=b1, w2=w2, b2=b2)
    grads = _mlp_table_gradients(table, b1, w2, b2, ids, gold)
    assert np.any(grads["w1"] != 0.0)
    unused = np.setdiff1d(np.arange(len(table)), ids)
    assert np.all(grads["w1"][unused] == 0.0)
    # the dense reference: the same rows as a 0/1 input times w1
    scores, cache = dense_mlp_forward(table, b1, w2, b2, _one_hot_rows(ids, len(table)))
    dscores = np.stack([one_row_nll(row, g)[1] for row, g in zip(scores, gold)])
    dense = dense_mlp_backward(w2, cache, dscores)
    for got, want in zip((grads["w1"], grads["b1"], grads["w2"], grads["b2"]), dense):
        assert np.abs(got - want).max() < 1e-12
    assert _fd_check_via_store(store, _mlp_store_loss(store, ids, gold), grads, 1e-6) < 1e-6


def test_nll_equal_scores_is_log_k():
    for k in (2, 5, 11):
        loss, _ = nn.nll_softmax_loss(np.zeros((1, k)), [0])
        assert abs(loss - math.log(k)) < 1e-12


def test_nll_is_stable_for_huge_scores():
    loss, dscores = nn.nll_softmax_loss(np.array([[1000.0, 0.0], [0.0, -1000.0]]), [0, 0])
    assert loss < 1e-12
    assert np.all(np.isfinite(dscores))


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    scores0 = rng.standard_normal((3, 6))
    gold = np.array([2, 0, 5])
    store = make_store(scores=scores0)

    def loss():
        value, _ = nn.nll_softmax_loss(store["scores"].value, gold)
        return value

    loss0, dscores = nn.nll_softmax_loss(scores0.copy(), gold)
    # the rows' losses and gradients are those of each row alone, summed
    rows = [one_row_nll(row, g) for row, g in zip(scores0, gold)]
    assert abs(loss0 - sum(value for value, _ in rows)) < 1e-12
    assert np.abs(dscores - np.stack([d for _, d in rows])).max() < 1e-15
    err = _fd_check_via_store(store, loss, {"scores": dscores}, 1e-8)
    assert err < 1e-8


def test_softmax_sums_to_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        probs = nn.softmax(rng.standard_normal((3, 7)) * 10)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    loss, _ = nn.nll_softmax_loss(rng.standard_normal((2, 5)), [1, 4])
    assert loss >= 0.0


# ---------------------------------------------------------------------------
# ADADELTA
# ---------------------------------------------------------------------------

def hand_adadelta_trace(gs, rho=0.99, eps=1e-7):
    """Plain-Python reference trace for a scalar parameter."""
    x, eg2, ed2 = 0.0, 0.0, 0.0
    xs = []
    for g in gs:
        eg2 = rho * eg2 + (1.0 - rho) * g * g
        dx = -math.sqrt(ed2 + eps) / math.sqrt(eg2 + eps) * g
        ed2 = rho * ed2 + (1.0 - rho) * dx * dx
        x = x + dx
        xs.append(x)
    return xs


def test_adadelta_two_step_trace():
    store = make_store(x=np.zeros(1))
    expected = hand_adadelta_trace([1.0, 1.0])
    # first step lands close to -sqrt(eps/(0.01+eps))
    assert abs(expected[0] - (-3.1622e-3)) < 1e-6
    store["x"].grad[...] = 1.0
    store.adadelta_step(rho=0.99, eps=1e-7)
    assert abs(store["x"].value[0] - expected[0]) < 1e-12
    store["x"].grad[...] = 1.0
    store.adadelta_step(rho=0.99, eps=1e-7)
    assert abs(store["x"].value[0] - expected[1]) < 1e-12


def test_adadelta_two_step_trace_with_gradient_two():
    # g*g != g, so the trace tells E[g^2] from E[g]
    store = make_store(x=np.zeros(1))
    expected = hand_adadelta_trace([2.0, 2.0])
    # first step: -sqrt(eps)/sqrt(0.01*4+eps)*2, again close to -sqrt(eps/0.01)
    assert abs(expected[0] - (-3.1622e-3)) < 1e-6
    for want in expected:
        store["x"].grad[...] = 2.0
        store.adadelta_step(rho=0.99, eps=1e-7)
        assert abs(store["x"].value[0] - want) < 1e-12


def test_adadelta_zero_gradient_decays_accumulators():
    store = make_store(x=np.array([2.0]))
    store["x"].eg2[...] = 0.5
    store["x"].ed2[...] = 0.25
    store.adadelta_step(rho=0.9, eps=1e-7)
    assert store["x"].value[0] == 2.0
    assert abs(store["x"].eg2[0] - 0.45) < 1e-15
    assert abs(store["x"].ed2[0] - 0.225) < 1e-15


def test_adadelta_l2_adds_weighted_value_to_gradient():
    a = make_store(x=np.array([3.0]))
    b = make_store(x=np.array([3.0]))
    a["x"].grad[...] = 0.2
    a.adadelta_step(rho=0.99, eps=1e-7, l2=1e-2)
    b["x"].grad[...] = 0.2 + 1e-2 * 3.0
    b.adadelta_step(rho=0.99, eps=1e-7, l2=0.0)
    assert a["x"].value[0] == b["x"].value[0]


def test_adadelta_in_place_update_is_bitwise_the_formula():
    # l2 > 0 on tensors of different sizes, so each chunk runs through a
    # slice of a different length of the running thread's two scratch rows,
    # over several steps; "d" spans two full chunks and a ragged third of 3
    # values
    rng = np.random.default_rng(11)
    rho, eps, l2 = 0.95, 1e-6, 1e-3
    for dtype in (np.float64, np.float32):
        chunk = nn.ADADELTA_CHUNK_BYTES // np.dtype(dtype).itemsize
        shapes = {"a": (30, 7), "b": (11,), "c": (2, 3, 4), "d": (2 * chunk + 3,)}
        values = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
        store = nn.ParamStore(dtype)
        for name, value in values.items():
            store.add(name, value.copy())
        expected = {k: [v.copy(), np.zeros_like(v), np.zeros_like(v)] for k, v in values.items()}
        for _ in range(3):
            for name, (x, eg2, ed2) in expected.items():
                grad = rng.standard_normal(x.shape).astype(dtype)
                store[name].grad[...] = grad
                g = grad + l2 * x
                eg2 *= rho
                eg2 += (1.0 - rho) * g * g
                dx = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
                ed2 *= rho
                ed2 += (1.0 - rho) * dx * dx
                x += dx
            store.adadelta_step(rho=rho, eps=eps, l2=l2)
        for name, (x, eg2, ed2) in expected.items():
            p = store[name]
            assert p.value.dtype == dtype
            assert np.array_equal(p.value, x)
            assert np.array_equal(p.eg2, eg2)
            assert np.array_equal(p.ed2, ed2)
            assert np.all(p.grad == 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adadelta_outside_a_workspace_takes_cache_aligned_scratch_rows(monkeypatch, two_threads,
                                                                        dtype):
    # every chunk runs through the two scratch rows of the thread that runs
    # it, which start on a cache line: outside a workspace (a library
    # caller's step, outside fit) or inside one, which they do not come
    # from, in place or inside update(); the helper's rows are not the
    # caller's, and each thread keeps its own from one step to the next
    seen = {"helper": [], "caller": []}
    chunk = nn._adadelta_chunk

    def recording(*args):
        chunk(*args)
        seen[running_thread()].append(nn._thread_rows.rows)

    monkeypatch.setattr(nn, "_adadelta_chunk", recording)
    two_threads()
    rng = np.random.default_rng(12)
    store = nn.ParamStore(dtype)
    store.add("w", rng.standard_normal(nn.ADADELTA_CHUNK_BYTES // np.dtype(dtype).itemsize + 5)
              .astype(dtype))
    store.add("v", rng.standard_normal((3, 4)).astype(dtype))
    workspace = nn.Workspace()
    for early, scope in itertools.product((False, True), (contextlib.nullcontext, workspace.scope)):
        for p in store:
            p.grad[...] = 1.0
        with scope(), store.update(0.9, 1e-6, 0.0) if early else contextlib.nullcontext():
            store.adadelta_step(0.9, 1e-6, 0.0)
    assert sum(map(len, seen.values())) == 4 * 3
    for rows in seen.values():
        assert rows and all(r is rows[0] for r in rows)
        assert all(row.ctypes.data % 64 == 0 for row in rows[-1])
        assert not any(np.shares_memory(rows[-1], memory) for _, _, memory in workspace._blocks)
    assert not np.shares_memory(seen["helper"][-1], seen["caller"][-1])


def test_adadelta_scratch_rows_grow_with_the_chunk(monkeypatch):
    # a new thread makes its rows on its first chunk, at least a chunk
    # long, and makes them again only for a longer chunk
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    store, shapes = make_store(x=np.arange(100.0)), []

    def steps():
        for size in (256, 64, 512):
            monkeypatch.setattr(nn, "ADADELTA_CHUNK_BYTES", size)
            store["x"].grad[...] = 1.0
            store.adadelta_step()
            shapes.append(nn._thread_rows.rows.shape)

    thread = threading.Thread(target=steps)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert shapes == [(2, 256), (2, 256), (2, 512)]


def test_adadelta_skips_zero_gradient_rows_bitwise(monkeypatch):
    # a (40, 6) matrix against the same values as a vector, which is always
    # updated densely, over steps with few, no and half the rows touched;
    # np.sqrt runs twice per chunk of the op sequence, so its sizes count
    # the values the sequence ran on
    rng = np.random.default_rng(12)
    sizes = []
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x, out=None: sizes.append(np.size(x)) or sqrt(x, out=out))
    rho, eps = 0.95, 1e-6
    for dtype in (np.float64, np.float32):
        for l2 in (0.0, 1e-3):
            value = rng.standard_normal((40, 6)).astype(dtype)
            rows, flat = nn.ParamStore(dtype), nn.ParamStore(dtype)
            rows.add("w", value.copy())
            flat.add("w", value.reshape(-1).copy())
            untouched = np.ones(40, dtype=bool)
            for touched in ([3, 17], [17, 30, 31, 39], [], list(range(0, 40, 2)), [0, 5]):
                grad = np.zeros((40, 6), dtype=dtype)
                grad[touched] = rng.standard_normal((len(touched), 6))
                untouched[touched] = False
                rows["w"].grad[...] = grad
                flat["w"].grad[...] = grad.reshape(-1)
                sizes.clear()
                rows.adadelta_step(rho=rho, eps=eps, l2=l2)
                dense = l2 > 0 or 2 * len(touched) >= 40
                assert sum(sizes) == 2 * (grad.size if dense else grad[touched].size)
                flat.adadelta_step(rho=rho, eps=eps, l2=l2)
            p, q = rows["w"], flat["w"]
            for name in ("value", "eg2", "ed2"):
                assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name
            assert not p.grad.any()
            moved = p.value[untouched] != value[untouched]
            assert untouched.any() and (moved.all() if l2 else not moved.any())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adadelta_declared_rows_give_the_scanned_bits(monkeypatch, dtype):
    # a (40, 6) table over four updates, its rows declared inside update()
    # (repeated, and some whose gradient is all zero), against the same
    # gradients found by scanning and the same values as a vector, which is
    # always updated densely; every update decays the whole accumulators,
    # and the sequence runs on exactly the declared rows
    rng = np.random.default_rng(23)
    rho, eps = 0.95, 1e-6
    sizes, decays = [], []
    sqrt, decay = np.sqrt, nn._decay
    monkeypatch.setattr(np, "sqrt", lambda x, out=None: sizes.append(np.size(x)) or sqrt(x, out=out))
    monkeypatch.setattr(nn, "_decay", lambda *args: decays.append(1) or decay(*args))
    value = rng.standard_normal((40, 6)).astype(dtype)
    declared, scanned, flat = (nn.ParamStore(dtype) for _ in range(3))
    for store in (declared, scanned):
        store.add("emb", value.copy())
    flat.add("emb", value.reshape(-1).copy())
    for step, (nonzero, zero) in enumerate((([3, 17], [8]), ([17, 30, 31, 39], [30, 2]),
                                            ([], [9]), ([0, 5], []))):
        grad = np.zeros((40, 6), dtype=dtype)
        grad[nonzero] = rng.standard_normal((len(nonzero), 6))
        for store in (declared, scanned, flat):
            store["emb"].grad[...] = grad.reshape(store["emb"].grad.shape)
        runs = []
        for store in (declared, scanned):
            sizes.clear()
            decays.clear()
            if store is declared:
                with store.update(rho, eps, 0.0):
                    store.declare_rows(store["emb"], np.array(nonzero + zero, dtype=np.intp))
                    store.adadelta_step(rho, eps, 0.0)
            else:
                store.adadelta_step(rho, eps, 0.0)
            runs.append(sum(sizes))
            assert decays
        assert runs == [2 * 6 * len(set(nonzero + zero)), 2 * 6 * len(nonzero)]
        flat.adadelta_step(rho, eps, 0.0)
        for name in ("value", "grad", "eg2", "ed2"):
            want = getattr(flat["emb"], name).tobytes()
            assert getattr(declared["emb"], name).tobytes() == want, (step, name)
            assert getattr(scanned["emb"], name).tobytes() == want, (step, name)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_adadelta_on_two_threads_is_bitwise_one_thread(monkeypatch, two_threads, dtype, l2):
    # 256-byte chunks, so every parameter spans several; at l2 = 0 "emb"
    # takes the row-subset path
    monkeypatch.setattr(nn, "ADADELTA_CHUNK_BYTES", 256)
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    shapes = {"emb": (40, 6), "w": (30, 7), "b": (11,), "v": (100,)}
    results = []
    for run in ("one thread", "two threads"):
        if run == "two threads":
            threads = two_threads()
        rng = np.random.default_rng(14)
        store = nn.ParamStore(dtype)
        for name, shape in shapes.items():
            store.add(name, rng.standard_normal(shape))
        for step in range(3):
            for p in store:
                p.grad[...] = rng.standard_normal(p.value.shape)
            store["emb"].grad[2 * step + 1:] = 0.0
            store.adadelta_step(rho=0.95, eps=1e-6, l2=l2)
        results.append([getattr(p, a).tobytes() for p in store
                        for a in ("value", "grad", "eg2", "ed2")])
    assert threads == {"helper", "caller"}
    assert results[0] == results[1]


def test_side_by_side_caller_takes_the_jobs_the_helper_has_not(monkeypatch, helper):
    # the helper is held in the first job until the caller has run the
    # rest, which it takes from the back
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    started, release = threading.Event(), threading.Event()
    ran = []

    def hold():
        started.set()
        assert release.wait(10)
        ran.append(("hold", running_thread()))

    def job(name):
        ran.append((name, running_thread()))
        if name == "a":
            release.set()

    nn.side_by_side([hold] + [functools.partial(job, name) for name in "abc"],
                    [lambda: started.wait(10), lambda: ran.append(("own", running_thread()))])
    assert ran == [("own", "caller"), ("c", "caller"), ("b", "caller"), ("a", "caller"),
                   ("hold", "helper")]


def test_side_by_side_caller_job_may_call_it_again(monkeypatch, helper):
    # the inner call's batch goes in front of the outer one's: the helper,
    # held in the outer call's first job, leaves the caller every job of
    # the inner call, then each outer job runs once
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    started, release = threading.Event(), threading.Event()
    ran = []

    def hold():
        started.set()
        assert release.wait(10)
        ran.append(("hold", running_thread()))

    def job(name):
        ran.append((name, running_thread()))

    def inner():
        assert started.wait(10)
        nn.side_by_side([functools.partial(job, name) for name in "xyz"])
        release.set()

    nn.side_by_side([hold, functools.partial(job, "a")], [inner])
    assert ran[:3] == [("z", "caller"), ("y", "caller"), ("x", "caller")]
    assert sorted(name for name, _ in ran[3:]) == ["a", "hold"] and ("hold", "helper") in ran
    # a free helper takes the inner call's job before the outer call's
    # remaining ones
    started.clear()
    release.clear()
    ran.clear()
    served = threading.Event()

    def inner_job():
        job("x")
        served.set()

    def release_and_wait():
        release.set()
        assert served.wait(10)

    def inner_on_a_free_helper():
        assert started.wait(10)
        nn.side_by_side([inner_job], [release_and_wait])

    nn.side_by_side([hold] + [functools.partial(job, name) for name in "ab"],
                    [inner_on_a_free_helper])
    assert ran[:2] == [("hold", "helper"), ("x", "helper")]
    assert sorted(name for name, _ in ran[2:]) == ["a", "b"]


def test_side_by_side_runs_every_job_once_under_contention(monkeypatch, helper):
    # three calling threads share the helper, switching as often as the
    # interpreter allows; a job lost or run twice leaves a count not 1
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    counts = np.zeros((3, 1000, 2), dtype=np.int64)

    def bump(cell):
        np.add(cell, 1, out=cell)

    def calls(k):
        for row in counts[k]:
            nn.side_by_side([functools.partial(bump, row[j:j + 1]) for j in range(len(row))])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=calls, args=(k,)) for k in range(len(counts))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert (counts == 1).all()


def test_background_and_side_by_side_jobs_run_once_under_contention(monkeypatch, helper):
    # three calling threads share the helper, each making side_by_side
    # calls while queued batches of its own wait, finished newest first
    # every seventh row, and switching as often as the interpreter allows;
    # a job lost or run twice leaves a count not 1
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    counts = np.zeros((3, 1000, 4), dtype=np.int64)

    def bump(cell):
        np.add(cell, 1, out=cell)

    def calls(k):
        batches = []
        for i, row in enumerate(counts[k]):
            batches.append(nn.Batch([functools.partial(bump, row[j:j + 1]) for j in range(2)]))
            nn.side_by_side([functools.partial(bump, row[j:j + 1]) for j in range(2, 4)])
            if i % 7 == 6 or i == len(counts[k]) - 1:
                while batches:
                    batches.pop().finish()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=calls, args=(k,)) for k in range(len(counts))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert (counts == 1).all()


def test_side_by_side_raises_a_helper_exception_and_keeps_working(monkeypatch, helper):
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    started = threading.Event()
    out = np.zeros(3)

    def fail():
        started.set()
        raise KeyError("job on the %s" % running_thread())

    with pytest.raises(KeyError, match="job on the helper"):
        nn.side_by_side([fail], [lambda: started.wait(10)])
    nn.side_by_side([lambda: np.add(out, 1.0, out=out)] * 2)
    assert out.tolist() == [2.0, 2.0, 2.0]
    # a caller job that raises leaves no batch on the helper's list, and
    # no job of it runs after the call: the helper is held until the
    # call's jobs are dropped
    def hold():
        call = helper.batches[0]
        started.set()
        for _ in range(10000):
            if not call.jobs:
                break
            time.sleep(0.001)

    def caller_fails():
        assert started.wait(10)
        raise KeyError("caller job")

    started.clear()
    with pytest.raises(KeyError, match="caller job"):
        nn.side_by_side([hold] + [lambda: np.add(out, 1.0, out=out)] * 2, [caller_fails])
    assert not helper.batches
    assert out.tolist() == [2.0, 2.0, 2.0]


def test_helper_keeps_no_array_of_a_finished_call(monkeypatch, helper):
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    out = np.zeros(3)
    alive = weakref.ref(out)
    started = threading.Event()

    def add(out):
        started.set()
        np.add(out, 1.0, out=out)

    nn.side_by_side([functools.partial(add, out)], [lambda: started.wait(10)])
    del out
    assert alive() is None


def test_helper_job_takes_its_scratch_from_the_twin_of_the_callers_workspace(monkeypatch,
                                                                              helper):
    # under a caller's scope, what a job on the helper takes lies in the
    # twin of the caller's workspace, and is released when the job ends;
    # with no workspace current, the job gets plain numpy and no workspace
    # gets a twin
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    seen = []

    def job(started):
        started.set()
        with nn.scratch():
            seen.append((running_thread(), nn.take((1000,), np.float64), nn.gather(np.eye(3), np.arange(2))))
        seen.append(nn.take((10,), np.float64))

    def on_the_helper():
        started = threading.Event()
        nn.side_by_side([functools.partial(job, started)], [lambda: started.wait(10)])

    workspace = nn.Workspace()
    with workspace.scope():
        nn.take((100,), np.float64)
        top = workspace._top
        on_the_helper()
        assert workspace._top == top
    twin = vars(workspace)["twin"]
    assert twin._top == 0
    thread, taken, gathered, after = *seen[0], seen[1]
    assert thread == "helper"
    for array in (taken, gathered, after):
        assert any(np.shares_memory(array, memory) for _, _, memory in twin._blocks)
        assert not any(np.shares_memory(array, memory) for _, _, memory in workspace._blocks)
    seen.clear()
    idle = nn.Workspace()
    on_the_helper()
    thread, taken, gathered, after = *seen[0], seen[1]
    assert thread == "helper" and "twin" not in vars(idle)
    assert taken.base is None and after.base is None and gathered.base is None


def test_side_by_side_call_runs_before_queued_background_jobs(monkeypatch, helper):
    # the helper is held in a queued batch's job while a call and three
    # more jobs of that batch wait: the call's batch goes in front, so the
    # helper serves it next, and the caller leaves the call's job to it
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    started, release, served = threading.Event(), threading.Event(), threading.Event()
    ran = []

    def hold():
        started.set()
        assert release.wait(10)
        ran.append(("hold", running_thread()))

    def job(name):
        ran.append((name, running_thread()))
        if name == "call":
            served.set()

    def release_and_wait():
        release.set()
        assert served.wait(10)

    queued = nn.Batch([hold] + [functools.partial(job, name) for name in "abc"])
    assert started.wait(10)
    nn.side_by_side([functools.partial(job, "call")], [release_and_wait])
    queued.finish()
    assert ran[:2] == [("hold", "helper"), ("call", "helper")]
    assert sorted(name for name, _ in ran[2:]) == ["a", "b", "c"]
    assert not helper.batches


def test_background_job_error_is_raised_by_finish_and_the_helper_goes_on(monkeypatch, helper):
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    started = threading.Event()
    out = np.zeros(3)

    def fail():
        started.set()
        raise KeyError("queued job on the %s" % running_thread())

    def add():
        np.add(out, 1.0, out=out)

    # once the helper's job has raised, finish starts no other job of the
    # failed batch; a later batch and call still run on both threads
    failing = nn.Batch([fail, add])
    assert started.wait(10)
    deadline = time.monotonic() + 10.0
    while failing.error is None:
        assert time.monotonic() < deadline, "the helper's error was not recorded in 10 s"
        time.sleep(0.001)
    later = nn.Batch([add, add])
    later.finish()
    with pytest.raises(KeyError, match="queued job on the helper"):
        failing.finish()
    assert out.tolist() == [2.0, 2.0, 2.0]
    nn.side_by_side([add] * 2)
    nn.Batch([add]).finish()
    assert out.tolist() == [5.0, 5.0, 5.0]
    assert not helper.batches


def test_background_jobs_run_on_the_caller_without_a_helper(monkeypatch):
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    ran = []
    queued = nn.Batch([functools.partial(lambda name: ran.append((name, running_thread())), name)
                       for name in "ab"])
    assert ran == []
    queued.finish()
    assert ran == [("b", "caller"), ("a", "caller")]


def test_helper_keeps_no_array_of_finished_background_jobs(monkeypatch, helper):
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    out = np.zeros(3)
    alive = weakref.ref(out)
    started = threading.Event()

    def add(out):
        started.set()
        np.add(out, 1.0, out=out)

    queued = nn.Batch([functools.partial(add, out)])
    assert started.wait(10)
    queued.finish()
    del out, queued
    assert alive() is None


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="np.errstate is a context variable from numpy 2")
def test_helper_jobs_run_under_the_callers_errstate(monkeypatch, helper):
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    big, out = np.full(4, 1e308), np.empty(4)
    threads = []

    def overflow(started):
        started.set()
        threads.append(running_thread())
        np.multiply(big, big, out=out)

    for errstate in ({"all": "raise"}, {"over": "ignore"}):
        started = threading.Event()
        with np.errstate(**errstate):
            try:
                nn.side_by_side([functools.partial(overflow, started)],
                                [lambda: started.wait(10)])
            except FloatingPointError as exc:
                assert errstate == {"all": "raise"} and "overflow" in str(exc)
            else:
                # ignored: no RuntimeWarning, which the test run turns into an error
                assert errstate == {"over": "ignore"} and np.isinf(out).all()
    assert threads == ["helper", "helper"]


def test_adadelta_order_invariance():
    rng = np.random.default_rng(10)
    va, vb = rng.standard_normal(4), rng.standard_normal(3)
    ga, gb = rng.standard_normal(4), rng.standard_normal(3)
    first = make_store(a=va.copy(), b=vb.copy())
    second = make_store(b=vb.copy(), a=va.copy())
    for store in (first, second):
        store["a"].grad[...] = ga
        store["b"].grad[...] = gb
        store.adadelta_step()
    assert np.array_equal(first["a"].value, second["a"].value)
    assert np.array_equal(first["b"].value, second["b"].value)


def test_adadelta_clears_gradients_and_validates():
    store = make_store(x=np.ones(2))
    store["x"].grad[...] = 1.0
    store.adadelta_step()
    assert np.all(store["x"].grad == 0.0)
    with pytest.raises(ValueError):
        store.adadelta_step(rho=1.5)
    with pytest.raises(ValueError):
        store.adadelta_step(eps=0.0)


def test_param_store_rejects_duplicates():
    store = make_store(x=np.ones(1))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("x", np.ones(1))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_p_zero_is_identity():
    mask = nn.dropout_mask(np.random.default_rng(0), (5,), 0.0)
    assert np.array_equal(mask, np.ones(5))


def test_dropout_train_mean_preserved():
    rng = np.random.default_rng(12)
    mask = nn.dropout_mask(rng, (200_000,), 0.5)
    assert abs(mask.mean() - 1.0) < 0.01


def test_dropout_validates_probability():
    with pytest.raises(ValueError):
        nn.dropout_mask(np.random.default_rng(0), (3,), 1.0)
    with pytest.raises(ValueError):
        nn.dropout_mask(np.random.default_rng(0), (3,), -0.1)


# ---------------------------------------------------------------------------
# checker behavior
# ---------------------------------------------------------------------------

def test_grad_check_flags_wrong_gradient_by_name():
    rng = np.random.default_rng(13)
    w0 = rng.standard_normal(4)
    store = make_store(w=w0)
    target = rng.standard_normal(4)

    def loss():
        return float(((store["w"].value - target) ** 2).sum())

    good = {"w": 2.0 * (w0 - target)}
    report = nn.grad_check(loss, store, rng, tolerance=1e-6, analytic=good)
    assert report["ok"]
    bad = {"w": good["w"] + 1.0}
    report = nn.grad_check(loss, store, rng, tolerance=1e-6, analytic=bad)
    assert not report["ok"]
    assert all(name == "w" for name, *_ in report["failures"])


@pytest.mark.parametrize("h", [0.0, -1e-5, np.inf, np.nan])
def test_grad_check_rejects_step_not_positive_and_finite(h):
    store = make_store(w=np.ones(2))
    with pytest.raises(ValueError, match="step must be positive and finite"):
        nn.grad_check(lambda: 0.0, store, np.random.default_rng(0), h=h,
                      analytic={"w": np.zeros(2)})


def test_debug_checks_catch_nonfinite():
    nn.debug_checks = True
    try:
        with pytest.raises(FloatingPointError, match="mlp"):
            nn.mlp_forward(np.full((1, 1), np.inf), np.zeros(1),
                           np.ones((1, 1)), np.zeros(1), np.array([[0]]))
    finally:
        nn.debug_checks = False
