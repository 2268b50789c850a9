"""In-memory span tracing around calls into shiftparse's layers.

The wrappers live here, in the benchmark, and are installed by patching
the module and class attributes that model.py calls through: the numeric
kernels in ``shiftparse.nn``, ``ParamStore.adadelta_step``, the names
model.py imported from ``features``, ``dep_system`` and ``const_system``,
the models' ``fit``/``parse``/``snapshot``, ``save_model``/``load_model`` and
``build_vocab``. Nothing inside the program changes.

Each call becomes a span (name, start, end, parent, work) kept in a list;
``work`` is a tuple of sizes computed from the call's argument shapes, so
GFLOP and GB figures are computed, not read from hardware counters.
"""

from __future__ import annotations

import contextlib
import time

from shiftparse import model as sp_model
from shiftparse import nn as sp_nn
from shiftparse import vocab as sp_vocab

_NAME, _START, _END, _PARENT, _WORK = range(5)

# model.decode_steps counts the transitions of this many parses at the start
# of the traced window, so it is the same count on every run of a seed.
DECODE_SENTENCES = 10


# -- work computed from argument shapes --------------------------------------

def _lstm_forward_work(w, b, xs):
    # per step: [x, h] (in+H) times the fused (in+H, 4H) matrix
    return (2.0 * xs.shape[0] * w.shape[0] * w.shape[1],)


def _lstm_backward_work(w, b, cache, dhs, dw, db):
    # per step: outer-product accumulation into dw plus w @ dz
    return (4.0 * dhs.shape[0] * w.shape[0] * w.shape[1],)


def _mlp_forward_work(w1, b1, w2, b2, x):
    rows = x.shape[0] if x.ndim == 2 else 1
    return (2.0 * rows * (w1.size + w2.size), rows)


def _mlp_backward_work(w1, b1, w2, b2, cache, dscores, *grads):
    # dW2, dhid, dW1 and dx: two GEMMs per weight matrix
    rows = dscores.shape[0] if dscores.ndim == 2 else 1
    return (4.0 * rows * (w1.size + w2.size), rows)


def _adadelta_work(store, *args, **kwargs):
    # value, grad, E[g2], E[dx2] each read once and written once
    values = sum(p.value.size for p in store)
    return (8.0 * values * store.dtype.itemsize, values)


def _sentence_work(model, sentence):
    return (len(sentence),)


# (layer name, owner, attribute, work function). A layer may have several
# targets; their calls add up.
TARGETS = (
    ("nn.lstm_forward", sp_nn, "lstm_forward", _lstm_forward_work),
    ("nn.lstm_backward", sp_nn, "lstm_backward", _lstm_backward_work),
    ("nn.mlp_forward", sp_nn, "mlp_forward", _mlp_forward_work),
    ("nn.mlp_backward", sp_nn, "mlp_backward", _mlp_backward_work),
    ("nn.nll_softmax_loss", sp_nn, "nll_softmax_loss", None),
    ("nn.adadelta_step", sp_nn.ParamStore, "adadelta_step", _adadelta_work),
    ("features.extract", sp_model, "extract_dep", None),
    ("features.extract", sp_model, "extract_const", None),
    ("dep_system.initial", sp_model, "dep_initial", None),
    ("dep_system.apply", sp_model, "dep_apply", None),
    ("dep_system.legal", sp_model, "dep_legal", None),
    ("dep_system.oracle", sp_model, "dep_oracle", None),
    ("const_system.initial", sp_model, "const_initial", None),
    ("const_system.apply", sp_model, "const_apply", None),
    ("const_system.legal", sp_model, "const_legal", None),
    ("const_system.oracle", sp_model, "const_oracle", None),
    ("model.fit", sp_model._EncoderModel, "fit", None),
    # fit() copies every parameter and its ADADELTA state when it ends
    # without a dev set; one call per fit(), so once per minibatch here
    ("model.snapshot", sp_model._EncoderModel, "snapshot", None),
    ("model.parse", sp_model.DepModel, "parse", _sentence_work),
    ("model.parse", sp_model.ConstModel, "parse", _sentence_work),
    ("model.save_model", sp_model, "save_model", None),
    ("model.load_model", sp_model, "load_model", None),
    ("vocab.build_vocab", sp_vocab, "build_vocab", None),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
# Called only during set-up; reported per set-up.
SETUP_LAYERS = ("model.save_model", "model.load_model", "vocab.build_vocab")

# Window figures reported per layer; work tuples are (flop or bytes, rows or values).
_COUNTED = ("nn.nll_softmax_loss", "features.extract", "dep_system.initial",
            "dep_system.apply", "dep_system.legal", "dep_system.oracle",
            "const_system.initial", "const_system.apply", "const_system.legal",
            "const_system.oracle")
FIELDS = {
    "nn.lstm_forward": ("calls", "s", "gflop", "gflop_per_s"),
    "nn.lstm_backward": ("calls", "s", "gflop", "gflop_per_s"),
    "nn.mlp_forward": ("calls", "rows", "s", "gflop", "gflop_per_s"),
    "nn.mlp_backward": ("calls", "rows", "s", "gflop_per_s"),
    "nn.adadelta_step": ("calls", "values", "s", "gb_per_s"),
    **{name: ("calls", "s") for name in _COUNTED},
    "model.fit": ("s",),
    "model.snapshot": ("calls", "s"),
    "model.parse": ("s",),
}
_UNITS = {"calls": "count", "rows": "count", "values": "count", "s": "s",
          "gflop": "GFLOP", "gflop_per_s": "GFLOP/s", "gb_per_s": "GB/s"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unpatchable: set[str] = set()

    def _open(self, name: str, work) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, work])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float):
        end = time.perf_counter()
        span = self.spans[index]
        span[_START] = start
        span[_END] = end
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (set-up, corpus generation, a window)."""
        index = self._open(name, None)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self._close(index, start)

    def _wrap(self, name, fn, work_fn):
        def traced(*args, **kwargs):
            work = work_fn(*args, **kwargs) if work_fn is not None else None
            index = self._open(name, work)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, start)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit. A target the
        program no longer has is remembered, so its layer reads as missing."""
        saved = []
        for name, owner, attr, work_fn in TARGETS:
            if attr not in vars(owner):
                self.unpatchable.add("%s (%s.%s)" % (name, owner.__name__, attr))
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work_fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def _roots(self) -> list[int]:
        roots = []
        for i, span in enumerate(self.spans):
            parent = span[_PARENT]
            roots.append(i if parent < 0 else roots[parent])
        return roots

    def _totals(self, indices):
        """Calls, seconds and work per layer over the given spans, and the
        seconds of child spans per parent."""
        calls = dict.fromkeys(LAYERS + ("setup.corpus",), 0)
        secs = dict.fromkeys(calls, 0.0)
        work = {name: [0.0, 0.0] for name in calls}
        child_s: dict[int, float] = {}
        for i in indices:
            name, start, end, parent, w = self.spans[i]
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
            if name in calls:
                calls[name] += 1
                secs[name] += end - start
                for k, value in enumerate(w or ()):
                    work[name][k] += value
        return calls, secs, work, child_s

    def per_layer(self, window_root: int, setup_roots: list[int], expected: tuple[str, ...]):
        """Per-layer figures over one traced window, set-up figures averaged
        over the set-up roots. Returns (name -> (value, unit), the expected
        layers with zero calls, window seconds)."""
        spans = self.spans
        roots = self._roots()
        in_window = [i for i, r in enumerate(roots) if r == window_root and i != window_root]
        in_setup = [i for i, r in enumerate(roots) if r in set(setup_roots)]

        calls, secs, work, child_s = self._totals(in_window)
        out: dict = {}
        for name, fields in FIELDS.items():
            for f in fields:
                out["%s.%s" % (name, f)] = (_field(f, calls[name], secs[name], work[name]),
                                            _UNITS[f])
        out["model.self_s"] = (sum(spans[i][_END] - spans[i][_START] - child_s.get(i, 0.0)
                                   for i in in_window
                                   if spans[i][_NAME] in ("model.fit", "model.parse")), "s")

        parses = [i for i in in_window if spans[i][_NAME] == "model.parse"][:DECODE_SENTENCES]
        steps = sum(1 for i in in_window
                    if spans[i][_PARENT] in set(parses)
                    and spans[i][_NAME] in ("dep_system.apply", "const_system.apply"))
        words = sum(spans[i][_WORK][0] for i in parses)
        out["model.decode_steps"] = (steps, "count")
        out["model.decode_steps_per_word"] = (steps / words if words else 0.0, "steps/word")

        setup_calls, setup_secs, _, _ = self._totals(in_setup)
        n_setups = max(len(setup_roots), 1)
        for name in SETUP_LAYERS:
            out[name + ".s"] = (setup_secs[name] / n_setups, "s")
        out["setup.corpus_s"] = (setup_secs["setup.corpus"] / n_setups, "s")

        calls.update((name, setup_calls[name]) for name in SETUP_LAYERS)
        missing = sorted(self.unpatchable) + [name for name in expected if not calls[name]]
        return out, missing, spans[window_root][_END] - spans[window_root][_START]


def _field(field: str, calls: int, seconds: float, work: list[float]):
    if field == "calls":
        return calls
    if field == "s":
        return seconds
    if field in ("rows", "values"):
        return int(work[1])
    giga = work[0] / 1e9
    if field == "gflop":
        return giga
    return giga / seconds if seconds > 0 else 0.0
