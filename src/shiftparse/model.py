"""Trainable greedy parsers: encoder, classifier heads, training, decoding.

Both parsers share the same skeleton: word (and tag) embeddings feed a one-
or two-layer bi-directional LSTM; the per-position outputs of every layer
are concatenated into one vector per word, computed once per sentence; a
parser state is represented by gathering a handful of those vectors (plus
label embeddings for constituency), and a ReLU classifier scores the next
action. Training is teacher-forced along the static-oracle action sequence
with summed negative log softmax losses, minibatched ADADELTA updates, and
dropout on every LSTM output connection. Decoding is greedy argmax over
the scores of the legal actions; ties break toward the lowest action index.

The two parsers differ only in their feature slots (label slots exist for
constituency only) and their action inventory, an Action subclass and the
vocabulary's label names. An ActionSpace built from those owns the head
layout: the heads, the first head's columns, which columns leave the label
to the label head, and each action sequence's gold targets. It alone reads
the hierarchical switch, so training and the decision rule (the best legal
column, then the label head's best label where the column leaves it open)
are written once.

A decode step does only its state's own work: it extracts the state's
features, adds them to per-sentence bases to get its table rows, runs the
classifier once per head it needs, takes the best of the legal columns'
scores and applies a prebuilt action. All else is built ahead: per model,
the space's actions (one immutable Action per column and label), its
ascending legal columns per set of legal kinds, made on first use (at most
8 sets for dependencies, 16 for constituents), and the label slots' ids by
label name; per sentence, the heads' tables and arrays and the bases of
each slot's table rows, the arithmetic training's replay shares.

Absent feature slots use learned vectors, one per slot family (stack
positions vs. queue position); absent label slots use the reserved NONE
row of the nonterminal embedding table.

The classifier's first layer is factored by slot (the precomputation of
Chen & Manning 2014). W1 is a stack of row blocks, one per slot, so the
hidden pre-activation of a state is b1 plus one row per slot from a table
built per head: each position slot's block is [encoder rows; absent
vectors] times its W1 block, and each label slot's block is the
nonterminal table times its W1 block. A decision then sums 3 (dep) or 13
(const) rows instead of multiplying a 2400- or 4800-wide input by W1.
Decoding builds the tables once per sentence. Training builds them once
per minibatch over the stacked encoder rows of all its sentences (the
operation batching of Neubig et al. 2017), so the projection and its
backward pass, the gradients into W1 and into the encoder rows, are one
set of per-slot GEMMs per minibatch. A training table holds only the rows
some state of the minibatch selects, slot by slot (a label slot's block
whole); the label head's, only those of its labeled states.

The classifier above the table scores a minibatch sentence by sentence:
one item per sentence and head, each a forward pass, loss and backward
pass of that sentence's states. Where the items are large enough
(nn.CLASSIFIER_JOB_BYTES; the constituency parser's are, the dependency
parser's are not), they are side_by_side jobs on both threads; smaller
ones run one by one on the caller. Either way the gradients are added in
sentence order. An item that finds every item before it added adds its
own as it goes. Any other adds at once only the rows of the table's
gradient that it alone selects, a sentence's own encoder rows, and holds
the rest (the upper layer's gradients, the sums for the biases, the rows
of absent and label slots, which other sentences select too) until every
item has run; then what is held is added, item by item. nn's helper
takes jobs from the front, so it never holds; the caller takes them from
the back, and on one CPU runs them all in order, holding nothing. So
every sum has the bits of the plain loop over the items, on one thread
or two.

The encoder batches the same way. Training runs it once per minibatch:
each layer and direction is one LSTM call over all the minibatch's
sentences as a packed batch (nn.Packed: sorted longest first, time-major),
so every step advances only the sentences still running with one GEMM.
Decoding packs its one sentence. A layer's two directions run together
(nn.bilstm_forward, nn.bilstm_backward): while the calling thread runs
one direction's step loop, nn's helper thread, where there is one, runs
whole GEMMs of the other: the backward direction's input GEMM in the
forward pass, the forward direction's three gradient GEMMs in the
backward pass. Every step loop runs on the calling thread, and the
results are bitwise those of one thread.

An update's ADADELTA step starts during its backward pass. Unless it
clips gradients, which needs every gradient first, fit runs each update
in a ParamStore.update scope, and each parameter group is released as
soon as its gradient is final: the classifier's (the heads, the absent
vectors and the nonterminal table) when _classify returns, and each LSTM
layer's four after that layer's backward pass. Nothing reads them again
in the update. nn's helper thread runs their ADADELTA chunks while the
caller goes on backward, giving way to every side_by_side call of the
backward pass; adadelta_step, still one call per update, finishes them
and updates the embeddings, whose rows the minibatch's word and tag ids
name (ParamStore.declare_rows), so their gradients are not scanned for
them. The result is bitwise that of one step after the whole backward
pass. _forward_backward on its own (the gradient check) releases and
declares nothing.

Each model owns the memory it trains with, one nn.Workspace kept between
minibatches: fit makes it current for each update (the forward-backward
pass, gradient clipping and the ADADELTA step), and _forward_backward
for its own pass, so every large array of an update is a view of memory
an earlier update already touched (see nn.py for the page faults this
saves). Its scopes follow the arrays' lifetimes: the encoder's caches
and output and the first head's input gradients last the whole update;
the first-layer tables, their gradients and the classifier's other
scratch end with _classify, each item of the classifier has a scope of
its own, and so does each layer's backward scratch. So memory is shared
only by arrays never live at once, and the workspace holds about what an
update's arrays took at their peak before it existed (a pool that reused
arrays by shape, whatever their lifetimes, raised the peak resident
memory by 25-36%). It grows to the largest minibatch seen and lives as
long as the model. The jobs that nn's helper thread runs for an update
take their scratch from the workspace's twin (see nn.py), which only
that thread uses, a job at a time; ADADELTA's two scratch rows are each
thread's own. Decoding uses neither and allocates as numpy does.

A model is built on one path, whatever the source of its initial values.
A new model draws them from a generator seeded with config.seed, parameter
by parameter in store order, and goes on drawing dropout masks and epoch
orders from the same generator. A model whose every value is about to be
overwritten (load_model, float64_twin) gets uninitialised buffers of the
same shapes instead, and draws nothing.

A model file is a JSON header (task, config, vocabulary and its hash,
tensor directory), then the parameter values as raw little-endian blocks,
so they round-trip bitwise. It must have exactly the layout its config
implies: blocks back to back in store order and no trailing bytes.
save_model writes each block from the array's own buffer, and load_model
reads each one straight into its parameter's buffer and checks it there.
A loaded model's gradients and ADADELTA accumulators start at zero, as in
a new one, and its generator starts at config.seed, where a new model's
stands after the initial draws. Nothing in the package trains a loaded
model (the CLI only parses with one); a caller that does gets other
dropout and shuffling draws than the run that saved the model would have
made next.

fit leaves a snapshot of the parameter values in best_params: those of
the best dev epoch, or without dev trees the final ones. A later snapshot
refreshes the arrays of the model's own earlier one in place, so training
holds at most one copy of the model; a caller copies best_params to keep
an earlier snapshot.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from . import nn
from .const_system import (DEFAULT_PROMOTE_CAP, ConstAction, NotDerivable,
                           const_apply, const_initial, const_legal,
                           const_oracle)
from .dep_system import Action, DepAction, dep_apply, dep_initial, dep_legal, dep_oracle
from .evalmetrics import score_brackets, score_dep
from .features import (CONST_LABEL_SLOTS, CONST_POSITION_FAMILIES,
                       DEP_POSITION_FAMILIES, extract_const, extract_dep)
from .trees import ROOT, ConstTree, DepTree, Sentence
from .vocab import NONE_LABEL, UNK, Vocab, json_sha256


class ModelIOError(ValueError):
    """A model file that cannot be loaded; the message names the field."""


class DecodeStepLimit(RuntimeError):
    """Greedy decoding ran past the longest derivation the transition
    system allows, which legality masking should make impossible."""


class ActionSpace:
    """A transition system's actions laid out as classifier heads, and the
    one reader of the config's hierarchical switch.

    The kinds, in structure-head order, and which of them carry a label come
    from action_cls; labels are the label names in label-head order. heads
    names the classifier heads and sizes gives their output sizes. The first
    head scores columns, (kind, label) pairs. Hierarchical: one per kind, a
    labeled kind's column leaving its label open (None) for the label head
    to choose. Flat: the unlabeled kinds in order, then each labeled kind
    expanded over the labels. targets gives an action sequence's gold
    outputs per head.

    What decoding reads per state is built ahead: actions holds per column
    its actions, one per label in label-head order where the column leaves
    the label open, else the one; legal_columns gives the columns of a set
    of legal kinds, each distinct set's once.
    """

    def __init__(self, action_cls: type[Action], labels: Sequence[str], hierarchical: bool):
        self.action_cls = action_cls
        labeled = action_cls.LABELED
        self.kinds = tuple(labeled)
        self.labels = tuple(labels)
        self.label_id = {label: i for i, label in enumerate(self.labels)}
        self.columns = [(k, None) for k in self.kinds if hierarchical or not labeled[k]]
        self.columns += [(k, l) for k in self.kinds if labeled[k] and not hierarchical
                         for l in self.labels]
        # the columns that take their label from the label head
        self.open = [labeled[k] and l is None for k, l in self.columns]
        # each action's first-head column, by (kind, label)
        self.column_id = {(k, label): i for i, (k, l) in enumerate(self.columns)
                          for label in (self.labels if self.open[i] else (l,))}
        self.actions = [tuple(action_cls(k, label) for label in self.labels) if self.open[i]
                        else (action_cls(k, l),) for i, (k, l) in enumerate(self.columns)]
        self._legal_columns: dict[frozenset, np.ndarray] = {}
        self.heads = ("head.struct", "head.label") if hierarchical else ("head.flat",)
        self.sizes = (len(self.columns), len(self.labels))[:len(self.heads)]

    def legal_columns(self, legal) -> np.ndarray:
        """The first-head columns, ascending, of the kinds in legal, a set of
        legal kinds; built once per distinct set (at most 2 ** kinds)."""
        key = frozenset(legal)
        columns = self._legal_columns.get(key)
        if columns is None:
            columns = self._legal_columns[key] = np.array(
                [c for c, (kind, _) in enumerate(self.columns) if kind in legal], dtype=np.intp)
        return columns

    def targets(self, actions) -> list:
        """Per head, the states of actions it scores (an index into them)
        and their gold outputs: the first head scores every state, the label
        head those whose column leaves the label open."""
        columns = [self.column_id[a.kind, a.label] for a in actions]
        rows = [r for r, c in enumerate(columns) if self.open[c]]
        # a flat space has one head, and zip drops the (empty) label targets
        return list(zip(self.heads, ((slice(None), columns),
                                     (rows, [self.label_id[actions[r].label] for r in rows]))))


@dataclass
class _Config:
    """The hyperparameters both parsers share, at the dependency parser's
    defaults. Each field takes values of its default's type (an int where
    that is a float, never a bool for a number; floats finite); every value
    is checked on construction, and an error names the field."""
    word_dims: int = 50
    tag_dims: int = 20
    lstm_units: int = 200
    layers: int = 2
    hidden: int = 200
    epochs: int = 10
    minibatch: int = 10
    dropout: float = 0.5
    l2: float = 0.0
    rho: float = 0.99
    eps: float = 1e-7
    hierarchical: bool = True
    use_tags: bool = True
    word_dropout: float = 0.25   # alpha in alpha/(alpha+count); 0 disables
    grad_clip: float = 0.0       # global-norm clip; 0 disables
    seed: int = 1
    precision: str = "float64"

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if not (type(value) is kind or kind is float and type(value) is int):
                raise ValueError("%s must be %s, not %r" % (f.name, kind.__name__, value))
            if kind is int and f.name not in ("layers", "seed") and value <= 0:
                raise ValueError("%s must be positive" % f.name)
            if kind is float and not np.isfinite(value):
                raise ValueError("%s must be finite" % f.name)
        if self.layers not in (1, 2):
            raise ValueError("layers must be 1 or 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if not (self.word_dropout >= 0.0):
            raise ValueError("word_dropout must be non-negative")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")
        for name in ("l2", "grad_clip"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError("%s must be non-negative" % name)
        if self.precision not in ("float64", "float32"):
            raise ValueError("precision must be float64 or float32, not %r" % (self.precision,))


@dataclass
class DepConfig(_Config):
    root_label: str = "root"


@dataclass
class ConstConfig(_Config):
    word_dims: int = 100
    tag_dims: int = 100
    hidden: int = 1000
    l2: float = 1e-8
    hierarchical: bool = False
    nonterminal_dims: int = 100
    promote_cap: int = DEFAULT_PROMOTE_CAP


def _packing(lengths: Sequence[int]):
    """How sentences of these lengths, stacked in order, run as one packed
    LSTM batch: the batch sizes of the sentences sorted longest first (a
    stable sort), and per direction the stacked row each packed row takes;
    the backward direction runs each sentence from its last word."""
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    sizes = np.count_nonzero(lengths > np.arange(lengths.max())[:, None], axis=1)
    steps = np.repeat(np.arange(len(sizes)), sizes)
    # the sentence of each packed row: block t holds order[:sizes[t]]
    sentence = order[np.arange(len(steps)) - np.repeat(np.cumsum(sizes) - sizes, sizes)]
    first = (np.cumsum(lengths) - lengths)[sentence]
    return sizes, (first + steps, first + lengths[sentence] - 1 - steps)


def _add_rows(out, rows, a, b):
    """out[rows] += a @ b, for rows a slice or sorted distinct row indices"""
    with nn.scratch():
        product = np.matmul(a, b, out=nn.take((len(a), b.shape[1]), out.dtype))
        if isinstance(rows, slice):
            out[rows] += product
        else:
            summed = nn.gather(out, rows)
            summed += product
            out[rows] = summed


class _Initial:
    """Where a model's randomly initialised parameters get their values:
    nn's initialisers, drawn from rng in the order the parameters are added,
    or, when rng is None, uninitialised buffers of the same shapes, for a
    model whose every value is overwritten before use."""

    def __init__(self, rng: Optional[np.random.Generator], dtype: np.dtype):
        self.rng, self.dtype = rng, dtype

    def embedding(self, rows: int, dims: int) -> np.ndarray:
        if self.rng is None:
            return np.empty((rows, dims), self.dtype)
        return nn.embedding_init(self.rng, rows, dims, dtype=self.dtype)

    def glorot(self, fan_in: int, fan_out: int) -> np.ndarray:
        if self.rng is None:
            return np.empty((fan_in, fan_out), self.dtype)
        return nn.glorot(self.rng, fan_in, fan_out, dtype=self.dtype)

    def lstm(self, input_size: int, hidden: int) -> tuple[np.ndarray, np.ndarray]:
        if self.rng is None:
            return (np.empty((input_size + hidden, 4 * hidden), self.dtype),
                    np.empty(4 * hidden, self.dtype))
        return nn.lstm_init(self.rng, input_size, hidden, dtype=self.dtype)


class _EncoderModel:
    """Embeddings, Bi-LSTM stack, classifier, training and greedy decoding
    shared by both parsers. A subclass names its action class, builds its
    heads in _build_heads(init) through _add_heads, and supplies the
    transition system through _oracle, _initial, _legal, _apply and
    _features (a state's position slots and label-slot ids), plus parse and
    _dev_metric."""

    task = ""
    config_cls: type[_Config]
    position_families: tuple[str, ...] = ()
    action_cls: type[Action]
    space: ActionSpace

    def __init__(self, config, vocab: Vocab):
        self._construct(config, vocab, fill=True)

    @classmethod
    def _unfilled(cls, config, vocab: Vocab):
        """The model config describes with uninitialised parameter buffers,
        for a caller that overwrites every value (load_model, float64_twin)."""
        model = cls.__new__(cls)
        model._construct(config, vocab, fill=False)
        return model

    def _construct(self, config, vocab: Vocab, fill: bool):
        self.config = config
        self.vocab = vocab
        self.rng = np.random.default_rng(config.seed)
        self.store = nn.ParamStore(np.dtype(config.precision))
        self.best_params: Optional[dict[str, np.ndarray]] = None
        self._snapshot: Optional[dict[str, np.ndarray]] = None   # the last snapshot() made
        self._workspace = nn.Workspace()      # training's arrays, kept between updates
        init = _Initial(self.rng if fill else None, self.store.dtype)
        try:
            self._build_encoder(init)
            self._build_heads(init)
        except (MemoryError, ValueError) as exc:   # ValueError: numpy's "array is too big"
            raise ValueError("the config's parameters cannot be allocated: %s" % exc) from None

    # feature vector width per sentence position
    @property
    def enc_dims(self) -> int:
        return 2 * self.config.lstm_units * self.config.layers

    def _build_encoder(self, init: _Initial):
        cfg = self.config
        self.store.add("emb.word", init.embedding(self.vocab.num_forms, cfg.word_dims))
        input_size = cfg.word_dims
        if cfg.use_tags:
            self.store.add("emb.tag", init.embedding(self.vocab.num_tags, cfg.tag_dims))
            input_size += cfg.tag_dims
        for layer in range(1, cfg.layers + 1):
            in_size = input_size if layer == 1 else 2 * cfg.lstm_units
            for direction in ("fwd", "bwd"):
                w, b = init.lstm(in_size, cfg.lstm_units)
                self.store.add("lstm%d.%s.w" % (layer, direction), w)
                self.store.add("lstm%d.%s.b" % (layer, direction), b)
        # one absent vector per slot family; in a slot's block of the
        # first-layer table they follow the sentence's encoder rows
        self.families = sorted(set(self.position_families))
        self.absent_row = [self.families.index(f) for f in self.position_families]
        for family in self.families:
            self.store.add("none." + family, init.embedding(1, self.enc_dims)[0])

    def _add_heads(self, init: _Initial, labels: Sequence[str], label_slots: int):
        """The action space over labels and its classifier heads; their
        input is the position slots followed by label_slots nonterminal
        embeddings."""
        self.space = ActionSpace(self.action_cls, labels, self.config.hierarchical)
        self.label_slots = label_slots
        in_dim = len(self.position_families) * self.enc_dims
        if label_slots:
            in_dim += label_slots * self.config.nonterminal_dims
        for prefix, size in zip(self.space.heads, self.space.sizes):
            self._add_mlp(init, prefix, in_dim, self.config.hidden, size)

    def _add_mlp(self, init: _Initial, prefix: str, in_dim: int, hidden: int, out_dim: int):
        dt = self.store.dtype
        self.store.add(prefix + ".w1", init.glorot(in_dim, hidden))
        self.store.add(prefix + ".b1", np.zeros(hidden, dtype=dt))
        self.store.add(prefix + ".w2", init.glorot(hidden, out_dim))
        self.store.add(prefix + ".b2", np.zeros(out_dim, dtype=dt))

    def _head(self, prefix: str, table):
        """What nn.mlp_forward takes of a head besides the ids: its table,
        b1, w2 and b2."""
        st = self.store
        return table, st[prefix + ".b1"].value, st[prefix + ".w2"].value, st[prefix + ".b2"].value

    def _mlp_forward(self, prefix: str, tables, ids):
        return nn.mlp_forward(*self._head(prefix, tables[prefix]), ids)

    def _mlp_backward(self, prefix: str, tables, cache, dscores, dtable, terms=None):
        st = self.store
        nn.mlp_backward(tables[prefix], st[prefix + ".b1"].value,
                        st[prefix + ".w2"].value, st[prefix + ".b2"].value,
                        cache, dscores, dtable, st[prefix + ".b1"].grad,
                        st[prefix + ".w2"].grad, st[prefix + ".b2"].grad, terms)

    def _score_all(self, n: int, tables, rows, dtables, scored) -> float:
        """The loss of the states _replay lists under the heads' tables,
        which hold the rows rows of a table over n encoder rows; accumulates
        the gradients of the tables (dtables) and of the heads' b1 and upper
        layer. Each sentence's states under each head are one item
        (_score), and the items' losses and gradients are added in sentence
        order, so every sum has the bits of a loop over the items.

        Where the items' hidden layers take nn.CLASSIFIER_JOB_BYTES each on
        average, the items are side_by_side jobs; smaller ones run one by one
        on the caller. Either way each item adds what it can at once, and
        what it holds is added here, in item order, once all have run."""
        st = self.store
        items = [(prefix, ids, np.array(gold)) for heads in scored
                 for prefix, ids, gold in heads if gold]
        # per item its loss and the terms it holds, and how many items from
        # the front have added all their gradients
        losses, held, added = [0.0] * len(items), [None] * len(items), [0]
        jobs = [partial(self._score, n, tables, rows, dtables, items, losses, held, added, i)
                for i in range(len(items))]
        hidden_bytes = sum(len(ids) for _, ids, _ in items) * self.config.hidden * st.dtype.itemsize
        with nn.scratch():
            if hidden_bytes < nn.CLASSIFIER_JOB_BYTES * len(items):
                for job in jobs:
                    job()
            else:
                nn.side_by_side(jobs)
            for (prefix, _, _), terms in zip(items, held):
                if terms is not None:
                    terms.add(dtables[prefix], st[prefix + ".b1"].grad,
                              st[prefix + ".w2"].grad, st[prefix + ".b2"].grad)
        loss = 0.0
        for item_loss in losses:    # not sum(), which compensates from Python 3.12 on
            loss += item_loss
        return loss

    def _score(self, n: int, tables, rows, dtables, items, losses, held, added, i):
        """_score_all's item i, (head, table rows of the whole table, gold
        outputs): its loss into losses[i], its gradients into dtables and the
        heads' gradients. Where every item before it has added all of its
        own, it adds them as it goes, and then counts itself in added[0].
        Else it adds only the rows of the table's gradient at its sentence's
        own encoder rows, which no other item selects, and holds the rest in
        held[i], taken from the caller's scope, for _score_all to add in
        order. nn's helper takes items from the front, so only the caller
        holds, and on one thread no item does."""
        prefix, ids, gold = items[i]
        terms = None
        if added[0] != i:
            w2 = self.store[prefix + ".w2"].value
            terms = held[i] = nn.MlpTerms(np.count_nonzero(self._shared_rows(n, np.unique(ids))),
                                          *w2.shape, w2.dtype, self._shared_rows(n, rows[prefix]))
        with nn.scratch():
            ids = np.searchsorted(rows[prefix], ids)
            scores, cache = self._mlp_forward(prefix, tables, ids)
            losses[i], dscores = nn.nll_softmax_loss(scores, gold)
            self._mlp_backward(prefix, tables, cache, dscores, dtables[prefix], terms)
        if terms is None:
            added[0] += 1

    # -- encoder forward/backward -------------------------------------------

    def _input_ids(self, sentence: Sentence, train: bool, rng):
        cfg = self.config
        unk = self.vocab.forms[UNK]
        word_ids = []
        for token in sentence.tokens:
            wid = self.vocab.form_id(token.form)
            if train and cfg.word_dropout > 0.0 and wid != unk:
                count = self.vocab.form_counts.get(token.form, 0)
                if rng.random() < cfg.word_dropout / (cfg.word_dropout + count):
                    wid = unk
            word_ids.append(wid)
        tag_ids = [self.vocab.tag_id(t.tag) for t in sentence.tokens]
        return np.asarray(word_ids), np.asarray(tag_ids)

    def _encode(self, sentences: Sequence[Sentence], train: bool, rng):
        """Per-position features of sentences, their rows stacked in order,
        and the cache (word ids, tag ids, (forward, backward) packing,
        layers, feature masks), with one (input mask, forward cache,
        backward cache) per layer; a mask is None where dropout is off.
        Layer 1's input is not dropped. Each connection out of a layer, into
        the next layer and into the features, gets its own mask. Sentence by
        sentence, word dropout is drawn first, then the layer-2 input mask,
        then the feature masks in layer order. Each layer and direction then
        runs all sentences as one packed LSTM batch, a layer's two directions
        through nn.bilstm_forward."""
        cfg, st = self.config, self.store
        units, width = cfg.lstm_units, 2 * cfg.lstm_units
        connections = 2 * cfg.layers - 1    # into layers 2.., then into the features
        ids, masks = [], []
        for sentence in sentences:
            ids.append(self._input_ids(sentence, train, rng))
            if train and cfg.dropout > 0.0:
                masks.append([nn.dropout_mask(rng, (len(sentence), width), cfg.dropout, st.dtype)
                              for _ in range(connections)])
        word_ids, tag_ids = (np.concatenate(column) for column in zip(*ids))
        n = len(word_ids)
        masks = ([np.concatenate(column, out=nn.take((n, width), st.dtype))
                  for column in zip(*masks)] if masks else [None] * connections)
        in_masks, feat_masks = [None] + masks[:cfg.layers - 1], masks[cfg.layers - 1:]
        sizes, (fwd, bwd) = _packing([len(sentence) for sentence in sentences])
        x = st["emb.word"].value[word_ids]
        if cfg.use_tags:
            x = np.concatenate([x, st["emb.tag"].value[tag_ids]], axis=1)
        enc = nn.take((n, width * cfg.layers), st.dtype)
        layers = []
        for layer, mask in enumerate(in_masks, 1):
            packed = [nn.gather(x, rows) for rows in (fwd, bwd)]
            if mask is not None:
                for rows, xs in zip((fwd, bwd), packed):
                    with nn.scratch():
                        xs *= nn.gather(mask, rows)
            (wf, bf), (wb, bb) = self._lstm_params(layer)
            (hf, cf), (hb, cb) = nn.bilstm_forward((wf.value, bf.value, nn.Packed(packed[0], sizes)),
                                                   (wb.value, bb.value, nn.Packed(packed[1], sizes)))
            # the layer's output, the next layer's input, and its features
            x = enc[:, width * (layer - 1):width * layer]
            x[fwd, :units] = hf
            x[bwd, units:] = hb
            layers.append((mask, cf, cb))
        for layer, mask in enumerate(feat_masks):
            if mask is not None:
                enc[:, width * layer:width * (layer + 1)] *= mask
        return enc, (word_ids, tag_ids, (fwd, bwd), layers, feat_masks)

    def _lstm_params(self, layer: int):
        """The (weights, bias) parameters of a layer's two directions."""
        return [(self.store["lstm%d.%s.w" % (layer, d)], self.store["lstm%d.%s.b" % (layer, d)])
                for d in ("fwd", "bwd")]

    def _encode_backward(self, cache, dfeat):
        cfg, st = self.config, self.store
        word_ids, tag_ids, (fwd, bwd), layers, feat_masks = cache
        units, width = cfg.lstm_units, 2 * cfg.lstm_units
        dx = None   # gradient of the input of the layer above
        for layer in range(cfg.layers, 0, -1):
            in_mask, cf, cb = layers[layer - 1]
            feat_mask = feat_masks[layer - 1]
            (wf, bf), (wb, bb) = self._lstm_params(layer)
            # the layer's input gradient outlives the scratch of its backward pass
            dx_in = nn.take((len(dfeat), wf.value.shape[0] - units), st.dtype)
            with nn.scratch():
                dout = nn.take((len(dfeat), width), st.dtype)
                if feat_mask is None:
                    dout[...] = dfeat[:, width * (layer - 1):width * layer]
                else:
                    np.multiply(dfeat[:, width * (layer - 1):width * layer], feat_mask, out=dout)
                if dx is not None:
                    dout += dx
                dxf, dxb = nn.bilstm_backward(
                    (wf.value, bf.value, cf, nn.gather(dout[:, :units], fwd), wf.grad, bf.grad),
                    (wb.value, bb.value, cb, nn.gather(dout[:, units:], bwd), wb.grad, bb.grad))
                dx_in[fwd] = dxf
                summed = nn.gather(dx_in, bwd)
                summed += dxb
                dx_in[bwd] = summed
            self.store.release([wf, bf, wb, bb])
            dx = dx_in
            if in_mask is not None:
                dx *= in_mask
        np.add.at(st["emb.word"].grad, word_ids, dx[:, :cfg.word_dims])
        st.declare_rows(st["emb.word"], word_ids)
        if cfg.use_tags:
            np.add.at(st["emb.tag"].grad, tag_ids, dx[:, cfg.word_dims:])
            st.declare_rows(st["emb.tag"], tag_ids)

    # -- factored first layer -------------------------------------------------

    def _slot_groups(self, enc):
        """(inputs, slots, W1 rows, table rows) per group of classifier slots.
        Every slot of a group multiplies the same inputs by its own
        contiguous block of W1 rows and fills its own block of table rows:
        position slots take the encoder rows followed by the absent vectors,
        label slots the nonterminal table (NONE included)."""
        inputs = nn.take((len(enc) + len(self.families), enc.shape[1]), enc.dtype)
        np.concatenate([enc] + [self.store["none." + f].value[None] for f in self.families],
                       out=inputs)
        groups = [(inputs, len(self.position_families))]
        if self.label_slots:
            groups.append((self.store["emb.nonterminal"].value, self.label_slots))
        out, w_at, t_at = [], 0, 0
        for inputs, slots in groups:
            w_rows = slice(w_at, w_at + slots * inputs.shape[1])
            t_rows = slice(t_at, t_at + slots * len(inputs))
            out.append((inputs, slots, w_rows, t_rows))
            w_at, t_at = w_rows.stop, t_rows.stop
        return out

    def _layout(self, n: int) -> tuple[int, int, int]:
        """The rows of the table _slot_groups lays out over n encoder rows:
        the length of a position slot's block, the first row of the label
        slots' blocks and the length of one of those."""
        stride = n + len(self.families)
        return stride, len(self.position_families) * stride, len(self.vocab.nonterminals)

    def _project(self, enc):
        """Per head, the first-layer table of one sentence: each slot's block
        of rows is its group's inputs times the slot's block of W1, so the
        hidden pre-activation of a state is b1 plus one row per slot."""
        groups = self._slot_groups(enc)
        rows = np.arange(groups[-1][3].stop)
        return {prefix: self._project_rows(prefix, groups, rows) for prefix in self.space.heads}

    def _table_rows(self, n: int, ids) -> np.ndarray:
        """The sorted rows of a table over n encoder rows that (m, slots) ids
        select, with every label slot's block whole."""
        _, label_at, n_labels = self._layout(n)
        labels = np.arange(label_at, label_at + self.label_slots * n_labels)
        return np.union1d(ids[:, :len(self.position_families)], labels)

    def _shared_rows(self, n: int, ids) -> np.ndarray:
        """Which of the rows ids of a table over n encoder rows states of
        more than one sentence may select: the absent rows and the label
        slots' blocks. A position slot's encoder rows belong to one
        sentence each."""
        stride, label_at, _ = self._layout(n)
        return (ids >= label_at) | (ids % stride >= n)

    @staticmethod
    def _slot_blocks(groups, rows):
        """Per classifier slot that rows, sorted rows of the table _project
        builds, reach: (group index, the slot's W1 rows, the group's input
        rows it takes, its block of a table holding only rows). The input
        rows are a slice, not a copy, where the slot takes all of them."""
        for g, (inputs, slots, w_rows, t_rows) in enumerate(groups):
            width, length = inputs.shape[1], len(inputs)
            for k in range(slots):
                start = t_rows.start + k * length
                a, b = np.searchsorted(rows, (start, start + length)).tolist()
                if a < b:
                    picked = slice(None) if b - a == length else rows[a:b] - start
                    yield (g, slice(w_rows.start + k * width, w_rows.start + (k + 1) * width),
                           picked, slice(a, b))

    def _project_rows(self, prefix: str, groups, rows):
        """A head's first-layer table at rows only, sorted rows of the table
        _project builds: row i is that table's row rows[i]. The slots' GEMMs,
        each from the slot's input rows gathered in its job, run on two
        threads."""
        w1 = self.store[prefix + ".w1"].value
        table = nn.take((len(rows), w1.shape[1]), w1.dtype)
        nn.side_by_side([partial(nn.set_gathered_product, groups[g][0], picked, w1[w_rows],
                                 table[t_rows])
                         for g, w_rows, picked, t_rows in self._slot_blocks(groups, rows)])
        return table

    def _project_rows_backward(self, prefix: str, groups, rows, dtable, dinputs):
        """From the gradient of a table built by _project_rows, accumulate
        dW1 one slot at a time, and into dinputs the gradient of each
        group's inputs. The input gradients accumulate on the calling
        thread, in slot order; the dW1 GEMMs, each from the slot's input
        rows gathered in its job, run on both threads."""
        w1 = self.store[prefix + ".w1"]
        blocks = list(self._slot_blocks(groups, rows))
        nn.side_by_side(
            [partial(nn.add_gathered_product, groups[g][0], picked, dtable[t_rows],
                     w1.grad[w_rows])
             for g, w_rows, picked, t_rows in blocks],
            [partial(_add_rows, dinputs[g], picked, dtable[t_rows], w1.value[w_rows].T)
             for g, w_rows, picked, t_rows in blocks])

    def _slot_ids(self, n: int, offset: int = 0):
        """For a sentence whose first word is encoder row offset of a table
        built over n encoder rows, the function from a state's features
        (positions, label ids) to the table rows they select, a list in slot
        order. Each position slot's base and absent rows and each label
        slot's base are computed here, once per sentence; a state's rows
        are then base + position (or the absent row) and base + label id."""
        stride, label_at, n_labels = self._layout(n)
        slots = [(k * stride + offset, k * stride + n + absent)
                 for k, absent in enumerate(self.absent_row)]
        label_bases = [label_at + j * n_labels for j in range(self.label_slots)]

        def ids(features):
            positions, labels = features
            return ([absent if p is None else base + p
                     for (base, absent), p in zip(slots, positions)]
                    + [base + label for base, label in zip(label_bases, labels)])
        return ids

    # -- training --------------------------------------------------------------

    def _forward_backward(self, batch, train: bool, rng) -> float:
        """Teacher-forced loss of a minibatch's gold actions, batch being
        [(tree, actions)]; accumulates the gradient of every parameter it
        touches. The sentences are encoded as one packed batch and their
        oracle states replayed; then they share one first-layer table per
        head over their stacked encoder rows, holding only the rows those
        states select, and each sentence's states are scored and
        backpropagated into it on their own."""
        with self._workspace.scope():
            enc, cache = self._encode([tree.sentence for tree, _ in batch], train, rng)
            loss, denc = self._classify(enc, self._replay(batch, len(enc)))
            self._encode_backward(cache, denc)
        return loss

    def _replay(self, batch, n: int):
        """Per sentence of batch, stacked over n encoder rows, the states of
        its gold actions as [(head, (m, slots) table rows, gold outputs)],
        each head's states and outputs as ActionSpace.targets gives them."""
        scored = []
        for (tree, actions), offset in zip(batch, accumulate([0] + [len(t.sentence)
                                                               for t, _ in batch])):
            slot_ids, rows = self._slot_ids(n, offset), []
            state = self._initial(len(tree.sentence))
            for action in actions:
                rows.append(slot_ids(self._features(state)))
                state = self._apply(state, action)
            ids = np.array(rows, dtype=np.intp)
            scored.append([(head, ids[states], gold)
                           for head, (states, gold) in self.space.targets(actions)])
        return scored

    def _classify(self, enc, scored):
        """Loss of the states _replay lists, accumulating the classifier's
        gradients; returns it with the gradient of enc. Each head's table is
        built at the rows its states select only, and it and its gradient
        are released on return, as are the classifier's parameters to the
        update (ParamStore.release): their gradients are final."""
        n = len(enc)
        # the first head's input gradients, which the others' are added to,
        # outlive the classifier's scratch
        dinputs = [nn.take_zeros((n + len(self.families), enc.shape[1]), enc.dtype)]
        if self.label_slots:
            nonterminal = self.store["emb.nonterminal"].value
            dinputs.append(nn.take_zeros(nonterminal.shape, nonterminal.dtype))
        with nn.scratch():
            groups = self._slot_groups(enc)
            rows = {prefix: self._table_rows(n, np.concatenate(
                        [ids for heads in scored for head, ids, _ in heads if head == prefix]))
                    for prefix in self.space.heads}
            tables = {prefix: self._project_rows(prefix, groups, rows[prefix])
                      for prefix in self.space.heads}
            dtables = {prefix: nn.take_zeros(table.shape, table.dtype)
                       for prefix, table in tables.items()}
            loss = self._score_all(n, tables, rows, dtables, scored)
            first, *others = self.space.heads
            self._project_rows_backward(first, groups, rows[first], dtables[first], dinputs)
            for prefix in others:
                dhead = [nn.take_zeros(d.shape, d.dtype) for d in dinputs]
                self._project_rows_backward(prefix, groups, rows[prefix], dtables[prefix], dhead)
                for total, more in zip(dinputs, dhead):
                    total += more
        for i, family in enumerate(self.families):
            self.store["none." + family].grad += dinputs[0][n + i]
        if self.label_slots:
            self.store["emb.nonterminal"].grad += dinputs[1]
        self.store.release(p for p in self.store if p.name.startswith(("head.", "none."))
                           or p.name == "emb.nonterminal")
        return loss, dinputs[0][:n]

    def _clip_grads(self):
        limit = self.config.grad_clip
        if not limit:
            return
        total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in self.store))
        if total > limit:
            scale = limit / total
            for p in self.store:
                p.grad *= scale

    def snapshot(self) -> dict[str, np.ndarray]:
        """Every parameter's values by name, as copies. While best_params
        still holds the dict the previous call returned, that dict is
        refreshed in place and returned again, so training allocates no
        second copy of the model; a caller copies it to keep an earlier one."""
        own = self._snapshot
        if own is not None and own is self.best_params:
            self.store.copy_values(own)
        else:
            own = self._snapshot = {p.name: p.value.copy() for p in self.store}
        return own

    def fit(self, train_trees: Sequence, dev_trees: Optional[Sequence] = None,
            log: Optional[Callable[[str], None]] = None) -> list[str]:
        """Teacher-forced training. Returns the run log as a list of lines
        (deterministic for a fixed seed and config; no wall-clock content).
        best_params then holds a snapshot of the best dev epoch's values, or
        without dev trees of the final ones. A snapshot this model made is
        refreshed in place, so a caller copies best_params to keep it past
        the next fit."""
        cfg = self.config
        lines: list[str] = []

        def emit(line: str):
            lines.append(line)
            if log:
                log(line)

        for key, value in sorted(asdict(cfg).items()):
            emit("config %s=%s" % (key, value))

        data = []
        skipped = 0
        for tree in train_trees:
            try:
                actions = self._oracle(tree)
            except NotDerivable:
                skipped += 1
                continue
            data.append((tree, actions))
        if not data:
            raise ValueError("no derivable training sentences")
        emit("train sentences=%d skipped=%d" % (len(data), skipped))

        best_metric = -1.0
        best_epoch = 0
        for epoch in range(1, cfg.epochs + 1):
            order = self.rng.permutation(len(data))
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.minibatch):
                batch = [data[idx] for idx in order[start:start + cfg.minibatch]]
                # clipping needs every gradient before any update
                early = (contextlib.nullcontext() if cfg.grad_clip
                         else self.store.update(cfg.rho, cfg.eps, cfg.l2))
                with self._workspace.scope(), early:
                    epoch_loss += self._forward_backward(batch, True, self.rng)
                    self._clip_grads()
                    self.store.adadelta_step(cfg.rho, cfg.eps, cfg.l2)
            line = "epoch=%d loss=%.6f" % (epoch, epoch_loss)
            if dev_trees:
                metric, rendered = self._dev_metric(dev_trees)
                line += " " + rendered
                if metric > best_metric:
                    best_metric = metric
                    best_epoch = epoch
                    self.best_params = self.snapshot()
            emit(line)
        if dev_trees:
            emit("best_epoch=%d" % best_epoch)
        else:
            self.best_params = self.snapshot()
        return lines

    # -- decoding --------------------------------------------------------------

    def _decide(self, heads, ids, legal):
        """The best action for one state's table rows ids among those legal,
        a set of legal kinds, heads giving per head what nn.mlp_forward takes
        besides the ids (_head): the first head's best legal column, the
        lowest of them on a tie, its label, where the column leaves it open,
        the label head's best."""
        space = self.space
        scores, _ = nn.mlp_forward(*heads[0], ids)
        columns = space.legal_columns(legal)
        column = columns[scores[columns].argmax()]
        actions = space.actions[column]
        if space.open[column]:
            lscores, _ = nn.mlp_forward(*heads[1], ids)
            return actions[lscores.argmax()]
        return actions[0]

    def _decode(self, sentence: Sentence):
        """Greedy decode of one sentence to its terminal state. The heads'
        tables and arrays are read once per sentence, and so are the bases
        of the states' table rows (_slot_ids).

        A derivation makes n shifts and at most n-1 reductions, and an item
        takes at most promote_cap promotes after it is made (dependency
        derivations have none), which bounds the steps of any legal run.
        """
        n = len(sentence)
        enc, _ = self._encode([sentence], False, None)
        bound = (2 * n - 1) * (1 + getattr(self.config, "promote_cap", 0))
        tables = self._project(enc)
        heads = [self._head(prefix, tables[prefix]) for prefix in self.space.heads]
        slot_ids = self._slot_ids(n)
        state = self._initial(n)
        while not state.is_terminal:
            if state.step >= bound:
                raise DecodeStepLimit("decoder exceeded its step bound: sentence length %d, "
                                      "step %d" % (n, state.step))
            ids = np.array(slot_ids(self._features(state)), dtype=np.intp)
            state = self._apply(state, self._decide(heads, ids, self._legal(state)))
        return state


class DepModel(_EncoderModel):
    """Greedy arc-standard dependency parser."""

    task = "dep"
    config_cls = DepConfig
    position_families = DEP_POSITION_FAMILIES
    action_cls = DepAction

    def _build_heads(self, init: _Initial):
        self._add_heads(init, self.vocab.deprel_names[:self.vocab.num_deprels], 0)

    def _oracle(self, tree: DepTree) -> list[DepAction]:
        return dep_oracle(tree)

    def _initial(self, n: int):
        return dep_initial(n)

    def _legal(self, state) -> set[str]:
        return dep_legal(state)

    def _apply(self, state, action):
        return dep_apply(state, action)

    def _features(self, state):
        return extract_dep(state).positions, ()

    def parse(self, sentence: Sentence) -> DepTree:
        """Greedy decode; legality masking makes it exactly 2n-1 steps."""
        state = self._decode(sentence)
        arcs = set(state.arcs)
        arcs.add((ROOT, state.stack[0], self.config.root_label))
        return DepTree(sentence, frozenset(arcs))

    def _dev_metric(self, dev: Sequence[DepTree]) -> tuple[float, str]:
        pred = [self.parse(t.sentence) for t in dev]
        score = score_dep(dev, pred, exclude_punct=True)
        return score.uas, "dev_uas=%.2f dev_las=%.2f" % (score.uas, score.las)


class ConstModel(_EncoderModel):
    """Greedy shift-promote-adjoin constituency parser."""

    task = "const"
    config_cls = ConstConfig
    position_families = CONST_POSITION_FAMILIES
    action_cls = ConstAction

    def _build_heads(self, init: _Initial):
        cfg, vocab = self.config, self.vocab
        # the label slots share the nonterminal table (NONE included)
        self.store.add("emb.nonterminal",
                       init.embedding(len(vocab.nonterminals), cfg.nonterminal_dims))
        # a label slot's nonterminal id by label name, None for an absent one
        self._label_ids = {**vocab.nonterminals, None: vocab.nonterminal_id(None)}
        self._add_heads(init, vocab.nonterminal_names[:vocab.num_nonterminals],
                        len(CONST_LABEL_SLOTS))

    def _oracle(self, tree: ConstTree) -> list[ConstAction]:
        return const_oracle(tree)

    def _initial(self, n: int):
        return const_initial(n)

    def _legal(self, state) -> set[str]:
        return const_legal(state, self.config.promote_cap)

    def _apply(self, state, action):
        return const_apply(state, action)

    def _features(self, state):
        feats = extract_const(state)
        label_ids = self._label_ids
        return feats.positions, [label_ids[l] for l in feats.labels]

    def parse(self, sentence: Sentence) -> ConstTree:
        """Greedy decode; the promote cap plus legality masking bounds the
        number of steps, and a lone un-promoted leaf forces a Promote."""
        return ConstTree(sentence, self._decode(sentence).stack[0].node)

    def _dev_metric(self, dev: Sequence[ConstTree]) -> tuple[float, str]:
        pred = [self.parse(t.sentence) for t in dev]
        score = score_brackets(dev, pred)
        return score.f1, "dev_f1=%.2f dev_precision=%.2f dev_recall=%.2f" % (
            score.f1, score.precision, score.recall)


MODELS = {cls.task: cls for cls in (DepModel, ConstModel)}


def float64_twin(model: _EncoderModel) -> _EncoderModel:
    """A float64 copy of a model, parameter values cast up in place."""
    from dataclasses import replace as dc_replace
    twin = type(model)._unfilled(dc_replace(model.config, precision="float64"), model.vocab)
    for p in model.store:
        twin.store[p.name].value[...] = p.value
    return twin


def model_grad_check(model: _EncoderModel, trees: Sequence, samples_per_param: int = 25,
                     h: float = 1e-5, tolerance: float = 1e-4, seed: int = 0,
                     inject_error: Optional[str] = None) -> dict:
    """End-to-end finite-difference check of the whole model.

    Runs teacher-forced loss over the given trees with dropout and word
    dropout off, compares backprop gradients against central differences
    on sampled coordinates of every parameter tensor. inject_error is a
    test hook that corrupts one parameter's analytic gradient so the check
    must flag it by name.

    A float32 model is checked against a float64 twin holding the same
    parameter values: differences evaluated in 32-bit arithmetic cannot
    resolve small gradients, so the twin supplies the numeric reference
    and the 32-bit analytic gradients must agree with it within the
    (relaxed) tolerance.
    """
    data = [(tree, model._oracle(tree)) for tree in trees]
    model.store.zero_grads()
    total = model._forward_backward(data, False, None)
    analytic = {p.name: p.grad.astype(np.float64) for p in model.store}
    model.store.zero_grads()
    if inject_error is not None:
        if inject_error not in analytic:
            raise ValueError("unknown parameter %r" % inject_error)
        analytic[inject_error] = analytic[inject_error] + 0.5

    probe_model = model if model.store.dtype == np.float64 else float64_twin(model)
    probe_data = [(tree, probe_model._oracle(tree)) for tree in trees]

    def loss_fn():
        value = probe_model._forward_backward(probe_data, False, None)
        probe_model.store.zero_grads()  # discard gradients from probe passes
        return value

    rng = np.random.default_rng(seed)
    report = nn.grad_check(loss_fn, probe_model.store, rng, samples_per_param, h,
                           tolerance, analytic=analytic)
    report["loss"] = total
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"SHPM"
_FORMAT_VERSION = 2


def _directory(store: nn.ParamStore, dtype: np.dtype) -> list[dict]:
    """The tensor directory a model file holds: every parameter in store
    order, its block of dtype values right after the previous one."""
    sizes = [p.value.size * dtype.itemsize for p in store]
    return [{"name": p.name, "shape": list(p.value.shape), "dtype": dtype.name,
             "offset": offset, "nbytes": nbytes}
            for p, offset, nbytes in zip(store, accumulate([0] + sizes), sizes)]


def save_model(model: _EncoderModel, path, params: Optional[dict[str, np.ndarray]] = None):
    """Write the header, then the little-endian blocks in store order: of
    params when given (e.g. the best-epoch snapshot), else the live values."""
    dtype = model.store.dtype.newbyteorder("<")
    vocab = model.vocab.to_json()
    header = {
        "format": "shiftparse-model",
        "version": _FORMAT_VERSION,
        "task": model.task,
        "config": asdict(model.config),
        "vocab": vocab,
        "vocab_sha256": json_sha256(vocab),
        "tensors": _directory(model.store, dtype),
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for p in model.store:
            value = p.value if params is None else params[p.name]
            # the array's own buffer; it is copied only to change layout or byte order
            fh.write(memoryview(np.ascontiguousarray(value, dtype=dtype)))


def save_best(model: _EncoderModel, path):
    save_model(model, path, params=model.best_params)


def _header_model(cls, values, vocab):
    """Build the model a header's config describes, its parameter buffers
    left for the file's values; names any key cls.config_cls lacks and any
    value it or the allocation rejects."""
    if not isinstance(values, dict):
        raise ModelIOError("header config is not an object")
    unknown = sorted(set(values) - {f.name for f in fields(cls.config_cls)})
    if unknown:
        raise ModelIOError("unknown config key %r in model header" % unknown[0])
    try:
        return cls._unfilled(cls.config_cls(**values), vocab)
    except ValueError as exc:
        raise ModelIOError("bad config value in model header: %s" % exc) from None


def _header_vocab(data) -> Vocab:
    """Build the vocabulary from a model header, naming a malformed field."""
    if not isinstance(data, dict):
        raise ModelIOError("header vocab is not an object")
    for key in ("forms", "tags", "deprels", "nonterminals", "form_counts"):
        pairs = data.get(key)
        if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                and type(pair[1]) is int for pair in pairs):
            raise ModelIOError("header vocab %r is not a list of [string, integer] pairs" % key)
    vocab = Vocab.from_json(data)
    for key, reserved in (("forms", UNK), ("tags", UNK), ("deprels", NONE_LABEL),
                          ("nonterminals", NONE_LABEL)):
        ids = getattr(vocab, key)
        # where build_vocab puts it; label names are read up to NONE
        at = 0 if reserved == UNK else len(ids) - 1
        if sorted(ids.values()) != list(range(len(ids))) or ids.get(reserved) != at:
            raise ModelIOError("header vocab %r is not ids 0..n-1 with %r at %d"
                               % (key, reserved, at))
    return vocab


def _check_directory(tensors, directory: list[dict]):
    """Require the header's tensor directory to equal the config's, naming the first
    tensor and field that differ; values compare as JSON, so 0.0 is not 0."""
    if not isinstance(tensors, list):
        raise ModelIOError("header tensors is not a list")
    for index, (entry, want) in enumerate(zip(tensors, directory)):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ModelIOError("tensor entry %d has no name" % index)
        for key, value in want.items():
            if key not in entry:
                raise ModelIOError("tensor %r entry lacks %r" % (want["name"], key))
            if json.dumps(entry[key]) != json.dumps(value):
                raise ModelIOError("tensor %r %s %r is not the config's %r"
                                   % (want["name"], key, entry[key], value))
        if len(entry) != len(want):
            raise ModelIOError("tensor %r entry has keys beyond %s" % (want["name"], list(want)))
    if len(tensors) < len(directory):
        raise ModelIOError("tensor %r is missing" % directory[len(tensors)]["name"])
    if len(tensors) > len(directory):
        raise ModelIOError("tensor entry %d %r is beyond the config's tensors"
                           % (len(directory), tensors[len(directory)]))


def load_model(path):
    """Rebuild a model from a file; validates magic, version and vocabulary
    hash, that the tensor directory and the file's size are exactly those
    the stored config implies, and that every loaded value is finite."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ModelIOError("bad magic: not a shiftparse model file")
        length_field = fh.read(8)
        if len(length_field) != 8:
            raise ModelIOError("file ends inside the header length field")
        (header_len,) = struct.unpack("<Q", length_field)
        file_size = os.fstat(fh.fileno()).st_size
        if header_len > file_size - 12:
            raise ModelIOError("header length %d exceeds the file size %d"
                               % (header_len, file_size))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelIOError("unreadable header: %s" % exc)
        for field_name in ("format", "version", "task", "config", "vocab",
                           "vocab_sha256", "tensors"):
            if not isinstance(header, dict) or field_name not in header:
                raise ModelIOError("header missing field %r" % field_name)
        if header["format"] != "shiftparse-model":
            raise ModelIOError("unexpected format %r" % header["format"])
        if header["version"] != _FORMAT_VERSION:
            raise ModelIOError("unsupported version %r" % header["version"])
        vocab = _header_vocab(header["vocab"])
        # hashed as stored: save_model writes the very JSON form it hashed
        if json_sha256(header["vocab"]) != header["vocab_sha256"]:
            raise ModelIOError("vocab_sha256 mismatch: vocabulary was modified")
        cls = MODELS.get(header["task"]) if isinstance(header["task"], str) else None
        if cls is None:
            raise ModelIOError("unknown task %r" % (header["task"],))
        model = _header_model(cls, header["config"], vocab)
        dtype = model.store.dtype.newbyteorder("<")
        directory = _directory(model.store, dtype)
        _check_directory(header["tensors"], directory)
        size, end = file_size - fh.tell(), directory[-1]["offset"] + directory[-1]["nbytes"]
        if size != end:
            raise ModelIOError("tensor blocks up to %r take %d bytes but the file holds %d"
                               % (directory[-1]["name"], end, size))
        for p in model.store:
            if fh.readinto(p.value) != p.value.nbytes:
                raise ModelIOError("file ends inside tensor %r" % p.name)
            if not dtype.isnative:
                p.value.byteswap(inplace=True)
            if not np.isfinite(p.value).all():
                raise ModelIOError("tensor %r holds non-finite values" % p.name)
    return model
