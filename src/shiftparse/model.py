"""Trainable greedy parsers: encoder, classifier heads, training, decoding.

Both parsers share the same skeleton: word (and tag) embeddings feed a one-
or two-layer bi-directional LSTM; the per-position outputs of every layer
are concatenated into one vector per word, computed once per sentence; a
parser state is represented by gathering a handful of those vectors (plus
label embeddings for constituency), and a ReLU classifier scores the next
action. Training is teacher-forced along the static-oracle action sequence
with summed negative log softmax losses, minibatched ADADELTA updates, and
dropout on every LSTM output connection. Decoding is greedy argmax over
legality-masked scores; ties break toward the lowest action index.

Absent feature slots use learned vectors, one per slot family (stack
positions vs. queue position); absent label slots use the reserved NONE
row of the nonterminal embedding table.

Models serialize to a single file: a JSON metadata header (task, config,
vocabulary and its hash, tensor directory) followed by raw little-endian
tensor blocks, optimizer state included, so save/load round-trips bitwise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import nn
from .const_system import (C_ADJ_LEFT, C_ADJ_RIGHT, C_PROMOTE, C_SHIFT,
                           DEFAULT_PROMOTE_CAP, ConstAction, NotDerivable,
                           const_apply, const_initial, const_legal,
                           const_oracle)
from .dep_system import (LEFT, RIGHT, SHIFT, DepAction, dep_apply,
                         dep_initial, dep_legal, dep_oracle)
from .evalmetrics import score_brackets, score_dep
from .features import (CONST_POSITION_FAMILIES, DEP_POSITION_FAMILIES,
                       extract_const, extract_dep)
from .trees import ROOT, ConstTree, DepTree, Sentence
from .vocab import UNK, Vocab


class ModelIOError(ValueError):
    """A model file that cannot be loaded; the message names the field."""


def _validate_config(config, positive: Sequence[str]):
    """Checks shared by both configs; each error names the field."""
    if config.layers not in (1, 2):
        raise ValueError("layers must be 1 or 2")
    for name in positive:
        if getattr(config, name) <= 0:
            raise ValueError("%s must be positive" % name)
    if not (0.0 <= config.dropout < 1.0):
        raise ValueError("dropout must lie in [0, 1)")
    if not (config.word_dropout >= 0.0):
        raise ValueError("word_dropout must be non-negative")


@dataclass
class DepConfig:
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
    root_label: str = "root"

    def __post_init__(self):
        _validate_config(self, ("word_dims", "tag_dims", "lstm_units", "hidden",
                                "epochs", "minibatch"))


@dataclass
class ConstConfig:
    word_dims: int = 100
    tag_dims: int = 100
    nonterminal_dims: int = 100
    lstm_units: int = 200
    layers: int = 2
    hidden: int = 1000
    epochs: int = 10
    minibatch: int = 10
    dropout: float = 0.5
    l2: float = 1e-8
    rho: float = 0.99
    eps: float = 1e-7
    hierarchical: bool = False
    use_tags: bool = True
    word_dropout: float = 0.25
    grad_clip: float = 0.0
    seed: int = 1
    precision: str = "float64"
    promote_cap: int = DEFAULT_PROMOTE_CAP

    def __post_init__(self):
        _validate_config(self, ("word_dims", "tag_dims", "nonterminal_dims", "lstm_units",
                                "hidden", "epochs", "minibatch", "promote_cap"))


class _EncoderModel:
    """Embeddings + Bi-LSTM stack shared by both parsers."""

    task = ""
    position_families: tuple[str, ...] = ()

    def __init__(self, config, vocab: Vocab):
        self.config = config
        self.vocab = vocab
        self.rng = np.random.default_rng(config.seed)
        self.store = nn.ParamStore(np.dtype(config.precision))
        self.best_params: Optional[dict[str, np.ndarray]] = None
        self._build_encoder()
        self._build_heads()

    # feature vector width per sentence position
    @property
    def enc_dims(self) -> int:
        return 2 * self.config.lstm_units * self.config.layers

    def _build_encoder(self):
        cfg, rng, dt = self.config, self.rng, self.store.dtype
        self.store.add("emb.word", nn.embedding_init(rng, self.vocab.num_forms,
                                                     cfg.word_dims, dtype=dt))
        input_size = cfg.word_dims
        if cfg.use_tags:
            self.store.add("emb.tag", nn.embedding_init(rng, self.vocab.num_tags,
                                                        cfg.tag_dims, dtype=dt))
            input_size += cfg.tag_dims
        for layer in range(1, cfg.layers + 1):
            in_size = input_size if layer == 1 else 2 * cfg.lstm_units
            for direction in ("fwd", "bwd"):
                w, b = nn.lstm_init(rng, in_size, cfg.lstm_units, dtype=dt)
                self.store.add("lstm%d.%s.w" % (layer, direction), w)
                self.store.add("lstm%d.%s.b" % (layer, direction), b)
        for family in sorted(set(self.position_families)):
            self.store.add("none." + family,
                           nn.embedding_init(rng, 1, self.enc_dims, dtype=dt)[0])

    def _build_heads(self):
        raise NotImplementedError

    def _add_mlp(self, prefix: str, in_dim: int, hidden: int, out_dim: int):
        rng, dt = self.rng, self.store.dtype
        self.store.add(prefix + ".w1", nn.glorot(rng, in_dim, hidden, dtype=dt))
        self.store.add(prefix + ".b1", np.zeros(hidden, dtype=dt))
        self.store.add(prefix + ".w2", nn.glorot(rng, hidden, out_dim, dtype=dt))
        self.store.add(prefix + ".b2", np.zeros(out_dim, dtype=dt))

    def _mlp_forward(self, prefix: str, x):
        st = self.store
        return nn.mlp_forward(st[prefix + ".w1"].value, st[prefix + ".b1"].value,
                              st[prefix + ".w2"].value, st[prefix + ".b2"].value, x)

    def _mlp_backward(self, prefix: str, cache, dscores):
        st = self.store
        return nn.mlp_backward(st[prefix + ".w1"].value, st[prefix + ".b1"].value,
                               st[prefix + ".w2"].value, st[prefix + ".b2"].value,
                               cache, dscores,
                               st[prefix + ".w1"].grad, st[prefix + ".b1"].grad,
                               st[prefix + ".w2"].grad, st[prefix + ".b2"].grad)

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

    def _encode(self, word_ids, tag_ids, train: bool, rng):
        cfg, st = self.config, self.store
        parts = [st["emb.word"].value[word_ids]]
        if cfg.use_tags:
            parts.append(st["emb.tag"].value[tag_ids])
        x1 = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]

        f1, cf1 = nn.lstm_forward(st["lstm1.fwd.w"].value, st["lstm1.fwd.b"].value, x1)
        b1r, cb1 = nn.lstm_forward(st["lstm1.bwd.w"].value, st["lstm1.bwd.b"].value, x1[::-1])
        o1 = np.concatenate([f1, b1r[::-1]], axis=1)

        p = cfg.dropout
        if cfg.layers == 1:
            feat, mask_feat1 = nn.dropout(o1, p, train, rng)
            cache = dict(word_ids=word_ids, tag_ids=tag_ids, cf1=cf1, cb1=cb1,
                         mask_feat1=mask_feat1)
            return feat, cache
        # each connection out of layer 1 gets its own mask
        a, mask_a = nn.dropout(o1, p, train, rng)
        f2, cf2 = nn.lstm_forward(st["lstm2.fwd.w"].value, st["lstm2.fwd.b"].value, a)
        b2r, cb2 = nn.lstm_forward(st["lstm2.bwd.w"].value, st["lstm2.bwd.b"].value, a[::-1])
        o2 = np.concatenate([f2, b2r[::-1]], axis=1)
        d1, mask_feat1 = nn.dropout(o1, p, train, rng)
        d2, mask_feat2 = nn.dropout(o2, p, train, rng)
        feat = np.concatenate([d1, d2], axis=1)
        cache = dict(word_ids=word_ids, tag_ids=tag_ids, cf1=cf1, cb1=cb1,
                     cf2=cf2, cb2=cb2, mask_a=mask_a,
                     mask_feat1=mask_feat1, mask_feat2=mask_feat2)
        return feat, cache

    def _lstm_backward(self, name: str, cache, dhs):
        st = self.store
        return nn.lstm_backward(st[name + ".w"].value, st[name + ".b"].value,
                                cache, dhs, st[name + ".w"].grad, st[name + ".b"].grad)

    def _encode_backward(self, cache, dfeat):
        cfg, st = self.config, self.store
        h2 = 2 * cfg.lstm_units
        if cfg.layers == 1:
            do1 = dfeat if cache["mask_feat1"] is None else dfeat * cache["mask_feat1"]
        else:
            do1 = dfeat[:, :h2]
            if cache["mask_feat1"] is not None:
                do1 = do1 * cache["mask_feat1"]
            do2 = dfeat[:, h2:]
            if cache["mask_feat2"] is not None:
                do2 = do2 * cache["mask_feat2"]
            da = self._lstm_backward("lstm2.fwd", cache["cf2"], do2[:, :cfg.lstm_units])
            da = da + self._lstm_backward(
                "lstm2.bwd", cache["cb2"], do2[:, cfg.lstm_units:][::-1])[::-1]
            if cache["mask_a"] is not None:
                da = da * cache["mask_a"]
            do1 = do1 + da
        dx1 = self._lstm_backward("lstm1.fwd", cache["cf1"], do1[:, :cfg.lstm_units])
        dx1 = dx1 + self._lstm_backward(
            "lstm1.bwd", cache["cb1"], do1[:, cfg.lstm_units:][::-1])[::-1]
        np.add.at(st["emb.word"].grad, cache["word_ids"], dx1[:, :cfg.word_dims])
        if cfg.use_tags:
            np.add.at(st["emb.tag"].grad, cache["tag_ids"], dx1[:, cfg.word_dims:])

    # -- position feature slots ----------------------------------------------

    def _position_matrix(self, enc, position_rows: Sequence[tuple]):
        families = self.position_families
        m, d = len(position_rows), self.enc_dims
        x = np.empty((m, len(families) * d), dtype=self.store.dtype)
        positions = np.full((m, len(families)), -1, dtype=np.int64)
        for k, family in enumerate(families):
            none_vec = self.store["none." + family].value
            for r, slots in enumerate(position_rows):
                pos = slots[k]
                if pos is None:
                    x[r, k * d:(k + 1) * d] = none_vec
                else:
                    x[r, k * d:(k + 1) * d] = enc[pos]
                    positions[r, k] = pos
        return x, positions

    def _position_backward(self, dx, positions, d_enc):
        families = self.position_families
        d = self.enc_dims
        for k, family in enumerate(families):
            dslot = dx[:, k * d:(k + 1) * d]
            here = positions[:, k]
            absent = here < 0
            if absent.any():
                self.store["none." + family].grad += dslot[absent].sum(axis=0)
            present = ~absent
            if present.any():
                np.add.at(d_enc, here[present], dslot[present])

    # -- training --------------------------------------------------------------

    def _oracle(self, tree):
        raise NotImplementedError

    def _forward_backward(self, tree, actions, train: bool, rng) -> float:
        raise NotImplementedError

    def _dev_metric(self, dev) -> tuple[float, str]:
        raise NotImplementedError

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
        out = {}
        for p in self.store:
            out[p.name] = p.value.copy()
            out[p.name + "#eg2"] = p.eg2.copy()
            out[p.name + "#ed2"] = p.ed2.copy()
        return out

    def restore(self, snap: dict[str, np.ndarray]):
        for p in self.store:
            p.value[...] = snap[p.name]
            p.eg2[...] = snap[p.name + "#eg2"]
            p.ed2[...] = snap[p.name + "#ed2"]

    def fit(self, train_trees: Sequence, dev_trees: Optional[Sequence] = None,
            log: Optional[Callable[[str], None]] = None) -> list[str]:
        """Teacher-forced training. Returns the run log as a list of lines
        (deterministic for a fixed seed and config; no wall-clock content)."""
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
                for idx in order[start:start + cfg.minibatch]:
                    tree, actions = data[idx]
                    epoch_loss += self._forward_backward(tree, actions, True, self.rng)
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


class DepModel(_EncoderModel):
    """Greedy arc-standard dependency parser."""

    task = "dep"
    position_families = DEP_POSITION_FAMILIES

    def __init__(self, config: DepConfig, vocab: Vocab):
        super().__init__(config, vocab)

    def _build_heads(self):
        in_dim = len(self.position_families) * self.enc_dims
        n_labels = self.vocab.num_deprels
        if self.config.hierarchical:
            self._add_mlp("head.struct", in_dim, self.config.hidden, 3)
            self._add_mlp("head.label", in_dim, self.config.hidden, n_labels)
        else:
            self._add_mlp("head.flat", in_dim, self.config.hidden, 1 + 2 * n_labels)

    def _oracle(self, tree: DepTree) -> list[DepAction]:
        return dep_oracle(tree)

    # structural class indices: shift 0, reduce-left 1, reduce-right 2
    _STRUCT = {SHIFT: 0, LEFT: 1, RIGHT: 2}

    def _flat_index(self, action: DepAction) -> int:
        if action.kind == SHIFT:
            return 0
        base = 1 if action.kind == LEFT else 1 + self.vocab.num_deprels
        return base + self.vocab.deprel_id(action.label)

    def _gold_rows(self, actions: Sequence[DepAction], n: int):
        positions = []
        state = dep_initial(n)
        for action in actions:
            positions.append(extract_dep(state).positions)
            state = dep_apply(state, action)
        return positions

    def _forward_backward(self, tree: DepTree, actions, train: bool, rng) -> float:
        sentence = tree.sentence
        word_ids, tag_ids = self._input_ids(sentence, train, rng)
        enc, cache = self._encode(word_ids, tag_ids, train, rng)
        position_rows = self._gold_rows(actions, len(sentence))
        x, positions = self._position_matrix(enc, position_rows)

        if self.config.hierarchical:
            scores, mcache = self._mlp_forward("head.struct", x)
            gold = np.array([self._STRUCT[a.kind] for a in actions])
            loss, dscores = nn.nll_softmax_loss(scores, gold)
            dx = self._mlp_backward("head.struct", mcache, dscores)
            label_rows = [r for r, a in enumerate(actions) if a.kind != SHIFT]
            if label_rows:
                xl = x[label_rows]
                lscores, lcache = self._mlp_forward("head.label", xl)
                lgold = np.array([self.vocab.deprel_id(actions[r].label) for r in label_rows])
                lloss, dl = nn.nll_softmax_loss(lscores, lgold)
                loss += lloss
                dx[label_rows] += self._mlp_backward("head.label", lcache, dl)
        else:
            scores, mcache = self._mlp_forward("head.flat", x)
            gold = np.array([self._flat_index(a) for a in actions])
            loss, dscores = nn.nll_softmax_loss(scores, gold)
            dx = self._mlp_backward("head.flat", mcache, dscores)

        d_enc = np.zeros_like(enc)
        self._position_backward(dx, positions, d_enc)
        self._encode_backward(cache, d_enc)
        return loss

    def _decide(self, x, legal: set[str]) -> DepAction:
        n_labels = self.vocab.num_deprels
        names = self.vocab.deprel_names
        if self.config.hierarchical:
            scores, _ = self._mlp_forward("head.struct", x)
            masked = np.full(3, -np.inf)
            for kind in legal:
                masked[self._STRUCT[kind]] = scores[self._STRUCT[kind]]
            choice = int(np.argmax(masked))
            if choice == 0:
                return DepAction(SHIFT)
            lscores, _ = self._mlp_forward("head.label", x)
            label = names[int(np.argmax(lscores[:n_labels]))]
            return DepAction(LEFT if choice == 1 else RIGHT, label)
        scores, _ = self._mlp_forward("head.flat", x)
        masked = np.full(scores.shape, -np.inf)
        if SHIFT in legal:
            masked[0] = scores[0]
        if LEFT in legal:
            masked[1:1 + n_labels] = scores[1:1 + n_labels]
        if RIGHT in legal:
            masked[1 + n_labels:] = scores[1 + n_labels:]
        choice = int(np.argmax(masked))
        if choice == 0:
            return DepAction(SHIFT)
        choice -= 1
        kind = LEFT if choice < n_labels else RIGHT
        return DepAction(kind, names[choice % n_labels])

    def parse(self, sentence: Sentence) -> DepTree:
        """Greedy decode; legality masking makes it exactly 2n-1 steps."""
        n = len(sentence)
        word_ids, tag_ids = self._input_ids(sentence, False, None)
        enc, _ = self._encode(word_ids, tag_ids, False, None)
        state = dep_initial(n)
        while not state.is_terminal:
            x, _ = self._position_matrix(enc, [extract_dep(state).positions])
            action = self._decide(x[0], dep_legal(state))
            state = dep_apply(state, action)
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
    position_families = CONST_POSITION_FAMILIES

    def __init__(self, config: ConstConfig, vocab: Vocab):
        super().__init__(config, vocab)

    def _build_heads(self):
        cfg = self.config
        # 8 label-identity slots share the nonterminal table (NONE included)
        self.store.add("emb.nonterminal",
                       nn.embedding_init(self.rng, len(self.vocab.nonterminals),
                                         cfg.nonterminal_dims, dtype=self.store.dtype))
        in_dim = len(self.position_families) * self.enc_dims + 8 * cfg.nonterminal_dims
        n_nt = self.vocab.num_nonterminals
        if cfg.hierarchical:
            self._add_mlp("head.struct", in_dim, cfg.hidden, 4)
            self._add_mlp("head.label", in_dim, cfg.hidden, n_nt)
        else:
            self._add_mlp("head.flat", in_dim, cfg.hidden, 3 + n_nt)

    def _oracle(self, tree: ConstTree) -> list[ConstAction]:
        return const_oracle(tree)

    # structural class indices: shift 0, promote 1, adj-left 2, adj-right 3
    _STRUCT = {C_SHIFT: 0, C_PROMOTE: 1, C_ADJ_LEFT: 2, C_ADJ_RIGHT: 3}
    # flat composite indices: shift 0, adj-left 1, adj-right 2, promote(X) 3+X
    _FLAT_FIXED = {C_SHIFT: 0, C_ADJ_LEFT: 1, C_ADJ_RIGHT: 2}

    def _flat_index(self, action: ConstAction) -> int:
        if action.kind == C_PROMOTE:
            return 3 + self.vocab.nonterminal_id(action.label)
        return self._FLAT_FIXED[action.kind]

    def _gold_rows(self, actions: Sequence[ConstAction], n: int):
        position_rows = []
        label_rows = []
        state = const_initial(n)
        for action in actions:
            feats = extract_const(state)
            position_rows.append(feats.positions)
            label_rows.append([self.vocab.nonterminal_id(l) for l in feats.labels])
            state = const_apply(state, action)
        return position_rows, label_rows

    def _assemble(self, enc, position_rows, label_rows):
        x_pos, positions = self._position_matrix(enc, position_rows)
        label_ids = np.asarray(label_rows, dtype=np.int64)
        emb = self.store["emb.nonterminal"].value
        m = len(position_rows)
        x_label = emb[label_ids.reshape(-1)].reshape(m, -1)
        return np.concatenate([x_pos, x_label], axis=1), positions, label_ids

    def _disassemble(self, dx, positions, label_ids, d_enc):
        pos_width = len(self.position_families) * self.enc_dims
        self._position_backward(dx[:, :pos_width], positions, d_enc)
        d_label = dx[:, pos_width:].reshape(-1, self.config.nonterminal_dims)
        np.add.at(self.store["emb.nonterminal"].grad, label_ids.reshape(-1), d_label)

    def _forward_backward(self, tree: ConstTree, actions, train: bool, rng) -> float:
        sentence = tree.sentence
        word_ids, tag_ids = self._input_ids(sentence, train, rng)
        enc, cache = self._encode(word_ids, tag_ids, train, rng)
        position_rows, label_rows = self._gold_rows(actions, len(sentence))
        x, positions, label_ids = self._assemble(enc, position_rows, label_rows)

        if self.config.hierarchical:
            scores, mcache = self._mlp_forward("head.struct", x)
            gold = np.array([self._STRUCT[a.kind] for a in actions])
            loss, dscores = nn.nll_softmax_loss(scores, gold)
            dx = self._mlp_backward("head.struct", mcache, dscores)
            rows = [r for r, a in enumerate(actions) if a.kind == C_PROMOTE]
            if rows:
                xl = x[rows]
                lscores, lcache = self._mlp_forward("head.label", xl)
                lgold = np.array([self.vocab.nonterminal_id(actions[r].label) for r in rows])
                lloss, dl = nn.nll_softmax_loss(lscores, lgold)
                loss += lloss
                dx[rows] += self._mlp_backward("head.label", lcache, dl)
        else:
            scores, mcache = self._mlp_forward("head.flat", x)
            gold = np.array([self._flat_index(a) for a in actions])
            loss, dscores = nn.nll_softmax_loss(scores, gold)
            dx = self._mlp_backward("head.flat", mcache, dscores)

        d_enc = np.zeros_like(enc)
        self._disassemble(dx, positions, label_ids, d_enc)
        self._encode_backward(cache, d_enc)
        return loss

    def _decide(self, x, legal: set[str]) -> ConstAction:
        n_nt = self.vocab.num_nonterminals
        names = self.vocab.nonterminal_names
        if self.config.hierarchical:
            scores, _ = self._mlp_forward("head.struct", x)
            masked = np.full(4, -np.inf)
            for kind in legal:
                masked[self._STRUCT[kind]] = scores[self._STRUCT[kind]]
            choice = int(np.argmax(masked))
            for kind, index in self._STRUCT.items():
                if index == choice and kind != C_PROMOTE:
                    return ConstAction(kind)
            lscores, _ = self._mlp_forward("head.label", x)
            return ConstAction(C_PROMOTE, names[int(np.argmax(lscores[:n_nt]))])
        scores, _ = self._mlp_forward("head.flat", x)
        masked = np.full(scores.shape, -np.inf)
        for kind, index in self._FLAT_FIXED.items():
            if kind in legal:
                masked[index] = scores[index]
        if C_PROMOTE in legal:
            masked[3:] = scores[3:]
        choice = int(np.argmax(masked))
        if choice < 3:
            for kind, index in self._FLAT_FIXED.items():
                if index == choice:
                    return ConstAction(kind)
        return ConstAction(C_PROMOTE, names[choice - 3])

    def parse(self, sentence: Sentence) -> ConstTree:
        """Greedy decode; the promote cap plus legality masking bounds the
        number of steps, and a lone un-promoted leaf forces a Promote."""
        cfg = self.config
        n = len(sentence)
        word_ids, tag_ids = self._input_ids(sentence, False, None)
        enc, _ = self._encode(word_ids, tag_ids, False, None)
        state = const_initial(n)
        max_steps = n + (n - 1) + cfg.promote_cap * 2 * n + 8
        while not state.is_terminal:
            if state.step > max_steps:
                raise AssertionError("decoder exceeded its step bound")
            feats = extract_const(state)
            label_row = [self.vocab.nonterminal_id(l) for l in feats.labels]
            x, _, _ = self._assemble(enc, [feats.positions], [label_row])
            action = self._decide(x[0], const_legal(state, cfg.promote_cap))
            state = const_apply(state, action)
        return ConstTree(sentence, state.stack[0].node)

    def _dev_metric(self, dev: Sequence[ConstTree]) -> tuple[float, str]:
        pred = [self.parse(t.sentence) for t in dev]
        score = score_brackets(dev, pred)
        return score.f1, "dev_f1=%.2f dev_precision=%.2f dev_recall=%.2f" % (
            score.f1, score.precision, score.recall)


def float64_twin(model: _EncoderModel) -> _EncoderModel:
    """A float64 copy of a model, parameter values cast up in place."""
    from dataclasses import replace as dc_replace
    twin = type(model)(dc_replace(model.config, precision="float64"), model.vocab)
    for p in model.store:
        twin.store[p.name].value[...] = p.value.astype(np.float64)
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
    total = 0.0
    for tree, actions in data:
        total += model._forward_backward(tree, actions, False, None)
    analytic = {p.name: np.asarray(p.grad, dtype=np.float64).copy()
                for p in model.store}
    model.store.zero_grads()
    if inject_error is not None:
        if inject_error not in analytic:
            raise ValueError("unknown parameter %r" % inject_error)
        analytic[inject_error] = analytic[inject_error] + 0.5

    probe_model = model if model.store.dtype == np.float64 else float64_twin(model)
    probe_data = [(tree, probe_model._oracle(tree)) for tree in trees]

    def loss_fn():
        value = 0.0
        for tree, actions in probe_data:
            value += probe_model._forward_backward(tree, actions, False, None)
        probe_model.store.zero_grads()  # discard gradients from probe passes
        return value

    rng = np.random.default_rng(seed)
    report = nn.grad_check(loss_fn, probe_model.store, rng, samples_per_param, h,
                           tolerance, analytic)
    report["loss"] = total
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"SHPM"
_FORMAT_VERSION = 1


def _tensor_entries(model: _EncoderModel):
    for p in model.store:
        yield p.name, p.value
        yield p.name + "#eg2", p.eg2
        yield p.name + "#ed2", p.ed2


def save_model(model: _EncoderModel, path, params: Optional[dict[str, np.ndarray]] = None):
    """Write header + raw little-endian tensor blocks. With params given
    (e.g. a best-epoch snapshot) those arrays are written instead of the
    live ones."""
    tensors = []
    blocks = []
    offset = 0
    for name, value in _tensor_entries(model):
        if params is not None:
            value = params[name]
        data = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<")).tobytes()
        tensors.append({"name": name, "shape": list(value.shape),
                        "dtype": str(value.dtype), "offset": offset,
                        "nbytes": len(data)})
        blocks.append(data)
        offset += len(data)
    header = {
        "format": "shiftparse-model",
        "version": _FORMAT_VERSION,
        "task": model.task,
        "config": asdict(model.config),
        "vocab": model.vocab.to_json(),
        "vocab_sha256": model.vocab.sha256(),
        "tensors": tensors,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for block in blocks:
            fh.write(block)


def save_best(model: _EncoderModel, path):
    save_model(model, path, params=model.best_params or model.snapshot())


def _header_config(cls, values):
    """Build a config from a model header, naming any key cls lacks."""
    if not isinstance(values, dict):
        raise ModelIOError("header config is not an object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ModelIOError("unknown config key %r in model header" % unknown[0])
    try:
        return cls(**values)
    except TypeError as exc:     # a value of the wrong type, e.g. "epochs": "ten"
        raise ModelIOError("bad config value in model header: %s" % exc) from None


def load_model(path):
    """Rebuild a model from a file; validates magic, version, vocabulary
    hash, and every tensor's shape against the stored config."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ModelIOError("bad magic: not a shiftparse model file")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelIOError("unreadable header: %s" % exc)
        for field_name in ("format", "version", "task", "config", "vocab",
                           "vocab_sha256", "tensors"):
            if field_name not in header:
                raise ModelIOError("header missing field %r" % field_name)
        if header["format"] != "shiftparse-model":
            raise ModelIOError("unexpected format %r" % header["format"])
        if header["version"] != _FORMAT_VERSION:
            raise ModelIOError("unsupported version %r" % header["version"])
        vocab = Vocab.from_json(header["vocab"])
        if vocab.sha256() != header["vocab_sha256"]:
            raise ModelIOError("vocab_sha256 mismatch: vocabulary was modified")
        task = header["task"]
        if task == "dep":
            model = DepModel(_header_config(DepConfig, header["config"]), vocab)
        elif task == "const":
            model = ConstModel(_header_config(ConstConfig, header["config"]), vocab)
        else:
            raise ModelIOError("unknown task %r" % task)
        arrays = {name: arr for name, arr in _tensor_entries(model)}
        seen = set()
        payload_start = fh.tell()
        for meta in header["tensors"]:
            name = meta["name"]
            if name not in arrays:
                raise ModelIOError("unexpected tensor %r" % name)
            target = arrays[name]
            if list(target.shape) != list(meta["shape"]):
                raise ModelIOError("tensor %r shape %r does not match config shape %r"
                                   % (name, meta["shape"], list(target.shape)))
            fh.seek(payload_start + meta["offset"])
            raw = fh.read(meta["nbytes"])
            if len(raw) != meta["nbytes"]:
                raise ModelIOError("tensor %r is truncated" % name)
            loaded = np.frombuffer(raw, dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
            target[...] = loaded
            seen.add(name)
        missing = set(arrays) - seen
        if missing:
            raise ModelIOError("tensors missing from file: %s" % ", ".join(sorted(missing)))
    return model
