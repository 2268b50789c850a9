import hashlib
import itertools
import json
import os
import signal
import struct
import sys
import threading
import time
import traceback
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shiftparse.const_system import (C_ADJ_LEFT, C_ADJ_RIGHT, C_PROMOTE, C_SHIFT,
                                     ConstAction, const_initial)
from shiftparse.dep_system import LEFT, RIGHT, SHIFT, DepAction, dep_initial, dep_legal
from shiftparse.features import extract_const, extract_dep
from shiftparse.headrules import HeadRules
from shiftparse.model import (ActionSpace, ConstConfig, ConstModel, DecodeStepLimit, DepConfig,
                              DepModel, ModelIOError, _EncoderModel, load_model,
                              model_grad_check, save_best, save_model)
from shiftparse.trees import Sentence, Token
from shiftparse.vocab import Vocab, build_vocab, json_sha256
from shiftparse import nn, synth
from shiftparse.headrules import assign_heads

from conftest import running_thread
from test_nn import reference_lstm_forward


def small_dep_setup(hierarchical=True, layers=2, use_tags=True, seed=3, precision="float64"):
    rng = np.random.default_rng(5)
    trees = [synth.random_projective_tree(rng, 5) for _ in range(3)]
    vocab = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
    config = DepConfig(word_dims=8, tag_dims=6, lstm_units=8, layers=layers,
                       hidden=12, dropout=0.0, word_dropout=0.0,
                       hierarchical=hierarchical, use_tags=use_tags, seed=seed,
                       precision=precision)
    return DepModel(config, vocab), trees


def small_const_setup(hierarchical=False, layers=2, seed=3, precision="float64"):
    rng = np.random.default_rng(6)
    trees = [synth.random_const_tree(rng, 5) for _ in range(3)]
    vocab = build_vocab([t.sentence for t in trees], const_trees=trees, min_form_count=1)
    config = ConstConfig(word_dims=8, tag_dims=6, nonterminal_dims=6, lstm_units=8,
                         layers=layers, hidden=12, dropout=0.0, word_dropout=0.0,
                         l2=0.0, hierarchical=hierarchical, seed=seed, precision=precision)
    return ConstModel(config, vocab), trees


def test_head_input_width_arithmetic():
    model, _trees = small_dep_setup(layers=2)
    d = 2 * model.config.lstm_units * model.config.layers
    assert model.enc_dims == d
    assert model.store["head.struct.w1"].value.shape == (3 * d, model.config.hidden)
    cmodel, _c = small_const_setup(layers=2)
    dc = 2 * cmodel.config.lstm_units * cmodel.config.layers
    expected = 5 * dc + 8 * cmodel.config.nonterminal_dims
    assert cmodel.store["head.flat.w1"].value.shape == (expected, cmodel.config.hidden)


def test_default_configs_are_the_documented_training_settings():
    dep = DepConfig()
    assert (dep.word_dims, dep.tag_dims) == (50, 20)
    assert dep.lstm_units == 200 and dep.hidden == 200
    assert dep.epochs == 10 and dep.minibatch == 10 and dep.dropout == 0.5
    assert dep.l2 == 0.0 and dep.rho == 0.99 and dep.eps == 1e-7
    const = ConstConfig()
    assert (const.word_dims, const.tag_dims, const.nonterminal_dims) == (100, 100, 100)
    assert const.lstm_units == 200 and const.hidden == 1000
    assert const.epochs == 10 and const.minibatch == 10 and const.dropout == 0.5
    assert const.l2 == 1e-8 and const.rho == 0.99 and const.eps == 1e-7


@pytest.mark.parametrize("cls, field, value", [
    (DepConfig, "dropout", 1.5), (ConstConfig, "dropout", 1.0), (DepConfig, "dropout", -0.1),
    (DepConfig, "word_dropout", -0.25), (ConstConfig, "word_dropout", -1.0),
    (DepConfig, "epochs", 0), (ConstConfig, "epochs", -1),
    (DepConfig, "minibatch", 0), (ConstConfig, "minibatch", -10),
    (ConstConfig, "promote_cap", 0), (ConstConfig, "promote_cap", -3),
    (DepConfig, "rho", 0.0), (ConstConfig, "rho", 1.0), (DepConfig, "rho", float("nan")),
    (DepConfig, "eps", 0.0), (ConstConfig, "eps", -1e-7),
    (DepConfig, "l2", -1e-8), (ConstConfig, "l2", float("nan")),
    (DepConfig, "grad_clip", -1.0), (ConstConfig, "grad_clip", -5.0),
    (DepConfig, "precision", "foo"), (ConstConfig, "precision", "float16"),
    (DepConfig, "layers", 3), (ConstConfig, "layers", 0), (DepConfig, "seed", -1),
    (DepConfig, "word_dims", 0), (ConstConfig, "nonterminal_dims", 0),
    (DepConfig, "hidden", 4.0), (ConstConfig, "epochs", "10"), (DepConfig, "minibatch", True),
    (DepConfig, "dropout", False), (ConstConfig, "l2", "0"),
    (ConstConfig, "hierarchical", "no"), (DepConfig, "use_tags", 1),
    (DepConfig, "precision", None), (DepConfig, "root_label", 0),
    (DepConfig, "l2", float("inf")), (ConstConfig, "grad_clip", float("inf")),
    (DepConfig, "word_dropout", float("inf")),
])
def test_config_rejects_out_of_range_training_fields(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def _force_scores(model, prefix, scores):
    """Zero a head's weights and write the desired scores into its output
    bias, making every decision produce exactly `scores`."""
    model.store[prefix + ".w1"].value[...] = 0.0
    model.store[prefix + ".b1"].value[...] = 0.0
    model.store[prefix + ".w2"].value[...] = 0.0
    model.store[prefix + ".b2"].value[...] = np.asarray(scores, dtype=np.float64)


def _decoder_heads(model, enc):
    """Per head, what _decide passes nn.mlp_forward besides the ids, for a
    sentence encoded as enc."""
    tables = model._project(enc)
    return [model._head(prefix, tables[prefix]) for prefix in model.space.heads]


def _state_ids(model, n, features):
    """One state's table rows, as decoding takes them."""
    return np.array(model._slot_ids(n)(features), dtype=np.intp)


def _decide_at(model, enc, state, legal):
    """The model's decision for one state of a sentence encoded as enc."""
    return model._decide(_decoder_heads(model, enc),
                         _state_ids(model, len(enc), model._features(state)), legal)


def _dense_input(model, enc, features):
    """The classifier input of one state, materialised: each position slot's
    encoder row or its family's absent vector, then each label slot's
    nonterminal embedding."""
    positions, labels = features
    parts = [model.store["none." + family].value if p is None else enc[p]
             for p, family in zip(positions, model.position_families)]
    parts += [model.store["emb.nonterminal"].value[label] for label in labels]
    return np.concatenate(parts)


@pytest.mark.parametrize("setup", [small_dep_setup, small_const_setup], ids=["dep", "const"])
@pytest.mark.parametrize("hierarchical", [True, False], ids=["hierarchical", "flat"])
def test_table_scores_match_materialised_first_layer(setup, hierarchical):
    model, trees = setup(hierarchical=hierarchical)
    rng = np.random.default_rng(4)
    for p in model.store:     # move b1 and the absent vectors off their init
        p.value[...] += rng.standard_normal(p.value.shape) * 0.1
    absent = none_label = 0
    for tree in trees:
        n = len(tree.sentence)
        enc = rng.standard_normal((n, model.enc_dims))
        tables = model._project(enc)
        state = model._initial(n)
        for action in model._oracle(tree):
            features = model._features(state)
            absent += sum(p is None for p in features[0])
            none_label += sum(l == model.vocab.nonterminal_id(None) for l in features[1])
            ids = _state_ids(model, n, features)
            x = _dense_input(model, enc, features)
            for prefix in model.space.heads:
                w1, b1, w2, b2 = (model.store[prefix + part].value
                                  for part in (".w1", ".b1", ".w2", ".b2"))
                scores, _ = model._mlp_forward(prefix, tables, ids)
                reference = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
                assert np.abs(scores - reference).max() < 1e-12
            state = model._apply(state, action)
    assert absent > 0
    assert none_label > 0 or setup is small_dep_setup


def test_masking_forces_shift_when_only_legal():
    model, _trees = small_dep_setup(hierarchical=True)
    # make reduce actions look maximally attractive
    _force_scores(model, "head.struct", [-5.0, 10.0, 10.0])
    _force_scores(model, "head.label", np.zeros(model.vocab.num_deprels))
    state = dep_initial(3)
    enc = np.zeros((3, model.enc_dims))
    action = _decide_at(model, enc, state, dep_legal(state))
    assert action == DepAction(SHIFT)


def test_hierarchical_and_flat_agree_on_consistent_score_table():
    # when each flat score is its kind's structural score plus its label's
    # score, both decision rules pick the same composite action
    for setup, n, prefix in (
            (small_dep_setup, 4, [DepAction(SHIFT), DepAction(SHIFT)]),
            (small_const_setup, 3, [ConstAction(C_SHIFT), ConstAction(C_PROMOTE, "S"),
                                    ConstAction(C_SHIFT)])):
        hier, _ = setup(hierarchical=True, seed=11)
        flat, _ = setup(hierarchical=False, seed=11)
        state = hier._initial(n)
        for a in prefix:
            state = hier._apply(state, a)
        legal = hier._legal(state)
        assert len(legal) >= 3
        kind_id = {kind: i for i, kind in enumerate(hier.space.kinds)}
        rng = np.random.default_rng(0)
        for _ in range(20):
            struct = rng.standard_normal(len(kind_id))
            labels = rng.standard_normal(len(hier.space.labels))
            labels -= labels.max()   # argmax-consistent: best label adds nothing
            flat_scores = [struct[kind_id[k]]
                           + (0.0 if l is None else labels[flat.space.label_id[l]])
                           for k, l in flat.space.columns]
            _force_scores(hier, "head.struct", struct)
            _force_scores(hier, "head.label", labels)
            _force_scores(flat, "head.flat", flat_scores)
            a_h = _decide_at(hier, np.zeros((n, hier.enc_dims)), state, legal)
            a_f = _decide_at(flat, np.zeros((n, flat.enc_dims)), state, legal)
            assert a_h == a_f


def test_hierarchical_choice_invariant_to_label_score_shift():
    model, _trees = small_dep_setup(hierarchical=True, seed=13)
    n_labels = model.vocab.num_deprels
    struct = np.array([0.3, 1.0, 0.2])
    labels = np.linspace(-1, 1, n_labels)
    from shiftparse.dep_system import dep_apply
    state = dep_initial(3)
    for a in (DepAction(SHIFT), DepAction(SHIFT)):
        state = dep_apply(state, a)
    enc = np.zeros((3, model.enc_dims))
    _force_scores(model, "head.struct", struct)
    _force_scores(model, "head.label", labels)
    first = _decide_at(model, enc, state, dep_legal(state))
    _force_scores(model, "head.label", labels + 100.0)
    second = _decide_at(model, enc, state, dep_legal(state))
    assert first.kind == second.kind == LEFT


def _masked_decision(model, heads, ids, legal):
    """The decision rule as a boolean mask over the structural kinds gives
    it: the mask expanded to the columns, the illegal columns' scores set
    to -inf, then the argmax; the label head's argmax where the column
    leaves the label open."""
    space = model.space
    mask = np.array([kind in legal for kind in space.kinds])
    column_kind = np.array([space.kinds.index(kind) for kind, _ in space.columns])
    scores, _ = nn.mlp_forward(*heads[0], ids)
    column = int(np.argmax(np.where(mask[column_kind], scores, -np.inf)))
    kind, label = space.columns[column]
    if space.open[column]:
        lscores, _ = nn.mlp_forward(*heads[1], ids)
        label = space.labels[int(np.argmax(lscores))]
    return space.action_cls(kind, label)


@pytest.mark.parametrize("setup", [small_dep_setup, small_const_setup], ids=["dep", "const"])
@pytest.mark.parametrize("hierarchical", [True, False], ids=["hierarchical", "flat"])
def test_decide_breaks_ties_toward_the_lowest_column_and_label(setup, hierarchical):
    # at both precisions, under every non-empty set of legal kinds, in one
    # model so that the space's legal columns are looked up again, the
    # decision is the one the masked rule gives; scores drawn from {0, 1, 2}
    # tie often, and then it is the lowest legal column of top score and,
    # where that column leaves the label open, the lowest label of top score
    for precision in ("float64", "float32"):
        _decide_ties_at(setup(hierarchical=hierarchical, seed=11, precision=precision)[0])


def _decide_ties_at(model):
    space = model.space
    ids = np.zeros(len(model.position_families) + model.label_slots, dtype=np.intp)
    enc = np.zeros((3, model.enc_dims), model.store.dtype)
    rng = np.random.default_rng(18)
    ties = 0
    for draw in range(20):
        tied = draw % 2 == 0
        scores = [rng.integers(0, 3, size).astype(float) if tied else rng.standard_normal(size)
                  for size in space.sizes]
        for prefix, head_scores in zip(space.heads, scores):
            _force_scores(model, prefix, head_scores)
        heads = _decoder_heads(model, enc)
        for legal in itertools.product((False, True), repeat=len(space.kinds)):
            if not any(legal):
                continue
            kinds = {kind for kind, on in zip(space.kinds, legal) if on}
            action = model._decide(heads, ids, kinds)
            assert action == _masked_decision(model, heads, ids, kinds)
            if not tied:
                continue
            columns = [c for c, (kind, _) in enumerate(space.columns) if kind in kinds]
            best = max(scores[0][c] for c in columns)
            column = min(c for c in columns if scores[0][c] == best)
            ties += sum(scores[0][c] == best for c in columns) > 1
            kind, label = space.columns[column]
            if space.open[column]:
                label = space.labels[list(scores[1]).index(max(scores[1]))]
            assert action == space.action_cls(kind, label)
    assert ties


@pytest.mark.parametrize("setup", [small_dep_setup, small_const_setup], ids=["dep", "const"])
@pytest.mark.parametrize("hierarchical", [True, False], ids=["hierarchical", "flat"])
def test_prebuilt_actions_equal_freshly_constructed_ones(setup, hierarchical):
    # per column, one action per label where the column leaves the label
    # open, else the column's own; together every action of the inventory
    model, _ = setup(hierarchical=hierarchical)
    space = model.space
    assert len(space.actions) == len(space.columns)
    for column, ((kind, label), actions) in enumerate(zip(space.columns, space.actions)):
        labels = space.labels if space.open[column] else (label,)
        assert actions == tuple(space.action_cls(kind, l) for l in labels)
        assert all(type(a) is space.action_cls for a in actions)
        for action in actions:
            assert space.column_id[action.kind, action.label] == column
            with pytest.raises(AttributeError):     # frozen, so safe to share
                action.label = "X"
    assert sum(map(len, space.actions)) == len(space.column_id)


def _reference_slot_ids(model, n, rows, offset=0):
    """The table rows of feature rows [(positions, label ids)] of a sentence
    whose first word is encoder row offset of a table over n encoder rows,
    each computed whole from the table's layout, as an (m, slots) array."""
    stride = n + len(model.families)
    label_at = len(model.position_families) * stride
    n_labels = len(model.vocab.nonterminals)
    return np.array([[k * stride + (n + model.absent_row[k] if p is None else offset + p)
                      for k, p in enumerate(positions)]
                     + [label_at + j * n_labels + label for j, label in enumerate(labels)]
                     for positions, labels in rows], dtype=np.intp)


@pytest.mark.parametrize("setup", [small_dep_setup, small_const_setup], ids=["dep", "const"])
def test_slot_ids_from_per_sentence_bases_match_the_table_layout(setup):
    # every oracle state of the corpus, one sentence at a time as decoding
    # takes them and stacked over the minibatch as _replay does; the label
    # ids come from the vocabulary
    model, trees = setup()
    extract = extract_const if setup is small_const_setup else extract_dep
    batch = [(tree, model._oracle(tree)) for tree in trees]
    n = sum(len(tree.sentence) for tree in trees)
    scored = model._replay(batch, n)
    offset = 0
    for (tree, actions), heads in zip(batch, scored):
        length = len(tree.sentence)
        rows, state = [], model._initial(length)
        for action in actions:
            rows.append(model._features(state))
            labels = getattr(extract(state), "labels", ())
            assert list(rows[-1][1]) == [model.vocab.nonterminal_id(l) for l in labels]
            state = model._apply(state, action)
        one = _reference_slot_ids(model, length, rows)
        assert np.array_equal(np.array([model._slot_ids(length)(f) for f in rows]), one)
        stacked = _reference_slot_ids(model, n, rows, offset)
        for (head, ids, _), (_, (states, _)) in zip(heads, model.space.targets(actions)):
            assert ids.dtype == np.intp and np.array_equal(ids, stacked[states])
        offset += length


def test_promote_masked_beyond_cap():
    from shiftparse.const_system import const_apply, const_legal
    for hierarchical in (True, False):
        model, _trees = small_const_setup(hierarchical=hierarchical)
        space, cap = model.space, model.config.promote_cap
        first = space.labels[0]
        # promoting the first nonterminal looks irresistible
        _force_scores(model, space.heads[0],
                      [50.0 if column in ((C_PROMOTE, None), (C_PROMOTE, first)) else -1.0
                       for column in space.columns])
        for prefix in space.heads[1:]:
            _force_scores(model, prefix, np.eye(len(space.labels))[0])
        enc = np.zeros((2, model.enc_dims))
        state = const_apply(const_initial(2), ConstAction(C_SHIFT))
        for _ in range(cap):
            action = _decide_at(model, enc, state, const_legal(state, cap))
            assert action == ConstAction(C_PROMOTE, first)
            state = const_apply(state, action)
        # at the cap Promote is masked, and the one legal action wins
        assert _decide_at(model, enc, state, const_legal(state, cap)) == ConstAction(C_SHIFT)


def test_const_parse_spans_all_tokens():
    model, trees = small_const_setup()
    for tree in trees:
        parsed = model.parse(tree.sentence)
        assert len(parsed) == len(tree.sentence)


def test_dep_parse_single_token():
    model, _trees = small_dep_setup()
    sentence = Sentence.from_pairs([("w0", "NN")])
    tree = model.parse(sentence)
    assert tree.head_of(0) == -1
    assert tree.label_of(0) == model.config.root_label


def test_grad_check_passes_mid_training():
    model, trees = small_dep_setup()
    model.fit(trees)
    report = model_grad_check(model, trees[:2], samples_per_param=6)
    assert report["ok"], report["failures"][:3]
    assert report["max_rel_error"] < 1e-4


def test_training_reduces_loss():
    train = synth.toy_dep_corpus(32, seed=7)
    vocab = build_vocab([t.sentence for t in train], dep_trees=train, min_form_count=1)
    config = DepConfig(word_dims=8, tag_dims=6, lstm_units=8, layers=1, hidden=12,
                       epochs=2, minibatch=4, dropout=0.0, word_dropout=0.0, seed=1)
    model = DepModel(config, vocab)
    data = [(t, model._oracle(t)) for t in train]

    def corpus_loss():
        total = model._forward_backward(data, False, None)
        model.store.zero_grads()
        return total

    initial = corpus_loss()
    model.fit(train)
    assert corpus_loss() < initial


@pytest.mark.parametrize("task", ["dep", "const"])
@pytest.mark.parametrize("hierarchical", [True, False], ids=["hierarchical", "flat"])
def test_minibatch_gradients_equal_sum_of_sentences(task, hierarchical):
    # sentences of different lengths, so each one's rows sit at a different
    # offset of the stacked tables, and two of equal length, which the
    # encoder's packing sorts stably; dropout and word dropout on
    rng = np.random.default_rng(12)
    if task == "dep":
        trees = [synth.random_projective_tree(rng, n) for n in (1, 6, 3, 9, 6)]
        vocab = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
        model = DepModel(DepConfig(word_dims=8, tag_dims=6, lstm_units=8, hidden=12,
                                   dropout=0.3, word_dropout=0.25,
                                   hierarchical=hierarchical, seed=3), vocab)
    else:
        trees = [synth.random_const_tree(rng, n) for n in (2, 7, 4, 9, 7)]
        vocab = build_vocab([t.sentence for t in trees], const_trees=trees, min_form_count=1)
        model = ConstModel(ConstConfig(word_dims=8, tag_dims=6, nonterminal_dims=6,
                                       lstm_units=8, hidden=12, dropout=0.3,
                                       word_dropout=0.25, hierarchical=hierarchical,
                                       seed=3), vocab)
    batch = [(t, model._oracle(t)) for t in trees]

    def run(calls):
        rng = np.random.default_rng(4)
        model.store.zero_grads()
        loss = sum(model._forward_backward(items, True, rng) for items in calls)
        return loss, {p.name: p.grad.copy() for p in model.store}

    batch_loss, batch_grads = run([batch])
    loss, grads = run([[item] for item in batch])
    assert abs(batch_loss - loss) <= 1e-12 * abs(loss)
    for name, grad in grads.items():
        assert np.abs(batch_grads[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


def _minibatch(task, precision="float64"):
    """A hierarchical dep or a flat const model, values moved off their
    init, with a minibatch of sentences of several lengths."""
    rng = np.random.default_rng(13)
    if task == "dep":
        trees = [synth.random_projective_tree(rng, n) for n in (7, 2, 11, 5)]
        vocab = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
        model = DepModel(DepConfig(word_dims=8, tag_dims=6, lstm_units=8, hidden=12,
                                   hierarchical=True, precision=precision, seed=3), vocab)
    else:
        trees = [synth.random_const_tree(rng, n) for n in (7, 2, 11, 5)]
        vocab = build_vocab([t.sentence for t in trees], const_trees=trees, min_form_count=1)
        model = ConstModel(ConstConfig(word_dims=8, tag_dims=6, nonterminal_dims=6,
                                       lstm_units=8, hidden=12, precision=precision, seed=3),
                           vocab)
    for p in model.store:
        p.value[...] += rng.standard_normal(p.value.shape) * 0.1
    return model, [(t, model._oracle(t)) for t in trees]


@pytest.mark.parametrize("task", ["dep", "const"])
def test_encoder_is_each_sentences_plain_bilstm(task):
    # _encode of a packed minibatch of uneven sentences against a plain
    # Bi-LSTM per sentence, made of the per-step reference cell: in each
    # layer the forward direction runs over the sentence and the backward
    # one over its reverse, and layer 2 reads layer 1's two directions side
    # by side. A direction that reads the wrong way, or whose outputs land
    # in the other direction's order, keeps forward and backward consistent
    # and so passes the gradient check, but not this
    model, batch = _minibatch(task)
    cfg, st, vocab = model.config, model.store, model.vocab
    assert cfg.layers == 2 and cfg.use_tags and st.dtype == np.float64
    sentences = [tree.sentence for tree, _ in batch]
    assert [len(s) for s in sentences] == [7, 2, 11, 5]
    enc, _ = model._encode(sentences, False, None)
    want = []
    for sentence in sentences:
        x = np.concatenate([st["emb.word"].value[[vocab.form_id(t.form) for t in sentence.tokens]],
                            st["emb.tag"].value[[vocab.tag_id(t.tag) for t in sentence.tokens]]],
                           axis=1)
        layers = []
        for layer in (1, 2):
            (wf, bf), (wb, bb) = [(st["lstm%d.%s.w" % (layer, d)].value,
                                   st["lstm%d.%s.b" % (layer, d)].value) for d in ("fwd", "bwd")]
            hf, _ = reference_lstm_forward(wf, bf, x)
            hb, _ = reference_lstm_forward(wb, bb, x[::-1])
            x = np.concatenate([hf, hb[::-1]], axis=1)
            layers.append(x)
        want.append(np.concatenate(layers, axis=1))
    want = np.concatenate(want)
    assert enc.shape == want.shape
    assert np.abs(enc - want).max() < 1e-12


def _whole_table_classify(model, enc, scored):
    """model._classify over whole first-layer tables, every row of every
    slot as decoding builds them: the reference for training's tables,
    which hold only the rows some state selects. Returns (loss, d_enc,
    tables)."""
    tables = model._project(enc)
    dtables = {prefix: np.zeros_like(table) for prefix, table in tables.items()}
    loss = 0.0
    for heads in scored:
        for prefix, ids, gold in heads:
            if gold:
                scores, cache = model._mlp_forward(prefix, tables, ids)
                head_loss, dscores = nn.nll_softmax_loss(scores, np.array(gold))
                loss += head_loss
                model._mlp_backward(prefix, tables, cache, dscores, dtables[prefix])
    groups = model._slot_groups(enc)
    dinputs = [np.zeros_like(inputs) for inputs, *_ in groups]
    for prefix, dtable in dtables.items():
        w1 = model.store[prefix + ".w1"]
        for (inputs, slots, w_rows, t_rows), dinp in zip(groups, dinputs):
            length, width = inputs.shape
            for k in range(slots):
                dt = dtable[t_rows][k * length:(k + 1) * length]
                w = slice(w_rows.start + k * width, w_rows.start + (k + 1) * width)
                w1.grad[w] += inputs.T @ dt
                dinp += dt @ w1.value[w].T
    n = len(enc)
    for i, family in enumerate(model.families):
        model.store["none." + family].grad += dinputs[0][n + i]
    if model.label_slots:
        model.store["emb.nonterminal"].grad += dinputs[1]
    return loss, dinputs[0][:n], tables


def _close(a, b):
    return np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)


def test_action_space_targets_pair_each_labeled_state_with_its_label():
    actions = [DepAction(SHIFT), DepAction(SHIFT), DepAction(LEFT, "b"), DepAction(SHIFT),
               DepAction(RIGHT, "a"), DepAction(SHIFT), DepAction(LEFT, "c")]
    hier = ActionSpace(DepAction, ["a", "b", "c"], hierarchical=True)
    # columns: SHIFT, LEFT, RIGHT; the label head scores states 2, 4 and 6
    assert hier.targets(actions) == [("head.struct", (slice(None), [0, 0, 1, 0, 2, 0, 1])),
                                     ("head.label", ([2, 4, 6], [1, 0, 2]))]
    flat = ActionSpace(DepAction, ["a", "b", "c"], hierarchical=False)
    # columns: SHIFT, then LEFT and RIGHT over the labels a, b, c
    assert flat.targets(actions) == [("head.flat", (slice(None), [0, 0, 2, 0, 4, 0, 3]))]


@pytest.mark.parametrize("task", ["dep", "const"])
def test_used_rows_tables_match_whole_tables(task):
    model, batch = _minibatch(task)
    n = sum(len(tree.sentence) for tree, _ in batch)
    enc = np.random.default_rng(5).standard_normal((n, model.enc_dims))
    scored = model._replay(batch, n)
    model.store.zero_grads()
    want_loss, want_denc, whole = _whole_table_classify(model, enc, scored)
    want = {p.name: p.grad.copy() for p in model.store}
    model.store.zero_grads()
    loss, denc = model._classify(enc, scored)
    assert abs(loss - want_loss) <= 1e-12 * want_loss
    assert _close(denc, want_denc)
    for p in model.store:     # dW1, none.*, emb.nonterminal and the layers above
        assert _close(p.grad, want[p.name]), p.name
    groups = model._slot_groups(enc)
    kept = {}
    for prefix in model.space.heads:
        ids = np.concatenate([ids for heads in scored for head, ids, _ in heads
                              if head == prefix])
        rows = model._table_rows(n, ids)
        assert np.isin(ids, rows).all() and len(rows) < len(whole[prefix])
        assert _close(model._project_rows(prefix, groups, rows), whole[prefix][rows])
        kept[prefix] = len(rows)
    if task == "dep":     # the label head's table spans its labeled states only
        assert kept["head.label"] < kept["head.struct"]


@pytest.mark.parametrize("task", ["dep", "const"])
def test_first_layer_on_two_threads_is_bitwise_one_thread(task, monkeypatch, two_threads):
    # dep: hierarchical, 3 position slots per head; const: flat, with label
    # slots too. The tables, dW1 and the input gradients, on one thread and
    # on two.
    model, batch = _minibatch(task)
    n = sum(len(tree.sentence) for tree, _ in batch)
    enc = np.random.default_rng(5).standard_normal((n, model.enc_dims))
    scored = model._replay(batch, n)
    groups = model._slot_groups(enc)
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    results = []
    for run in ("one thread", "two threads"):
        if run == "two threads":
            threads = two_threads()
        model.store.zero_grads()
        out = [table.tobytes() for table in model._project(enc).values()]
        for prefix in model.space.heads:
            rows = model._table_rows(n, np.concatenate(
                [ids for heads in scored for head, ids, _ in heads if head == prefix]))
            table = model._project_rows(prefix, groups, rows)
            dtable = np.random.default_rng(6).standard_normal(table.shape)
            dinputs = [np.zeros_like(inputs) for inputs, *_ in groups]
            model._project_rows_backward(prefix, groups, rows, dtable, dinputs)
            out += [table.tobytes()] + [d.tobytes() for d in dinputs]
        results.append(out + [p.grad.tobytes() for p in model.store])
    assert threads == {"helper", "caller"}
    assert results[0] == results[1]


@pytest.mark.parametrize("task", ["dep", "const"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_classifier_on_two_threads_is_bitwise_one_thread(task, precision, monkeypatch,
                                                        two_threads):
    # _classify's items (a sentence's states under a head) one after another,
    # each added as it is scored; as jobs on one thread (one CPU), where each
    # finds every item before it added and none holds its terms; and as
    # jobs on two, where the helper's items wait until two of the caller's
    # have found an item before them not yet added and held their terms,
    # which are added in sentence order once all have run. dep:
    # hierarchical, the label head scoring labeled states only; const: flat,
    # with label slots. Sentences of uneven lengths select some of the same
    # table rows (absent rows, and for const label rows), whose gradients
    # round differently when added out of order.
    model, batch = _minibatch(task, precision)
    n = sum(len(tree.sentence) for tree, _ in batch)
    enc = np.random.default_rng(5).standard_normal((n, model.enc_dims)).astype(precision)
    scored = model._replay(batch, n)
    label_at = model._layout(n)[1]
    for prefix in model.space.heads:
        selected = [np.unique(ids) for heads in scored for head, ids, gold in heads
                    if head == prefix and gold]
        common = np.intersect1d(selected[0], selected[2])
        assert len(common) > 0
        assert (common >= label_at).any() == bool(model.label_slots)
    held, holding = [], threading.Event()
    backward = nn.mlp_backward

    def counted(w1, b1, w2, b2, cache, dscores, dw1, db1, dw2, db2, terms=None):
        if terms is not None:   # an item's terms, held for a later add
            held.append(terms)
        backward(w1, b1, w2, b2, cache, dscores, dw1, db1, dw2, db2, terms)
        if len(held) >= 2:
            holding.set()

    score = _EncoderModel._score

    def after_two_hold(*args):
        if running_thread() == "helper":
            assert holding.wait(10), "two classifier items did not hold their terms in 10 s"
        score(*args)

    monkeypatch.setattr(nn, "mlp_backward", counted)
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    results = []
    for run in ("items one by one", "jobs on one thread", "jobs on two threads"):
        if run == "jobs on one thread":
            monkeypatch.setattr(nn, "CLASSIFIER_JOB_BYTES", 0)
        elif run == "jobs on two threads":
            assert held == []
            threads = two_threads()
            monkeypatch.setattr(_EncoderModel, "_score", after_two_hold)
        model.store.zero_grads()
        loss, denc = model._classify(enc, scored)
        results.append([loss, denc.tobytes()] + [p.grad.tobytes() for p in model.store])
    assert threads == {"helper", "caller"}
    assert len(held) >= 2
    assert results[0] == results[1] == results[2]


def test_classifier_jobs_keep_their_bits_under_frequent_thread_switches(monkeypatch, helper):
    # the jobs write one gradient while the caller's write others and the
    # terms they hold: with the interpreter switching threads every 10 us,
    # 20 runs on two threads each give the bits of the plain loop
    model, batch = _minibatch("const")
    n = sum(len(tree.sentence) for tree, _ in batch)
    enc = np.random.default_rng(5).standard_normal((n, model.enc_dims))
    scored = model._replay(batch, n)

    def run():
        model.store.zero_grads()
        loss, denc = model._classify(enc, scored)
        return [loss, denc.tobytes()] + [p.grad.tobytes() for p in model.store]

    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    want = run()
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    monkeypatch.setattr(nn, "CLASSIFIER_JOB_BYTES", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 10.0
        for _ in range(20):
            assert run() == want
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


def _fit_setup(task, precision="float64", l2=0.0, grad_clip=0.0):
    """A model with dropout on and 200 more forms than its 6 trees use, so
    that a minibatch of two sentences touches few rows of the word table
    (a row-sparse ADADELTA step at l2 = 0); 3 minibatches an epoch."""
    rng = np.random.default_rng(19)
    lengths = (4, 6, 5, 3, 7, 4)
    lexicon = Sentence.from_pairs([("f%d" % i, "NN") for i in range(200)])
    sizes = dict(word_dims=8, tag_dims=6, lstm_units=8, hidden=12, minibatch=2, epochs=1,
                 l2=l2, grad_clip=grad_clip, precision=precision, seed=3)
    if task == "dep":
        trees = [synth.random_projective_tree(rng, n) for n in lengths]
        vocab = build_vocab([t.sentence for t in trees] + [lexicon], dep_trees=trees,
                            min_form_count=1)
        return DepModel(DepConfig(**sizes), vocab), trees
    trees = [synth.random_const_tree(rng, n) for n in lengths]
    vocab = build_vocab([t.sentence for t in trees] + [lexicon], const_trees=trees,
                        min_form_count=1)
    return ConstModel(ConstConfig(nonterminal_dims=6, **sizes), vocab), trees


@pytest.mark.parametrize("task", ["dep", "const"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("l2", [0.0, 1e-8])
@pytest.mark.parametrize("grad_clip", [0.0, 1.0])
def test_fit_on_two_threads_is_bitwise_one_thread(task, precision, l2, grad_clip, monkeypatch,
                                                  two_threads, at_release):
    # two fits of 3 minibatches each, the second refreshing the first's
    # snapshot: on one thread, where each released group's update runs in
    # adadelta_step; on two, where the helper runs some of them during the
    # backward pass; and with each run on the caller as it is released
    monkeypatch.setattr(nn, "ADADELTA_CHUNK_BYTES", 512)
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    decays = []
    decay = nn._decay
    monkeypatch.setattr(nn, "_decay", lambda *args: decays.append(1) or decay(*args))
    results = []
    for run in ("one thread", "two threads", "at release"):
        if run == "two threads":
            threads = two_threads()
        elif run == "at release":
            at_release()
        model, trees = _fit_setup(task, precision, l2, grad_clip)
        lines = model.fit(trees) + model.fit(trees)
        results.append([lines] + [getattr(p, a).tobytes() for p in model.store
                                  for a in ("value", "grad", "eg2", "ed2")]
                       + [model.best_params[p.name].tobytes() for p in model.store])
    assert threads == {"helper", "caller"}
    # with clipping nothing is released, and adadelta_step runs it all
    assert ("helper" in two_threads.background) == (not grad_clip)
    assert bool(decays) == (not l2)
    assert results[0] == results[1] == results[2]


def test_update_steps_and_snapshots_once_where_the_benchmark_traces_them(monkeypatch):
    # bench/tracing.py wraps ParamStore.adadelta_step and
    # _EncoderModel.snapshot: one step per minibatch, whatever runs early,
    # and one snapshot per fit without dev trees
    calls = []
    for owner, name in ((nn.ParamStore, "adadelta_step"), (_EncoderModel, "snapshot")):
        def record(*args, _name=name, _op=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(owner, name, record)
    for grad_clip in (0.0, 1.0):
        model, trees = _fit_setup("const", grad_clip=grad_clip)
        calls.clear()
        model.fit(trees)
        assert calls == ["adadelta_step"] * 3 + ["snapshot"]


def test_error_in_the_backward_pass_leaves_no_update_job_running(monkeypatch, helper):
    # the classifier's groups are released, then the encoder's backward
    # pass raises: fit re-raises only once no job of the update runs or
    # can start
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    monkeypatch.setattr(nn, "ADADELTA_CHUNK_BYTES", 64)
    counts = {"started": 0, "ended": 0}
    chunk = nn._adadelta_chunk

    def slow_chunk(*args):
        counts["started"] += 1
        time.sleep(0.001)
        chunk(*args)
        counts["ended"] += 1

    monkeypatch.setattr(nn, "_adadelta_chunk", slow_chunk)
    model, trees = _fit_setup("dep")

    def fail(cache, denc):
        raise RuntimeError("backward failed")

    monkeypatch.setattr(model, "_encode_backward", fail)
    with pytest.raises(RuntimeError, match="backward failed"):
        model.fit(trees)
    assert counts["started"] == counts["ended"]
    assert not helper.batches
    time.sleep(0.05)
    assert counts["started"] == counts["ended"]


def test_error_in_a_classifier_job_leaves_no_job_running(monkeypatch, helper):
    # the third item's loss of an update raises, on whichever thread runs
    # it: fit re-raises once no job of the update runs or can start, and a
    # fresh model then trains as one that never saw the error
    monkeypatch.setattr(nn, "_get_helper", lambda: helper)
    monkeypatch.setattr(nn, "CLASSIFIER_JOB_BYTES", 0)
    reference, trees = _fit_setup("dep")
    reference.fit(trees)
    counts = {"started": 0, "ended": 0, "losses": 0}
    score, loss = _EncoderModel._score, nn.nll_softmax_loss

    def slow_score(*args):
        counts["started"] += 1
        try:
            time.sleep(0.002)
            score(*args)
        finally:
            counts["ended"] += 1

    def failing_loss(scores, gold):
        counts["losses"] += 1
        if counts["losses"] == 3:
            raise RuntimeError("loss failed")
        return loss(scores, gold)

    with monkeypatch.context() as patch:
        patch.setattr(_EncoderModel, "_score", slow_score)
        patch.setattr(nn, "nll_softmax_loss", failing_loss)
        model, _ = _fit_setup("dep")
        with pytest.raises(RuntimeError, match="loss failed"):
            model.fit(trees)
        assert counts["started"] == counts["ended"] and counts["losses"] >= 3
        assert not helper.batches
        time.sleep(0.05)
        assert counts["started"] == counts["ended"]
    fresh, _ = _fit_setup("dep")
    fresh.fit(trees)
    assert ([p.value.tobytes() for p in fresh.store]
            == [p.value.tobytes() for p in reference.store])


def test_fit_declares_the_word_rows_and_keeps_the_scanned_bits(monkeypatch):
    # fit declares the word and tag rows of each minibatch to its update,
    # and adadelta_step updates those rows instead of scanning the gradient
    # for them; two fits of 3 minibatches each, with and without declaring
    monkeypatch.setattr(nn, "_get_helper", lambda: None)
    declared = []
    touched = nn._touched_rows
    monkeypatch.setattr(nn, "_touched_rows", lambda p, rows: (
        declared.append((p.name, rows is not None)) or touched(p, rows)))
    results = []
    for run in ("scanned", "declared"):
        with monkeypatch.context() as patch:
            if run == "scanned":
                patch.setattr(nn.ParamStore, "declare_rows", lambda self, p, rows: None)
            model, trees = _fit_setup("dep")
            declared.clear()
            lines = model.fit(trees) + model.fit(trees)
        assert ("emb.word", run == "declared") in declared
        results.append([lines] + [getattr(p, a).tobytes() for p in model.store
                                  for a in ("value", "grad", "eg2", "ed2")])
    assert results[0] == results[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_trains_with_a_helper_of_its_own(monkeypatch):
    # the parent's helper thread does not exist in a forked child; without
    # the at-fork reset the child would queue every call for it, and run
    # every job on one thread
    monkeypatch.setattr(nn, "_cpus", lambda: 2)
    monkeypatch.setattr(nn, "_helper", None)
    model, trees = small_dep_setup()
    model = DepModel(replace(model.config, epochs=1), model.vocab)
    model.fit(trees)
    parents = nn._helper
    assert parents is not None
    with warnings.catch_warnings():
        # Python 3.12 warns on fork in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            model.fit(trees)
            code = 0 if nn._helper not in (None, parents) else 3
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish training in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("task", ["dep", "const"])
def test_unselected_rows_reach_no_score_or_gradient(task):
    # two NaN encoder rows past the minibatch's, which no state selects in
    # any slot
    model, batch = _minibatch(task)
    n = sum(len(tree.sentence) for tree, _ in batch)
    enc = np.random.default_rng(5).standard_normal((n + 2, model.enc_dims))
    enc[n:] = np.nan
    scored = model._replay(batch, n + 2)
    model.store.zero_grads()
    loss, denc = model._classify(enc, scored)
    assert np.isfinite(loss)
    assert np.isfinite(denc[:n]).all() and not denc[n:].any()
    for p in model.store:
        assert np.isfinite(p.grad).all(), p.name
    # a whole table carries them into dW1, as 0 * NaN
    model.store.zero_grads()
    _whole_table_classify(model, enc, scored)
    assert np.isnan(model.store[model.space.heads[0] + ".w1"].grad).any()


def test_fit_refreshes_its_own_snapshot_in_place():
    model, trees = small_dep_setup()
    model.fit(trees)
    first = model.best_params
    arrays = dict(first)
    model.fit(trees)
    assert model.best_params is first
    for p in model.store:
        assert model.best_params[p.name] is arrays[p.name]
        assert model.best_params[p.name] is not p.value
        assert np.array_equal(model.best_params[p.name], p.value)


def test_dev_best_snapshot_is_not_an_alias_of_the_live_parameters():
    model, trees = small_dep_setup()
    model.fit(trees[:2], dev_trees=trees[2:])
    kept = {name: value.copy() for name, value in model.best_params.items()}
    model._forward_backward([(t, model._oracle(t)) for t in trees], True,
                            np.random.default_rng(0))
    model.store.adadelta_step()
    for p in model.store:
        assert np.array_equal(model.best_params[p.name], kept[p.name])
    assert any(not np.array_equal(p.value, kept[p.name]) for p in model.store)


def test_fit_replaces_a_best_params_dict_it_did_not_make():
    model, trees = small_dep_setup()
    model.fit(trees)
    mine = {p.name: np.asfortranarray(p.value * 0.5) for p in model.store}
    kept = {name: value.copy() for name, value in mine.items()}
    model.best_params = mine
    model.fit(trees)
    assert model.best_params is not mine
    for p in model.store:
        assert mine[p.name].tobytes() == kept[p.name].tobytes()
        assert np.array_equal(model.best_params[p.name], p.value)


def _workspace_setup(task, precision="float64", lengths=((4, 6), (9, 12, 7, 10), (3,))):
    """A model with dropout on, at sizes where arrays outweigh the update's
    other allocations, and one minibatch per tuple of sentence lengths."""
    rng = np.random.default_rng(17)
    sizes = dict(word_dims=16, tag_dims=8, lstm_units=32, hidden=48, dropout=0.5,
                 word_dropout=0.25, precision=precision, seed=3)
    if task == "dep":
        trees = [[synth.random_projective_tree(rng, n) for n in batch] for batch in lengths]
        flat = [t for batch in trees for t in batch]
        vocab = build_vocab([t.sentence for t in flat], dep_trees=flat, min_form_count=1)
        model = DepModel(DepConfig(**sizes), vocab)
    else:
        trees = [[synth.random_const_tree(rng, n) for n in batch] for batch in lengths]
        flat = [t for batch in trees for t in batch]
        vocab = build_vocab([t.sentence for t in flat], const_trees=flat, min_form_count=1)
        model = ConstModel(ConstConfig(nonterminal_dims=8, **sizes), vocab)
    return model, [[(t, model._oracle(t)) for t in batch] for batch in trees]


def _update(model, batch):
    """Loss and gradients of one _forward_backward, dropout drawn from a
    generator of its own."""
    model.store.zero_grads()
    loss = model._forward_backward(batch, True, np.random.default_rng(7))
    return [loss] + [p.grad.tobytes() for p in model.store]


@pytest.mark.parametrize("task", ["dep", "const"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_reused_workspace_gives_a_fresh_models_loss_and_gradients(task, precision):
    # minibatches A, then a longer B, then a shorter C on one model: each
    # update's arrays lie in memory the one before wrote, where np.zeros
    # once gave a cleared array, and C's are views shorter than the memory
    model, batches = _workspace_setup(task, precision)
    for batch in batches:
        fresh, _ = _workspace_setup(task, precision)
        assert _update(model, batch) == _update(fresh, batch)


@pytest.mark.parametrize("task", ["dep", "const"])
def test_second_update_allocates_far_less_than_the_first(task):
    # the first update on a model makes its workspace; an identical second
    # one takes every large array from it and allocates only the rest
    model, batches = _workspace_setup(task)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model._forward_backward(batches[1], True, np.random.default_rng(7))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 0.25 * peaks[0], peaks


def test_second_fit_allocates_less_than_the_parameters():
    # a 20k-form vocabulary makes the word table most of the parameters, and
    # the minibatch's working set small beside them: a second fit may not
    # allocate a fresh copy of the model for its snapshot
    trees = synth.toy_dep_corpus(4, seed=3)
    lexicon = Sentence.from_pairs([("f%d" % i, "NN") for i in range(20000)])
    vocab = build_vocab([t.sentence for t in trees] + [lexicon], dep_trees=trees,
                        min_form_count=1)
    model = DepModel(DepConfig(tag_dims=4, lstm_units=8, hidden=8, layers=1, epochs=1,
                               seed=1), vocab)
    params = sum(p.value.nbytes for p in model.store)
    model.fit(trees)
    # the helper's workspace twin makes its first block (32 MB) on its first
    # take, in whichever fit the helper first takes scratch: make it here, so
    # that the traced fit measures what the snapshot and the update allocate
    with model._workspace.twin.scope():
        nn.take((1,), np.uint8)
    tracemalloc.start()
    try:
        model.fit(trees)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params, (peak, params)


def test_fit_skips_nonderivable_sentences_with_count():
    from shiftparse.trees import DepTree
    derivable = synth.toy_dep_corpus(6, seed=3)
    crossing = DepTree.from_heads(Sentence.from_pairs([("a", "A"), ("b", "B"), ("c", "C")]),
                                  [2, -1, 1], ["dep", "root", "dep"])
    corpus = derivable + [crossing]
    vocab = build_vocab([t.sentence for t in corpus], dep_trees=corpus, min_form_count=1)
    config = DepConfig(word_dims=6, tag_dims=4, lstm_units=6, hidden=8, layers=1,
                       epochs=1, minibatch=4, dropout=0.0, word_dropout=0.0, seed=1)
    model = DepModel(config, vocab)
    lines = model.fit(corpus)
    assert "train sentences=6 skipped=1" in lines


def test_fit_log_is_deterministic():
    def run():
        model, trees = small_dep_setup(seed=21)
        return model.fit(trees)
    assert run() == run()


def test_word_dropout_only_in_training_mode():
    model, trees = small_dep_setup()
    model.config.word_dropout = 0.9
    sentence = trees[0].sentence
    eval_ids, _ = model._input_ids(sentence, False, None)
    again, _ = model._input_ids(sentence, False, None)
    assert np.array_equal(eval_ids, again)
    rng = np.random.default_rng(0)
    train_ids = [model._input_ids(sentence, True, rng)[0] for _ in range(20)]
    unk = model.vocab.forms["<unk>"]
    assert any(unk in ids for ids in train_ids)


def test_word_dropout_replaces_a_form_at_rate_alpha_over_alpha_plus_count():
    # a form counted c times becomes UNK with probability alpha/(alpha+c):
    # over 40000 seeded draws each, within 4 sigma of it for c = 1 and 3
    model, _ = small_dep_setup()
    alpha = model.config.word_dropout = 0.25
    unk = model.vocab.forms["<unk>"]
    rng = np.random.default_rng(17)
    draws = 40000
    for form, count in zip(sorted(set(model.vocab.forms) - {"<unk>"}), (1, 3)):
        model.vocab.form_counts[form] = count
        ids, _ = model._input_ids(Sentence((Token(form, "T"),) * draws), True, rng)
        p = alpha / (alpha + count)
        assert abs(np.mean(ids == unk) - p) <= 4.0 * np.sqrt(p * (1.0 - p) / draws), count


def test_clip_grads_scales_to_the_limit_only_above_it():
    model, _ = small_dep_setup()
    rng = np.random.default_rng(19)
    for p in model.store:
        p.grad[...] = rng.standard_normal(p.grad.shape)
    before = [p.grad.copy() for p in model.store]

    def global_norm():
        return np.linalg.norm(np.concatenate([p.grad.ravel() for p in model.store]))

    total = global_norm()
    model.config.grad_clip = 1.5 * total
    model._clip_grads()
    assert all(np.array_equal(p.grad, g) for p, g in zip(model.store, before))
    limit = model.config.grad_clip = total / 3.0
    model._clip_grads()
    assert abs(global_norm() - limit) <= 1e-12 * limit
    for p, g in zip(model.store, before):
        np.testing.assert_allclose(p.grad, g * (limit / total), rtol=1e-12, atol=0)


def test_training_calls_each_lstm_op_with_its_positional_arguments(monkeypatch):
    # the benchmark traces nn.lstm_forward(w, b, xs) and
    # nn.lstm_backward(w, b, cache, dhs, dw, db) by those arguments; each
    # layer's two directions go through lstm_forward, its backward direction
    # through lstm_backward, with the forward direction's step loop and
    # gradient GEMMs outside it
    calls = []
    for name in ("lstm_forward", "lstm_backward"):
        def record(*args, _name=name, _op=getattr(nn, name), **kwargs):
            calls.append((_name, len(args), kwargs))
            return _op(*args, **kwargs)
        monkeypatch.setattr(nn, name, record)
    model, trees = small_dep_setup()
    model._forward_backward([(t, model._oracle(t)) for t in trees], True, model.rng)
    layers = model.config.layers
    assert calls == [("lstm_forward", 3, {})] * 2 * layers + [("lstm_backward", 6, {})] * layers


def test_tag_ablation_changes_input_width():
    with_tags, _ = small_dep_setup(use_tags=True)
    without, _ = small_dep_setup(use_tags=False)
    assert "emb.tag" in with_tags.store
    assert "emb.tag" not in without.store
    w_with = with_tags.store["lstm1.fwd.w"].value.shape[0]
    w_without = without.store["lstm1.fwd.w"].value.shape[0]
    assert w_with - w_without == with_tags.config.tag_dims


def test_save_load_roundtrip(tmp_path):
    model, trees = small_dep_setup()
    model.fit(trees)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    for p in model.store:
        q = loaded.store[p.name]
        assert np.array_equal(p.value, q.value)
        # files hold parameter values only: ADADELTA restarts from zero
        assert not q.grad.any() and not q.eg2.any() and not q.ed2.any()
    rng = np.random.default_rng(3)
    for _ in range(100):
        sentence = synth.random_projective_tree(rng, int(rng.integers(1, 8))).sentence
        assert loaded.parse(sentence) == model.parse(sentence)


def test_save_best_uses_snapshot(tmp_path):
    model, trees = small_dep_setup()
    model.fit(trees[:2], dev_trees=trees[2:])
    path = tmp_path / "best.bin"
    save_best(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.store["emb.word"].value, model.best_params["emb.word"])


def test_load_rejects_tampered_header(tmp_path):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    digest = json_sha256(model.vocab.to_json()).encode()
    swap = b"0" if digest[:1] != b"0" else b"1"
    tampered = blob.replace(digest, swap + digest[1:], 1)
    bad = tmp_path / "tampered.bin"
    bad.write_bytes(tampered)
    with pytest.raises(ModelIOError, match="vocab_sha256"):
        load_model(bad)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ModelIOError, match="magic"):
        load_model(path)


def test_load_rejects_file_cut_inside_header_length(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"SHPM\x00\x00")
    with pytest.raises(ModelIOError, match="header length field"):
        load_model(path)


def test_load_rejects_header_length_beyond_file(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"SHPM" + struct.pack("<Q", 2 ** 62) + b"{}")
    with pytest.raises(ModelIOError, match="exceeds the file size"):
        load_model(path)


def test_load_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "number.bin"
    path.write_bytes(b"SHPM" + struct.pack("<Q", 1) + b"5")
    with pytest.raises(ModelIOError, match="header missing field 'format'"):
        load_model(path)


def _rewrite_header(blob: bytes, edit) -> bytes:
    """A model file whose JSON header went through edit(header)."""
    (header_len,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + header_len])
    edit(header)
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:4] + struct.pack("<Q", len(payload)) + payload + blob[12 + header_len:]


def test_model_file_holds_parameters_only(tmp_path):
    for model, trees in (small_dep_setup(), small_const_setup()):
        model.fit(trees)
        assert list(model.best_params) == [p.name for p in model.store]
        path = tmp_path / (model.task + ".bin")
        save_model(model, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + header_len])
        assert [t["name"] for t in header["tensors"]] == [p.name for p in model.store]
        assert len(blob) == 12 + header_len + sum(p.value.nbytes for p in model.store)


def test_load_rejects_format_version_1(tmp_path):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    old = tmp_path / "v1.bin"
    old.write_bytes(_rewrite_header(path.read_bytes(), lambda h: h.update(version=1)))
    with pytest.raises(ModelIOError, match="unsupported version 1"):
        load_model(old)


def _edit_vocab(key, value):
    return lambda h: h["vocab"].update({key: value})


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(vocab=[1, 2]), "header vocab is not an object"),
    (lambda h: h["vocab"].pop("deprels"), "header vocab 'deprels' is not a list"),
    (lambda h: h["vocab"].pop("form_counts"), "header vocab 'form_counts' is not a list"),
    (_edit_vocab("forms", [1, 2]), "header vocab 'forms' is not a list"),
    (_edit_vocab("tags", {"<unk>": 0}), "header vocab 'tags' is not a list"),
    (_edit_vocab("nonterminals", [["<none>", 0, 1]]), "header vocab 'nonterminals' is not a list"),
    (_edit_vocab("deprels", [["root", "0"]]), "header vocab 'deprels' is not a list"),
    (_edit_vocab("form_counts", [[3, 1]]), "header vocab 'form_counts' is not a list"),
    (_edit_vocab("deprels", [["root", True], ["<none>", 1]]), "header vocab 'deprels' is not a list"),
    (_edit_vocab("forms", [["<unk>", 5]]), "header vocab 'forms' is not ids 0..n-1"),
    (_edit_vocab("tags", [["NN", 0]]), "header vocab 'tags' is not ids 0..n-1 with '<unk>' at 0"),
    (_edit_vocab("nonterminals", [["<none>", 0], ["<none>", 1]]),
     "header vocab 'nonterminals' is not ids 0..n-1"),
    (_edit_vocab("deprels", [["<none>", 0], ["root", 1]]),
     "header vocab 'deprels' is not ids 0..n-1 with '<none>' at 1"),
], ids=["list-vocab", "no-deprels", "no-form-counts", "int-forms", "object-tags", "triple",
        "string-id", "int-name", "bool-id", "sparse-ids", "no-unk", "duplicate-name",
        "none-not-last"])
def test_load_rejects_malformed_header_vocab(tmp_path, edit, message):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    bad = tmp_path / "bad_vocab.bin"
    bad.write_bytes(_rewrite_header(path.read_bytes(), edit))
    with pytest.raises(ModelIOError, match=message):
        load_model(bad)


def test_load_rejects_shape_mismatch(tmp_path):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    bad = tmp_path / "reshaped.bin"
    bad.write_bytes(_rewrite_header(path.read_bytes(),
                                    lambda h: h["tensors"][0].update(shape=[1, 1])))
    with pytest.raises(ModelIOError, match="shape"):
        load_model(bad)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["config"].update(beam_size=8), "unknown config key 'beam_size'"),
    (lambda h: h["config"].update(epochs="ten"), "bad config value"),
    (lambda h: h.update(config=[1, 2]), "config is not an object"),
    (lambda h: h["config"].update(hidden=4.0), "bad config value in model header: hidden"),
    (lambda h: h["config"].update(hierarchical="no"),
     "bad config value in model header: hierarchical"),
    (lambda h: h["config"].update(layers=3), "bad config value in model header: layers"),
    # hundreds of TiB, past the 128 TiB user address space
    (lambda h: h["config"].update(hidden=10 ** 12),
     "bad config value in model header: the config's parameters cannot be allocated"),
], ids=["unknown-key", "wrong-type", "not-an-object", "float-int", "str-bool", "layers",
        "too-large"])
def test_load_rejects_malformed_header_config(tmp_path, edit, message):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    bad = tmp_path / "bad_config.bin"
    bad.write_bytes(_rewrite_header(path.read_bytes(), edit))
    with pytest.raises(ModelIOError, match=message):
        load_model(bad)


def _edit_tensor(index, **fields):
    return lambda h: h["tensors"][index].update(fields)


def _swap_first_entries(header):
    tensors = header["tensors"]
    tensors[0], tensors[1] = tensors[1], tensors[0]


@pytest.mark.parametrize("edit, message", [
    (_edit_tensor(0, nbytes=2 ** 62), "tensor 'emb.word' nbytes"),
    (_edit_tensor(1, offset=-64), "tensor 'emb.tag' offset -64"),
    (_edit_tensor(-1, offset=10 ** 9), "tensor 'head.label.b2' offset 1000000000 is not"),
    (_edit_tensor(0, offset=1.5), "tensor 'emb.word' offset 1.5"),
    (_edit_tensor(0, dtype="|O"), "tensor 'emb.word' dtype '|O'"),
    (_edit_tensor(0, dtype="no-such-type"), "tensor 'emb.word' dtype"),
    (_edit_tensor(0, dtype=None), "tensor 'emb.word' dtype None"),
    (lambda h: h["tensors"][0].pop("name"), "tensor entry 0 has no name"),
    (lambda h: h["tensors"].__setitem__(2, 7), "tensor entry 2 has no name"),
    (lambda h: h["tensors"][0].pop("offset"), "tensor 'emb.word' entry lacks 'offset'"),
    (lambda h: h.update(tensors={}), "tensors is not a list"),
    # the directory must be exactly the one the config implies, even where
    # its offsets still point at the right blocks
    (_swap_first_entries, "tensor 'emb.word' name 'emb.tag' is not the config's 'emb.word'"),
    (lambda h: h["tensors"].insert(1, dict(h["tensors"][0])),
     "tensor 'emb.tag' name 'emb.word' is not"),
    (lambda h: h["tensors"].append(dict(h["tensors"][-1])),
     "tensor entry 20 .*'head.label.b2'.* is beyond the config's tensors"),
    (lambda h: h["tensors"].pop(), "tensor 'head.label.b2' is missing"),
    (_edit_tensor(0, offset=0.0), "tensor 'emb.word' offset 0.0 is not the config's 0"),
    (_edit_tensor(0, note="x"), "tensor 'emb.word' entry has keys beyond"),
], ids=["huge-nbytes", "negative-offset", "beyond-file", "float-offset", "object-dtype",
        "unknown-dtype", "null-dtype", "no-name", "not-an-object", "no-offset", "not-a-list",
        "swapped", "duplicated", "extra-entry", "missing-entry", "float-zero-offset",
        "extra-key"])
def test_load_rejects_malformed_tensor_entry(tmp_path, edit, message):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    bad = tmp_path / "bad_tensor.bin"
    bad.write_bytes(_rewrite_header(path.read_bytes(), edit))
    with pytest.raises(ModelIOError, match=message):
        load_model(bad)


@pytest.mark.parametrize("delta", [8, -8], ids=["trailing-bytes", "truncated"])
def test_load_requires_the_payload_to_end_with_the_file(tmp_path, delta):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    bad = tmp_path / "resized.bin"
    bad.write_bytes(blob + b"\0" * delta if delta > 0 else blob[:delta])
    payload = sum(p.value.nbytes for p in model.store)
    with pytest.raises(ModelIOError, match="'head.label.b2' take %d bytes but the file holds %d"
                       % (payload, payload + delta)):
        load_model(bad)


def test_load_rejects_tensor_of_other_precision(tmp_path):
    # a float32 model's blocks under a float64 config: every entry is a
    # consistent float32 block, so only the precision check can catch it
    model, _trees = small_dep_setup()
    path32 = tmp_path / "model32.bin"
    from dataclasses import replace
    save_model(DepModel(replace(model.config, precision="float32"), model.vocab), path32)
    bad = tmp_path / "mixed.bin"
    bad.write_bytes(_rewrite_header(path32.read_bytes(),
                                    lambda h: h["config"].update(precision="float64")))
    with pytest.raises(ModelIOError, match="tensor 'emb.word' dtype 'float32'"):
        load_model(bad)


def test_load_rejects_nbytes_not_matching_shape(tmp_path):
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    size = model.store["emb.word"].value.nbytes
    bad = tmp_path / "short_block.bin"
    bad.write_bytes(_rewrite_header(path.read_bytes(), _edit_tensor(0, nbytes=size - 8)))
    with pytest.raises(ModelIOError, match="tensor 'emb.word' nbytes %d" % (size - 8)):
        load_model(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_rejects_non_finite_tensor(tmp_path, value):
    model, _trees = small_dep_setup()
    model.store["head.struct.b2"].value[1] = value
    path = tmp_path / "model.bin"
    save_model(model, path)
    with pytest.raises(ModelIOError, match="tensor 'head.struct.b2' holds non-finite"):
        load_model(path)


@pytest.mark.parametrize("setup", [small_dep_setup, small_const_setup], ids=["dep", "const"])
def test_load_draws_no_initial_values(tmp_path, monkeypatch, setup):
    # every loaded value comes from the file, so none may be drawn first
    model, trees = setup()
    model.fit(trees)
    path = tmp_path / "model.bin"
    save_model(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_model drew initial values")

    for name in ("glorot", "embedding_init", "lstm_init"):
        monkeypatch.setattr(nn, name, no_draws)
    loaded = load_model(path)
    assert [p.name for p in loaded.store] == [p.name for p in model.store]
    for p in model.store:
        assert loaded.store[p.name].value.tobytes() == p.value.tobytes()


def test_loaded_model_generator_starts_at_its_config_seed(tmp_path):
    # a new model's generator has made the initial draws; a loaded model
    # draws none, so its generator is where the config's seed puts it
    model, _trees = small_const_setup(seed=11)
    fresh = np.random.default_rng(11).bit_generator.state
    assert model.rng.bit_generator.state != fresh
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert load_model(path).rng.bit_generator.state == fresh


def test_model_io_builds_the_vocab_json_once_per_save_and_not_on_load(tmp_path, monkeypatch):
    # save_model hashes the form it writes; load_model hashes the header's copy
    model, _trees = small_const_setup()
    built = []
    to_json = Vocab.to_json
    monkeypatch.setattr(Vocab, "to_json", lambda self: built.append(self) or to_json(self))
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert len(built) == 1
    assert load_model(path).vocab == model.vocab
    assert len(built) == 1


# sha256 of the model files the seeded small models below write, computed
# when each block was written from a tobytes() copy of astype-copied draws.
# The values are initial draws and exact elementwise products of them, never
# GEMM results, so the digests do not depend on the BLAS build.
PINNED_MODEL_FILES = {
    ("dep", "float64"): ("3de068fc3aa02ca23933c94c68a839db7fdf73b733670b3455af05c611dbd65b",
                         "9316feb246fcf16d1641911cac5d8ebdf8ce8f73a753e346275cffdd35bf9179"),
    ("dep", "float32"): ("b89aba0beb66121b3f547be5818cb5b4b72f302d31429ca868a710e69aa9cd10",
                         "df8f16ed7a507676cee6d8e64353c61ad6d2648a99e45fdf762957f775a62dbe"),
    ("const", "float64"): ("13cb5813dbd3817f8689c0b61fa36f317ad0375d943fe829f5490069c598bc09",
                           "ed5b9c343e3b42f696d5ffce31019810b04f4cf3154e0bb29c729fdfa15ec5c6"),
    ("const", "float32"): ("67d9cfa3d4a04e9729b180575243691c996d3e8eaa51f94e99a56d1054e63769",
                           "c4693f24794a32b98fda9cfd5cb6212feb37adc547124a1cfb5918282970f993"),
}


@pytest.mark.parametrize("task, precision", sorted(PINNED_MODEL_FILES))
def test_seeded_model_files_are_byte_stable(tmp_path, task, precision):
    # guards the initial draw order and the write path; the best-epoch
    # copy is Fortran-ordered, so save_best must also change the layout
    model, _trees = (small_dep_setup if task == "dep" else small_const_setup)()
    model = type(model)(replace(model.config, precision=precision), model.vocab)
    model.best_params = {p.name: np.asfortranarray(p.value * 0.5) for p in model.store}
    digests = []
    for save in (save_model, save_best):
        path = tmp_path / save.__name__
        save(model, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == PINNED_MODEL_FILES[task, precision]
    loaded = load_model(tmp_path / "save_best")
    for name, value in model.best_params.items():
        assert loaded.store[name].value.tobytes() == np.ascontiguousarray(value).tobytes()


def test_load_rejects_short_read(tmp_path, monkeypatch):
    # a file that shrinks after its size is checked ends inside a tensor
    model, _trees = small_dep_setup()
    path = tmp_path / "model.bin"
    save_model(model, path)
    true_size = path.stat().st_size
    real_fstat = os.fstat

    def fstat(fd):
        result = real_fstat(fd)
        if result.st_size != true_size - 4:
            return result
        values = list(result)
        values[6] = true_size    # st_size, as before the cut
        return os.stat_result(values)

    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(os, "fstat", fstat)
    with pytest.raises(ModelIOError, match="file ends inside tensor 'head.label.b2'"):
        load_model(path)


def test_const_overfit_reaches_gold_tree():
    # a single-sentence corpus is driven to zero-ish loss and its parse
    # returns the gold tree
    rules = HeadRules.bundled()
    from shiftparse.trees import read_brackets
    [tree] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))")
    tree = assign_heads(tree, rules)
    vocab = build_vocab([tree.sentence], const_trees=[tree], min_form_count=1)
    config = ConstConfig(word_dims=8, tag_dims=8, nonterminal_dims=8, lstm_units=8,
                         layers=1, hidden=16, epochs=300, minibatch=1, dropout=0.0,
                         word_dropout=0.0, l2=0.0, seed=2)
    model = ConstModel(config, vocab)
    lines = model.fit([tree])
    final_loss = float(lines[-1].split("loss=")[1].split()[0])
    assert final_loss < 0.5
    assert model.parse(tree.sentence) == tree


def test_dep_decoding_takes_exactly_2n_minus_1_steps():
    # untrained model, random scores: legality masking alone guarantees the
    # step count
    model, _trees = small_dep_setup()
    rng = np.random.default_rng(71)
    from shiftparse.dep_system import dep_apply
    for _ in range(20):
        n = int(rng.integers(1, 12))
        sentence = synth.random_projective_tree(rng, max(2, n)).sentence
        enc, _ = model._encode([sentence], False, None)
        state = dep_initial(len(sentence))
        steps = 0
        while not state.is_terminal:
            state = dep_apply(state, _decide_at(model, enc, state, dep_legal(state)))
            steps += 1
        assert steps == 2 * len(sentence) - 1


def test_const_decoding_terminates_under_promote_greedy_scores():
    # an adversarial score table that always prefers Promote still terminates
    # because the cap masks runaway promotes
    model, _trees = small_const_setup(hierarchical=False)
    n_nt = model.vocab.num_nonterminals
    scores = np.full(3 + n_nt, -1.0)
    scores[3:] = 50.0
    _force_scores(model, "head.flat", scores)
    sentence = synth.random_const_tree(np.random.default_rng(73), 6).sentence
    parsed = model.parse(sentence)
    assert len(parsed) == len(sentence)


def test_decode_step_bound_raises_typed_error(monkeypatch):
    # a transition that only counts steps never reaches a terminal state
    from dataclasses import replace
    import shiftparse.model as model_module
    model, _trees = small_const_setup()
    monkeypatch.setattr(model_module, "const_apply",
                        lambda state, action: replace(state, step=state.step + 1))
    sentence = synth.random_const_tree(np.random.default_rng(73), 5).sentence
    bound = (2 * 5 - 1) * (1 + model.config.promote_cap)
    with pytest.raises(DecodeStepLimit, match="sentence length 5, step %d" % bound):
        model.parse(sentence)


def test_flat_columns_keep_the_saved_model_layout():
    # head.flat columns in model files: dep shift | left(l) | right(l),
    # const shift, adj-left, adj-right | promote(X)
    dep, _ = small_dep_setup(hierarchical=False)
    labels = dep.vocab.deprel_names[:dep.vocab.num_deprels]
    n = len(labels)
    assert dep.store["head.flat.w2"].value.shape[1] == 1 + 2 * n
    assert dep.space.column_id[(SHIFT, None)] == 0
    for i, label in enumerate(labels):
        assert dep.space.column_id[(LEFT, label)] == 1 + i
        assert dep.space.column_id[(RIGHT, label)] == 1 + n + i
    const, _ = small_const_setup(hierarchical=False)
    names = const.vocab.nonterminal_names[:const.vocab.num_nonterminals]
    assert const.store["head.flat.w2"].value.shape[1] == 3 + len(names)
    assert [const.space.column_id[(k, None)] for k in (C_SHIFT, C_ADJ_LEFT, C_ADJ_RIGHT)] \
        == [0, 1, 2]
    for i, label in enumerate(names):
        assert const.space.column_id[(C_PROMOTE, label)] == 3 + i


def test_word_dropout_rate_matches_formula():
    model, trees = small_dep_setup()
    model.config.word_dropout = 0.25
    sentence = trees[0].sentence
    form = sentence[0].form
    count = model.vocab.form_counts[form]
    expected = 0.25 / (0.25 + count)
    rng = np.random.default_rng(0)
    unk = model.vocab.forms["<unk>"]
    draws = 4000
    hits = sum(model._input_ids(sentence, True, rng)[0][0] == unk
               for _ in range(draws))
    assert abs(hits / draws - expected) < 0.03


def test_encoder_dropout_masks_are_independent_per_connection():
    model, trees = small_dep_setup()
    model.config.dropout = 0.5
    rng = np.random.default_rng(0)
    _feat, (_word_ids, _tag_ids, _packing, layers, feat_masks) = model._encode(
        [trees[0].sentence], True, rng)
    # layer-1 output feeds layer 2 and the feature under different masks
    layer2_input_mask = layers[1][0]
    assert layer2_input_mask is not None and feat_masks[0] is not None
    assert not np.array_equal(layer2_input_mask, feat_masks[0])
    assert feat_masks[1] is not None


def test_ablation_switches_all_train():
    train = synth.toy_dep_corpus(6, seed=9)
    vocab = build_vocab([t.sentence for t in train], dep_trees=train, min_form_count=1)
    for layers in (1, 2):
        for hierarchical in (True, False):
            for use_tags in (True, False):
                config = DepConfig(word_dims=6, tag_dims=4, lstm_units=6, layers=layers,
                                   hidden=8, epochs=1, minibatch=2, dropout=0.5,
                                   hierarchical=hierarchical, use_tags=use_tags, seed=1)
                model = DepModel(config, vocab)
                lines = model.fit(train)
                assert any(l.startswith("epoch=1 ") for l in lines)
