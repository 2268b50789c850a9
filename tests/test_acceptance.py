"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite stays inside its stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from shiftparse import nn, synth
from shiftparse.cli import main as cli_main
from shiftparse.const_system import const_oracle, const_replay
from shiftparse.dep_system import dep_oracle, dep_replay
from shiftparse.evalmetrics import (arc_recall_by_length, score_brackets,
                                    score_dep)
from shiftparse.headrules import HeadRules, assign_heads
from shiftparse.model import (ConstConfig, ConstModel, DepConfig, DepModel,
                              model_grad_check)
from shiftparse.trees import ROOT, DepTree, Sentence, read_brackets, write_conll
from shiftparse.vocab import build_vocab


def ok(n, text):
    print("\n[criterion %d] PASS - %s" % (n, text))


def test_criterion_01_dep_oracle_roundtrip():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        tree = synth.random_projective_tree(rng, n)
        actions = dep_oracle(tree)
        assert len(actions) == 2 * n - 1
        assert dep_replay(tree.sentence, actions) == tree
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed
    ok(1, "dependency oracle round-trip on 1000 random projective trees "
          "(all sequences 2n-1 actions) in %.2fs" % elapsed)


def test_criterion_02_const_oracle_roundtrip():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        tree = synth.random_const_tree(rng, n, max_children=5)
        assert const_replay(tree.sentence, const_oracle(tree)) == tree
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "took %.2fs" % elapsed

    [example] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))")
    rules = HeadRules.from_text(
        "DEFAULT left-to-right\nS right-to-left VP\nVP left-to-right VBP\n"
        "NP right-to-left NNS NN PRP\n")
    example = assign_heads(example, rules)
    sequence = [str(a) for a in const_oracle(example)]
    assert sequence == ["SHIFT", "PRO:NP", "SHIFT", "PRO:VP", "SHIFT",
                        "PRO:NP", "ADJ-R", "PRO:S", "ADJ-L"]
    ok(2, "constituency oracle round-trip on 1000 random k-ary trees in %.2fs; "
          "the three-word example yields its exact 9-action sequence" % elapsed)


def _layer_checks():
    """Per-layer finite-difference checks, all below 1e-6."""
    worst = 0.0
    rng = np.random.default_rng(77)

    # LSTM layer over a short sequence
    w0, b0 = nn.lstm_init(rng, 3, 4)
    xs0 = rng.standard_normal((5, 3))
    weight = rng.standard_normal((5, 4))
    store = nn.ParamStore(np.float64)
    store.add("w", w0)
    store.add("b", b0)
    store.add("xs", xs0)

    def lstm_loss():
        hs, _ = nn.lstm_forward(store["w"].value, store["b"].value, store["xs"].value)
        return float((weight * hs).sum())

    hs, cache = nn.lstm_forward(store["w"].value, store["b"].value, store["xs"].value)
    dw, db = np.zeros_like(w0), np.zeros_like(b0)
    dxs = nn.lstm_backward(store["w"].value, store["b"].value, cache, weight, dw, db)
    report = nn.grad_check(lstm_loss, store, rng, samples_per_param=30,
                           tolerance=1e-6, analytic={"w": dw, "b": db, "xs": dxs})
    assert report["ok"], report["failures"][:3]
    worst = max(worst, report["max_rel_error"])

    # ReLU classifier with softmax loss on top, on the path the parsers run:
    # integer ids select rows of a first-layer table larger than the rows
    # used (6, 8 and 11 stay unselected); row 4 is repeated inside the first
    # state and shared with the second, row 2 is taken three times by one
    # state and once by another
    w1 = rng.standard_normal((12, 8)) * 0.5
    b1 = rng.standard_normal(8) * 0.1
    w2 = nn.glorot(rng, 8, 4)
    b2 = rng.standard_normal(4) * 0.1
    ids = np.array([[0, 4, 4], [4, 7, 2], [9, 1, 3], [2, 2, 2], [10, 5, 0]])
    gold = np.array([0, 3, 1, 2, 0])
    mstore = nn.ParamStore(np.float64)
    for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
        mstore.add(name, arr)

    def mlp_loss():
        scores, _ = nn.mlp_forward(mstore["w1"].value, mstore["b1"].value,
                                   mstore["w2"].value, mstore["b2"].value, ids)
        value, _ = nn.nll_softmax_loss(scores, gold)
        return value

    scores, cache = nn.mlp_forward(w1, b1, w2, b2, ids)
    _, dscores = nn.nll_softmax_loss(scores, gold)
    grads = {"w1": np.zeros_like(w1), "b1": np.zeros_like(b1),
             "w2": np.zeros_like(w2), "b2": np.zeros_like(b2)}
    nn.mlp_backward(w1, b1, w2, b2, cache, dscores,
                    grads["w1"], grads["b1"], grads["w2"], grads["b2"])
    assert np.all(grads["w1"][[6, 8, 11]] == 0.0)
    report = nn.grad_check(mlp_loss, mstore, rng, samples_per_param=30,
                           tolerance=1e-6, analytic=grads)
    assert report["ok"], report["failures"][:3]
    worst = max(worst, report["max_rel_error"])
    return worst


def _per_param_for_target(store, target):
    """Smallest per-tensor sample count whose realized total covers target
    (small tensors contribute all of their coordinates)."""
    sizes = [p.value.size for p in store]
    per_param = max(2, math.ceil(target / len(sizes)))
    while sum(min(per_param, s) for s in sizes) < min(target, sum(sizes)):
        per_param += 1
    return per_param


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    per_layer_worst = _layer_checks()
    assert per_layer_worst < 1e-6

    rng = np.random.default_rng(1003)
    dep_trees = [synth.random_projective_tree(rng, 5) for _ in range(2)]
    dep_vocab = build_vocab([t.sentence for t in dep_trees], dep_trees=dep_trees,
                            min_form_count=1)
    dep_model = DepModel(DepConfig(word_dims=8, tag_dims=6, lstm_units=8, layers=2,
                                   hidden=12, dropout=0.0, word_dropout=0.0, seed=3),
                         dep_vocab)
    per_param = _per_param_for_target(dep_model.store, 500)
    dep_report = model_grad_check(dep_model, dep_trees, samples_per_param=per_param,
                                  h=1e-5, tolerance=1e-4)
    sampled_dep = sum(min(per_param, p.value.size) for p in dep_model.store)
    assert sampled_dep >= 500 or sampled_dep == sum(p.value.size for p in dep_model.store)
    assert dep_report["ok"], dep_report["failures"][:3]
    assert dep_report["max_rel_error"] < 1e-4

    const_trees = [synth.random_const_tree(rng, 5) for _ in range(2)]
    const_vocab = build_vocab([t.sentence for t in const_trees],
                              const_trees=const_trees, min_form_count=1)
    const_model = ConstModel(ConstConfig(word_dims=8, tag_dims=6, nonterminal_dims=6,
                                         lstm_units=8, layers=2, hidden=12,
                                         dropout=0.0, word_dropout=0.0, l2=0.0, seed=3),
                             const_vocab)
    per_param = _per_param_for_target(const_model.store, 500)
    const_report = model_grad_check(const_model, const_trees,
                                    samples_per_param=per_param,
                                    h=1e-5, tolerance=1e-4)
    sampled_const = sum(min(per_param, p.value.size) for p in const_model.store)
    assert sampled_const >= 500 or sampled_const == sum(p.value.size for p in const_model.store)
    assert const_report["ok"], const_report["failures"][:3]
    assert const_report["max_rel_error"] < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "took %.2fs" % elapsed
    ok(3, "end-to-end gradients: dep max rel %.2e, const max rel %.2e "
          "(>=500 coordinates each, every tensor covered); per-layer worst "
          "%.2e; %.1fs" % (dep_report["max_rel_error"],
                           const_report["max_rel_error"], per_layer_worst, elapsed))


def test_criterion_04_adadelta_trace():
    rho, eps = 0.99, 1e-7
    x, eg2, ed2 = 0.0, 0.0, 0.0
    expected = []
    for g in (1.0, 1.0):
        eg2 = rho * eg2 + (1.0 - rho) * g * g
        dx = -math.sqrt(ed2 + eps) / math.sqrt(eg2 + eps) * g
        ed2 = rho * ed2 + (1.0 - rho) * dx * dx
        x += dx
        expected.append(x)
    assert abs(expected[0] - (-3.1622e-3)) < 1e-6

    store = nn.ParamStore(np.float64)
    store.add("x", np.zeros(1))
    for step in range(2):
        store["x"].grad[...] = 1.0
        store.adadelta_step(rho=rho, eps=eps)
        assert abs(store["x"].value[0] - expected[step]) < 1e-12
    ok(4, "two-step ADADELTA trace matches the hand computation to 1e-12 "
          "(first step %.5e)" % expected[0])


def test_criterion_05_overfit_capability():
    start = time.monotonic()
    train = synth.toy_dep_corpus(32, seed=7)
    vocab = build_vocab([t.sentence for t in train], dep_trees=train, min_form_count=1)
    config = DepConfig(word_dims=16, tag_dims=8, lstm_units=32, layers=2, hidden=32,
                       epochs=10, minibatch=1, dropout=0.0, word_dropout=0.0, seed=1)
    model = DepModel(config, vocab)
    model.fit(train)
    uas = score_dep(train, [model.parse(t.sentence) for t in train],
                    exclude_punct=False).uas
    dep_elapsed = time.monotonic() - start
    assert uas >= 99.0
    assert dep_elapsed < 120.0

    start = time.monotonic()
    rules = HeadRules.bundled()
    ctrain = [assign_heads(t, rules) for t in synth.toy_const_corpus(32, seed=7)]
    cvocab = build_vocab([t.sentence for t in ctrain], const_trees=ctrain,
                         min_form_count=1)
    cconfig = ConstConfig(word_dims=16, tag_dims=8, nonterminal_dims=16, lstm_units=32,
                          layers=2, hidden=32, epochs=10, minibatch=1, dropout=0.0,
                          word_dropout=0.0, l2=0.0, seed=1)
    cmodel = ConstModel(cconfig, cvocab)
    cmodel.fit(ctrain)
    f1 = score_brackets(ctrain, [cmodel.parse(t.sentence) for t in ctrain]).f1
    const_elapsed = time.monotonic() - start
    assert f1 >= 99.0
    assert const_elapsed < 120.0
    ok(5, "overfit: %.2f%% training UAS (%.1fs) and %.2f%% training bracket F1 "
          "(%.1fs) on 32-sentence toy corpora within 10 epochs"
          % (uas, dep_elapsed, f1, const_elapsed))


FAST_TRAIN_FLAGS = ["--word-dims", "12", "--tag-dims", "8", "--lstm-units", "16",
                    "--hidden", "16", "--epochs", "3", "--minibatch", "4",
                    "--min-form-count", "1", "--seed", "9"]


def test_criterion_06_determinism(tmp_path):
    corpus = tmp_path / "train.conll"
    corpus.write_text(write_conll(synth.toy_dep_corpus(16, seed=7)), encoding="utf-8")
    dev = tmp_path / "dev.conll"
    dev.write_text(write_conll(synth.toy_dep_corpus(8, seed=8)), encoding="utf-8")
    blobs = []
    for tag in ("a", "b"):
        model = tmp_path / ("model_%s" % tag)
        log = tmp_path / ("log_%s" % tag)
        code = cli_main(["train", "--task", "dep", "--train", str(corpus),
                         "--dev", str(dev), "--model", str(model),
                         "--log", str(log)] + FAST_TRAIN_FLAGS)
        assert code == 0
        blobs.append((log.read_bytes(), model.read_bytes(),
                      (tmp_path / ("model_%s.best" % tag)).read_bytes()))
    assert blobs[0][0] == blobs[1][0], "training logs differ"
    assert blobs[0][1] == blobs[1][1], "model files differ"
    assert blobs[0][2] == blobs[1][2], "best-model files differ"
    ok(6, "two identically seeded training runs produced byte-identical logs "
          "and bitwise-identical model files")


def test_criterion_07_metric_oracles():
    sent = Sentence.from_pairs([("I", "PRP"), ("like", "VBP"), ("sports", "NNS")])
    gold = DepTree.from_heads(sent, [1, ROOT, 1], ["nsubj", "root", "dobj"])
    pred = DepTree.from_heads(sent, [2, ROOT, 1], ["nsubj", "root", "dobj"])
    score = score_dep([gold], [pred], exclude_punct=False)
    assert round(score.uas, 2) == 66.67
    assert score.las <= score.uas

    [bg] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))")
    [bp] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NNS sports)))")
    bscore = score_brackets([bg], [bp], ignore_root=True)
    assert bscore.precision == 100.0
    assert round(bscore.recall, 2) == 66.67
    assert abs(bscore.f1 - 80.0) < 1e-9

    rng = np.random.default_rng(1007)
    golds, preds = [], []
    for _ in range(30):
        tree = synth.random_projective_tree(rng, int(rng.integers(2, 20)))
        golds.append(tree)
        heads = list(tree.heads)
        victim = int(rng.integers(len(heads)))
        if victim != tree.root:
            heads[victim] = tree.root
        preds.append(DepTree.from_heads(tree.sentence, heads, list(tree.labels)))
    rows = arc_recall_by_length(golds, preds, max_bucket=8)
    assert sum(c for _b, _g, c, _r in rows) == score_dep(
        golds, preds, exclude_punct=False).correct_heads
    ok(7, "hand-counted metric cases reproduced exactly (UAS 66.67; bracket "
          "P=100/R=66.67/F1=80.0; recall-by-length cross-sum consistency)")


def test_criterion_08_dropout_expectation():
    rng = np.random.default_rng(1008)
    mask = nn.dropout_mask(rng, (1_000_000,), 0.5)
    assert abs(mask.mean() - 1.0) < 0.01
    # the encoder draws its masks only in training: at evaluation it takes
    # no draw from the generator and every mask in its cache is None
    train = synth.toy_dep_corpus(2, seed=8)
    vocab = build_vocab([t.sentence for t in train], dep_trees=train, min_form_count=1)
    model = DepModel(DepConfig(word_dims=6, tag_dims=4, lstm_units=6, hidden=8,
                               dropout=0.5, seed=1), vocab)
    state = rng.bit_generator.state
    _feat, (_w, _t, _packing, layers, feat_masks) = model._encode(
        [t.sentence for t in train], False, rng)
    assert rng.bit_generator.state == state
    assert all(m is None for m in feat_masks) and all(l[0] is None for l in layers)
    ok(8, "the encoder's inverted-dropout mask keeps the mean within 1%% over 1e6 "
          "samples (mask mean %.4f); evaluation-mode encoding draws no mask" % mask.mean())


def test_criterion_09_ablation_switches():
    train = synth.toy_dep_corpus(8, seed=5)
    vocab = build_vocab([t.sentence for t in train], dep_trees=train, min_form_count=1)
    rules = HeadRules.bundled()
    ctrain = [assign_heads(t, rules) for t in synth.toy_const_corpus(8, seed=5)]
    cvocab = build_vocab([t.sentence for t in ctrain], const_trees=ctrain,
                         min_form_count=1)
    combos = 0
    for layers in (1, 2):
        for hierarchical in (True, False):
            for use_tags in (True, False):
                config = DepConfig(word_dims=6, tag_dims=4, lstm_units=6,
                                   layers=layers, hidden=8, epochs=1, minibatch=4,
                                   dropout=0.5, hierarchical=hierarchical,
                                   use_tags=use_tags, seed=1)
                model = DepModel(config, vocab)
                lines = model.fit(train)
                assert any(l.startswith("epoch=1 ") for l in lines)
                model.parse(train[0].sentence)
                cconfig = ConstConfig(word_dims=6, tag_dims=4, nonterminal_dims=6,
                                      lstm_units=6, layers=layers, hidden=8,
                                      epochs=1, minibatch=4, dropout=0.5,
                                      hierarchical=hierarchical, use_tags=use_tags,
                                      seed=1)
                cmodel = ConstModel(cconfig, cvocab)
                clines = cmodel.fit(ctrain)
                assert any(l.startswith("epoch=1 ") for l in clines)
                cmodel.parse(ctrain[0].sentence)
                combos += 2
    ok(9, "all %d ablation configurations (both parsers x 1/2 layers x "
          "hierarchical/flat x tags on/off) train and decode without error" % combos)


def test_criterion_10_long_run_documented():
    with open("README.md", encoding="utf-8") as fh:
        readme = fh.read()
    assert "Training on full treebanks" in readme
    assert "93.67" in readme and "0.5" in readme
    ok(10, "full-scale training procedure and expected dev accuracy band are "
           "documented in the README (not gated on licensed data)")
