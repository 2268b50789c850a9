"""Seeded synthetic corpora and the three closed-loop workloads.

Everything here drives shiftparse through its public API: ``build_vocab``,
``DepModel``/``ConstModel``, ``fit``, ``parse``, ``save_model`` and
``load_model``. The program only ever sees the generated trees.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from shiftparse import model as sp_model
from shiftparse import synth
from shiftparse import vocab as sp_vocab
from shiftparse.trees import (ConstTree, DepTree, Internal, Sentence, Token,
                              leaf_indices, write_brackets)


@dataclass(frozen=True)
class Size:
    # Zipf-distributed forms over this many types. The vocabulary holds every
    # type, so the word table and its dense ADADELTA update have treebank size
    # (20k forms: 1M values for dep, 2M for const) rather than the ~100 forms
    # of synth's w0..wN sentences.
    n_types: int
    # Sentence lengths of one block of ten sentences (= one minibatch), in a
    # seeded order. Every block has the same words, so per-block rates of
    # different seeds compare like for like; 8-40 words is a treebank-like mix.
    block_lengths: tuple[int, ...]
    corpus_blocks: int
    # label inventories of treebank size: ~40 dependency relations, the 26
    # PTB phrase labels, the 45 PTB tags
    n_dep_labels: int = 40
    n_nonterminals: int = 26
    n_tags: int = 45
    dep_config: dict = field(default_factory=dict)
    const_config: dict = field(default_factory=dict)


# The parsers' default (paper) sizes.
PAPER = Size(n_types=20000,
             block_lengths=(8, 12, 15, 19, 22, 26, 29, 33, 36, 40),
             corpus_blocks=48)

# Seconds-long smoke runs of the same code paths.
TINY = Size(n_types=300, block_lengths=(3, 4, 4, 5, 5, 6, 6, 7, 7, 8), corpus_blocks=4,
            n_dep_labels=6, n_nonterminals=5, n_tags=6,
            dep_config=dict(word_dims=8, tag_dims=4, lstm_units=8, hidden=16),
            const_config=dict(word_dims=8, tag_dims=8, nonterminal_dims=8,
                              lstm_units=8, hidden=16))

SIZES = {"paper": PAPER, "tiny": TINY}
ZIPF_EXPONENT = 1.0
BLOCK = 10                  # sentences per minibatch and per throughput block
REL_TOLERANCE = 1e-7        # recorded losses; the log prints 6 decimals
# The model's initialisation seed is the same for every workload seed: an
# untrained parser's decision policy, and so its decode steps per word, is
# set by its initial weights (6.7 to 7.7 steps/word over model seeds 1-6),
# while it barely moves with the sentences (7.55 to 7.67 over corpus seeds).
MODEL_SEED = 1


# -- corpus ------------------------------------------------------------------

def _lexicon(rng: np.random.Generator, size: Size):
    forms = ["w%05d" % r for r in range(size.n_types)]
    tags = ["T%02d" % t for t in range(size.n_tags)]
    type_tags = rng.integers(0, size.n_tags, size=size.n_types)
    return forms, [tags[t] for t in type_tags]


def make_corpus(task: str, seed: int, size: Size):
    """(trees, lexicon sentences) for one seed. Trees come from
    synth.random_projective_tree / random_const_tree with the synthetic
    sentence swapped for Zipf-drawn forms, each form carrying its own tag."""
    rng = np.random.default_rng(seed)
    forms, form_tags = _lexicon(rng, size)
    ranks = np.arange(1, size.n_types + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_EXPONENT
    probs /= probs.sum()
    lengths = []
    for _ in range(size.corpus_blocks):
        lengths.extend(int(n) for n in rng.permutation(size.block_lengths))
    drawn = rng.choice(size.n_types, size=sum(lengths), p=probs)

    dep_labels = tuple("dep%02d" % i for i in range(size.n_dep_labels - 1))
    nonterminals = tuple("NT%02d" % i for i in range(size.n_nonterminals))
    trees = []
    offset = 0
    for n in lengths:
        ids = drawn[offset:offset + n]
        offset += n
        sentence = Sentence(tuple(Token(forms[i], form_tags[i]) for i in ids))
        if task == "dep":
            shape = synth.random_projective_tree(rng, n, labels=dep_labels, root_label="root")
            trees.append(DepTree(sentence, shape.arcs))
        else:
            shape = synth.random_const_tree(rng, n, nonterminals=nonterminals)
            trees.append(ConstTree(sentence, shape.root))
    # every type once, in sentences of 100 forms
    lexicon = [Sentence(tuple(Token(f, t) for f, t in zip(forms[i:i + 100], form_tags[i:i + 100])))
               for i in range(0, size.n_types, 100)]
    return trees, lexicon


# -- operations and checks ---------------------------------------------------

@dataclass
class Op:
    sentences: int
    words: int
    seconds: float
    failed: int
    output: object      # loss (train) or bracket digest (parse), for references


def _finite_loss(lines: list[str]) -> float:
    loss = float(lines[-1].split("loss=")[1].split()[0])
    if not math.isfinite(loss) or loss <= 0.0:
        raise ValueError("loss %r" % loss)
    return loss


def const_tree_ok(tree: ConstTree, sentence: Sentence) -> bool:
    """Leaves 0..n-1 in order under an internal root, over the input."""
    return (tree.sentence is sentence and isinstance(tree.root, Internal)
            and leaf_indices(tree.root) == list(range(len(sentence))))


def digest(tree: ConstTree) -> str:
    return hashlib.sha256(write_brackets([tree]).encode("utf-8")).hexdigest()[:16]


class Workload:
    name = ""
    task = ""
    expected_layers: tuple[str, ...] = ()

    def __init__(self, size: Size, reference: list | None):
        self.size = size
        self.reference = reference or []
        self.mismatches = 0
        self.cursor = 0
        self.trees = self.vocab = self.model = None

    def release(self):
        """Drop the previous set-up, so the next one starts without it."""
        self.trees = self.vocab = self.model = None

    def setup(self, seed: int, tracer, workdir: str):
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        self.release()
        with span("setup.corpus"):
            trees, lexicon = make_corpus(self.task, seed, self.size)
        # the lexicon twice, so every type passes the default min_form_count=2
        sentences = [t.sentence for t in trees] + lexicon + lexicon
        kind = "dep_trees" if self.task == "dep" else "const_trees"
        self.vocab = sp_vocab.build_vocab(sentences, **{kind: trees})
        _check_vocab(self.vocab, self.task, self.size)
        self.trees = trees
        self.model = self._ready(workdir)

    def _new_model(self):
        if self.task == "dep":
            config = sp_model.DepConfig(seed=MODEL_SEED, epochs=1, **self.size.dep_config)
            return sp_model.DepModel(config, self.vocab)
        config = sp_model.ConstConfig(seed=MODEL_SEED, epochs=1, **self.size.const_config)
        return sp_model.ConstModel(config, self.vocab)

    def begin_window(self):
        """Called before each measuring window, not before each set-up."""

    def warmup_tree(self):
        """The sentence a set-up warms the model up on, before any op is
        timed: the first block's shortest, so the warm-up costs the same
        for every seed (block lengths are fixed)."""
        return min(self.trees[:BLOCK], key=len)

    def _ready(self, workdir: str):
        raise NotImplementedError

    def run_op(self) -> Op:
        raise NotImplementedError

    def _check_reference(self, index: int, output, close) -> bool:
        if index < len(self.reference) and not close(output, self.reference[index]):
            self.mismatches += 1
            return False
        return True


class TrainWorkload(Workload):
    """One op = one fit() call on the next ten trees: one minibatch update.
    A fresh model starts again at the first minibatch, so op i is always
    the i-th update after set-up and its loss can be checked."""

    def _ready(self, workdir):
        model = self._new_model()
        model.fit([self.warmup_tree()])     # warm-up sentence, untimed
        self.cursor = 0
        return model

    def run_op(self) -> Op:
        n_blocks = len(self.trees) // BLOCK
        start = (self.cursor % n_blocks) * BLOCK
        batch = self.trees[start:start + BLOCK]
        words = sum(len(t) for t in batch)
        index = self.cursor
        self.cursor += 1
        t0 = time.perf_counter()
        try:
            lines = self.model.fit(batch)
        except Exception:               # counted, not fatal: the run goes on
            traceback.print_exc()
            return Op(len(batch), words, time.perf_counter() - t0, len(batch), None)
        seconds = time.perf_counter() - t0
        try:
            loss = _finite_loss(lines)
        except (ValueError, IndexError):
            return Op(len(batch), words, seconds, len(batch), None)
        ok = self._check_reference(
            index, loss, lambda a, b: abs(a - b) <= REL_TOLERANCE * abs(b) + 2e-6)
        return Op(len(batch), words, seconds, 0 if ok else len(batch), loss)


class ParseWorkload(Workload):
    """One op = one parse() call. Every window parses from the first sentence,
    so the traced window's first block is the same on every run of a seed.
    Set-ups between the slices of a window keep its place in the corpus:
    every set-up builds the same model."""

    def _ready(self, workdir):
        # through a model file, as `shiftparse parse` gets its model
        path = os.path.join(workdir, "model.bin")
        sp_model.save_model(self._new_model(), path)
        loaded = sp_model.load_model(path)
        os.remove(path)
        loaded.parse(self.warmup_tree().sentence)   # warm-up sentence, untimed
        return loaded

    def begin_window(self):
        self.cursor = 0

    def run_op(self) -> Op:
        index = self.cursor % len(self.trees)
        self.cursor += 1
        sentence = self.trees[index].sentence
        t0 = time.perf_counter()
        try:
            tree = self.model.parse(sentence)
        except Exception:               # counted, not fatal: the run goes on
            traceback.print_exc()
            return Op(1, len(sentence), time.perf_counter() - t0, 1, None)
        seconds = time.perf_counter() - t0
        if not const_tree_ok(tree, sentence):
            return Op(1, len(sentence), seconds, 1, None)
        out = digest(tree)
        ok = self._check_reference(index, out, lambda a, b: a == b)
        return Op(1, len(sentence), seconds, 0 if ok else 1, out)


def _check_vocab(vocab, task: str, size: Size):
    """The inventories the sizes promise; a generator change must not shrink
    the tables the workloads are meant to exercise."""
    want = [("forms", vocab.num_forms, size.n_types + 1), ("tags", vocab.num_tags, size.n_tags + 1)]
    if task == "dep":
        want.append(("dependency labels", vocab.num_deprels, size.n_dep_labels))
    else:
        want.append(("nonterminals", vocab.num_nonterminals, size.n_nonterminals))
    for what, got, expected in want:
        if got != expected:
            raise RuntimeError("vocabulary has %d %s, expected %d" % (got, what, expected))


class DepTrain(TrainWorkload):
    # the encoder-backward workload: lstm_backward dominates
    name, task = "dep-train", "dep"
    expected_layers = ("nn.lstm_forward", "nn.lstm_backward", "nn.mlp_forward",
                       "nn.mlp_backward", "nn.nll_softmax_loss", "nn.adadelta_step",
                       "features.extract", "dep_system.initial", "dep_system.apply",
                       "dep_system.oracle", "model.fit", "model.snapshot", "vocab.build_vocab")


class ConstTrain(TrainWorkload):
    # the wide flat classifier as batched GEMMs, and an 8.4M-value ADADELTA step
    name, task = "const-train", "const"
    expected_layers = ("nn.lstm_forward", "nn.lstm_backward", "nn.mlp_forward",
                       "nn.mlp_backward", "nn.nll_softmax_loss", "nn.adadelta_step",
                       "features.extract", "const_system.initial", "const_system.apply",
                       "const_system.oracle", "model.fit", "model.snapshot",
                       "vocab.build_vocab")


class ConstParse(ParseWorkload):
    # read-only per-step classifier matvecs; no backward, no optimizer
    name, task = "const-parse", "const"
    expected_layers = ("nn.lstm_forward", "nn.mlp_forward", "features.extract",
                       "const_system.initial", "const_system.apply", "const_system.legal",
                       "model.parse", "model.save_model", "model.load_model",
                       "vocab.build_vocab")


WORKLOADS = {w.name: w for w in (DepTrain, ConstTrain, ConstParse)}
