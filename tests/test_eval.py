import numpy as np
import pytest

from shiftparse.evalmetrics import (arc_recall_by_length, recall_table_csv,
                                    score_brackets, score_dep, tree_brackets)
from shiftparse.trees import ROOT, DepTree, Sentence, read_brackets
from shiftparse import synth

SENT = Sentence.from_pairs([("I", "PRP"), ("like", "VBP"), ("sports", "NNS")])
GOLD = DepTree.from_heads(SENT, [1, ROOT, 1], ["nsubj", "root", "dobj"])


def test_identical_trees_score_100():
    score = score_dep([GOLD], [GOLD], exclude_punct=False)
    assert score.uas == 100.0 and score.las == 100.0


def test_hand_counted_uas():
    # one wrong head out of three scored tokens: 2/3 correct
    pred = DepTree.from_heads(SENT, [2, ROOT, 1], ["nsubj", "root", "dobj"])
    score = score_dep([GOLD], [pred], exclude_punct=False)
    assert abs(score.uas - 200.0 / 3.0) < 1e-9
    assert round(score.uas, 2) == 66.67
    assert score.las <= score.uas
    assert score.correct_heads == 2 and score.scored == 3


def test_label_errors_lower_las_only():
    pred = DepTree.from_heads(SENT, [1, ROOT, 1], ["bad", "root", "dobj"])
    score = score_dep([GOLD], [pred], exclude_punct=False)
    assert score.uas == 100.0
    assert abs(score.las - 200.0 / 3.0) < 1e-9


def test_punctuation_exclusion():
    sent = Sentence.from_pairs([("hi", "UH"), (".", ".")])
    gold = DepTree.from_heads(sent, [ROOT, 0], ["root", "punct"])
    pred = DepTree.from_heads(sent, [ROOT, 0], ["root", "punct"])
    score = score_dep([gold], [pred], exclude_punct=True)
    assert score.scored == 1
    all_punct_sent = Sentence.from_pairs([(",", ","), (".", ".")])
    gold2 = DepTree.from_heads(all_punct_sent, [1, ROOT], ["punct", "root"])
    with pytest.raises(ValueError, match="no scored tokens"):
        score_dep([gold2], [gold2], exclude_punct=True)


def test_misalignment_errors():
    with pytest.raises(ValueError, match="misalignment"):
        score_dep([GOLD], [])
    other = DepTree.from_heads(Sentence.from_pairs([("x", "X")]), [ROOT], ["root"])
    with pytest.raises(ValueError, match="misalignment"):
        score_dep([GOLD], [other])


EXAMPLE = "(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))"


def test_brackets_identical_is_100():
    [tree] = read_brackets(EXAMPLE)
    score = score_brackets([tree], [tree])
    assert score.f1 == 100.0 and score.precision == 100.0 and score.recall == 100.0


def test_brackets_hand_counted_case():
    # gold has 4 brackets (3 once the root is ignored); the prediction
    # misses the inner NP over "sports": matched 2, P=100, R=66.67, F1=80
    [gold] = read_brackets(EXAMPLE)
    [pred] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NNS sports)))")
    assert sum(tree_brackets(gold, ignore_root=False).values()) == 4
    assert sum(tree_brackets(gold, ignore_root=True).values()) == 3
    score = score_brackets([gold], [pred], ignore_root=True)
    assert score.matched == 2
    assert score.precision == 100.0
    assert abs(score.recall - 200.0 / 3.0) < 1e-9
    assert abs(score.f1 - 80.0) < 1e-9


def test_brackets_root_counted_when_flag_off():
    [gold] = read_brackets(EXAMPLE)
    [pred] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NNS sports)))")
    score = score_brackets([gold], [pred], ignore_root=False)
    assert score.matched == 3 and score.gold == 4
    assert abs(score.recall - 75.0) < 1e-9
    assert abs(score.f1 - 2 * 100.0 * 75.0 / 175.0) < 1e-9


def test_brackets_disjoint_trees():
    [gold] = read_brackets("(S (NP (NN a) (NN b)))")
    [pred] = read_brackets("(X (Y (NN a)) (Z (NN b)))")
    score = score_brackets([gold], [pred], ignore_root=True)
    assert score.f1 == 0.0


def test_brackets_duplicate_spans_count_with_multiplicity():
    # unary NP over NP: the same (NP, span) appears twice
    [gold] = read_brackets("(S (NP (NP (NN a) (NN b))) (VP (VB c)))")
    [pred_once] = read_brackets("(S (NP (NN a) (NN b)) (VP (VB c)))")
    score = score_brackets([gold], [pred_once], ignore_root=True)
    assert score.matched == 2 and score.gold == 3


def test_brackets_token_mismatch():
    [gold] = read_brackets("(S (NN a))")
    [pred] = read_brackets("(S (NN b))")
    with pytest.raises(ValueError, match="token mismatch"):
        score_brackets([gold], [pred])


def test_recall_perfect_prediction():
    rows = arc_recall_by_length([GOLD], [GOLD])
    assert rows and all(recall == 1.0 for _b, _g, _c, recall in rows)


def test_recall_buckets_and_merging():
    n = 14
    sent = Sentence.from_pairs([("w%d" % i, "NN") for i in range(n)])
    heads = [ROOT] + [0] * (n - 1)   # arc lengths 1..13 plus the root arc
    gold = DepTree.from_heads(sent, heads, ["root"] + ["dep"] * (n - 1))
    rows = arc_recall_by_length([gold], [gold], max_bucket=10)
    buckets = [row[0] for row in rows]
    assert buckets[0] == "root"
    assert "10+" in buckets
    assert "13" not in buckets
    merged = dict((b, g) for b, g, _c, _r in rows)
    assert merged["10+"] == 4    # lengths 10, 11, 12, 13


@pytest.mark.parametrize("max_bucket", [0, -2])
def test_recall_rejects_max_bucket_below_one(max_bucket):
    with pytest.raises(ValueError, match="max_bucket must be at least 1"):
        arc_recall_by_length([GOLD], [GOLD], max_bucket=max_bucket)


def test_recall_empty_buckets_omitted():
    rows = arc_recall_by_length([GOLD], [GOLD], max_bucket=10)
    assert set(r[0] for r in rows) == {"root", "1"}


def test_recall_cross_sum_matches_uas_numerator():
    rng = np.random.default_rng(53)
    gold = [synth.random_projective_tree(rng, int(rng.integers(2, 25)))
            for _ in range(40)]
    pred = []
    for tree in gold:
        # corrupt some heads while keeping a valid tree: reattach a random
        # non-root token to the root token when that stays acyclic
        heads = list(tree.heads)
        labels = list(tree.labels)
        root = tree.root
        victim = int(rng.integers(len(heads)))
        if victim != root:
            heads[victim] = root
        pred.append(DepTree.from_heads(tree.sentence, heads, labels))
    rows = arc_recall_by_length(gold, pred, max_bucket=8)
    total_correct = sum(c for _b, _g, c, _r in rows)
    score = score_dep(gold, pred, exclude_punct=False)
    assert total_correct == score.correct_heads
    total_gold = sum(g for _b, g, _c, _r in rows)
    assert total_gold == score.scored


def test_recall_csv_format():
    text = recall_table_csv(arc_recall_by_length([GOLD], [GOLD]))
    lines = text.strip().splitlines()
    assert lines[0] == "length,gold,correct,recall"
    assert lines[1].startswith("root,1,1,1.0000")


def test_score_invariants_under_permutation():
    rng = np.random.default_rng(59)
    gold = [synth.random_projective_tree(rng, int(rng.integers(2, 10)))
            for _ in range(10)]
    score_a = score_dep(gold, gold, exclude_punct=False)
    reordered = list(reversed(gold))
    score_b = score_dep(reordered, reordered, exclude_punct=False)
    assert score_a.uas == score_b.uas and score_a.scored == score_b.scored
