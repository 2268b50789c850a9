"""Scoring: attachment scores, labeled bracket F1, arc recall by length.

Dependency scoring can exclude punctuation tokens by their gold POS tag
(the conventional English set by default). Bracket scoring counts
(label, start, end) triples over internal nodes, preterminals excluded by
construction, duplicates with multiplicity, and ignores the root bracket
by default. It deliberately skips evalb's parameter-file machinery
(punctuation re-spanning etc.); the tests here rely on self-consistency.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .trees import ROOT, ConstTree, DepTree, Leaf

DEFAULT_PUNCT_TAGS = frozenset({"``", "''", ",", ".", ":"})


@dataclass(frozen=True)
class DepScore:
    uas: float
    las: float
    correct_heads: int
    correct_labeled: int
    scored: int

    def __str__(self) -> str:
        return "uas=%.2f las=%.2f scored=%d" % (self.uas, self.las, self.scored)


@dataclass(frozen=True)
class BracketScore:
    precision: float
    recall: float
    f1: float
    matched: int
    gold: int
    predicted: int

    def __str__(self) -> str:
        return "precision=%.2f recall=%.2f f1=%.2f matched=%d gold=%d predicted=%d" % (
            self.precision, self.recall, self.f1, self.matched, self.gold, self.predicted)


def _check_aligned(gold: Sequence, pred: Sequence):
    if len(gold) != len(pred):
        raise ValueError("corpus misalignment: %d gold vs %d predicted sentences"
                         % (len(gold), len(pred)))


def score_dep(gold: Sequence[DepTree], pred: Sequence[DepTree],
              exclude_punct: bool = True,
              punct_tags: Optional[frozenset] = None) -> DepScore:
    """Unlabeled/labeled attachment scores over aligned corpora."""
    _check_aligned(gold, pred)
    punct = DEFAULT_PUNCT_TAGS if punct_tags is None else frozenset(punct_tags)

    def count(g: DepTree, p: DepTree):
        if len(g) != len(p):
            raise ValueError("corpus misalignment: sentence lengths %d vs %d"
                             % (len(g), len(p)))
        correct = labeled = scored = 0
        for i in range(len(g)):
            if exclude_punct and g.sentence[i].tag in punct:
                continue
            scored += 1
            if g.head_of(i) == p.head_of(i):
                correct += 1
                if g.label_of(i) == p.label_of(i):
                    labeled += 1
        return correct, labeled, scored

    totals = [count(g, p) for g, p in zip(gold, pred)]
    correct = sum(t[0] for t in totals)
    correct_labeled = sum(t[1] for t in totals)
    scored = sum(t[2] for t in totals)
    if scored == 0:
        raise ValueError("no scored tokens (everything was excluded as punctuation)")
    return DepScore(100.0 * correct / scored, 100.0 * correct_labeled / scored,
                    correct, correct_labeled, scored)


def _brackets(node, start: int) -> tuple[int, Counter]:
    """Counter of (label, start, end) over internal nodes; spans are
    token-index half-open intervals."""
    if isinstance(node, Leaf):
        return start + 1, Counter()
    counts: Counter = Counter()
    end = start
    for child in node.children:
        end, sub = _brackets(child, end)
        counts.update(sub)
    counts[(node.label, start, end)] += 1
    return end, counts


def tree_brackets(tree: ConstTree, ignore_root: bool = True) -> Counter:
    _, counts = _brackets(tree.root, 0)
    if ignore_root:
        root_key = (tree.root.label, 0, len(tree))
        counts[root_key] -= 1
        if counts[root_key] <= 0:
            del counts[root_key]
    return counts


def score_brackets(gold: Sequence[ConstTree], pred: Sequence[ConstTree],
                   ignore_root: bool = True) -> BracketScore:
    """Labeled bracket precision/recall/F1, duplicates with multiplicity."""
    _check_aligned(gold, pred)

    def count(g: ConstTree, p: ConstTree):
        if g.sentence.forms != p.sentence.forms:
            raise ValueError("token mismatch between gold and predicted trees")
        gb = tree_brackets(g, ignore_root)
        pb = tree_brackets(p, ignore_root)
        return (sum(gb.values()), sum(pb.values()),
                sum(min(n, gb[key]) for key, n in pb.items()))

    totals = [count(g, p) for g, p in zip(gold, pred)]
    gold_total = sum(t[0] for t in totals)
    pred_total = sum(t[1] for t in totals)
    matched = sum(t[2] for t in totals)
    precision = 100.0 * matched / pred_total if pred_total else 0.0
    recall = 100.0 * matched / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return BracketScore(precision, recall, f1, matched, gold_total, pred_total)


def arc_recall_by_length(gold: Sequence[DepTree], pred: Sequence[DepTree],
                         max_bucket: int = 10) -> list[tuple[str, int, int, float]]:
    """Recall of gold arcs (head match only) bucketed by |head - dependent|.

    ROOT arcs get their own bucket; lengths >= max_bucket merge into one.
    Rows are (bucket, gold count, correct count, recall); empty buckets are
    omitted. Summing the correct column over all buckets reproduces the
    punctuation-inclusive unlabeled attachment numerator. max_bucket must
    be at least 1.
    """
    if max_bucket < 1:
        raise ValueError("max_bucket must be at least 1, not %r" % max_bucket)
    _check_aligned(gold, pred)
    gold_counts: Counter = Counter()
    correct_counts: Counter = Counter()
    for g, p in zip(gold, pred):
        if len(g) != len(p):
            raise ValueError("corpus misalignment: sentence lengths %d vs %d"
                             % (len(g), len(p)))
        for i in range(len(g)):
            head = g.head_of(i)
            if head == ROOT:
                bucket = "root"
            else:
                length = abs(head - i)
                bucket = "%d+" % max_bucket if length >= max_bucket else str(length)
            gold_counts[bucket] += 1
            if p.head_of(i) == head:
                correct_counts[bucket] += 1

    def order(bucket: str):
        if bucket == "root":
            return (0, 0)
        if bucket.endswith("+"):
            return (2, int(bucket[:-1]))
        return (1, int(bucket))

    rows = []
    for bucket in sorted(gold_counts, key=order):
        g_count = gold_counts[bucket]
        c_count = correct_counts[bucket]
        rows.append((bucket, g_count, c_count, c_count / g_count))
    return rows


def recall_table_csv(rows: Iterable[tuple[str, int, int, float]]) -> str:
    lines = ["length,gold,correct,recall"]
    for bucket, gold_count, correct, recall in rows:
        lines.append("%s,%d,%d,%.4f" % (bucket, gold_count, correct, recall))
    return "\n".join(lines) + "\n"
