"""Head-child selection for constituency trees.

A rule table maps a constituent label to an ordered list of rules, each a
scan direction plus a priority list of child labels. The first priority
label found while scanning children in the rule's direction wins. Leaf
children match on their POS tag, internal children on their label. A
default rule guarantees every node gets a head, so assignment is total
and deterministic.

Rule files hold one rule per line: ``LABEL direction child1 child2 ...``
with direction ``left-to-right`` or ``right-to-left``. The pseudo-label
``DEFAULT`` sets the fallback rule. ``#`` starts a comment.
"""

from __future__ import annotations

import importlib.resources
import io
from dataclasses import dataclass, replace

from .trees import ConstTree, Internal, Leaf, Sentence

_DIRECTIONS = ("left-to-right", "right-to-left")


@dataclass(frozen=True)
class HeadRule:
    direction: str
    priorities: tuple[str, ...]

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError("unknown direction %r" % self.direction)


class HeadRules:
    def __init__(self, rules: dict[str, list[HeadRule]], default: HeadRule | None = None):
        self.rules = rules
        self.default = default or HeadRule("left-to-right", ())

    @classmethod
    def from_text(cls, text: str) -> "HeadRules":
        rules: dict[str, list[HeadRule]] = {}
        default = None
        # split as a text-mode file splits, so line numbers are the file's
        for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ValueError("line %d: expected 'LABEL direction ...'" % lineno)
            label, direction, priorities = fields[0], fields[1], tuple(fields[2:])
            try:
                rule = HeadRule(direction, priorities)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (lineno, exc)) from None
            if label == "DEFAULT":
                default = rule
            else:
                rules.setdefault(label, []).append(rule)
        return cls(rules, default)

    @classmethod
    def bundled(cls) -> "HeadRules":
        """The simplified English-style table shipped with the package."""
        text = importlib.resources.files("shiftparse").joinpath(
            "data/headrules_en.txt").read_text(encoding="utf-8")
        return cls.from_text(text)

    def head_child(self, label: str, child_labels: list[str]) -> int:
        if len(child_labels) == 1:
            return 0
        for rule in self.rules.get(label, [self.default]):
            order = range(len(child_labels))
            if rule.direction == "right-to-left":
                order = reversed(order)
            order = list(order)
            for wanted in rule.priorities:
                for i in order:
                    if child_labels[i] == wanted:
                        return i
        # nothing matched: take the first child in the first rule's direction
        direction = self.rules.get(label, [self.default])[0].direction
        return 0 if direction == "left-to-right" else len(child_labels) - 1


def _child_label(node, sentence: Sentence) -> str:
    if isinstance(node, Leaf):
        return sentence[node.index].tag
    return node.label


def _assign(node, rules: HeadRules, sentence: Sentence):
    if isinstance(node, Leaf):
        return node
    children = tuple(_assign(c, rules, sentence) for c in node.children)
    labels = [_child_label(c, sentence) for c in children]
    return replace(node, children=children, head_child=rules.head_child(node.label, labels))


def assign_heads(tree: ConstTree, rules: HeadRules) -> ConstTree:
    """Return a copy of tree with head_child set on every internal node."""
    root = _assign(tree.root, rules, tree.sentence)
    assert isinstance(root, Internal)
    return ConstTree(tree.sentence, root)
