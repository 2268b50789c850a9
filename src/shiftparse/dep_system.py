"""The arc-standard dependency transition system.

A configuration is (stack of head indices, queue start j, arc set, step
count). Shift pushes j; ReduceLeft pops the second-topmost item s1 and
attaches it under the top s0; ReduceRight pops s0 and attaches it under
s1. Every derivation of an n-word sentence takes exactly 2n-1 actions and
ends with one item on the stack, which attaches to ROOT.

States are immutable; apply returns a new state, so decoding different
sentences in parallel is safe.

It also holds what both systems share: the Action base class (DepAction
and ConstAction are each just a table of kinds), the action-dump writer and
reader, and the IllegalAction and NotDerivable errors.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

from .trees import ROOT, DepTree, Sentence

SHIFT = "shift"
LEFT = "left"
RIGHT = "right"


class IllegalAction(ValueError):
    """An action whose precondition does not hold in the given state."""


class NotDerivable(ValueError):
    """The gold structure cannot be produced by the transition system."""


@dataclass(frozen=True, init=False)
class Action:
    """A transition: a structural kind, plus a label for the kinds that
    carry one. A subclass declares its system's inventory as TEXT, which maps
    each kind, in structure-head order, to its dump text; the text of a
    labeled kind ends in ':' and the label follows it. LABELED, which says
    per kind whether it carries a label, derives from TEXT."""

    kind: str
    label: Optional[str] = None

    TEXT: ClassVar[dict[str, str]] = {}
    LABELED: ClassVar[dict[str, bool]] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.LABELED = {kind: text.endswith(":") for kind, text in cls.TEXT.items()}

    # written out, not generated with a __post_init__ check: an action is
    # built per oracle action and per decode step, and this is the cheaper
    def __init__(self, kind: str, label: Optional[str] = None):
        if self.LABELED.get(kind) is not (label is not None):
            name = type(self).__name__
            if kind not in self.LABELED:
                raise ValueError("unknown %s kind %r" % (name, kind))
            raise ValueError("%s %r %s" % (name, kind, "needs a label" if label is None
                                           else "carries no label"))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)

    def __str__(self) -> str:
        return self.TEXT[self.kind] + (self.label or "")

    @classmethod
    def parse(cls, text: str):
        head, colon, label = text.partition(":")
        for kind, kind_text in cls.TEXT.items():
            if kind_text == head + colon:
                return cls(kind, label if colon else None)
        raise ValueError("cannot parse %s %r" % (cls.__name__, text))


class DepAction(Action):
    TEXT = {SHIFT: "SHIFT", LEFT: "LEFT:", RIGHT: "RIGHT:"}


@dataclass(frozen=True)
class DepState:
    n: int
    stack: tuple[int, ...]
    j: int
    arcs: tuple[tuple[int, int, str], ...]
    step: int

    @property
    def is_terminal(self) -> bool:
        return self.j == self.n and len(self.stack) == 1


def dep_initial(n: int) -> DepState:
    if n < 1:
        raise ValueError("sentence length must be at least 1")
    return DepState(n=n, stack=(), j=0, arcs=(), step=0)


def dep_legal(state: DepState) -> set[str]:
    legal = set()
    if state.j < state.n:
        legal.add(SHIFT)
    if len(state.stack) >= 2:
        legal.add(LEFT)
        legal.add(RIGHT)
    return legal


def dep_apply(state: DepState, action: DepAction) -> DepState:
    if action.kind == SHIFT:
        if state.j >= state.n:
            raise IllegalAction("shift requires j < n (queue is empty)")
        return DepState(state.n, state.stack + (state.j,), state.j + 1,
                        state.arcs, state.step + 1)
    if len(state.stack) < 2:
        raise IllegalAction("reduce requires at least two stack items")
    s0, s1 = state.stack[-1], state.stack[-2]
    if action.kind == LEFT:
        arc = (s0, s1, action.label)     # s1 becomes a dependent of s0
        new_stack = state.stack[:-2] + (s0,)
    else:
        arc = (s1, s0, action.label)     # s0 becomes a dependent of s1
        new_stack = state.stack[:-1]
    return DepState(state.n, new_stack, state.j, state.arcs + (arc,), state.step + 1)


def dep_oracle(tree: DepTree) -> list[DepAction]:
    """The static arc-standard oracle.

    At each state: ReduceLeft if s1 is a gold dependent of s0 and s1 has
    collected all its gold children; else ReduceRight under the mirrored
    condition; else Shift. Delaying a reduce until the dependent is complete
    is what makes the sequence replay to exactly the gold tree. Only
    projective trees are derivable.
    """
    if not tree.is_projective:
        raise NotDerivable("tree is not projective; arc-standard cannot derive it")
    n = len(tree)
    heads = tree.heads
    labels = tree.labels
    n_children = [0] * n
    for h in heads:
        if h != ROOT:
            n_children[h] += 1
    collected = [0] * n

    actions: list[DepAction] = []
    stack: list[int] = []
    j = 0
    while not (j == n and len(stack) == 1):
        did_reduce = False
        if len(stack) >= 2:
            s0, s1 = stack[-1], stack[-2]
            if heads[s1] == s0 and collected[s1] == n_children[s1]:
                actions.append(DepAction(LEFT, labels[s1]))
                stack.pop(-2)
                collected[s0] += 1
                did_reduce = True
            elif heads[s0] == s1 and collected[s0] == n_children[s0]:
                actions.append(DepAction(RIGHT, labels[s0]))
                stack.pop()
                collected[s1] += 1
                did_reduce = True
        if not did_reduce:
            if j >= n:
                raise NotDerivable("oracle is stuck; tree is not derivable")
            actions.append(DepAction(SHIFT))
            stack.append(j)
            j += 1
    return actions


def dep_replay(sentence: Sentence, actions: Iterable[DepAction],
               root_label: str = "root") -> DepTree:
    """Apply an action sequence and return the resulting tree.

    The single remaining stack item attaches to ROOT. Gold oracle sequences
    do not encode the root arc's label, so it is supplied here.
    """
    n = len(sentence)
    state = dep_initial(n)
    for action in actions:
        state = dep_apply(state, action)
    if not state.is_terminal:
        raise IllegalAction(
            "non-terminal final state: j=%d/%d, stack size %d" % (state.j, n, len(state.stack)))
    assert state.step == 2 * n - 1
    arcs = set(state.arcs)
    arcs.add((ROOT, state.stack[0], root_label))
    return DepTree(sentence, frozenset(arcs))


def write_actions(sequences: Iterable[Iterable[Action]]) -> str:
    """One action per line, blank line between sentences."""
    blocks = ["\n".join(str(a) for a in seq) for seq in sequences]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def read_actions(text: str, action_cls: type[Action]) -> list[list[Action]]:
    """The action sequences of a dump: one action per line, and a sentence
    ends at every line that is empty after stripping. An action that does
    not parse is a ValueError whose message starts with its 1-based line."""
    sequences: list[list[Action]] = [[]]
    for number, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line:
            if sequences[-1]:
                sequences.append([])
            continue
        try:
            sequences[-1].append(action_cls.parse(line))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (number, exc)) from None
    return [seq for seq in sequences if seq]
