"""The shift-promote-adjoin constituency transition system.

Shift moves the next word onto the stack as a bare leaf. Promote(X) wraps
the stack top in a new X node whose sole child is the promoted item (its
head child). AdjLeft pops the item below the top and prepends it to the
top's children; AdjRight pops the top and appends it to the children of
the item below. Only Promote creates nodes, so k-ary trees and unary
chains need no binarization: a node with c children costs one Promote and
c-1 adjunctions.

The oracle is head-driven: a node is promoted from its head child only,
after all left sisters are already complete on the stack; right sisters
are adjoined as they complete, left sisters afterwards. Because the head
child is always the first-attached child, a dependency tree falls out of
the same derivation (each adjunction attaches the sister's head word under
the parent's head word); replay exposes it on request.

Promote legality carries a cap on consecutive promotes of the same item
so that greedy decoding cannot loop; the cap is a decode-time device and
apply() itself only checks structural preconditions, which keeps gold
sequences with unusually deep unary chains replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .dep_system import Action, IllegalAction, NotDerivable
from .trees import ROOT, ConstNode, ConstTree, DepTree, Internal, Leaf, Sentence

C_SHIFT = "shift"
C_PROMOTE = "promote"
C_ADJ_LEFT = "adjleft"
C_ADJ_RIGHT = "adjright"

DEFAULT_PROMOTE_CAP = 3


class ConstAction(Action):
    TEXT = {C_SHIFT: "SHIFT", C_PROMOTE: "PRO:", C_ADJ_LEFT: "ADJ-L", C_ADJ_RIGHT: "ADJ-R"}


@dataclass(frozen=True)
class StackEntry:
    """A partial tree on the stack plus the bookkeeping features need.

    head_index is the lexical head word (promotes preserve it, adjunctions
    keep the target's); span_left/span_right bound the covered words;
    promote_run counts consecutive promotes since the last shift or
    adjunction of this item.
    """

    node: ConstNode
    head_index: int
    span_left: int
    span_right: int
    promote_run: int

    @property
    def is_internal(self) -> bool:
        return isinstance(self.node, Internal)


@dataclass(frozen=True)
class ConstState:
    n: int
    stack: tuple[StackEntry, ...]
    j: int
    step: int

    @property
    def is_terminal(self) -> bool:
        return self.j == self.n and len(self.stack) == 1 and self.stack[0].is_internal


def const_initial(n: int) -> ConstState:
    if n < 1:
        raise ValueError("sentence length must be at least 1")
    return ConstState(n=n, stack=(), j=0, step=0)


def const_legal(state: ConstState, promote_cap: int = DEFAULT_PROMOTE_CAP) -> set[str]:
    legal = set()
    if state.j < state.n:
        legal.add(C_SHIFT)
    if len(state.stack) >= 1 and state.stack[-1].promote_run < promote_cap:
        legal.add(C_PROMOTE)
    if len(state.stack) >= 2:
        if state.stack[-1].is_internal:
            legal.add(C_ADJ_LEFT)
        if state.stack[-2].is_internal:
            legal.add(C_ADJ_RIGHT)
    return legal


def const_apply(state: ConstState, action: ConstAction) -> ConstState:
    stack = state.stack
    if action.kind == C_SHIFT:
        if state.j >= state.n:
            raise IllegalAction("shift requires j < n (queue is empty)")
        entry = StackEntry(Leaf(state.j), state.j, state.j, state.j, 0)
        return ConstState(state.n, stack + (entry,), state.j + 1, state.step + 1)
    if action.kind == C_PROMOTE:
        if not stack:
            raise IllegalAction("promote requires a stack item")
        top = stack[-1]
        node = Internal(action.label, (top.node,), head_child=0)
        entry = StackEntry(node, top.head_index, top.span_left, top.span_right,
                           top.promote_run + 1)
        return ConstState(state.n, stack[:-1] + (entry,), state.j, state.step + 1)
    if len(stack) < 2:
        raise IllegalAction("adjoin requires two stack items")
    if action.kind == C_ADJ_LEFT:
        sister, target = stack[-2], stack[-1]
        if not target.is_internal:
            raise IllegalAction("adjoin-left requires the stack top to be a constituent")
        node = replace(target.node, children=(sister.node,) + target.node.children,
                       head_child=target.node.head_child + 1)
        entry = StackEntry(node, target.head_index, sister.span_left,
                           target.span_right, 0)
    else:
        target, sister = stack[-2], stack[-1]
        if not target.is_internal:
            raise IllegalAction("adjoin-right requires the item below the top to be a constituent")
        node = replace(target.node, children=target.node.children + (sister.node,))
        entry = StackEntry(node, target.head_index, target.span_left,
                           sister.span_right, 0)
    return ConstState(state.n, stack[:-2] + (entry,), state.j, state.step + 1)


def const_oracle(tree: ConstTree) -> list[ConstAction]:
    """Gold action sequence for a head-annotated tree.

    For a node with children c_1..c_k and head child c_h: derive the left
    sisters c_1..c_{h-1} (they stay on the stack), derive c_h, promote,
    then derive-and-adjoin each right sister, then adjoin the h-1 waiting
    left sisters.
    """
    actions: list[ConstAction] = []

    def emit(node: ConstNode):
        if isinstance(node, Leaf):
            actions.append(ConstAction(C_SHIFT))
            return
        if node.head_child is None:
            raise NotDerivable("internal node %r has no head annotation" % node.label)
        h = node.head_child
        for child in node.children[:h]:
            emit(child)
        emit(node.children[h])
        actions.append(ConstAction(C_PROMOTE, node.label))
        for child in node.children[h + 1:]:
            emit(child)
            actions.append(ConstAction(C_ADJ_RIGHT))
        for _ in range(h):
            actions.append(ConstAction(C_ADJ_LEFT))

    emit(tree.root)
    return actions


def _coderived_arcs(node: ConstNode) -> tuple[int, list[tuple[int, int, str]]]:
    """Head word of node plus dependency arcs implied by its adjunctions."""
    if isinstance(node, Leaf):
        return node.index, []
    arcs: list[tuple[int, int, str]] = []
    heads = []
    for child in node.children:
        head, sub = _coderived_arcs(child)
        heads.append(head)
        arcs.extend(sub)
    own = heads[node.head_child]
    for i, head in enumerate(heads):
        if i != node.head_child:
            arcs.append((own, head, "dep"))
    return own, arcs


def const_replay(sentence: Sentence, actions: Iterable[ConstAction],
                 with_dependencies: bool = False):
    """Apply an action sequence; return the tree (optionally plus the
    co-derived dependency tree)."""
    n = len(sentence)
    state = const_initial(n)
    for action in actions:
        state = const_apply(state, action)
    if state.j < n or len(state.stack) != 1:
        raise IllegalAction(
            "non-terminal final state: j=%d/%d, stack size %d" % (state.j, n, len(state.stack)))
    top = state.stack[0]
    if not top.is_internal:
        raise IllegalAction("final item is a bare leaf; the root must be a constituent")
    tree = ConstTree(sentence, top.node)
    if not with_dependencies:
        return tree
    root_word, arcs = _coderived_arcs(top.node)
    arcs.append((ROOT, root_word, "dep"))
    return tree, DepTree(sentence, frozenset(arcs))

