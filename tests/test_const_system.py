import numpy as np
import pytest

from shiftparse.const_system import (C_ADJ_LEFT, C_ADJ_RIGHT, C_PROMOTE,
                                     C_SHIFT, ConstAction, IllegalAction,
                                     NotDerivable, const_apply, const_initial,
                                     const_legal, const_oracle, const_replay)
from shiftparse.dep_system import read_actions, write_actions
from shiftparse.headrules import HeadRules, assign_heads
from shiftparse.trees import (ConstTree, Internal, Leaf, Sentence,
                              iter_internal, read_brackets)
from shiftparse import synth

SH = ConstAction(C_SHIFT)
AL = ConstAction(C_ADJ_LEFT)
AR = ConstAction(C_ADJ_RIGHT)


def pro(label):
    return ConstAction(C_PROMOTE, label)


RULES = HeadRules.from_text(
    "DEFAULT left-to-right\nS right-to-left VP\nVP left-to-right VBP\nNP right-to-left NNS NN PRP\n")

# the 9-action example sequence: shift I, promote NP, shift like, promote VP,
# shift sports, promote NP, adjoin right, promote S, adjoin left
EXAMPLE_SEQUENCE = [SH, pro("NP"), SH, pro("VP"), SH, pro("NP"), AR, pro("S"), AL]


def example_tree():
    [tree] = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))")
    return assign_heads(tree, RULES)


def apply_all(state, actions):
    for action in actions:
        state = const_apply(state, action)
    return state


def test_legal_shift_promote_on_single_leaf():
    state = apply_all(const_initial(1), [SH])
    assert const_legal(state) == {C_PROMOTE}
    state3 = apply_all(const_initial(3), [SH])
    assert const_legal(state3) == {C_SHIFT, C_PROMOTE}


def test_legal_two_internals():
    # enumerate the rule preconditions on [NP(I), S(VP(...))] with an empty
    # queue: shift is out (j=n), promote is in (|S|>=1), adj-left needs an
    # internal s0, adj-right an internal s1; both hold
    state = apply_all(const_initial(3), EXAMPLE_SEQUENCE[:8])  # [NP(I), S(VP(like, NP(sports)))]
    assert state.j == state.n
    assert const_legal(state) == {C_PROMOTE, C_ADJ_LEFT, C_ADJ_RIGHT}


def test_legal_two_bare_leaves():
    state = apply_all(const_initial(2), [SH, SH])
    assert const_legal(state) == {C_PROMOTE}  # neither adjoining target is internal


def test_apply_adjoin_right_completed_sister():
    state = apply_all(const_initial(3), EXAMPLE_SEQUENCE[:6])
    # stack is [NP(I), VP(like), NP(sports)]
    assert [e.node.label for e in state.stack] == ["NP", "VP", "NP"]
    after = const_apply(state, AR)
    assert [e.node.label for e in after.stack] == ["NP", "VP"]
    vp = after.stack[-1].node
    assert vp.label == "VP" and len(vp.children) == 2
    assert isinstance(vp.children[0], Leaf)          # like stays the head child
    assert vp.children[1].label == "NP"
    assert vp.head_child == 0


def test_apply_adjoin_left_waiting_sister():
    state = apply_all(const_initial(3), EXAMPLE_SEQUENCE[:8])
    after = const_apply(state, AL)
    assert len(after.stack) == 1
    s = after.stack[0].node
    assert s.label == "S"
    assert [c.label for c in s.children] == ["NP", "VP"]
    assert s.head_child == 1                          # VP stays the head child


def test_apply_promote_wraps_leaf():
    state = apply_all(const_initial(3), EXAMPLE_SEQUENCE[:5])
    assert isinstance(state.stack[-1].node, Leaf)
    after = const_apply(state, pro("NP"))
    node = after.stack[-1].node
    assert node.label == "NP" and node.head_child == 0
    assert isinstance(node.children[0], Leaf)


def test_apply_rejects_illegal():
    with pytest.raises(IllegalAction, match="stack item"):
        const_apply(const_initial(2), pro("NP"))
    with pytest.raises(IllegalAction, match="j < n"):
        const_apply(apply_all(const_initial(1), [SH]), SH)
    two_leaves = apply_all(const_initial(2), [SH, SH])
    with pytest.raises(IllegalAction, match="adjoin-left"):
        const_apply(two_leaves, AL)
    with pytest.raises(IllegalAction, match="adjoin-right"):
        const_apply(two_leaves, AR)


def test_oracle_example_sequence():
    assert const_oracle(example_tree()) == EXAMPLE_SEQUENCE


def test_oracle_unary_chain():
    tree = ConstTree(Sentence.from_pairs([("sports", "NNS")]),
                     Internal("NP", (Internal("NP", (Leaf(0),), 0),), 0))
    assert const_oracle(tree) == [SH, pro("NP"), pro("NP")]


def test_oracle_ternary_hand_simulation():
    # X(a, h, b) with head h: derive a (stays), derive h, promote X,
    # derive b and adjoin right, then one adjoin left for a
    tree = ConstTree(Sentence.from_pairs([("a", "A"), ("h", "H"), ("b", "B")]),
                     Internal("X", (Leaf(0), Leaf(1), Leaf(2)), 1))
    assert const_oracle(tree) == [SH, SH, pro("X"), SH, AR, AL]


def test_oracle_requires_heads():
    tree = ConstTree(Sentence.from_pairs([("a", "A"), ("b", "B")]),
                     Internal("X", (Leaf(0), Leaf(1)), None))
    with pytest.raises(NotDerivable, match="head"):
        const_oracle(tree)


def test_replay_example_roundtrip():
    tree = example_tree()
    assert const_replay(tree.sentence, EXAMPLE_SEQUENCE) == tree


def test_replay_bare_leaf_error():
    sentence = Sentence.from_pairs([("hi", "UH")])
    with pytest.raises(IllegalAction, match="bare leaf"):
        const_replay(sentence, [SH])


def test_replay_nonterminal_error():
    sentence = Sentence.from_pairs([("a", "A"), ("b", "B")])
    with pytest.raises(IllegalAction, match="non-terminal"):
        const_replay(sentence, [SH, pro("X")])


def test_roundtrip_property_random_trees():
    rng = np.random.default_rng(41)
    for _ in range(300):
        tree = synth.random_const_tree(rng, int(rng.integers(2, 31)))
        actions = const_oracle(tree)
        assert const_replay(tree.sentence, actions) == tree


def test_action_count_formula():
    rng = np.random.default_rng(43)
    for _ in range(100):
        tree = synth.random_const_tree(rng, int(rng.integers(2, 20)))
        internal = list(iter_internal(tree.root))
        expected = len(tree) + len(internal) + sum(len(v.children) - 1 for v in internal)
        assert len(const_oracle(tree)) == expected


def test_gold_sequences_respect_legality_and_spans():
    rng = np.random.default_rng(47)
    for _ in range(100):
        tree = synth.random_const_tree(rng, int(rng.integers(2, 20)))
        state = const_initial(len(tree))
        for action in const_oracle(tree):
            assert action.kind in const_legal(state)
            state = const_apply(state, action)
            spans = [(e.span_left, e.span_right) for e in state.stack]
            # stack spans stay contiguous, adjacent, and ordered
            for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
                assert r1 + 1 == l2
            if spans:
                assert spans[0][0] == 0 and spans[-1][1] == state.j - 1
        assert state.is_terminal


def test_promote_cap_masks_runaway_promotes():
    state = apply_all(const_initial(1), [SH, pro("A"), pro("B"), pro("C")])
    assert state.stack[-1].promote_run == 3
    assert C_PROMOTE not in const_legal(state, promote_cap=3)
    assert C_PROMOTE in const_legal(state, promote_cap=4)
    # adjunction resets the run
    fresh = apply_all(const_initial(2), [SH, pro("A"), pro("B"), pro("C"), SH, AR])
    assert fresh.stack[-1].promote_run == 0
    assert C_PROMOTE in const_legal(fresh, promote_cap=3)


def test_forced_promote_when_last_item_is_leaf():
    state = apply_all(const_initial(1), [SH])
    assert state.j == state.n and len(state.stack) == 1
    assert const_legal(state) == {C_PROMOTE}


def test_coderived_dependencies():
    tree = example_tree()
    _ctree, dtree = const_replay(tree.sentence, EXAMPLE_SEQUENCE, with_dependencies=True)
    # like heads both I and sports, and attaches to ROOT
    assert dtree.head_of(0) == 1
    assert dtree.head_of(2) == 1
    assert dtree.head_of(1) == -1


def test_action_text_format():
    text = write_actions([EXAMPLE_SEQUENCE])
    lines = text.strip().splitlines()
    assert lines == ["SHIFT", "PRO:NP", "SHIFT", "PRO:VP", "SHIFT", "PRO:NP",
                     "ADJ-R", "PRO:S", "ADJ-L"]
    assert read_actions(text, ConstAction) == [EXAMPLE_SEQUENCE]


def test_action_validation():
    with pytest.raises(ValueError):
        ConstAction(C_PROMOTE)
    with pytest.raises(ValueError):
        ConstAction(C_SHIFT, "NP")
    with pytest.raises(ValueError):
        ConstAction.parse("NOPE")
