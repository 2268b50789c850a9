import numpy as np
import pytest

from shiftparse.dep_system import (LEFT, RIGHT, SHIFT, DepAction, IllegalAction,
                                   NotDerivable, dep_apply, dep_initial,
                                   dep_legal, dep_oracle, dep_replay,
                                   read_actions, write_actions)
from shiftparse.trees import ROOT, DepTree, Sentence
from shiftparse import synth

I_LIKE_SPORTS = Sentence.from_pairs([("I", "PRP"), ("like", "VBP"), ("sports", "NNS")])
GOLD = DepTree(I_LIKE_SPORTS, frozenset({(1, 0, "nsubj"), (ROOT, 1, "root"), (1, 2, "dobj")}))

# hand-simulation of the arc-standard rules on the example:
#   [] 0         -> shift I
#   [I] 1        -> shift like
#   [I like] 2   -> I depends on like and has no children -> reduce-left
#   [like] 2     -> shift sports
#   [like sports]-> sports depends on like, childless -> reduce-right
HAND_SEQUENCE = [DepAction(SHIFT), DepAction(SHIFT), DepAction(LEFT, "nsubj"),
                 DepAction(SHIFT), DepAction(RIGHT, "dobj")]


def test_initial_state():
    state = dep_initial(3)
    assert state.stack == () and state.j == 0 and state.arcs == () and state.step == 0
    assert dep_initial(1).n == 1
    assert not dep_initial(1).is_terminal  # still needs one shift
    with pytest.raises(ValueError):
        dep_initial(0)


def test_legal_sets():
    state = dep_initial(2)
    assert dep_legal(state) == {SHIFT}
    both = dep_apply(dep_apply(state, DepAction(SHIFT)), DepAction(SHIFT))
    assert both.stack == (0, 1) and both.j == 2
    assert dep_legal(both) == {LEFT, RIGHT}
    terminal = dep_apply(both, DepAction(RIGHT, "dep"))
    assert terminal.is_terminal
    assert dep_legal(terminal) == set()


def test_apply_reduce_left():
    state = dep_apply(dep_apply(dep_initial(3), DepAction(SHIFT)), DepAction(SHIFT))
    out = dep_apply(state, DepAction(LEFT, "nsubj"))
    assert out.stack == (1,)
    assert (1, 0, "nsubj") in out.arcs
    assert out.step == state.step + 1


def test_apply_reduce_right():
    state = dep_apply(dep_apply(dep_initial(2), DepAction(SHIFT)), DepAction(SHIFT))
    out = dep_apply(state, DepAction(RIGHT, "dobj"))
    assert out.stack == (0,)
    assert (0, 1, "dobj") in out.arcs


def test_apply_single_token_terminates():
    state = dep_apply(dep_initial(1), DepAction(SHIFT))
    assert state.is_terminal
    assert state.step == 1 == 2 * 1 - 1


def test_apply_rejects_illegal():
    with pytest.raises(IllegalAction, match="two stack items"):
        dep_apply(dep_initial(2), DepAction(LEFT, "x"))
    terminal = dep_apply(dep_initial(1), DepAction(SHIFT))
    with pytest.raises(IllegalAction, match="j < n"):
        dep_apply(terminal, DepAction(SHIFT))


def test_oracle_hand_example():
    assert dep_oracle(GOLD) == HAND_SEQUENCE


def test_oracle_single_token():
    tree = DepTree(Sentence.from_pairs([("hi", "UH")]), frozenset({(ROOT, 0, "root")}))
    assert dep_oracle(tree) == [DepAction(SHIFT)]


def test_oracle_rejects_crossing_arcs():
    sentence = Sentence.from_pairs([("a", "A"), ("b", "B"), ("c", "C")])
    crossing = DepTree.from_heads(sentence, [2, ROOT, 1], ["dep", "root", "dep"])
    with pytest.raises(NotDerivable):
        dep_oracle(crossing)


def test_replay_roundtrip_hand_example():
    assert dep_replay(I_LIKE_SPORTS, HAND_SEQUENCE) == GOLD


def test_replay_single_shift():
    sentence = Sentence.from_pairs([("hi", "UH")])
    tree = dep_replay(sentence, [DepAction(SHIFT)])
    assert tree.head_of(0) == ROOT


def test_replay_nonterminal_final_state():
    sentence = Sentence.from_pairs([("a", "A"), ("b", "B")])
    with pytest.raises(IllegalAction, match="non-terminal"):
        dep_replay(sentence, [DepAction(SHIFT), DepAction(SHIFT)])


def test_roundtrip_property_random_trees():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 41))
        tree = synth.random_projective_tree(rng, n)
        actions = dep_oracle(tree)
        assert len(actions) == 2 * n - 1
        assert dep_replay(tree.sentence, actions) == tree


def test_step_accounting_invariant():
    # each action moves step by one; reduces shrink |stack| + queue-left by
    # one while shifts keep it constant
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        tree = synth.random_projective_tree(rng, n)
        state = dep_initial(n)
        for action in dep_oracle(tree):
            assert action.kind in dep_legal(state)
            succ = dep_apply(state, action)
            assert succ.step == state.step + 1
            before = len(state.stack) + (n - state.j)
            after = len(succ.stack) + (n - succ.j)
            if action.kind == SHIFT:
                assert after == before and succ.j == state.j + 1
            else:
                assert after == before - 1
            state = succ
        assert state.is_terminal


def test_action_text_format():
    text = write_actions([HAND_SEQUENCE, [DepAction(SHIFT)]])
    assert text.splitlines()[0] == "SHIFT"
    assert "LEFT:nsubj" in text and "RIGHT:dobj" in text
    assert read_actions(text, DepAction) == [HAND_SEQUENCE, [DepAction(SHIFT)]]


def test_action_dump_error_names_its_line():
    with pytest.raises(ValueError, match=r"^line 3: cannot parse DepAction 'BOGUS'"):
        read_actions("SHIFT\nSHIFT\nBOGUS\nLEFT:x\n", DepAction)


def test_action_dump_crlf_blank_line_ends_sentence():
    text = write_actions([HAND_SEQUENCE, [DepAction(SHIFT)]]).replace("\n", "\r\n")
    assert read_actions(text, DepAction) == [HAND_SEQUENCE, [DepAction(SHIFT)]]


def test_action_dump_lines_are_numbered_as_in_the_file():
    # a label may hold characters that end lines for str.splitlines() only
    text = "SHIFT\nSHIFT\nLEFT:a\x0cb\x1cc\x85d\u2028e\nBOGUS\n"
    with pytest.raises(ValueError, match=r"^line 4: cannot parse DepAction 'BOGUS'"):
        read_actions(text, DepAction)
    [actions] = read_actions(text.replace("BOGUS\n", "SHIFT\n"), DepAction)
    assert actions[2] == DepAction(LEFT, "a\x0cb\x1cc\x85d\u2028e")


def test_action_validation():
    with pytest.raises(ValueError):
        DepAction(SHIFT, "label")
    with pytest.raises(ValueError):
        DepAction(LEFT)
    with pytest.raises(ValueError):
        DepAction.parse("BOGUS")
