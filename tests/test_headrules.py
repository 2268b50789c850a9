import numpy as np
import pytest

from shiftparse.headrules import HeadRules, assign_heads
from shiftparse.trees import Internal, Leaf, iter_internal, read_brackets
from shiftparse import synth

EXAMPLE_BRACKETS = "(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))"

RULES_TEXT = """
# test table
DEFAULT left-to-right
S right-to-left VP
VP left-to-right VBP VBD VB
NP right-to-left NN NNS NNP
"""


def test_example_tree_heads():
    [tree] = read_brackets(EXAMPLE_BRACKETS)
    rules = HeadRules.from_text(RULES_TEXT)
    annotated = assign_heads(tree, rules)
    s = annotated.root
    assert s.label == "S" and s.head_child == 1          # S -> VP
    vp = s.children[1]
    assert vp.head_child == 0                            # VP -> like
    np_subj = s.children[0]
    assert np_subj.head_child == 0                       # single child
    np_obj = vp.children[1]
    assert np_obj.head_child == 0


def test_single_child_ignores_rules():
    rules = HeadRules.from_text("DEFAULT right-to-left\n")
    [tree] = read_brackets("(NP (NN dog))")
    assert assign_heads(tree, rules).root.head_child == 0


def test_default_rule_leftmost_when_nothing_matches():
    rules = HeadRules.from_text("DEFAULT left-to-right\nX left-to-right ZZZ\n")
    [tree] = read_brackets("(X (AA a) (BB b) (CC c))")
    assert assign_heads(tree, rules).root.head_child == 0
    # and rightmost under a right-to-left default
    rules_r = HeadRules.from_text("DEFAULT right-to-left\n")
    [tree2] = read_brackets("(Y (AA a) (BB b))")
    assert assign_heads(tree2, rules_r).root.head_child == 1


def test_priority_order_beats_position():
    # priority-major scan: VB wins over the earlier NN
    rules = HeadRules.from_text("VP left-to-right VB NN\n")
    [tree] = read_brackets("(VP (NN dog) (VB runs))")
    assert assign_heads(tree, rules).root.head_child == 1


def test_direction_controls_scan():
    rules_lr = HeadRules.from_text("X left-to-right NN\n")
    rules_rl = HeadRules.from_text("X right-to-left NN\n")
    [tree] = read_brackets("(X (NN a) (VB v) (NN b))")
    assert assign_heads(tree, rules_lr).root.head_child == 0
    assert assign_heads(tree, rules_rl).root.head_child == 2


def test_assignment_total_and_deterministic():
    rng = np.random.default_rng(23)
    rules = HeadRules.bundled()
    for _ in range(50):
        tree = synth.random_const_tree(rng, int(rng.integers(2, 15)))
        bare = tree.__class__(tree.sentence, _strip(tree.root))
        once = assign_heads(bare, rules)
        twice = assign_heads(bare, rules)
        assert once == twice
        for node in iter_internal(once.root):
            assert node.head_child is not None


def _strip(node):
    if isinstance(node, Leaf):
        return node
    return Internal(node.label, tuple(_strip(c) for c in node.children), None)


def test_bundled_table_loads():
    rules = HeadRules.bundled()
    assert "VP" in rules.rules
    assert rules.default.direction == "left-to-right"


def test_rule_file_errors():
    with pytest.raises(ValueError, match="direction"):
        HeadRules.from_text("VP sideways VB\n")
    with pytest.raises(ValueError, match="LABEL"):
        HeadRules.from_text("VP\n")


def test_rule_file_lines_are_numbered_as_in_the_file():
    # \x0c, \x1c and \x85 end lines for str.splitlines() but not in a file
    for space in ("\x0c", "\x1c", "\x85", "\u2028"):
        with pytest.raises(ValueError, match="^line 3: unknown direction 'sideways'"):
            HeadRules.from_text("NP right-to-left NN%s\r\nS left-to-right VP\rVP sideways VB\n"
                                % space)


def test_matches_leaf_tags_and_internal_labels():
    rules = HeadRules.from_text("S left-to-right VP\nVP left-to-right VBP\n")
    [tree] = read_brackets("(S (NP (NN a)) (VP (VBP runs)))")
    annotated = assign_heads(tree, rules)
    assert annotated.root.head_child == 1   # internal child matched by label
    assert annotated.root.children[1].head_child == 0
