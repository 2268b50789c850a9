import numpy as np
import pytest

from shiftparse.trees import (ROOT, ConstTree, DepTree, Internal, Leaf,
                              Sentence, Token, TreeReadError, leaf_indices,
                              read_brackets, read_conll, read_tagged_text,
                              write_brackets, write_conll)
from shiftparse import synth

TWO_LINE_BLOCK = """1\tI\t_\t_\tPRP\t_\t2\tnsubj\t_\t_
2\tlike\t_\t_\tVBP\t_\t0\troot\t_\t_
"""

EXAMPLE_BRACKETS = "(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))"


def has_cycle_by_traversal(heads):
    """Independent oracle: walk up from every token, flag revisits."""
    for start in range(len(heads)):
        seen = set()
        node = start
        while node != ROOT:
            if node in seen:
                return True
            seen.add(node)
            node = heads[node]
    return False


def test_read_conll_two_line_block():
    trees = read_conll(TWO_LINE_BLOCK)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.sentence.forms == ("I", "like")
    assert tree.sentence.tags == ("PRP", "VBP")
    assert tree.arcs == frozenset({(1, 0, "nsubj"), (ROOT, 1, "root")})


def test_read_conll_empty_stream():
    assert read_conll("") == []
    assert read_conll("\n\n") == []


def test_read_conll_cycle_error():
    block = "1\ta\t_\t_\tDT\t_\t2\tdep\t_\t_\n2\tb\t_\t_\tNN\t_\t1\tdep\t_\t_\n"
    # the traversal oracle agrees this is cyclic
    assert has_cycle_by_traversal([1, 0])
    with pytest.raises(TreeReadError, match="cycle"):
        read_conll(block)


def test_read_conll_errors_name_lines():
    with pytest.raises(TreeReadError, match="line 1"):
        read_conll("1\ta\t_\t_\tDT\t_\t9\tdep\t_\t_\n")
    with pytest.raises(TreeReadError, match="columns"):
        read_conll("1\ta\tDT\n")
    dup = "1\ta\t_\t_\tDT\t_\t0\troot\t_\t_\n1\tb\t_\t_\tNN\t_\t1\tdep\t_\t_\n"
    with pytest.raises(TreeReadError, match="duplicate|1..n"):
        read_conll(dup)


def test_read_conll_rejects_multiple_roots():
    block = ("1\ta\t_\t_\tDT\t_\t0\troot\t_\t_\n"
             "2\tb\t_\t_\tNN\t_\t0\troot\t_\t_\n")
    with pytest.raises(TreeReadError, match="root"):
        read_conll(block)


def test_read_conll_allow_missing_heads():
    block = "1\ta\t_\t_\tDT\t_\t_\t_\t_\t_\n2\tb\t_\t_\tNN\t_\t_\t_\t_\t_\n"
    sentences = read_conll(block, allow_missing_heads=True)
    assert len(sentences) == 1
    assert sentences[0].forms == ("a", "b")


def test_conll_roundtrip_random_trees():
    rng = np.random.default_rng(11)
    trees = [synth.random_projective_tree(rng, int(rng.integers(1, 15)))
             for _ in range(50)]
    again = read_conll(write_conll(trees))
    assert again == trees


def test_read_brackets_example_tree():
    [tree] = read_brackets(EXAMPLE_BRACKETS)
    internals = [n.label for n in _walk_internal(tree.root)]
    assert sorted(internals) == ["NP", "NP", "S", "VP"]
    assert tree.sentence.forms == ("I", "like", "sports")
    assert tree.sentence.tags == ("PRP", "VBP", "NNS")
    # preterminals are absorbed: the NP over "I" directly covers a leaf
    np_node = tree.root.children[0]
    assert np_node.label == "NP"
    assert isinstance(np_node.children[0], Leaf)


def _walk_internal(node):
    if isinstance(node, Internal):
        yield node
        for child in node.children:
            yield from _walk_internal(child)


def test_read_brackets_single_unary():
    [tree] = read_brackets("(NP (NN dog))")
    assert tree.root.label == "NP"
    assert isinstance(tree.root.children[0], Leaf)
    assert tree.sentence.forms == ("dog",)


def test_read_brackets_unbalanced():
    with pytest.raises(TreeReadError, match="unbalanced|end of input"):
        read_brackets("((S (NP (PRP I))")
    with pytest.raises(TreeReadError, match="unbalanced"):
        read_brackets("(NP (NN dog)))")


def test_read_brackets_empty_constituent():
    with pytest.raises(TreeReadError, match="empty constituent"):
        read_brackets("(NP ())")
    with pytest.raises(TreeReadError, match="empty constituent"):
        read_brackets("()")


def test_read_brackets_wrapper_and_multiline():
    text = "( (S (NP (PRP I))\n     (VP (VBP like)\n         (NP (NNS sports)))) )"
    [tree] = read_brackets(text)
    assert tree.root.label == "S"


def test_brackets_paren_escapes():
    [tree] = read_brackets("(S (NP (NN x)) (PRN (-LRB- -LRB-) (NN y) (-RRB- -RRB-)))")
    assert tree.sentence.forms == ("x", "(", "y", ")")
    assert tree.sentence.tags == ("NN", "-LRB-", "NN", "-RRB-")
    out = write_brackets([tree])
    assert "-LRB- -LRB-" in out
    assert read_brackets(out) == [tree]


def test_brackets_roundtrip_random_trees():
    rng = np.random.default_rng(13)
    trees = []
    for _ in range(50):
        tree = synth.random_const_tree(rng, int(rng.integers(2, 12)))
        trees.append(ConstTree(tree.sentence, _strip_heads(tree.root)))
    again = read_brackets(write_brackets(trees))
    assert again == trees


def _strip_heads(node):
    if isinstance(node, Leaf):
        return node
    return Internal(node.label, tuple(_strip_heads(c) for c in node.children), None)


def test_token_and_sentence_invariants():
    with pytest.raises(ValueError):
        Token("", "NN")
    with pytest.raises(ValueError):
        Token("dog", "")
    with pytest.raises(ValueError):
        Sentence(())


def test_deptree_validation():
    sentence = Sentence.from_pairs([("a", "DT"), ("b", "NN")])
    with pytest.raises(ValueError, match="root"):
        DepTree(sentence, frozenset({(ROOT, 0, "root"), (ROOT, 1, "root")}))
    with pytest.raises(ValueError, match="exactly one head"):
        DepTree(sentence, frozenset({(ROOT, 0, "root")}))
    with pytest.raises(ValueError, match="out of range"):
        DepTree(sentence, frozenset({(ROOT, 0, "root"), (5, 1, "dep")}))


def test_projectivity_flag():
    sentence = Sentence.from_pairs([("a", "DT"), ("b", "NN"), ("c", "VB")])
    crossing = DepTree.from_heads(sentence, [2, ROOT, 1], ["dep", "root", "dep"])
    assert not crossing.is_projective
    chain = DepTree.from_heads(sentence, [1, 2, ROOT], ["dep", "dep", "root"])
    assert chain.is_projective


def test_random_projective_trees_are_valid():
    # generator output is validated with independent checks: single head per
    # token (by construction of DepTree), acyclic (traversal oracle), and
    # each subtree covering a contiguous interval
    rng = np.random.default_rng(17)
    for _ in range(100):
        tree = synth.random_projective_tree(rng, int(rng.integers(2, 30)))
        assert not has_cycle_by_traversal(list(tree.heads))
        for start in range(len(tree)):
            members = _subtree_members(tree.heads, start)
            assert members == set(range(min(members), max(members) + 1))


def _subtree_members(heads, node):
    members = {node}
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(heads):
            if h in members and i not in members:
                members.add(i)
                changed = True
    return members


def test_leaf_indices_order():
    [tree] = read_brackets(EXAMPLE_BRACKETS)
    assert leaf_indices(tree.root) == [0, 1, 2]


def test_read_tagged_text():
    sentences = read_tagged_text("I/PRP like/VBP sports/NNS\n\ndogs/NNS run/VBP\n")
    assert len(sentences) == 2
    assert sentences[0].forms == ("I", "like", "sports")
    assert sentences[1].tags == ("NNS", "VBP")
    with pytest.raises(TreeReadError):
        read_tagged_text("oops\n")


def _row(tok_id, form="w", tag="NN", head="0", label="root"):
    return "\t".join([tok_id, form, "_", "_", tag, "_", head, label, "_", "_"]) + "\n"


GOOD_BLOCK = _row("1", head="2", label="det") + _row("2") + "\n"


@pytest.mark.parametrize("reader, text, line, message", [
    ("conll", GOOD_BLOCK + "1\tw\tNN\n", 4, "expected at least 8 columns, got 3"),
    ("conll", "# c\n" + _row("x"), 2, "token id 'x' is not an integer"),
    ("conll", _row("1") + _row("1", head="1"), 2, "duplicate token id 1"),
    ("conll", _row("1") + _row("3", head="1"), 2, "token ids must run 1..n, got 3"),
    ("conll", _row("1") + _row("2", form="", head="1"), 2, "token form must be non-empty"),
    ("conll", _row("1", tag=""), 1, "token tag must be non-empty"),
    ("conll", GOOD_BLOCK + _row("1", head="x"), 4, "head 'x' is not an integer"),
    ("conll", _row("1") + _row("2", head="3"), 2, "head index 3 out of range 0..2"),
    ("conll", GOOD_BLOCK + _row("1", head="2") + _row("2", head="1"), 4,
     "cycle in head assignments at token 0"),
    ("conll", GOOD_BLOCK + "\n" + _row("1") + _row("2"), 5,
     "expected exactly one root-attached token, got 2"),
    ("conll-missing", _row("1", head="_") + _row("2", head="-1"), 2,
     "head index -1 out of range 0..2"),
    ("brackets", "(S (NN a))\n)", 2, "unbalanced parentheses: unexpected ')'"),
    ("brackets", "(S (NN a))\nS", 2, "expected '(', got 'S'"),
    ("brackets", "(S (NN a))\n" + "(A " * 150 + "(NN a)" + ")" * 150, 2,
     "brackets nested deeper than 150"),
    ("brackets", "(S (NN a)\n  ())", 2, "empty constituent"),
    ("brackets", "(S\n)", 2, "empty constituent"),
    ("brackets", "(S (NN a\n b))", 2, "preterminal 'NN' must cover a single form"),
    ("brackets", "(S (NN a\n (X b)))", 2, "preterminal 'NN' must cover a single form"),
    ("brackets", "(S (NN a\n\n", 1, "preterminal 'NN' must cover a single form"),
    ("brackets", "(S (NN a)\n b)", 2, "unexpected token 'b' inside constituent"),
    ("brackets", "(S (NN a)\n\n", 1, "unbalanced parentheses: unexpected end of input"),
    ("brackets", "(S\n", 1, "unbalanced parentheses: unexpected end of input"),
    ("brackets", "(\n (NN a)\n)", 3, "constituent with no label"),
    ("brackets", "( (S (NN a))\n (S (NN b)) )", 2, "constituent with no label"),
    ("brackets", "(S (NN a))\n(NN\n dog)", 2, "a tree must have at least one constituent"),
])
def test_reader_error_messages_and_lines_are_pinned(reader, text, line, message):
    read = {"conll": read_conll, "brackets": read_brackets,
            "conll-missing": lambda t: read_conll(t, allow_missing_heads=True)}[reader]
    with pytest.raises(TreeReadError) as exc:
        read(text)
    assert str(exc.value) == "line %d: %s" % (line, message)
    assert exc.value.line == line


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                   "\u2028", "\u2029"])
def test_string_input_lines_are_numbered_as_in_the_file(space):
    # str.splitlines() breaks at each of these; a file, and so a reader, does not
    conll = "1\ta%sb\t_\t_\tDT\t_\t0\troot\t_\t_\r\n\r\n1\tc\tDT\n" % space
    with pytest.raises(TreeReadError) as exc:
        read_conll(conll)
    assert str(exc.value) == "line 3: expected at least 8 columns, got 3"
    [sentence] = read_conll(conll.split("\r\n\r\n")[0], allow_missing_heads=True)
    assert sentence.forms == ("a%sb" % space,)
    with pytest.raises(TreeReadError, match="^line 2: unexpected token 'x'"):
        read_brackets("(S (NN a)%s(NN b)\r x)" % space)
    with pytest.raises(TreeReadError, match="^line 2: expected form/tag"):
        read_tagged_text("a/DT%sb/NN\roops\n" % space)
