"""Seeded mutation fuzz of every text reader: whatever the mutation, a
reader returns or raises a ValueError (TreeReadError included) whose
message starts with the line it names, a line of the input."""

import io
import random
import re

import pytest

from shiftparse import synth
from shiftparse.const_system import ConstAction, const_oracle
from shiftparse.dep_system import DepAction, dep_oracle, read_actions, write_actions
from shiftparse.headrules import HeadRules, assign_heads
from shiftparse.trees import (TreeReadError, read_brackets, read_conll, read_tagged_text,
                              write_brackets, write_conll)

DEP = synth.toy_dep_corpus(6, seed=3)
CONST = [assign_heads(t, HeadRules.bundled()) for t in synth.toy_const_corpus(6, seed=3)]
RULES = """# label direction priorities
S right-to-left VP S
NP right-to-left NN NNS NP
DEFAULT left-to-right
"""

# what an insertion may add: structure, numbers, and whitespace that is not
# a line end in a file but is one to str.splitlines()
ALPHABET = ["(", ")", " ", "\t", "\n", "\r", "\r\n", "_", "#", ":", "/", "0", "1", "7", "-3",
            "x", "NN", "-LRB-", "SHIFT", "LEFT:", "right-to-left", "\x0b", "\x0c", "\x1c",
            "\x1e", "\x85", "\xa0", " ", "　", "(A " * 80, ")" * 5]

READERS = {
    "conll": (write_conll(DEP), read_conll),
    "conll-missing-heads": (write_conll(DEP).replace("\t0\t", "\t_\t"),
                            lambda text: read_conll(text, allow_missing_heads=True)),
    "brackets": (write_brackets(CONST), read_brackets),
    "tagged-text": ("".join(" ".join("%s/%s" % (t.form, t.tag) for t in tree.sentence.tokens)
                            + "\n" for tree in DEP), read_tagged_text),
    "dep-actions": (write_actions(dep_oracle(t) for t in DEP),
                    lambda text: read_actions(text, DepAction)),
    "const-actions": (write_actions(const_oracle(t) for t in CONST),
                      lambda text: read_actions(text, ConstAction)),
    "head-rules": (RULES, HeadRules.from_text),
}


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op <= 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif op == 2:
            text = text[:at] + text[at + rng.randint(1, 6):]
        elif op == 3:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
        else:
            text = text[:at]
    return text


@pytest.mark.parametrize("name", sorted(READERS))
def test_mutated_input_is_read_or_names_one_of_its_lines(name):
    valid, read = READERS[name]
    read(valid)
    rng = random.Random(2016)
    for _ in range(1000):
        text = _mutate(rng, valid)
        try:
            read(text)
        except ValueError as exc:
            found = re.match(r"line (\d+): ", str(exc))
            assert found, (text, exc)
            line = int(found.group(1))
            assert 1 <= line <= len(list(io.StringIO(text, newline=None))), (text, exc)
            assert not isinstance(exc, TreeReadError) or exc.line == line
