"""Treebank data structures and file formats.

Dependency trees travel as CoNLL-style tab-separated blocks, constituency
trees as PTB-style bracketed s-expressions. Bracketed input absorbs the
preterminal layer into the token list: ``(PRP I)`` becomes a leaf holding
the token index, with the tag stored on the token. All tree types are
immutable values, so they are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

ROOT = -1  # head index of the root-attached token


class TreeReadError(ValueError):
    """Malformed treebank input. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Token:
    form: str
    tag: str

    def __post_init__(self):
        if not self.form:
            raise ValueError("token form must be non-empty")
        if not self.tag:
            raise ValueError("token tag must be non-empty")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.tag for t in self.tokens)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]]) -> "Sentence":
        return Sentence(tuple(Token(f, t) for f, t in pairs))


@dataclass(frozen=True)
class DepTree:
    """A labeled dependency tree over a sentence.

    Arcs are (head, dependent, label) triples with token indices; the single
    root-attached token has head == ROOT. Construction validates that every
    token has exactly one head, exactly one token attaches to ROOT, and the
    head function is acyclic.
    """

    sentence: Sentence
    arcs: frozenset[tuple[int, int, str]]

    def __post_init__(self):
        n = len(self.sentence)
        heads: dict[int, int] = {}
        for head, dep, _label in self.arcs:
            if not (0 <= dep < n):
                raise ValueError("dependent index %d out of range" % dep)
            if head != ROOT and not (0 <= head < n):
                raise ValueError("head index %d out of range" % head)
            if dep in heads:
                raise ValueError("token %d has more than one head" % dep)
            heads[dep] = head
        if len(heads) != n:
            raise ValueError("every token needs exactly one head")
        # acyclicity first: a rootless block is always cyclic and "cycle" is
        # the more useful diagnosis
        for start in range(n):
            seen = set()
            node = start
            while node != ROOT:
                if node in seen:
                    raise ValueError("cycle in head assignments at token %d" % node)
                seen.add(node)
                node = heads[node]
        roots = [d for d, h in heads.items() if h == ROOT]
        if len(roots) != 1:
            raise ValueError("expected exactly one root-attached token, got %d" % len(roots))

    def __len__(self) -> int:
        return len(self.sentence)

    @cached_property
    def _by_dep(self) -> dict[int, tuple[int, str]]:
        return {dep: (head, label) for head, dep, label in self.arcs}

    def head_of(self, i: int) -> int:
        return self._by_dep[i][0]

    def label_of(self, i: int) -> str:
        return self._by_dep[i][1]

    @property
    def heads(self) -> tuple[int, ...]:
        return tuple(self._by_dep[i][0] for i in range(len(self)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._by_dep[i][1] for i in range(len(self)))

    @property
    def root(self) -> int:
        for i, h in enumerate(self.heads):
            if h == ROOT:
                return i
        raise AssertionError("validated tree has a root")

    @cached_property
    def is_projective(self) -> bool:
        """True iff every subtree covers a contiguous span of the sentence."""
        n = len(self)
        children: list[list[int]] = [[] for _ in range(n)]
        for i, h in enumerate(self.heads):
            if h != ROOT:
                children[h].append(i)
        # iterative post-order: span of each subtree vs. its node count
        lo = list(range(n))
        hi = list(range(n))
        size = [1] * n
        order: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        for node in reversed(order):
            for c in children[node]:
                lo[node] = min(lo[node], lo[c])
                hi[node] = max(hi[node], hi[c])
                size[node] += size[c]
            if hi[node] - lo[node] + 1 != size[node]:
                return False
        return True

    @staticmethod
    def from_heads(sentence: Sentence, heads: Iterable[int], labels: Iterable[str]) -> "DepTree":
        arcs = frozenset((h, d, l) for d, (h, l) in enumerate(zip(heads, labels)))
        return DepTree(sentence, arcs)


@dataclass(frozen=True)
class Leaf:
    """A terminal: the index of the token it covers. Tags live on the token."""

    index: int


@dataclass(frozen=True)
class Internal:
    """A labeled constituent with one or more ordered children.

    head_child is the position of the head child within children; it is None
    until head rules are applied (or the tree was produced by replaying
    actions, which fixes the head as the promoted child).
    """

    label: str
    children: tuple["ConstNode", ...]
    head_child: Optional[int] = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("constituent label must be non-empty")
        if len(self.children) == 0:
            raise ValueError("constituent %r has zero children" % self.label)
        if self.head_child is not None and not (0 <= self.head_child < len(self.children)):
            raise ValueError("head child index %d out of range" % self.head_child)


ConstNode = Union[Leaf, Internal]


def leaf_indices(node: ConstNode) -> list[int]:
    """Token indices covered by node, in left-to-right order."""
    out: list[int] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Leaf):
            out.append(cur.index)
        else:
            stack.extend(reversed(cur.children))
    return out


def iter_internal(node: ConstNode) -> Iterator[Internal]:
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Internal):
            yield cur
            stack.extend(reversed(cur.children))


@dataclass(frozen=True)
class ConstTree:
    sentence: Sentence
    root: Internal

    def __post_init__(self):
        covered = leaf_indices(self.root)
        if covered != list(range(len(self.sentence))):
            raise ValueError("leaves must cover token indices 0..n-1 in order, got %r" % (covered,))

    def __len__(self) -> int:
        return len(self.sentence)


# ---------------------------------------------------------------------------
# CoNLL-style dependency files
# ---------------------------------------------------------------------------

# CoNLL-X column layout; only ID, FORM, POS, HEAD, DEPREL are consumed.
_CONLL_MIN_COLS = 8


def _lines(stream) -> Iterator[str]:
    if isinstance(stream, str):
        yield from stream.splitlines()
    else:
        for line in stream:
            yield line.rstrip("\n")


def read_conll(stream, allow_missing_heads: bool = False):
    """Parse CoNLL-style blocks into DepTree objects (or Sentences).

    stream may be a file object, an iterable of lines, or a single string.
    HEAD == 0 maps to ROOT. With allow_missing_heads the HEAD/DEPREL columns
    may be "_" (input to be parsed), and a list of Sentence is returned.
    """
    trees: list = []
    rows: list[tuple[int, list[str]]] = []  # (line number, fields)
    block_start = None

    def flush():
        nonlocal rows, block_start
        if not rows:
            return
        n = len(rows)
        seen_ids = set()
        tokens = []
        heads: list[Optional[int]] = []
        labels: list[str] = []
        for pos, (lineno, fields) in enumerate(rows):
            try:
                tok_id = int(fields[0])
            except ValueError:
                raise TreeReadError("token id %r is not an integer" % fields[0], lineno)
            if tok_id in seen_ids:
                raise TreeReadError("duplicate token id %d" % tok_id, lineno)
            seen_ids.add(tok_id)
            if tok_id != pos + 1:
                raise TreeReadError("token ids must run 1..n, got %d" % tok_id, lineno)
            try:
                tokens.append(Token(fields[1], fields[4]))
            except ValueError as exc:
                raise TreeReadError(str(exc), lineno)
            head_field, label_field = fields[6], fields[7]
            if head_field == "_" and allow_missing_heads:
                heads.append(None)
                labels.append(label_field)
                continue
            try:
                head = int(head_field)
            except ValueError:
                raise TreeReadError("head %r is not an integer" % head_field, lineno)
            if not (0 <= head <= n):
                raise TreeReadError("head index %d out of range 0..%d" % (head, n), lineno)
            heads.append(head - 1 if head > 0 else ROOT)
            labels.append(label_field)
        sentence = Sentence(tuple(tokens))
        if allow_missing_heads:
            trees.append(sentence)
        else:
            try:
                trees.append(DepTree.from_heads(sentence, heads, labels))
            except ValueError as exc:
                raise TreeReadError(str(exc), block_start)
        rows = []
        block_start = None

    lineno = 0
    for line in _lines(stream):
        lineno += 1
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.startswith("#"):
            continue
        fields = line.split("\t") if "\t" in line else stripped.split()
        if len(fields) < _CONLL_MIN_COLS:
            raise TreeReadError(
                "expected at least %d columns, got %d" % (_CONLL_MIN_COLS, len(fields)), lineno)
        if block_start is None:
            block_start = lineno
        rows.append((lineno, fields))
    flush()
    return trees


def write_conll(trees: Iterable[DepTree]) -> str:
    """Emit CoNLL-X style blocks; unused columns become "_"."""
    out = []
    for tree in trees:
        for i, token in enumerate(tree.sentence.tokens):
            head = tree.head_of(i)
            out.append("\t".join([
                str(i + 1), token.form, "_", "_", token.tag, "_",
                str(head + 1 if head != ROOT else 0), tree.label_of(i), "_", "_",
            ]))
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# PTB-style bracketed files
# ---------------------------------------------------------------------------

_PAREN_ESCAPES = {"(": "-LRB-", ")": "-RRB-"}
_PAREN_UNESCAPES = {"-LRB-": "(", "-RRB-": ")"}
# Deepest bracket nesting read_brackets accepts, the preterminal included.
# Reading, head assignment, scoring, writing and tree comparison recurse per
# level (comparison takes four frames a level), so a much deeper tree ends
# in a RecursionError; treebank trees stay far below this.
MAX_BRACKET_DEPTH = 150


def _lex_brackets(stream) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, text, line) with kind in {"(", ")", "atom"}."""
    lineno = 0
    for line in _lines(stream):
        lineno += 1
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
            elif ch in "()":
                yield ch, ch, lineno
                i += 1
            else:
                j = i
                while j < len(line) and not line[j].isspace() and line[j] not in "()":
                    j += 1
                yield "atom", line[i:j], lineno
                i = j


def read_brackets(stream) -> list[ConstTree]:
    """Parse bracketed trees, absorbing the preterminal layer into tokens.

    Accepts one tree per line or pretty-printed trees. A label-less outer
    wrapper "( (S ...) )" around a single tree is unwrapped. head_child is
    left unset; apply head rules afterwards. Nesting deeper than
    MAX_BRACKET_DEPTH is an error.
    """
    tokens = list(_lex_brackets(stream))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, tokens[-1][2] if tokens else 1)

    def parse_node(token_acc: list[Token], depth: int = 1):
        nonlocal pos
        kind, text, line = peek()
        if kind != "(":
            raise TreeReadError("expected '(', got %r" % (text,), line)
        if depth > MAX_BRACKET_DEPTH:
            raise TreeReadError("brackets nested deeper than %d" % MAX_BRACKET_DEPTH, line)
        pos += 1
        kind, text, line = peek()
        label = None
        if kind == "atom":
            label = text
            pos += 1
        kind, text, line = peek()
        if kind == ")":
            raise TreeReadError("empty constituent", line)
        if kind == "atom":
            # preterminal: (TAG form)
            if label is None:
                raise TreeReadError("form %r without a tag" % text, line)
            form = _PAREN_UNESCAPES.get(text, text)
            index = len(token_acc)
            token_acc.append(Token(form, label))
            pos += 1
            kind, text, line = peek()
            if kind != ")":
                raise TreeReadError("preterminal %r must cover a single form" % label, line)
            pos += 1
            return Leaf(index)
        children = []
        while True:
            kind, text, line = peek()
            if kind == "(":
                children.append(parse_node(token_acc, depth + 1))
            elif kind == ")":
                pos += 1
                break
            elif kind is None:
                raise TreeReadError("unbalanced parentheses: unexpected end of input", line)
            else:
                raise TreeReadError("unexpected token %r inside constituent" % text, line)
        if label is None:
            if len(children) == 1 and isinstance(children[0], Internal):
                return children[0]  # outer wrapper
            raise TreeReadError("constituent with no label", line)
        if not children:
            raise TreeReadError("nonterminal %r with zero children" % label, line)
        return Internal(label, tuple(children))

    trees = []
    while pos < len(tokens):
        kind, text, line = peek()
        if kind == ")":
            raise TreeReadError("unbalanced parentheses: unexpected ')'", line)
        token_acc: list[Token] = []
        node = parse_node(token_acc)
        if isinstance(node, Leaf):
            raise TreeReadError("a tree must have at least one constituent", line)
        trees.append(ConstTree(Sentence(tuple(token_acc)), node))
    return trees


def _format_node(node: ConstNode, sentence: Sentence) -> str:
    if isinstance(node, Leaf):
        token = sentence[node.index]
        form = _PAREN_ESCAPES.get(token.form, token.form)
        return "(%s %s)" % (token.tag, form)
    inner = " ".join(_format_node(c, sentence) for c in node.children)
    return "(%s %s)" % (node.label, inner)


def write_brackets(trees: Iterable[ConstTree]) -> str:
    """Emit one bracketed tree per line, restoring the preterminal layer."""
    lines = [_format_node(t.root, t.sentence) for t in trees]
    return "\n".join(lines) + ("\n" if lines else "")


def read_tagged_text(stream) -> list[Sentence]:
    """Read lines of whitespace-separated form/tag tokens (tag after last '/')."""
    sentences = []
    lineno = 0
    for line in _lines(stream):
        lineno += 1
        parts = line.split()
        if not parts:
            continue
        pairs = []
        for part in parts:
            form, sep, tag = part.rpartition("/")
            if not sep or not form or not tag:
                raise TreeReadError("expected form/tag, got %r" % part, lineno)
            pairs.append((form, tag))
        sentences.append(Sentence.from_pairs(pairs))
    return sentences
