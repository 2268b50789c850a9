"""Vocabularies with reserved UNK and NONE entries.

Ids are dense and assigned in sorted order, so rebuilding from the same
corpus or round-tripping through JSON reproduces them exactly. Forms below
the frequency threshold map to UNK; label families (dependency relations,
nonterminals) are fully enumerated and carry a trailing NONE id used for
absent feature slots.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .trees import ConstTree, DepTree, Sentence, iter_internal

UNK = "<unk>"
NONE_LABEL = "<none>"


@dataclass
class Vocab:
    forms: dict[str, int]
    tags: dict[str, int]
    deprels: dict[str, int]
    nonterminals: dict[str, int]
    form_counts: dict[str, int] = field(default_factory=dict)

    # -- lookups ------------------------------------------------------------

    def form_id(self, form: str) -> int:
        return self.forms.get(form, self.forms[UNK])

    def tag_id(self, tag: str) -> int:
        return self.tags.get(tag, self.tags[UNK])

    def nonterminal_id(self, label: Optional[str]) -> int:
        if label is None:
            return self.nonterminals[NONE_LABEL]
        return self.nonterminals[label]

    @property
    def num_forms(self) -> int:
        return len(self.forms)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @property
    def num_deprels(self) -> int:
        """Real dependency labels, excluding the NONE sentinel."""
        return len(self.deprels) - 1

    @property
    def num_nonterminals(self) -> int:
        """Real nonterminals, excluding the NONE sentinel."""
        return len(self.nonterminals) - 1

    @property
    def deprel_names(self) -> list[str]:
        names = [""] * len(self.deprels)
        for name, i in self.deprels.items():
            names[i] = name
        return names

    @property
    def nonterminal_names(self) -> list[str]:
        names = [""] * len(self.nonterminals)
        for name, i in self.nonterminals.items():
            names[i] = name
        return names

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "forms": sorted(self.forms.items(), key=lambda kv: kv[1]),
            "tags": sorted(self.tags.items(), key=lambda kv: kv[1]),
            "deprels": sorted(self.deprels.items(), key=lambda kv: kv[1]),
            "nonterminals": sorted(self.nonterminals.items(), key=lambda kv: kv[1]),
            "form_counts": sorted(self.form_counts.items()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Vocab":
        return cls(
            forms=dict(map(tuple, data["forms"])),
            tags=dict(map(tuple, data["tags"])),
            deprels=dict(map(tuple, data["deprels"])),
            nonterminals=dict(map(tuple, data["nonterminals"])),
            form_counts=dict(map(tuple, data.get("form_counts", []))),
        )


def json_sha256(data: dict) -> str:
    """The sha256 of a vocabulary's JSON form, as Vocab.to_json gives it or
    as a model header holds it."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_vocab(sentences: Iterable[Sentence],
                dep_trees: Iterable[DepTree] = (),
                const_trees: Iterable[ConstTree] = (),
                min_form_count: int = 2) -> Vocab:
    """Build a vocabulary from a corpus.

    Forms occurring fewer than min_form_count times map to UNK; the count
    must be non-negative. Tags, dependency labels, and nonterminals are
    fully enumerated. form_counts keeps raw corpus counts (the
    training-time word-dropout rate depends on them).
    """
    if min_form_count < 0:
        raise ValueError("min_form_count must be non-negative, not %r" % min_form_count)
    counts: Counter[str] = Counter()
    tags: set[str] = set()
    n_sentences = 0
    for sentence in sentences:
        n_sentences += 1
        for token in sentence.tokens:
            counts[token.form] += 1
            tags.add(token.tag)
    if n_sentences == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    deprels: set[str] = set()
    for tree in dep_trees:
        deprels.update(label for _h, _d, label in tree.arcs)
    nonterminals: set[str] = set()
    for tree in const_trees:
        nonterminals.update(node.label for node in iter_internal(tree.root))

    kept = sorted(f for f, c in counts.items() if c >= min_form_count)
    forms = {UNK: 0}
    forms.update((f, i) for i, f in enumerate(kept, start=1))
    tag_map = {UNK: 0}
    tag_map.update((t, i) for i, t in enumerate(sorted(tags), start=1))
    deprel_map = {l: i for i, l in enumerate(sorted(deprels))}
    deprel_map[NONE_LABEL] = len(deprel_map)
    nonterminal_map = {l: i for i, l in enumerate(sorted(nonterminals))}
    nonterminal_map[NONE_LABEL] = len(nonterminal_map)
    return Vocab(forms, tag_map, deprel_map, nonterminal_map, dict(counts))
