"""Greedy transition-based dependency and constituency parsing with a
from-scratch bi-directional LSTM encoder over a minimal positional
feature set.

The names below load with their modules on first use (PEP 562), so that
importing the package loads no numpy: the shiftparse command (__main__)
must set the BLAS thread count before numpy loads."""

import importlib

_EXPORTS = {
    "trees": ("ROOT", "ConstNode", "ConstTree", "DepTree", "Internal", "Leaf", "Sentence",
              "Token", "TreeReadError", "read_brackets", "read_conll", "read_tagged_text",
              "write_brackets", "write_conll"),
    "headrules": ("HeadRule", "HeadRules", "assign_heads"),
    "vocab": ("NONE_LABEL", "UNK", "Vocab", "build_vocab"),
    "dep_system": ("Action", "DepAction", "DepState", "IllegalAction", "NotDerivable",
                   "dep_apply", "dep_initial", "dep_legal", "dep_oracle", "dep_replay",
                   "read_actions", "write_actions"),
    "const_system": ("ConstAction", "ConstState", "const_apply", "const_initial",
                     "const_legal", "const_oracle", "const_replay"),
    "features": ("ConstFeatures", "DepFeatures", "extract_const", "extract_dep"),
    "model": ("ConstConfig", "ConstModel", "DepConfig", "DepModel", "ModelIOError",
              "load_model", "save_best", "save_model"),
    "evalmetrics": ("BracketScore", "DepScore", "arc_recall_by_length", "recall_table_csv",
                    "score_brackets", "score_dep"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
