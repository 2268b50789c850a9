"""Greedy transition-based dependency and constituency parsing with a
from-scratch bi-directional LSTM encoder over a minimal positional
feature set."""

from .trees import (ROOT, ConstNode, ConstTree, DepTree, Internal, Leaf,
                    Sentence, Token, TreeReadError, read_brackets, read_conll,
                    read_tagged_text, write_brackets, write_conll)
from .headrules import HeadRule, HeadRules, assign_heads
from .vocab import NONE_LABEL, UNK, Vocab, build_vocab
from .dep_system import (Action, DepAction, DepState, IllegalAction, NotDerivable,
                         dep_apply, dep_initial, dep_legal, dep_oracle,
                         dep_replay, read_actions, write_actions)
from .const_system import (ConstAction, ConstState, const_apply, const_initial,
                           const_legal, const_oracle, const_replay)
from .features import (ConstFeatures, DepFeatures, extract_const, extract_dep)
from .model import (ConstConfig, ConstModel, DepConfig, DepModel,
                    ModelIOError, load_model, save_best, save_model)
from .evalmetrics import (BracketScore, DepScore, arc_recall_by_length,
                          recall_table_csv, score_brackets, score_dep)

__version__ = "0.1.0"
