import pytest

from shiftparse.trees import Sentence, read_brackets, read_conll
from shiftparse.vocab import NONE_LABEL, UNK, Vocab, build_vocab


def _sentences(counts):
    # one sentence per occurrence keeps counting honest
    out = []
    for form, n in counts.items():
        for _ in range(n):
            out.append(Sentence.from_pairs([(form, "NN")]))
    return out


def test_threshold_maps_rare_forms_to_unk():
    vocab = build_vocab(_sentences({"like": 5, "sports": 1}), min_form_count=2)
    assert vocab.form_id("like") != vocab.forms[UNK]
    assert vocab.form_id("sports") == vocab.forms[UNK]
    assert vocab.form_counts["sports"] == 1


def test_min_count_one_keeps_everything():
    vocab = build_vocab(_sentences({"like": 5, "sports": 1}), min_form_count=1)
    assert vocab.form_id("sports") != vocab.forms[UNK]


def test_unseen_form_and_tag_map_to_unk():
    vocab = build_vocab(_sentences({"like": 3}), min_form_count=1)
    assert vocab.form_id("zebra") == vocab.forms[UNK]
    assert vocab.tag_id("XYZ") == vocab.tags[UNK]


def test_json_roundtrip_preserves_ids():
    conll = ("1\tI\t_\t_\tPRP\t_\t2\tnsubj\t_\t_\n"
             "2\tlike\t_\t_\tVBP\t_\t0\troot\t_\t_\n"
             "3\tsports\t_\t_\tNNS\t_\t2\tdobj\t_\t_\n")
    trees = read_conll(conll)
    ctrees = read_brackets("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))")
    vocab = build_vocab([t.sentence for t in trees], dep_trees=trees,
                        const_trees=ctrees, min_form_count=1)
    again = Vocab.from_json(vocab.to_json())
    assert again == vocab
    assert again.sha256() == vocab.sha256()


def test_rebuild_from_same_corpus_is_stable():
    trees = read_conll("1\ta\t_\t_\tDT\t_\t2\tdet\t_\t_\n2\tdog\t_\t_\tNN\t_\t0\troot\t_\t_\n")
    v1 = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
    v2 = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
    assert v1 == v2


def test_reserved_ids_exist():
    trees = read_conll("1\ta\t_\t_\tDT\t_\t0\troot\t_\t_\n")
    ctrees = read_brackets("(NP (NN dog))")
    vocab = build_vocab([t.sentence for t in trees], dep_trees=trees,
                        const_trees=ctrees, min_form_count=1)
    assert UNK in vocab.forms and UNK in vocab.tags
    assert NONE_LABEL in vocab.deprels
    assert NONE_LABEL in vocab.nonterminals
    # NONE sits after the real labels so dense action spaces exclude it
    assert vocab.nonterminals[NONE_LABEL] == vocab.num_nonterminals
    assert vocab.deprels[NONE_LABEL] == vocab.num_deprels


def test_ids_dense():
    trees = read_conll("1\ta\t_\t_\tDT\t_\t2\tdet\t_\t_\n2\tdog\t_\t_\tNN\t_\t0\troot\t_\t_\n")
    vocab = build_vocab([t.sentence for t in trees], dep_trees=trees, min_form_count=1)
    assert sorted(vocab.forms.values()) == list(range(len(vocab.forms)))
    assert sorted(vocab.tags.values()) == list(range(len(vocab.tags)))
    assert sorted(vocab.deprels.values()) == list(range(len(vocab.deprels)))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        build_vocab([])


def test_negative_min_form_count_rejected():
    with pytest.raises(ValueError, match="min_form_count must be non-negative"):
        build_vocab(_sentences({"like": 1}), min_form_count=-3)
