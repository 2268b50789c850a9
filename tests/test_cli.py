from dataclasses import asdict, fields

import pytest

from shiftparse import cli
from shiftparse.cli import _build_config, build_parser, main
from shiftparse.model import ConstConfig, DepConfig
from shiftparse.evalmetrics import score_dep
from shiftparse.trees import (MAX_BRACKET_DEPTH, read_brackets, read_conll, write_brackets,
                              write_conll)
from shiftparse import synth

FAST_FLAGS = ["--word-dims", "8", "--tag-dims", "6", "--lstm-units", "8",
              "--hidden", "8", "--epochs", "2", "--minibatch", "4",
              "--dropout", "0.0", "--word-dropout", "0.0",
              "--min-form-count", "1", "--seed", "1"]


@pytest.fixture()
def dep_corpus(tmp_path):
    path = tmp_path / "train.conll"
    path.write_text(write_conll(synth.toy_dep_corpus(12, seed=7)), encoding="utf-8")
    return path


@pytest.fixture()
def const_corpus(tmp_path):
    path = tmp_path / "train.brackets"
    path.write_text(write_brackets(synth.toy_const_corpus(12, seed=7)), encoding="utf-8")
    return path


def test_train_writes_model_and_log(tmp_path, dep_corpus, capsys):
    model = tmp_path / "dep.model"
    log = tmp_path / "train.log"
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model), "--log", str(log)] + FAST_FLAGS)
    assert code == 0
    assert model.exists()
    # no --dev, so no best epoch and no .best copy
    assert not (tmp_path / "dep.model.best").exists()
    assert capsys.readouterr().err.endswith("; wrote %s\n" % model)
    content = log.read_text()
    assert "config epochs=2" in content
    assert "epoch=2 loss=" in content


def test_train_same_seed_identical_logs_and_models(tmp_path, dep_corpus):
    outputs = []
    for tag in ("a", "b"):
        model = tmp_path / ("model_%s" % tag)
        log = tmp_path / ("log_%s" % tag)
        assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                     "--model", str(model), "--log", str(log)] + FAST_FLAGS) == 0
        outputs.append((log.read_bytes(), model.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_train_missing_path_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--task", "dep", "--model", str(tmp_path / "m")])
    assert exc.value.code == 1


def test_unreadable_train_file_is_data_error(tmp_path):
    code = main(["train", "--task", "dep", "--train", str(tmp_path / "missing"),
                 "--model", str(tmp_path / "m")] + FAST_FLAGS)
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, dep_corpus):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=1\nlstm_units=8\n", encoding="utf-8")
    model = tmp_path / "m"
    log = tmp_path / "log"
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model), "--log", str(log), "--config", str(config),
                 "--word-dims", "8", "--tag-dims", "6", "--hidden", "8",
                 "--minibatch", "4", "--dropout", "0.0", "--word-dropout", "0.0",
                 "--min-form-count", "1", "--seed", "1", "--epochs", "2"])
    assert code == 0
    content = log.read_text()
    assert "config epochs=2" in content       # flag beats config file
    assert "config lstm_units=8" in content   # config file beats default


def test_parse_pipeline_matches_eval(tmp_path, dep_corpus, capsys):
    model = tmp_path / "dep.model"
    assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model), "--log", str(tmp_path / "log"),
                 "--epochs", "8", "--minibatch", "1"] + FAST_FLAGS[:-4] +
                ["--min-form-count", "1", "--seed", "1"]) == 0
    out = tmp_path / "pred.conll"
    assert main(["parse", "--task", "dep", "--model", str(model),
                 "--input", str(dep_corpus), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--task", "dep", "--gold", str(dep_corpus),
                 "--pred", str(out), "--include-punct"]) == 0
    printed = capsys.readouterr().out
    gold = read_conll(dep_corpus.read_text())
    pred = read_conll(out.read_text())
    expected = score_dep(gold, pred, exclude_punct=False)
    assert ("uas=%.2f" % expected.uas) in printed
    assert ("las=%.2f" % expected.las) in printed


def test_parse_empty_input(tmp_path, dep_corpus):
    model = tmp_path / "dep.model"
    assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model)] + FAST_FLAGS) == 0
    empty = tmp_path / "empty.conll"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out.conll"
    assert main(["parse", "--task", "dep", "--model", str(model),
                 "--input", str(empty), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_parse_task_mismatch(tmp_path, dep_corpus, capsys):
    model = tmp_path / "dep.model"
    assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model)] + FAST_FLAGS) == 0
    code = main(["parse", "--task", "const", "--model", str(model),
                 "--input", str(dep_corpus)])
    assert code == 2
    assert "task mismatch" in capsys.readouterr().err


def test_eval_identical_files(tmp_path, dep_corpus, capsys):
    assert main(["eval", "--task", "dep", "--gold", str(dep_corpus),
                 "--pred", str(dep_corpus)]) == 0
    out = capsys.readouterr().out
    assert "uas=100.00" in out and "las=100.00" in out


def test_eval_hand_counted_example(tmp_path, capsys):
    gold = ("1\tI\t_\t_\tPRP\t_\t2\tnsubj\t_\t_\n"
            "2\tlike\t_\t_\tVBP\t_\t0\troot\t_\t_\n"
            "3\tsports\t_\t_\tNNS\t_\t2\tdobj\t_\t_\n")
    pred = ("1\tI\t_\t_\tPRP\t_\t3\tnsubj\t_\t_\n"
            "2\tlike\t_\t_\tVBP\t_\t0\troot\t_\t_\n"
            "3\tsports\t_\t_\tNNS\t_\t2\tdobj\t_\t_\n")
    g = tmp_path / "g.conll"
    p = tmp_path / "p.conll"
    g.write_text(gold, encoding="utf-8")
    p.write_text(pred, encoding="utf-8")
    assert main(["eval", "--task", "dep", "--gold", str(g), "--pred", str(p),
                 "--include-punct"]) == 0
    assert "uas=66.67" in capsys.readouterr().out


def test_train_defaults_echoed_in_log(tmp_path, dep_corpus):
    model = tmp_path / "m"
    log = tmp_path / "log"
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model), "--log", str(log),
                 "--epochs", "1", "--min-form-count", "1"])
    assert code == 0
    content = log.read_text()
    for line in ("config word_dims=50", "config tag_dims=20",
                 "config lstm_units=200", "config hidden=200",
                 "config minibatch=10", "config dropout=0.5",
                 "config rho=0.99", "config eps=1e-07", "config l2=0.0"):
        assert line in content, line


def test_eval_custom_punct_tags(tmp_path, capsys):
    block = ("1\thi\t_\t_\tUH\t_\t0\troot\t_\t_\n"
             "2\tthere\t_\t_\tRB\t_\t1\tadvmod\t_\t_\n")
    path = tmp_path / "g.conll"
    path.write_text(block, encoding="utf-8")
    assert main(["eval", "--task", "dep", "--gold", str(path), "--pred", str(path),
                 "--punct-tags", "RB"]) == 0
    assert "scored=1" in capsys.readouterr().out


def test_eval_recall_csv(tmp_path, dep_corpus, capsys):
    csv = tmp_path / "recall.csv"
    assert main(["eval", "--task", "dep", "--gold", str(dep_corpus),
                 "--pred", str(dep_corpus), "--recall-by-length", str(csv),
                 "--max-bucket", "5"]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "length,gold,correct,recall"
    assert len(lines) - 1 <= 5 + 1   # numeric buckets plus the root bucket


@pytest.mark.parametrize("bucket", ["0", "-2"])
def test_eval_max_bucket_below_one_is_data_error(tmp_path, dep_corpus, bucket, capsys):
    csv = tmp_path / "recall.csv"
    assert main(["eval", "--task", "dep", "--gold", str(dep_corpus),
                 "--pred", str(dep_corpus), "--recall-by-length", str(csv),
                 "--max-bucket", bucket]) == 2
    captured = capsys.readouterr()
    assert "max_bucket must be at least 1" in captured.err
    assert captured.out == "" and not csv.exists()


def test_eval_const(tmp_path, const_corpus, capsys):
    assert main(["eval", "--task", "const", "--gold", str(const_corpus),
                 "--pred", str(const_corpus)]) == 0
    out = capsys.readouterr().out
    assert "f1=100.00" in out


def test_oracle_example_sentence(tmp_path, capsys):
    brackets = tmp_path / "fig.brackets"
    brackets.write_text("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))\n",
                        encoding="utf-8")
    out = tmp_path / "actions.txt"
    assert main(["oracle", "--task", "const", "--input", str(brackets),
                 "--output", str(out), "--replay"]) == 0
    assert out.read_text().strip().splitlines() == [
        "SHIFT", "PRO:NP", "SHIFT", "PRO:VP", "SHIFT", "PRO:NP",
        "ADJ-R", "PRO:S", "ADJ-L"]
    assert "0 mismatches" in capsys.readouterr().err


def test_oracle_head_rules_that_pick_another_head_change_the_dump(tmp_path, capsys):
    brackets = tmp_path / "fig.brackets"
    brackets.write_text("(S (NP (PRP I)) (VP (VBP like) (NP (NNS sports))))\n",
                        encoding="utf-8")
    # the object NP heads VP, and with no S rule the default picks S's first child
    rules = tmp_path / "rules.txt"
    rules.write_text("VP right-to-left NP\n", encoding="utf-8")
    assert main(["oracle", "--task", "const", "--input", str(brackets),
                 "--head-rules", str(rules), "--replay"]) == 0
    out, err = capsys.readouterr()
    assert out.split() == ["SHIFT", "PRO:NP", "PRO:S", "SHIFT", "SHIFT", "PRO:NP",
                           "PRO:VP", "ADJ-L", "ADJ-R"]
    assert "0 mismatches" in err


def test_oracle_head_rules_bad_direction_is_data_error_naming_its_line(tmp_path, const_corpus,
                                                                      capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# a comment\nNP sideways NN\n", encoding="utf-8")
    assert main(["oracle", "--task", "const", "--input", str(const_corpus),
                 "--head-rules", str(rules)]) == 2
    assert "error: line 2: unknown direction 'sideways'" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("2\t\t_\tNN\tNN\t_\t0\troot\n", "token form must be non-empty"),
    ("2\tdog\t_\tNN\t\t_\t0\troot\n", "token tag must be non-empty"),
], ids=["form", "pos"])
def test_conll_row_with_an_empty_column_is_data_error_naming_its_line(tmp_path, row, message,
                                                                      capsys):
    path = tmp_path / "empty.conll"
    path.write_text("1\tthe\t_\tDT\tDT\t_\t2\tdet\n" + row, encoding="utf-8")
    assert main(["oracle", "--task", "dep", "--input", str(path)]) == 2
    assert "error: line 2: %s" % message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "train-dev", "parse", "eval", "oracle",
                                     "oracle-head-rules"])
def test_input_that_is_not_utf8_is_data_error_naming_the_file(tmp_path, dep_corpus,
                                                               const_corpus, command, capsys):
    latin = tmp_path / "latin.txt"
    latin.write_bytes("1\tcaf\xe9\t_\tNN\tNN\t_\t0\troot\n".encode("latin-1"))
    model = tmp_path / "dep.model"
    if command == "parse":
        assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                     "--model", str(model)] + FAST_FLAGS) == 0
    argv = {
        "train": ["train", "--task", "dep", "--train", str(latin), "--model", str(model)],
        "train-dev": ["train", "--task", "dep", "--train", str(dep_corpus), "--dev", str(latin),
                      "--model", str(model)],
        "parse": ["parse", "--task", "dep", "--model", str(model), "--input", str(latin)],
        "eval": ["eval", "--task", "dep", "--gold", str(dep_corpus), "--pred", str(latin)],
        "oracle": ["oracle", "--task", "dep", "--input", str(latin)],
        "oracle-head-rules": ["oracle", "--task", "const", "--input", str(const_corpus),
                              "--head-rules", str(latin)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert "error: %s: not UTF-8 text: line 1\n" % latin in capsys.readouterr().err


def test_input_that_is_not_utf8_names_the_line_past_the_first_read_chunk(tmp_path, dep_corpus,
                                                                       capsys):
    # the text layer decodes 8 KiB chunks, so the bad byte sits well past one
    valid = dep_corpus.read_bytes() * 20
    assert len(valid) > 3 * 8192
    path = tmp_path / "late.conll"
    path.write_bytes(valid + "1\tcaf\xe9\t_\tNN\tNN\t_\t0\troot\n".encode("latin-1"))
    assert main(["oracle", "--task", "dep", "--input", str(path)]) == 2
    line = valid.count(b"\n") + 1
    assert "error: %s: not UTF-8 text: line %d\n" % (path, line) in capsys.readouterr().err


def test_oracle_replay_clean_on_treebank(tmp_path, dep_corpus, capsys):
    assert main(["oracle", "--task", "dep", "--input", str(dep_corpus),
                 "--replay"]) == 0
    assert "0 mismatches" in capsys.readouterr().err


def test_oracle_skips_nonprojective(tmp_path, capsys):
    crossing = ("1\ta\t_\t_\tA\t_\t3\tdep\t_\t_\n"
                "2\tb\t_\t_\tB\t_\t0\troot\t_\t_\n"
                "3\tc\t_\t_\tC\t_\t2\tdep\t_\t_\n")
    path = tmp_path / "np.conll"
    path.write_text(crossing, encoding="utf-8")
    assert main(["oracle", "--task", "dep", "--input", str(path), "--replay"]) == 0
    err = capsys.readouterr().err
    assert "skipped sentence 1" in err


def test_gradcheck_default_passes(capsys):
    assert main(["gradcheck", "--task", "dep", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_const_passes(capsys):
    assert main(["gradcheck", "--task", "const", "--samples", "2"]) == 0
    assert capsys.readouterr().out.startswith("const: max relative error")


def test_gradcheck_checks_a_toy_unregularised_model_for_each_task(monkeypatch, capsys):
    checked = []

    def spy(model, trees, **kwargs):
        checked.append(model)
        return {"max_rel_error": 0.0, "by_param": {}, "failures": [], "ok": True}

    monkeypatch.setattr(cli, "model_grad_check", spy)
    assert main(["gradcheck", "--task", "both"]) == 0
    assert [m.task for m in checked] == ["dep", "const"]
    for model in checked:
        widths = {k: v for k, v in asdict(model.config).items()
                  if k.endswith("_dims") or k in ("lstm_units", "hidden")}
        assert max(widths.values()) <= 12, widths
        assert model.config.l2 == 0.0


def test_gradcheck_float32_relaxed(capsys):
    assert main(["gradcheck", "--task", "dep", "--samples", "2",
                 "--precision", "float32"]) == 0


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan"])
def test_gradcheck_step_not_positive_is_data_error(step, capsys):
    # --step=VALUE: argparse reads a separate "-1e-5" as an option
    assert main(["gradcheck", "--task", "dep", "--samples", "2", "--step=" + step]) == 2
    assert "finite-difference step must be positive and finite" in capsys.readouterr().err


def test_gradcheck_negative_step_as_separate_argument_is_usage_error(capsys):
    # argparse reads a separate "-1e-5" as an option, so --step has no value;
    # joined as --step=-1e-5 it reaches the step check (exit 2, above)
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--task", "dep", "--samples", "2", "--step", "-1e-5"])
    assert exc.value.code == 1
    assert "argument --step: expected one argument" in capsys.readouterr().err


def test_gradcheck_injected_error_fails(capsys):
    code = main(["gradcheck", "--task", "dep", "--samples", "2",
                 "--inject-error", "emb.word"])
    assert code == 3
    assert "emb.word" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--task", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--task", "dep", "--gold", "g", "--pred", "p", "--threads", "2"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--task", "dep", "--model", "m", "--input", "i", "--threads", "2"])
    assert exc.value.code == 1


def _other_value(name, default):
    """A valid value of a config field that differs from its default."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return 1 if default != 1 else 2
    if isinstance(default, float):
        return default / 2 if default else 0.5
    return {"precision": "float32"}.get(name, default + "-x")


CONFIGS = {"dep": DepConfig, "const": ConstConfig}


@pytest.mark.parametrize("task, name", [
    (task, f.name) for task, cls in CONFIGS.items() for f in fields(cls)
    if not isinstance(f.default, bool)])
def test_every_config_field_reaches_the_config_from_its_flag(task, name):
    default = CONFIGS[task].__dataclass_fields__[name].default
    value = _other_value(name, default)
    args = build_parser().parse_args(["train", "--task", task, "--train", "t", "--model", "m",
                                      "--" + name.replace("_", "-"), str(value)])
    config = _build_config(task, args)
    assert getattr(config, name) == value
    assert type(getattr(config, name)) is type(default)


# each spelling sets the value its task does not default to
@pytest.mark.parametrize("task, flag, field, value", [
    ("const", "--hierarchical", "hierarchical", True),
    ("dep", "--flat", "hierarchical", False),
    ("dep", "--no-tags", "use_tags", False),
    ("const", "--no-tags", "use_tags", False),
])
def test_bool_spellings_reach_the_config(task, flag, field, value):
    args = build_parser().parse_args(["train", "--task", task, "--train", "t",
                                      "--model", "m", flag])
    config = _build_config(task, args)
    assert getattr(config, field) is value


@pytest.mark.parametrize("flags, named", [
    (["--layers", "3"], "layers must be 1 or 2"),
    (["--precision", "float16"], "precision must be float64 or float32"),
    (["--seed", "-1"], "seed must be non-negative"),
])
def test_out_of_range_flag_is_data_error_naming_the_field(tmp_path, flags, named, capsys):
    code = main(["train", "--task", "dep", "--train", str(tmp_path / "missing"),
                 "--model", str(tmp_path / "m")] + flags)
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("content, named", [
    (b"hidden=4\nepochs=ten\n", "run.cfg line 2: bad value for epochs"),
    (b"hierarchical=maybe\n", "run.cfg line 1: bad value for hierarchical"),
    (b"hidden=4\xff\n", "run.cfg: not UTF-8 text"),
], ids=["int", "bool", "not-utf8"])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, dep_corpus, content, named,
                                                      capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(content)
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(tmp_path / "m"), "--config", str(config)] + FAST_FLAGS)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("task", ["dep", "const"])
def test_train_config_too_large_to_allocate_is_data_error(tmp_path, dep_corpus, const_corpus,
                                                          task, capsys):
    # 10**12 hidden units ask for hundreds of TiB, past the 128 TiB user
    # address space, so the allocation fails under any overcommit policy
    corpus = dep_corpus if task == "dep" else const_corpus
    code = main(["train", "--task", task, "--train", str(corpus),
                 "--model", str(tmp_path / "m")] + FAST_FLAGS + ["--hidden", str(10 ** 12)])
    assert code == 2
    assert "config's parameters cannot be allocated" in capsys.readouterr().err


def test_train_negative_min_form_count_is_data_error(tmp_path, dep_corpus, capsys):
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(tmp_path / "m")] + FAST_FLAGS + ["--min-form-count", "-3"])
    assert code == 2
    assert "min_form_count must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_config_file_with_unknown_precision_is_data_error(tmp_path, dep_corpus, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("precision=foo\n", encoding="utf-8")
    code = main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(tmp_path / "m"), "--config", str(config)] + FAST_FLAGS)
    assert code == 2
    assert "precision" in capsys.readouterr().err


def test_parse_model_with_oversized_header_length_is_data_error(tmp_path, dep_corpus, capsys):
    import struct
    model = tmp_path / "huge.model"
    model.write_bytes(b"SHPM" + struct.pack("<Q", 2 ** 62))
    code = main(["parse", "--task", "dep", "--model", str(model),
                 "--input", str(dep_corpus)])
    assert code == 2
    assert "header length" in capsys.readouterr().err


def _parse_with_edited_header(tmp_path, dep_corpus, capsys, edit):
    """Exit code and stderr of parse with a trained dep model whose JSON
    header went through edit(header)."""
    import json
    import struct
    model = tmp_path / "dep.model"
    assert main(["train", "--task", "dep", "--train", str(dep_corpus),
                 "--model", str(model)] + FAST_FLAGS) == 0
    blob = model.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + header_len])
    edit(header)
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    model.write_bytes(blob[:4] + struct.pack("<Q", len(payload)) + payload
                      + blob[12 + header_len:])
    capsys.readouterr()
    code = main(["parse", "--task", "dep", "--model", str(model),
                 "--input", str(dep_corpus)])
    return code, capsys.readouterr().err


def test_parse_model_with_negative_tensor_offset_is_data_error(tmp_path, dep_corpus, capsys):
    code, err = _parse_with_edited_header(tmp_path, dep_corpus, capsys,
                                          lambda h: h["tensors"][1].update(offset=-64))
    assert code == 2
    assert "emb.tag" in err


def test_parse_model_of_format_version_1_is_data_error(tmp_path, dep_corpus, capsys):
    code, err = _parse_with_edited_header(tmp_path, dep_corpus, capsys,
                                          lambda h: h.update(version=1))
    assert code == 2
    assert "unsupported version 1" in err


def test_parse_model_with_malformed_vocab_is_data_error(tmp_path, dep_corpus, capsys):
    code, err = _parse_with_edited_header(tmp_path, dep_corpus, capsys,
                                          lambda h: h["vocab"].pop("deprels"))
    assert code == 2
    assert "deprels" in err


def test_const_train_with_dev_writes_a_best_model_that_parse_loads(tmp_path, const_corpus):
    model = tmp_path / "const.model"
    assert main(["train", "--task", "const", "--train", str(const_corpus),
                 "--dev", str(const_corpus), "--model", str(model),
                 "--nonterminal-dims", "8"] + FAST_FLAGS) == 0
    out = tmp_path / "pred.brackets"
    assert main(["parse", "--task", "const", "--model", str(model) + ".best",
                 "--input", str(const_corpus), "--input-format", "brackets",
                 "--output", str(out)]) == 0
    assert len(read_brackets(out.read_text())) == len(read_brackets(const_corpus.read_text()))


def test_const_train_and_parse_from_text(tmp_path, const_corpus):
    model = tmp_path / "const.model"
    assert main(["train", "--task", "const", "--train", str(const_corpus),
                 "--model", str(model), "--nonterminal-dims", "8"] + FAST_FLAGS) == 0
    text = tmp_path / "input.txt"
    text.write_text("the/DT dog/NN sees/VBZ a/DT cat/NN\n", encoding="utf-8")
    out = tmp_path / "pred.brackets"
    assert main(["parse", "--task", "const", "--model", str(model),
                 "--input", str(text), "--input-format", "text",
                 "--output", str(out)]) == 0
    assert out.read_text().startswith("(")


def test_parse_model_with_unknown_config_key_is_data_error(tmp_path, dep_corpus, capsys):
    code, err = _parse_with_edited_header(tmp_path, dep_corpus, capsys,
                                          lambda h: h["config"].update(beam_size=8))
    assert code == 2
    assert "beam_size" in err


@pytest.mark.parametrize("task, flags, named", [
    ("dep", ["--promote-cap", "7", "--nonterminal-dims", "9"], "--nonterminal-dims"),
    ("dep", ["--promote-cap", "7"], "--promote-cap"),
    ("const", ["--root-label", "top"], "--root-label"),
], ids=["dep-const-flags", "dep-promote-cap", "const-root-label"])
def test_train_flag_of_the_other_task_is_usage_error(tmp_path, dep_corpus, task, flags,
                                                      named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--task", task, "--train", str(dep_corpus),
              "--model", str(tmp_path / "m")] + flags + FAST_FLAGS)
    assert exc.value.code == 1
    assert "%s does not apply to --task %s" % (named, task) in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def _unary_chain(depth: int) -> str:
    """A bracketed tree whose brackets nest depth deep, preterminal included."""
    return "(X " * (depth - 2) + "(S (NN w))" + ")" * (depth - 2) + "\n"


def test_tree_nested_to_the_bound_passes_oracle_train_and_eval(tmp_path):
    path = tmp_path / "deep.brackets"
    path.write_text(_unary_chain(MAX_BRACKET_DEPTH), encoding="utf-8")
    assert main(["oracle", "--task", "const", "--input", str(path), "--replay"]) == 0
    assert main(["train", "--task", "const", "--train", str(path),
                 "--model", str(tmp_path / "m"), "--nonterminal-dims", "4"] + FAST_FLAGS) == 0
    assert main(["eval", "--task", "const", "--gold", str(path), "--pred", str(path)]) == 0


@pytest.mark.parametrize("command", ["oracle", "train", "eval"])
def test_tree_nested_past_the_bound_is_data_error(tmp_path, command, capsys):
    path = tmp_path / "deep.brackets"
    path.write_text(_unary_chain(MAX_BRACKET_DEPTH + 1), encoding="utf-8")
    argv = {"oracle": ["--input", str(path), "--replay"],
            "train": ["--train", str(path), "--model", str(tmp_path / "m")] + FAST_FLAGS,
            "eval": ["--gold", str(path), "--pred", str(path)]}[command]
    assert main([command, "--task", "const"] + argv) == 2
    assert "line 1: brackets nested deeper than %d" % MAX_BRACKET_DEPTH in capsys.readouterr().err
