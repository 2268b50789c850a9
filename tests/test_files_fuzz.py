"""Seeded mutation fuzz of the two files the CLI reads besides treebanks:
a saved model file and a --config file. Whatever the mutation, loading
returns or raises ModelIOError (model file) or a ValueError naming a line
or a field (config file), and the CLI exits 0 or, with the error on one
line, 2."""

import json
import random
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from shiftparse import cli, synth
from shiftparse.model import DepConfig, DepModel, ModelIOError, load_model, save_model
from shiftparse.trees import write_conll
from shiftparse.vocab import build_vocab

TREES = synth.toy_dep_corpus(3, seed=3)

# what a header value may become: other types, edge numbers, other names;
# the numbers either fit a toy model or are too large for any array
VALUES = [None, True, False, 0, -1, 1, 2, 3, 3.5, -0.0, 1e308, 10 ** 30, 2 ** 63, "", "x",
          "float32", "float64", "dep", "const", "emb.word", [], {}, [1], [["x", 1]], {"a": 1}]


def _model_file(tmp_path):
    vocab = build_vocab([t.sentence for t in TREES], dep_trees=TREES, min_form_count=1)
    config = DepConfig(word_dims=4, tag_dims=3, lstm_units=3, hidden=4, layers=1, seed=5)
    path = tmp_path / "m.model"
    save_model(DepModel(config, vocab), path)
    return path.read_bytes()


def _paths(value, at=()):
    """Every (key path) into a JSON value, its own () included."""
    yield at
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, at + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, at + (index,))


def _edit_header(rng: random.Random, header: dict) -> dict:
    """One header value replaced or removed; vocab pairs are too many to
    pick from evenly, so a path is picked among the other values first."""
    paths = [p for p in _paths(header) if p and not (p[0] == "vocab" and len(p) > 2)]
    if rng.random() < 0.2:
        paths = [p for p in _paths(header) if p[:1] == ("vocab",) and len(p) > 2]
    path = rng.choice(paths)
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(VALUES)
    return header


def _mutate_model(rng: random.Random, data: bytes) -> bytes:
    (length,) = struct.unpack("<Q", data[4:12])
    header, blocks = data[12:12 + length], data[12 + length:]
    op = rng.randrange(6)
    if op <= 1:     # a header value, with the length field kept right or not
        edited = json.dumps(_edit_header(rng, json.loads(header)), sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        size = len(edited) if op == 0 else length
        return data[:4] + struct.pack("<Q", size) + edited + blocks
    if op == 2:     # the length field
        size = rng.choice([0, 1, length - 1, length + 1, len(data) - 12, len(data),
                           2 ** 63, 2 ** 64 - 1, rng.randrange(2 ** 64)])
        return data[:4] + struct.pack("<Q", size) + data[12:]
    if op == 3:     # cut short
        return data[:rng.randrange(len(data))]
    if op == 4:     # a non-finite value in a tensor block
        at = 12 + length + 8 * rng.randrange(len(blocks) // 8)
        bad = np.array([rng.choice([np.nan, np.inf, -np.inf])], dtype="<f8").tobytes()
        return data[:at] + bad + data[at + 8:]
    at = rng.randrange(len(data))   # a byte anywhere
    return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]


def test_mutated_model_file_loads_or_raises_model_io_error(tmp_path, capsys):
    valid = _model_file(tmp_path)
    conll = tmp_path / "in.conll"
    conll.write_text(write_conll(TREES), encoding="utf-8")
    path = tmp_path / "mutated.model"
    rng = random.Random(2016)
    for case in range(300):
        data = _mutate_model(rng, valid)
        path.write_bytes(data)
        try:
            load_model(path)
        except ModelIOError:
            failed = True
        else:
            failed = False
        if case % 3 == 0:   # the CLI too, on every third
            code = cli.main(["parse", "--task", "dep", "--model", str(path),
                             "--input", str(conll), "--output", str(tmp_path / "out.conll")])
            err = capsys.readouterr().err
            assert code == (2 if failed else 0), (case, data[:200], err)
            assert not failed or re.fullmatch(r"error: [^\n]+\n", err), (case, err)


CONFIG = """# toy run
task=dep
word_dims=8
tag_dims=6
hidden=12
lstm_units=8
hierarchical=true
dropout=0.25  # on every LSTM output
l2=0
precision=float64
seed=3
"""

ALPHABET = ["=", "#", " ", "\n", "\r\n", "\t", "-", "0", "1", "9" * 30, "-1", "1e400", "nan",
            "inf", "0x10", "1_0", "true", "off", "maybe", "float32", "float16", "layers",
            "grad_clip", "nonterminal_dims", "root_label", "task", "\x00", "\xa0", "é"]
FIELDS = {f.name for f in fields(DepConfig)}


def _mutate_config(rng: random.Random, text: str) -> bytes:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op <= 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif op == 2:
            text = text[:at] + text[at + rng.randint(1, 6):]
        else:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
    data = text.encode("utf-8")
    if rng.random() < 0.05:     # a byte that is not UTF-8
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.mark.parametrize("task", ["dep", "const"])
def test_mutated_config_file_builds_or_names_a_line_or_field(tmp_path, capsys, task):
    path = tmp_path / "run.cfg"
    argv = ["train", "--task", task, "--train", str(tmp_path / "absent"),
            "--model", str(tmp_path / "m.model"), "--config", str(path)]
    names = FIELDS | {f.name for f in fields(cli.TASKS[task].model.config_cls)}
    rng = random.Random(2016)
    for case in range(300):
        data = _mutate_config(rng, CONFIG)
        path.write_bytes(data)
        try:
            cli._build_config(task, cli.build_parser().parse_args(argv))
        except ValueError as exc:
            message = str(exc)
            line = re.match(r"%s\b.* line (\d+)\b" % re.escape(str(path)), message)
            if line:
                assert 1 <= int(line.group(1)) <= len(data.splitlines()), (case, data, message)
            else:
                assert message.split()[0] in names, (case, data, message)
        if case % 5 == 0:
            # a config that builds gets as far as the absent training file
            assert cli.main(argv) == 2
            assert re.fullmatch(r"error: [^\n]+\n", capsys.readouterr().err)
