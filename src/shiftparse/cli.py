"""Command-line entry point.

Subcommands: train, parse, eval, oracle, gradcheck. The training flags
are the fields of the library's config dataclasses spelled with dashes
(--word-dims for word_dims), typed by their defaults; the bool fields are
set with --hierarchical, --flat and --no-tags. A flat key=value config
file can override the defaults and flags override both. A bad value exits
2 with the field named, whether it came from a flag, a config file or a
model header. TASKS holds all that tells the tasks apart, eval's scores
aside, and a flag that only the other task takes is a usage error naming
it. Every input is read as UTF-8, as it is parsed, and a line that is not
is a data error naming the file and the line. The command is shiftparse
or python -m shiftparse (__main__.py), which runs OpenBLAS on one thread
unless OPENBLAS_NUM_THREADS is set; every command is then deterministic
given --seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .const_system import const_oracle, const_replay
from .dep_system import NotDerivable, dep_oracle, dep_replay, read_actions, write_actions
from .evalmetrics import arc_recall_by_length, recall_table_csv, score_brackets, score_dep
from .headrules import HeadRules, assign_heads
from .model import (ConstModel, DepModel, ModelIOError, load_model, model_grad_check,
                    save_best, save_model)
from .trees import TreeReadError, read_brackets, read_conll, read_tagged_text, write_brackets, write_conll
from .vocab import build_vocab
from . import synth


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _coerce(value: str, kind):
    if kind is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError("cannot parse boolean %r" % value)
    return kind(value)


def _read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as the caller iterates; a line
    that is not UTF-8 is a ValueError naming the file and the line."""
    # surrogateescape makes each bad byte a lone surrogate, which encode() refuses
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError("%s: not UTF-8 text: line %d" % (path, lineno)) from None
            yield line


def _read_config_file(path, task: str, cls) -> dict:
    """The values a flat key=value file sets for task, each coerced to the
    type of its cls field's default; an error names the file, and the line
    and key where it has them."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    overrides = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("%s line %d: expected key=value" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "task":
            continue
        if key not in kinds:
            raise ValueError("%s line %d: unknown config key %r for task %s"
                             % (path, lineno, key, task))
        try:
            overrides[key] = _coerce(value, kinds[key])
        except ValueError as exc:
            raise ValueError("%s line %d: bad value for %s: %s"
                             % (path, lineno, key, exc)) from None
    return overrides


def _const_reader(args):
    """read_brackets with head children assigned by --head-rules, or by the
    bundled table without it."""
    rules = (HeadRules.from_text("".join(_read_lines(args.head_rules))) if args.head_rules
             else HeadRules.bundled())
    return lambda lines: [assign_heads(t, rules) for t in read_brackets(lines)]


@dataclass(frozen=True)
class _Task:
    """What the commands need of a task that its model class (which names
    the config and action classes) does not know. gold_reader(args) returns
    the reader of a gold file's lines; flags are the dests of the command
    flags only this task takes; gradcheck_config holds the toy config's
    fields of this task alone."""
    model: type
    flags: tuple
    gold_reader: Callable
    write_trees: Callable
    vocab_keyword: str
    oracle: Callable
    replay: Callable
    random_tree: Callable
    gradcheck_config: dict

    def vocab(self, trees, min_form_count: int):
        return build_vocab([t.sentence for t in trees], min_form_count=min_form_count,
                           **{self.vocab_keyword: trees})


TASKS = {task.model.task: task for task in (
    _Task(model=DepModel, flags=("include_punct", "punct_tags", "recall_by_length", "max_bucket"),
          gold_reader=lambda args: read_conll, write_trees=write_conll,
          vocab_keyword="dep_trees", oracle=dep_oracle,
          replay=lambda tree, actions: dep_replay(tree.sentence, actions,
                                                  root_label=tree.label_of(tree.root)),
          random_tree=synth.random_projective_tree, gradcheck_config={}),
    _Task(model=ConstModel, flags=("keep_root", "head_rules"),
          gold_reader=_const_reader, write_trees=write_brackets,
          vocab_keyword="const_trees", oracle=const_oracle,
          replay=lambda tree, actions: const_replay(tree.sentence, actions),
          random_tree=synth.random_const_tree,
          gradcheck_config={"nonterminal_dims": 6, "l2": 0.0}),
)}

# every config field of either task, as a flag's dest and type
_FLAG_KINDS = {f.name: type(f.default) for task in TASKS.values()
               for f in fields(task.model.config_cls)}


# the dests of the flags that may belong to one task alone
_TASK_FLAGS = [*_FLAG_KINDS, *(name for task in TASKS.values() for name in task.flags)]


def _foreign_flag(args):
    """The first flag given that only the other task takes, a config field
    or one of its TASKS flags, spelled as on the command line. A flag not
    given is None, and one the command lacks is no attribute at all."""
    task = TASKS[args.task]
    own = set(task.flags) | set(task.model.config_cls.__dataclass_fields__)
    for name in _TASK_FLAGS:
        if name not in own and getattr(args, name, None) is not None:
            return "--" + name.replace("_", "-")
    return None


def _build_config(task: str, args) -> object:
    cls = TASKS[task].model.config_cls
    values = _read_config_file(args.config, task, cls) if args.config else {}
    for f in fields(cls):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return cls(**values)


def _add_hyper_flags(sub):
    """One --field-name flag per non-bool field of either config, typed by
    its default; the bool fields have the spellings below."""
    sub.add_argument("--config", help="flat key=value config file")
    for name, kind in _FLAG_KINDS.items():
        if kind is not bool:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)
    sub.add_argument("--hierarchical", dest="hierarchical", action="store_const",
                     const=True, default=None, help="factor structure and label decisions")
    sub.add_argument("--flat", dest="hierarchical", action="store_const", const=False,
                     help="single classifier over composite actions")
    sub.add_argument("--no-tags", dest="use_tags", action="store_const", const=False,
                     default=None, help="drop POS-tag embeddings from the encoder input")


def cmd_train(args) -> int:
    task = TASKS[args.task]
    config = _build_config(args.task, args)
    start = time.time()
    read = task.gold_reader(args)
    train = read(_read_lines(args.train))
    dev = read(_read_lines(args.dev)) if args.dev else None
    model = task.model(config, task.vocab(train, args.min_form_count))

    with open(args.log, "w", encoding="utf-8") if args.log else nullcontext() as log_fh:
        # without --log, print's file=None is stdout
        lines = model.fit(train, dev, log=lambda line: print(line, file=log_fh))

    summary = next(line for line in lines if line.startswith("train sentences="))
    kept, skipped = (int(field.split("=")[1]) for field in summary.split()[1:])
    if skipped / (kept + skipped) > 0.1:
        print("warning: %d/%d training sentences were not derivable"
              % (skipped, kept + skipped), file=sys.stderr)
    save_model(model, args.model)
    written = args.model
    # without a dev set there is no best epoch: the best copy would be the model
    if dev:
        save_best(model, args.model + ".best")
        written += " and %s.best" % args.model
    print("trained in %.1fs; wrote %s" % (time.time() - start, written), file=sys.stderr)
    return 0


def _read_parse_input(args):
    fmt, lines = args.input_format, _read_lines(args.input)
    if fmt == "conll":
        return read_conll(lines, allow_missing_heads=True)
    if fmt == "text":
        return read_tagged_text(lines)
    return [t.sentence for t in read_brackets(lines)]


def _write_output(path, text: str):
    """text into the file at path, or to stdout without one."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        fh.write(text)


def cmd_parse(args) -> int:
    model = load_model(args.model)
    if model.task != args.task:
        raise ModelIOError("task mismatch: model is %r but --task is %r"
                           % (model.task, args.task))
    sentences = _read_parse_input(args)
    start = time.time()
    _write_output(args.output, TASKS[args.task].write_trees([model.parse(s) for s in sentences]))
    print("parsed %d sentences in %.1fs" % (len(sentences), time.time() - start),
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    if args.task == "dep":
        gold = read_conll(_read_lines(args.gold))
        pred = read_conll(_read_lines(args.pred))
        punct = frozenset(args.punct_tags.split(",")) if args.punct_tags else None
        score = score_dep(gold, pred, exclude_punct=not args.include_punct,
                          punct_tags=punct)
        # before any output, so a bad --max-bucket prints no scores, with or
        # without a table to write
        max_bucket = 10 if args.max_bucket is None else args.max_bucket
        rows = (arc_recall_by_length(gold, pred, max_bucket=max_bucket)
                if args.recall_by_length or args.max_bucket is not None else None)
        print("uas=%.2f" % score.uas)
        print("las=%.2f" % score.las)
        print("correct_heads=%d correct_labeled=%d scored=%d"
              % (score.correct_heads, score.correct_labeled, score.scored))
        if args.recall_by_length:
            _write_output(args.recall_by_length, recall_table_csv(rows))
    else:
        score = score_brackets(read_brackets(_read_lines(args.gold)),
                               read_brackets(_read_lines(args.pred)),
                               ignore_root=not args.keep_root)
        print("precision=%.2f" % score.precision)
        print("recall=%.2f" % score.recall)
        print("f1=%.2f" % score.f1)
        print("matched=%d gold=%d predicted=%d"
              % (score.matched, score.gold, score.predicted))
    return 0


def cmd_oracle(args) -> int:
    task = TASKS[args.task]
    trees = task.gold_reader(args)(_read_lines(args.input))
    skipped = []
    sequences = []
    for i, tree in enumerate(trees):
        try:
            sequences.append((tree, task.oracle(tree)))
        except NotDerivable:
            skipped.append(i)
    text = write_actions(seq for _t, seq in sequences)
    _write_output(args.output, text)
    for i in skipped:
        print("skipped sentence %d: not derivable (non-projective)" % (i + 1),
              file=sys.stderr)
    if args.replay:
        mismatches = sum(task.replay(tree, actions) != tree for (tree, _seq), actions
                         in zip(sequences, read_actions(text, task.model.action_cls)))
        print("replay: %d mismatches over %d sentences" % (mismatches, len(sequences)),
              file=sys.stderr)
        if mismatches:
            return 3
    return 0


def cmd_gradcheck(args) -> int:
    tolerance = args.tolerance
    # 32-bit mode checks the float32 backward path against a float64 twin
    # (see model_grad_check) under a relaxed tolerance
    if tolerance is None:
        tolerance = 1e-4 if args.precision == "float64" else 1e-2
    rng = np.random.default_rng(args.seed)
    tasks = TASKS.values() if args.task == "both" else (TASKS[args.task],)
    failed = False
    for task in tasks:
        trees = [task.random_tree(rng, 5) for _ in range(2)]
        # a toy model, small enough to check in seconds
        config = task.model.config_cls(word_dims=8, tag_dims=6, lstm_units=8, layers=2,
                                       hidden=12, dropout=0.0, word_dropout=0.0,
                                       precision=args.precision, seed=3, **task.gradcheck_config)
        model = task.model(config, task.vocab(trees, 1))
        report = model_grad_check(model, trees, samples_per_param=args.samples,
                                  h=args.step, tolerance=tolerance,
                                  inject_error=args.inject_error)
        print("%s: max relative error %.3e over %d parameter tensors (tolerance %.0e)"
              % (task.model.task, report["max_rel_error"], len(report["by_param"]),
                 tolerance))
        for name, index, analytic, numeric, err in report["failures"][:10]:
            print("  FAIL %s[%d]: analytic %.6e vs numeric %.6e (rel %.3e)"
                  % (name, index, analytic, numeric, err))
        failed = failed or not report["ok"]
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftparse")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a parser")
    train.add_argument("--task", choices=tuple(TASKS), required=True)
    train.add_argument("--train", required=True)
    train.add_argument("--dev")
    train.add_argument("--model", required=True)
    train.add_argument("--log", help="training log path (stdout if omitted)")
    train.add_argument("--head-rules", dest="head_rules")
    train.add_argument("--min-form-count", dest="min_form_count", type=int, default=2)
    _add_hyper_flags(train)
    train.set_defaults(func=cmd_train)

    parse = commands.add_parser("parse", help="parse sentences with a trained model")
    parse.add_argument("--task", choices=tuple(TASKS), required=True)
    parse.add_argument("--model", required=True)
    parse.add_argument("--input", required=True)
    parse.add_argument("--input-format", dest="input_format",
                       choices=("conll", "text", "brackets"), default="conll")
    parse.add_argument("--output")
    parse.set_defaults(func=cmd_parse)

    evaluate = commands.add_parser("eval", help="score predictions against gold")
    evaluate.add_argument("--task", choices=tuple(TASKS), required=True)
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    # the task-only flags default to None, so that _foreign_flag sees them given
    evaluate.add_argument("--include-punct", dest="include_punct", action="store_true",
                          default=None)
    evaluate.add_argument("--punct-tags", dest="punct_tags",
                          help="comma-separated gold POS tags to exclude")
    evaluate.add_argument("--keep-root", dest="keep_root", action="store_true", default=None)
    evaluate.add_argument("--recall-by-length", dest="recall_by_length",
                          help="write the arc-recall-by-length CSV here")
    evaluate.add_argument("--max-bucket", dest="max_bucket", type=int)
    evaluate.set_defaults(func=cmd_eval)

    oracle = commands.add_parser("oracle", help="dump gold action sequences")
    oracle.add_argument("--task", choices=tuple(TASKS), required=True)
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--output")
    oracle.add_argument("--head-rules", dest="head_rules")
    oracle.add_argument("--replay", action="store_true",
                        help="verify that replaying the dump reproduces the input")
    oracle.set_defaults(func=cmd_oracle)

    gradcheck = commands.add_parser("gradcheck", help="finite-difference gradient check")
    gradcheck.add_argument("--task", choices=tuple(TASKS) + ("both",), default="both")
    gradcheck.add_argument("--precision", choices=("float64", "float32"), default="float64")
    gradcheck.add_argument("--tolerance", type=float, default=None,
                           help="default 1e-4 (float64) or 1e-2 (float32)")
    gradcheck.add_argument("--step", type=float, default=1e-5,
                           help="finite-difference step; default 1e-5. Write a negative "
                                "value as --step=VALUE, or it reads as an option")
    gradcheck.add_argument("--samples", type=int, default=8,
                           help="coordinates sampled per parameter tensor")
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument("--inject-error", dest="inject_error",
                           help="test hook: corrupt this parameter's analytic gradient")
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag = _foreign_flag(args) if args.task in TASKS else None
    if flag:
        parser.error("%s does not apply to --task %s" % (flag, args.task))
    try:
        return args.func(args)
    except (TreeReadError, ModelIOError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
