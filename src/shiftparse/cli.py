"""Command-line entry point.

Subcommands: train, parse, eval, oracle, gradcheck. The training flags
are the fields of the library's config dataclasses spelled with dashes
(--word-dims for word_dims), typed by their defaults; the bool fields are
set with --hierarchical, --flat and --no-tags. A flat key=value config
file can override the defaults and flags override both. A bad value exits
2 with the field named, whether it came from a flag, a config file or a
model header. Every command is deterministic given --seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

import numpy as np

from .const_system import ConstAction, const_oracle, const_replay
from .dep_system import (DepAction, NotDerivable, dep_oracle, dep_replay, read_actions,
                         write_actions)
from .evalmetrics import arc_recall_by_length, recall_table_csv, score_brackets, score_dep
from .headrules import HeadRules, assign_heads
from .model import (ConstConfig, ConstModel, DepConfig, DepModel, ModelIOError,
                    load_model, model_grad_check, save_best, save_model)
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


def _read_config_file(path, task: str, cls) -> dict:
    """The values a flat key=value file sets for task, each coerced to the
    type of its cls field's default; an error names the file, and the line
    and key where it has them."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError("%s: not UTF-8 text: %s" % (path, exc)) from None
    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
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


def _foreign_flag(args):
    """The first hyperparameter flag given that only the other task's
    config has, spelled as on the command line."""
    own, other = (DepConfig, ConstConfig) if args.task == "dep" else (ConstConfig, DepConfig)
    for f in fields(other):
        if f.name not in own.__dataclass_fields__ and getattr(args, f.name) is not None:
            return "--" + f.name.replace("_", "-")
    return None


def _build_config(task: str, args) -> object:
    cls = DepConfig if task == "dep" else ConstConfig
    values = _read_config_file(args.config, task, cls) if args.config else {}
    for f in fields(cls):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return cls(**values)


def _add_hyper_flags(sub):
    """One --field-name flag per non-bool field of either config, typed by
    its default; the bool fields have the spellings below."""
    sub.add_argument("--config", help="flat key=value config file")
    flags = {f.name: type(f.default) for cls in (DepConfig, ConstConfig) for f in fields(cls)}
    for name, kind in flags.items():
        if kind is not bool:
            sub.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)
    sub.add_argument("--hierarchical", dest="hierarchical", action="store_const",
                     const=True, default=None, help="factor structure and label decisions")
    sub.add_argument("--flat", dest="hierarchical", action="store_const", const=False,
                     help="single classifier over composite actions")
    sub.add_argument("--no-tags", dest="use_tags", action="store_const", const=False,
                     default=None, help="drop POS-tag embeddings from the encoder input")


def _load_dep_corpus(path):
    with open(path, encoding="utf-8") as fh:
        return read_conll(fh)


def _load_const_corpus(path, rules: HeadRules):
    with open(path, encoding="utf-8") as fh:
        trees = read_brackets(fh)
    return [assign_heads(t, rules) for t in trees]


def _head_rules(args) -> HeadRules:
    if getattr(args, "head_rules", None):
        return HeadRules.load(args.head_rules)
    return HeadRules.bundled()


def cmd_train(args) -> int:
    config = _build_config(args.task, args)
    start = time.time()
    if args.task == "dep":
        train = _load_dep_corpus(args.train)
        dev = _load_dep_corpus(args.dev) if args.dev else None
        sentences = [t.sentence for t in train]
        vocab = build_vocab(sentences, dep_trees=train,
                            min_form_count=args.min_form_count)
        model = DepModel(config, vocab)
    else:
        rules = _head_rules(args)
        train = _load_const_corpus(args.train, rules)
        dev = _load_const_corpus(args.dev, rules) if args.dev else None
        sentences = [t.sentence for t in train]
        vocab = build_vocab(sentences, const_trees=train,
                            min_form_count=args.min_form_count)
        model = ConstModel(config, vocab)

    log_lines = []
    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        def emit(line):
            log_lines.append(line)
            if log_fh:
                log_fh.write(line + "\n")
            else:
                print(line)
        model.fit(train, dev, log=emit)
    finally:
        if log_fh:
            log_fh.close()

    skipped_line = next(l for l in log_lines if l.startswith("train sentences="))
    skipped = int(skipped_line.split("skipped=")[1])
    total = skipped + int(skipped_line.split("sentences=")[1].split()[0])
    if total and skipped / total > 0.1:
        print("warning: %d/%d training sentences were not derivable" % (skipped, total),
              file=sys.stderr)
    save_model(model, args.model)
    written = args.model
    # without a dev set there is no best epoch: the best copy would be the model
    if dev:
        save_best(model, args.model + ".best")
        written += " and %s.best" % args.model
    print("trained in %.1fs; wrote %s" % (time.time() - start, written), file=sys.stderr)
    return 0


def _read_parse_input(args):
    fmt = args.input_format
    with open(args.input, encoding="utf-8") as fh:
        if fmt == "conll":
            return read_conll(fh, allow_missing_heads=True)
        if fmt == "text":
            return read_tagged_text(fh)
        return [t.sentence for t in read_brackets(fh)]


def cmd_parse(args) -> int:
    model = load_model(args.model)
    if model.task != args.task:
        raise ModelIOError("task mismatch: model is %r but --task is %r"
                           % (model.task, args.task))
    sentences = _read_parse_input(args)
    start = time.time()
    parsed = [model.parse(s) for s in sentences]
    text = write_conll(parsed) if args.task == "dep" else write_brackets(parsed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("parsed %d sentences in %.1fs" % (len(sentences), time.time() - start),
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    if args.task == "dep":
        gold = _load_dep_corpus(args.gold)
        pred = _load_dep_corpus(args.pred)
        punct = frozenset(args.punct_tags.split(",")) if args.punct_tags else None
        score = score_dep(gold, pred, exclude_punct=args.exclude_punct,
                          punct_tags=punct)
        # before any output, so a bad --max-bucket prints no scores
        rows = (arc_recall_by_length(gold, pred, max_bucket=args.max_bucket)
                if args.recall_by_length else None)
        print("uas=%.2f" % score.uas)
        print("las=%.2f" % score.las)
        print("correct_heads=%d correct_labeled=%d scored=%d"
              % (score.correct_heads, score.correct_labeled, score.scored))
        if rows is not None:
            with open(args.recall_by_length, "w", encoding="utf-8") as fh:
                fh.write(recall_table_csv(rows))
    else:
        with open(args.gold, encoding="utf-8") as fh:
            gold = read_brackets(fh)
        with open(args.pred, encoding="utf-8") as fh:
            pred = read_brackets(fh)
        score = score_brackets(gold, pred, ignore_root=args.ignore_root)
        print("precision=%.2f" % score.precision)
        print("recall=%.2f" % score.recall)
        print("f1=%.2f" % score.f1)
        print("matched=%d gold=%d predicted=%d"
              % (score.matched, score.gold, score.predicted))
    return 0


def cmd_oracle(args) -> int:
    if args.task == "dep":
        trees = _load_dep_corpus(args.input)
        oracle, action_cls = dep_oracle, DepAction

        def replay(tree, actions):
            return dep_replay(tree.sentence, actions, root_label=tree.label_of(tree.root))
    else:
        trees = _load_const_corpus(args.input, _head_rules(args))
        oracle, action_cls = const_oracle, ConstAction

        def replay(tree, actions):
            return const_replay(tree.sentence, actions)
    skipped = []
    sequences = []
    for i, tree in enumerate(trees):
        try:
            sequences.append((tree, oracle(tree)))
        except NotDerivable:
            skipped.append(i)
    text = write_actions(seq for _t, seq in sequences)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for i in skipped:
        print("skipped sentence %d: not derivable (non-projective)" % (i + 1),
              file=sys.stderr)
    if args.replay:
        mismatches = sum(replay(tree, actions) != tree for (tree, _seq), actions
                         in zip(sequences, read_actions(text, action_cls)))
        print("replay: %d mismatches over %d sentences" % (mismatches, len(sequences)),
              file=sys.stderr)
        if mismatches:
            return 3
    return 0


def cmd_gradcheck(args) -> int:
    precision = args.precision or "float64"
    tolerance = args.tolerance
    step = args.step
    # 32-bit mode checks the float32 backward path against a float64 twin
    # (see model_grad_check) under a relaxed tolerance
    if tolerance is None:
        tolerance = 1e-4 if precision == "float64" else 1e-2
    if step is None:
        step = 1e-5
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    tasks = ("dep", "const") if args.task == "both" else (args.task,)
    failed = False
    for task in tasks:
        if task == "dep":
            trees = [synth.random_projective_tree(rng, 5) for _ in range(2)]
            vocab = build_vocab([t.sentence for t in trees], dep_trees=trees,
                                min_form_count=1)
            config = DepConfig(word_dims=8, tag_dims=6, lstm_units=8, layers=2,
                               hidden=12, dropout=0.0, word_dropout=0.0,
                               precision=precision, seed=3)
            model = DepModel(config, vocab)
        else:
            trees = [synth.random_const_tree(rng, 5) for _ in range(2)]
            vocab = build_vocab([t.sentence for t in trees], const_trees=trees,
                                min_form_count=1)
            config = ConstConfig(word_dims=8, tag_dims=6, nonterminal_dims=6,
                                 lstm_units=8, layers=2, hidden=12, dropout=0.0,
                                 word_dropout=0.0, l2=0.0, precision=precision, seed=3)
            model = ConstModel(config, vocab)
        report = model_grad_check(model, trees, samples_per_param=args.samples,
                                  h=step, tolerance=tolerance,
                                  inject_error=args.inject_error)
        print("%s: max relative error %.3e over %d parameter tensors (tolerance %.0e)"
              % (task, report["max_rel_error"], len(report["by_param"]), tolerance))
        for name, index, analytic, numeric, err in report["failures"][:10]:
            print("  FAIL %s[%d]: analytic %.6e vs numeric %.6e (rel %.3e)"
                  % (name, index, analytic, numeric, err))
        failed = failed or not report["ok"]
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="shiftparse")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a parser")
    train.add_argument("--task", choices=("dep", "const"), required=True)
    train.add_argument("--train", required=True)
    train.add_argument("--dev")
    train.add_argument("--model", required=True)
    train.add_argument("--log", help="training log path (stdout if omitted)")
    train.add_argument("--head-rules", dest="head_rules")
    train.add_argument("--min-form-count", dest="min_form_count", type=int, default=2)
    _add_hyper_flags(train)
    train.set_defaults(func=cmd_train)

    parse = commands.add_parser("parse", help="parse sentences with a trained model")
    parse.add_argument("--task", choices=("dep", "const"), required=True)
    parse.add_argument("--model", required=True)
    parse.add_argument("--input", required=True)
    parse.add_argument("--input-format", dest="input_format",
                       choices=("conll", "text", "brackets"), default="conll")
    parse.add_argument("--output")
    parse.set_defaults(func=cmd_parse)

    evaluate = commands.add_parser("eval", help="score predictions against gold")
    evaluate.add_argument("--task", choices=("dep", "const"), required=True)
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--include-punct", dest="exclude_punct",
                          action="store_false", default=True)
    evaluate.add_argument("--punct-tags", dest="punct_tags",
                          help="comma-separated gold POS tags to exclude")
    evaluate.add_argument("--keep-root", dest="ignore_root",
                          action="store_false", default=True)
    evaluate.add_argument("--recall-by-length", dest="recall_by_length",
                          help="write the arc-recall-by-length CSV here")
    evaluate.add_argument("--max-bucket", dest="max_bucket", type=int, default=10)
    evaluate.set_defaults(func=cmd_eval)

    oracle = commands.add_parser("oracle", help="dump gold action sequences")
    oracle.add_argument("--task", choices=("dep", "const"), required=True)
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--output")
    oracle.add_argument("--head-rules", dest="head_rules")
    oracle.add_argument("--replay", action="store_true",
                        help="verify that replaying the dump reproduces the input")
    oracle.set_defaults(func=cmd_oracle)

    gradcheck = commands.add_parser("gradcheck", help="finite-difference gradient check")
    gradcheck.add_argument("--task", choices=("dep", "const", "both"), default="both")
    gradcheck.add_argument("--precision", choices=("float64", "float32"), default=None)
    gradcheck.add_argument("--tolerance", type=float, default=None,
                           help="default 1e-4 (float64) or 1e-2 (float32)")
    gradcheck.add_argument("--step", type=float, default=None,
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
    flag = _foreign_flag(args) if args.command == "train" else None
    if flag:
        parser.error("%s does not apply to --task %s" % (flag, args.task))
    try:
        return args.func(args)
    except (TreeReadError, ModelIOError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
