"""Mutation check for the test suite: each listed one-line mutant must fail
the tests named for it.

A mutant is data: the file it edits, the exact text it replaces (which must
occur once), the replacement, why the tests should notice, and the test
files (or pytest node ids) that must fail. The runner first checks that the
named tests pass on an unmutated copy, then applies each mutant to a fresh
temporary copy of src/ and tests/ and runs its tests there, so the working
tree is never touched. An equivalent mutant, one no test can tell from the
original, carries the reason instead of tests; the runner only checks that
its text still applies.

    python tools/mutants.py

Exits 0 when every mutant is killed, 1 when one survives or no longer
applies. Not part of the tier-1 suite: each mutant runs pytest once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    why: str
    tests: tuple[str, ...] = ()
    equivalent: str = ""    # why no test can notice; such a mutant is not run


MUTANTS = (
    Mutant("clip-below-limit", "src/shiftparse/model.py",
           "        if total > limit:\n", "        if total < limit:\n",
           "global-norm clipping must leave gradients below the limit alone and "
           "scale those above it to the limit",
           ("tests/test_model.py::test_clip_grads_scales_to_the_limit_only_above_it",)),
    Mutant("ties-to-highest-column", "src/shiftparse/model.py",
           "column = columns[scores[columns].argmax()]",
           "column = columns[len(columns) - 1 - scores[columns][::-1].argmax()]",
           "decoding breaks ties toward the lowest legal column",
           ("tests/test_model.py::test_decide_breaks_ties_toward_the_lowest_column_and_label",)),
    Mutant("legal-columns-ignore-a-kind", "src/shiftparse/model.py",
           "        key = frozenset(legal)\n",
           "        key = frozenset(legal) - {self.kinds[-1]}\n",
           "the legal columns are kept per set of legal kinds; keyed without one kind, two "
           "sets share the columns of whichever came first",
           ("tests/test_model.py::test_decide_breaks_ties_toward_the_lowest_column_and_label",)),
    Mutant("dep-oracle-reduces-right-early", "src/shiftparse/dep_system.py",
           "elif heads[s0] == s1 and collected[s0] == n_children[s0]:",
           "elif heads[s0] == s1:",
           "the oracle attaches s0 under s1 only once s0 has all its dependents; earlier, "
           "those still in the queue lose their head",
           ("tests/test_dep_system.py::test_roundtrip_property_random_trees",)),
    Mutant("const-oracle-drops-a-left-sister", "src/shiftparse/const_system.py",
           "        for _ in range(h):\n", "        for _ in range(h - 1):\n",
           "every left sister waiting on the stack is adjoined to its promoted head",
           ("tests/test_const_system.py::test_roundtrip_property_random_trees",)),
    Mutant("lstm-input-gate-derivative", "src/shiftparse/nn.py",
           "_sigmoid_factor(i, g, t, factors[:, :hidden])",
           "np.multiply(g, i, out=factors[:, :hidden])",
           "BPTT through the input gate multiplies by the sigmoid's derivative",
           ("tests/test_nn.py::test_lstm_forward_backward_matches_finite_differences",)),
    Mutant("lstm-output-gate-derivative", "src/shiftparse/nn.py",
           "_sigmoid_factor(o, tanh_cs, t, factors[:, 2 * hidden:s3])",
           "np.multiply(tanh_cs, o, out=factors[:, 2 * hidden:s3])",
           "BPTT through the output gate multiplies by the sigmoid's derivative",
           ("tests/test_nn.py::test_lstm_forward_backward_matches_finite_differences",)),
    Mutant("load-accepts-trailing-bytes", "src/shiftparse/model.py",
           "        if size != end:\n", "        if size < end:\n",
           "a model file holds exactly the blocks its config implies, no trailing bytes",
           ("tests/test_model.py::test_load_requires_the_payload_to_end_with_the_file",)),
    Mutant("word-dropout-rate", "src/shiftparse/model.py",
           "cfg.word_dropout / (cfg.word_dropout + count)",
           "cfg.word_dropout / (cfg.word_dropout + count + 1)",
           "a form seen count times is replaced by UNK at rate alpha/(alpha+count)",
           ("tests/test_model.py::"
            "test_word_dropout_replaces_a_form_at_rate_alpha_over_alpha_plus_count",)),
    Mutant("dropout-unscaled", "src/shiftparse/nn.py",
           "return keep.astype(dtype) / (1.0 - p)", "return keep.astype(dtype)",
           "inverted dropout scales kept units by 1/(1-p), so the expectation is unchanged",
           ("tests/test_acceptance.py::test_criterion_08_dropout_expectation",)),
    Mutant("promote-cap-inclusive", "src/shiftparse/const_system.py",
           "state.stack[-1].promote_run < promote_cap",
           "state.stack[-1].promote_run <= promote_cap",
           "an item takes at most promote_cap promotes",
           ("tests/test_const_system.py::test_promote_cap_masks_runaway_promotes",)),
    Mutant("word-dropout-of-unk", "src/shiftparse/model.py",
           "if train and cfg.word_dropout > 0.0 and wid != unk:",
           "if train and cfg.word_dropout > 0.0:",
           "UNK is not replaced by itself",
           equivalent="replacing UNK by UNK leaves the input as it was; only the "
                      "generator's later draws shift, which no test pins"),
    Mutant("lstm-forget-gate-derivative", "src/shiftparse/nn.py",
           "_sigmoid_factor(f, c_prev, t, factors[:, hidden:2 * hidden])",
           "np.multiply(c_prev, f, out=factors[:, hidden:2 * hidden])",
           "BPTT through the forget gate multiplies by the sigmoid's derivative",
           ("tests/test_nn.py::test_lstm_forward_backward_matches_finite_differences",)),
    Mutant("lstm-packed-prev-row", "src/shiftparse/nn.py",
           "prev = np.arange(first, n) - np.repeat(sizes[:-1], sizes[1:])",
           "prev = np.arange(first, n) - np.repeat(sizes[1:], sizes[1:])",
           "a packed row's previous state is its own sequence's row one step back",
           ("tests/test_nn.py",)),
    Mutant("adadelta-squared-gradient", "src/shiftparse/nn.py",
           "    np.multiply(1.0 - rho, g, out=a)\n    a *= g\n",
           "    np.multiply(1.0 - rho, g, out=a)\n",
           "E[g^2] accumulates the squared gradient; a trace with g = 1 cannot tell, "
           "since g*g == g, so the hand-computed one uses g = 2",
           ("tests/test_nn.py::test_adadelta_two_step_trace_with_gradient_two",
            "tests/test_nn.py::test_adadelta_in_place_update_is_bitwise_the_formula")),
    Mutant("load-accepts-non-finite", "src/shiftparse/model.py",
           "if not np.isfinite(p.value).all():", "if False:",
           "load_model rejects a tensor holding NaN or infinity",
           ("tests/test_model.py::test_load_rejects_non_finite_tensor",)),
    Mutant("load-const-as-dep", "src/shiftparse/model.py",
           "MODELS = {cls.task: cls for cls in (DepModel, ConstModel)}",
           'MODELS = {"dep": DepModel, "const": DepModel}',
           "load_model rebuilds the model class the header's task names",
           ("tests/test_model.py",)),
    Mutant("conll-empty-column-without-line", "src/shiftparse/trees.py",
           "raise TreeReadError(str(exc), lineno)", "raise TreeReadError(str(exc))",
           "an empty FORM or POS column is a data error naming its line",
           ("tests/test_cli.py",)),
    Mutant("non-utf8-without-path", "src/shiftparse/cli.py",
           'raise ValueError("%s: not UTF-8 text: line %d" % (path, lineno)) from None',
           "raise",
           "a corpus, head-rules or config file that is not UTF-8 is named",
           ("tests/test_cli.py",)),
    Mutant("dep-writes-brackets", "src/shiftparse/cli.py",
           "gold_reader=lambda args: read_conll, write_trees=write_conll,",
           "gold_reader=lambda args: read_conll, write_trees=write_brackets,",
           "parse --task dep writes CoNLL, which eval and read_conll read back",
           ("tests/test_cli.py",)),
    Mutant("gradcheck-const-default-sizes", "src/shiftparse/cli.py",
           'gradcheck_config={"nonterminal_dims": 6, "l2": 0.0}', "gradcheck_config={}",
           "gradcheck checks a toy-sized constituency model without l2, as for dependencies",
           ("tests/test_cli.py",)),
    Mutant("classify-rows-right-of-ids", "src/shiftparse/model.py",
           "ids = np.searchsorted(rows[prefix], ids)",
           'ids = np.searchsorted(rows[prefix], ids, side="right")',
           "a selected-rows table's row of an id is the id's position among the rows",
           ("tests/test_model.py::test_used_rows_tables_match_whole_tables",)),
    Mutant("label-head-rows-reversed", "src/shiftparse/model.py",
           "(rows, [self.label_id[actions[r].label] for r in rows])",
           "(rows[::-1], [self.label_id[actions[r].label] for r in rows])",
           "the label head scores each labeled state against that state's own label",
           ("tests/test_model.py::"
            "test_action_space_targets_pair_each_labeled_state_with_its_label",)),
    Mutant("bracket-depth-unchecked", "src/shiftparse/trees.py",
           "if len(stack) == MAX_BRACKET_DEPTH:", "if False:",
           "a tree nested past MAX_BRACKET_DEPTH is a data error, not a RecursionError later",
           ("tests/test_trees.py::test_reader_error_messages_and_lines_are_pinned",
            "tests/test_cli.py::test_tree_nested_past_the_bound_is_data_error")),
    Mutant("leaf-tree-at-closing-line", "src/shiftparse/trees.py",
           'raise TreeReadError("a tree must have at least one constituent", opened)',
           'raise TreeReadError("a tree must have at least one constituent", line)',
           "a tree that is one preterminal is reported at the line that opens it",
           ("tests/test_trees.py::test_reader_error_messages_and_lines_are_pinned",)),
    Mutant("conll-repeat-as-order", "src/shiftparse/trees.py",
           "if 1 <= tok_id <= pos", "if 1 <= tok_id < pos",
           "an id that repeats the previous row's is a duplicate, not out of order",
           ("tests/test_trees.py::test_reader_error_messages_and_lines_are_pinned",)),
    Mutant("string-lines-split-by-splitlines", "src/shiftparse/trees.py",
           "stream = io.StringIO(stream, newline=None)", "stream = stream.splitlines()",
           "a string is split only at line ends, so \\x0c or \\x85 in a field keeps the "
           "file's line numbers",
           ("tests/test_trees.py::test_string_input_lines_are_numbered_as_in_the_file",)),
    Mutant("workspace-zeros-uncleared", "src/shiftparse/nn.py",
           "    out.fill(0)\n", "",
           "an array that replaces np.zeros is cleared, though its workspace memory "
           "holds the previous update's values",
           ("tests/test_model.py::test_reused_workspace_gives_a_fresh_models_loss_and_gradients",)),
    Mutant("workspace-never-reuses", "src/shiftparse/nn.py",
           "            if at + nbytes <= end:\n", "            if False:\n",
           "an update that fits in the workspace takes its arrays from it and "
           "allocates no new memory for them",
           ("tests/test_model.py::test_second_update_allocates_far_less_than_the_first",)),
    Mutant("heads-released-before-backward", "src/shiftparse/model.py",
           "            first, *others = self.space.heads\n",
           "            self.store.release(p for p in self.store if p.name.startswith(\"head.\"))\n"
           "            first, *others = self.space.heads\n",
           "a parameter's update starts only once its gradient is final: the heads' W1 "
           "gradients are still to come from the projection's backward pass",
           ("tests/test_model.py::test_fit_on_two_threads_is_bitwise_one_thread",)),
    Mutant("background-before-pending-call", "src/shiftparse/nn.py",
           "    batch = Batch(jobs, first=True)\n",
           "    batch = Batch(jobs)\n",
           "a side_by_side call's batch goes in front of the queued ones, so the helper "
           "serves it before any more queued jobs",
           ("tests/test_nn.py::test_side_by_side_call_runs_before_queued_background_jobs",)),
    Mutant("classifier-accumulates-in-reverse", "src/shiftparse/model.py",
           "            for (prefix, _, _), terms in zip(items, held):\n",
           "            for (prefix, _, _), terms in reversed(list(zip(items, held))):\n",
           "the terms the caller's classifier jobs hold are added in sentence order, as "
           "one thread adds them; back to front, the rows and sums they share round "
           "differently",
           ("tests/test_model.py::test_classifier_on_two_threads_is_bitwise_one_thread",)),
    Mutant("classifier-holds-nothing", "src/shiftparse/model.py",
           "        if added[0] != i:\n", "        if False:\n",
           "a classifier item that finds an item before it not yet added holds all it "
           "would add; added at once, the rows and sums that items share go in out of "
           "sentence order",
           ("tests/test_model.py::test_classifier_on_two_threads_is_bitwise_one_thread",)),
    Mutant("helper-scratch-in-callers-workspace", "src/shiftparse/nn.py",
           "            self.context.run(_current.set, self.twin)\n", "",
           "a job on the helper takes its scratch from the twin of the caller's workspace, "
           "never from the caller's own, which the caller takes from at the same time",
           ("tests/test_nn.py::"
            "test_helper_job_takes_its_scratch_from_the_twin_of_the_callers_workspace",)),
    Mutant("adadelta-rows-shared-by-threads", "src/shiftparse/nn.py",
           "_thread_rows = threading.local()", '_thread_rows = type("Rows", (), {})()',
           "each thread runs its ADADELTA chunks through scratch rows of its own; rows that "
           "both threads write at once mix two chunks' values",
           ("tests/test_nn.py::test_adadelta_in_place_update_is_bitwise_the_formula",
            "tests/test_nn.py::test_adadelta_on_two_threads_is_bitwise_one_thread",
            "tests/test_nn.py::"
            "test_adadelta_outside_a_workspace_takes_cache_aligned_scratch_rows")),
    Mutant("classifier-gather-drops-last-chunk", "src/shiftparse/nn.py",
           "            for start in range(0, len(x), rows):\n",
           "            for start in range(0, len(x) - rows, rows):\n",
           "training's gather-sum of the selected w1 rows covers every chunk of states, "
           "the last and shorter one too",
           ("tests/test_nn.py::test_mlp_forward_chunks_keep_the_single_gather_bits",)),
    Mutant("finish-runs-jobs-after-an-error", "src/shiftparse/nn.py",
           "            while self.error is None:\n", "            while True:\n",
           "once a job of a batch has raised, finish starts none of the batch's other jobs",
           ("tests/test_nn.py::"
            "test_background_job_error_is_raised_by_finish_and_the_helper_goes_on",)),
    Mutant("backward-direction-runs-forward", "src/shiftparse/model.py",
           "return sizes, (first + steps, first + lengths[sentence] - 1 - steps)",
           "return sizes, (first + steps, first + steps)",
           "the backward LSTM direction reads each sentence from its last word; read left "
           "to right, forward and backward still agree, so the gradient check holds",
           ("tests/test_model.py::test_encoder_is_each_sentences_plain_bilstm",)),
    Mutant("backward-outputs-in-forward-order", "src/shiftparse/model.py",
           "            x[bwd, units:] = hb\n", "            x[fwd, units:] = hb\n",
           "the backward direction's output of a word is the one its packed row computed "
           "for that word; in forward order each word gets another word's right context",
           ("tests/test_model.py::test_encoder_is_each_sentences_plain_bilstm",)),
    Mutant("const-accepts-recall-csv", "src/shiftparse/cli.py",
           '"punct_tags", "recall_by_length", "max_bucket"', '"punct_tags", "max_bucket"',
           "eval --task const rejects --recall-by-length, which only dep writes",
           ("tests/test_cli.py::test_command_flag_of_the_other_task_is_usage_error",)),
)


def _copy_tree(dest: Path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _applies(mutant: Mutant) -> bool:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


def main() -> int:
    bad = [m.name for m in MUTANTS if not _applies(m)]
    for name in bad:
        print("%s: text not found exactly once; update the mutant" % name)
    runnable = [m for m in MUTANTS if not m.equivalent and m.name not in bad]
    with tempfile.TemporaryDirectory(prefix="shiftparse-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy_tree(baseline)
        tests = sorted({t for m in runnable for t in m.tests})
        if tests and _pytest(baseline, tests) != 0:
            print("the named tests fail without any mutant; fix them first")
            return 1
        for i, m in enumerate(runnable):
            copy = Path(tmp) / str(i)
            _copy_tree(copy)
            target = copy / m.file
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                              encoding="utf-8")
            code = _pytest(copy, m.tests)
            # pytest exits 1 when tests ran and failed; anything else (an
            # import or collection error) does not show that a test noticed
            verdict = "killed" if code == 1 else "SURVIVED (pytest exit %d)" % code
            print("%-36s %s" % (m.name, verdict), flush=True)
            if code != 1:
                bad.append(m.name)
            shutil.rmtree(copy)
    for m in MUTANTS:
        if m.equivalent and m.name not in bad:
            print("%-36s equivalent: %s" % (m.name, m.equivalent))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
