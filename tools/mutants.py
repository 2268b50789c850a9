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
           "column = int(np.argmax(np.where(mask[space.column_kind], scores, -np.inf)))",
           "column = int(len(scores) - 1 - np.argmax("
           "np.where(mask[space.column_kind], scores, -np.inf)[::-1]))",
           "decoding breaks ties toward the lowest legal column",
           ("tests/test_model.py::test_decide_breaks_ties_toward_the_lowest_column_and_label",)),
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
           "factors[:, hidden:2 * hidden] = c_prev * (f * (1.0 - f))",
           "factors[:, hidden:2 * hidden] = c_prev * f",
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
           "E[g^2] accumulates the squared gradient; the hand-computed two-step "
           "traces use g = 1, where g*g == g, so only random gradients notice",
           ("tests/test_nn.py::test_adadelta_in_place_update_is_bitwise_the_formula",)),
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
            print("%-32s %s" % (m.name, verdict), flush=True)
            if code != 1:
                bad.append(m.name)
            shutil.rmtree(copy)
    for m in MUTANTS:
        if m.equivalent and m.name not in bad:
            print("%-32s equivalent: %s" % (m.name, m.equivalent))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
