#!/usr/bin/env python3
"""shiftparse benchmark: seeded train/parse workloads, end to end and per layer.

    python3 bench/run.py --workload dep-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a source checkout: shiftparse is imported from the
checkout's src/ directory and nowhere else. --trace 0 measures the
end-to-end metrics with no tracing installed; --trace 1 measures half the
window traced and half untraced and reports the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result. See NOTES.md for the workloads.
"""

import os

# One BLAS thread, pinned before numpy is first imported: the parsers run one
# sentence at a time, and criterion-6 determinism assumes a fixed count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up is short, and a shared machine's speed drifts over seconds, so
# back-to-back set-ups share one speed. An untraced run sets up afresh before
# each of this many equal slices of its window, and reports the median.
SETUP_REPEATS = 5


def import_program():
    """Put the checkout's src/ first on sys.path and import shiftparse from
    there; exit non-zero when the sources are absent."""
    src = ROOT / "src"
    package = src / "shiftparse"
    if not (package / "__init__.py").is_file():
        sys.exit("bench: no shiftparse sources at %s" % package)
    sys.path.insert(0, str(src))
    import shiftparse
    if Path(shiftparse.__file__).resolve().parent != package.resolve():
        sys.exit("bench: shiftparse imported from %s, not %s" % (shiftparse.__file__, package))


# -- environment ---------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out["L" + level] = "%s shared by cpus %s" % (_read(index / "size"),
                                                         _read(index / "shared_cpu_list"))
    return out


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or None
    return head or None


def environment(np, shiftparse) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:               # numpy < 1.26 only prints
        blas = "see numpy.show_config()"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "shiftparse": shiftparse.__version__,
        "git_commit": _git_commit(),
    }


# -- measurement ---------------------------------------------------------------

def run_window(workload, seconds: float, block: int):
    """Closed loop, one client: the next op starts when the previous one has
    returned. Runs for `seconds`, and at least one whole block."""
    ops = []
    done = 0
    deadline = time.perf_counter() + seconds
    while done < block or time.perf_counter() < deadline:
        op = workload.run_op()
        ops.append(op)
        done += op.sentences
    return ops


def blocks(ops, block: int):
    """Consecutive ops grouped into whole blocks: (sentences, words, seconds)."""
    out, acc = [], [0, 0, 0.0]
    for op in ops:
        acc = [acc[0] + op.sentences, acc[1] + op.words, acc[2] + op.seconds]
        if acc[0] >= block:
            out.append(tuple(acc))
            acc = [0, 0, 0.0]
    return out


def tail(samples):
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it, but never below the (upper) median:
    with 21 or fewer samples it is the median, so it moves smoothly with the
    sample count instead of jumping between the maximum and the minimum."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def throughput(ops, block: int):
    whole = blocks(ops, block)
    return (statistics.median(w / s for _, w, s in whole),
            statistics.median(n / s for n, _, s in whole))


def measure(name: str, seed: int, seconds: float, traced: bool, size_name: str) -> dict:
    import numpy as np
    import shiftparse
    import tracing
    import workloads

    size = workloads.SIZES[size_name]
    reference = None
    if size_name == "paper":
        refs = json.loads(_read(BENCH_DIR / "reference.json") or "{}")
        reference = refs.get(name, {}).get(str(seed))
    workload = workloads.WORKLOADS[name](size, reference)
    tracer = tracing.Tracer() if traced else None
    print("env " + json.dumps(environment(np, shiftparse), sort_keys=True))
    print("workload %s seed %d seconds %g trace %d size %s reference %s"
          % (name, seed, seconds, traced, size_name,
             "%d ops" % len(reference) if reference else "none"))

    setup_times, setup_roots = [], []

    def set_up(workdir):
        workload.release()
        gc.collect()                    # every set-up starts from the same heap state
        t0 = time.perf_counter()
        if traced:
            with tracer.patched(), tracer.span("setup") as root:
                workload.setup(seed, tracer, workdir)
            setup_roots.append(root)
        else:
            workload.setup(seed, None, workdir)
        setup_times.append(time.perf_counter() - t0)

    missing = []
    if traced:
        with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
            for _ in range(SETUP_REPEATS):
                set_up(workdir)
        workload.begin_window()
        with tracer.patched(), tracer.span("window") as window_root:
            traced_ops = run_window(workload, seconds / 2, workloads.BLOCK)
        workload.begin_window()
        plain_ops = run_window(workload, seconds / 2, workloads.BLOCK)
        ops = traced_ops + plain_ops
        layers, missing, window_s = tracer.per_layer(window_root, setup_roots,
                                                     workload.expected_layers)
        overhead = throughput(plain_ops, workloads.BLOCK)[0] / \
            throughput(traced_ops, workloads.BLOCK)[0] - 1.0
        layers["trace.overhead_frac"] = (overhead, "ratio")
        print("traced window %.3f s, per layer (share of window):" % window_s)
        for key, (value, unit) in layers.items():
            share = ""
            if unit == "s" and not key.startswith(("setup.", "model.save", "model.load", "vocab.")):
                share = "  %5.1f%%" % (100.0 * value / window_s)
            print("  %-36s %14.6g %-9s%s" % (key, value, unit, share))
        print("gflop and gb_per_s are computed from argument shapes, not counted")
        print("missing layers: %s" % (", ".join(missing) or "none"))
        metrics = layers
    else:
        ops = []
        workload.begin_window()
        with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
            for i in range(SETUP_REPEATS):
                set_up(workdir)
                # a slice that ran over its share shortens the next one
                spent = sum(op.seconds for op in ops)
                ops += run_window(workload, seconds * (i + 1) / SETUP_REPEATS - spent,
                                  workloads.BLOCK)
        words_per_s, sent_per_s = throughput(ops, workloads.BLOCK)
        latency = [op.seconds * 1000.0 for op in ops]
        tail_ms, tail_pct, beyond = tail(latency)
        metrics = {
            "words_per_s": (words_per_s, "words/s"),
            "sent_per_s": (sent_per_s, "sent/s"),
            "latency_ms_p50": (statistics.median(latency), "ms"),
            "latency_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        op_kind = "sentence" if ops[0].sentences == 1 else "%d-sentence update" % ops[0].sentences
        print("latency per %s: p50 of %d samples; tail is p%.1f with %d beyond"
              % (op_kind, len(latency), tail_pct, beyond))
        print("setup_s runs: %s" % ", ".join("%.4f" % t for t in setup_times))
        for key, (value, unit) in metrics.items():
            print("  %-16s %14.6f %s" % (key, value, unit))

    attempted = sum(op.sentences for op in ops)
    failed = sum(op.failed for op in ops)
    print("sentences attempted %d failed %d failed_frac %.6f reference mismatches %d"
          % (attempted, failed, failed / attempted, workload.mismatches))
    return {"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- modes -----------------------------------------------------------------------

def _child(args_list):
    return [sys.executable, str(Path(__file__).resolve())] + args_list


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = _child(["--workload", name, "--seed", str(args.seed), "--seconds",
                      str(args.seconds), "--trace", str(args.trace), "--size", args.size])
        status |= subprocess.run(cmd).returncode
    return status


def smoke() -> int:
    """Tiny sizes: every workload emits exactly BENCHMARK.json's metric names
    and units, checks pass, and no expected layer is missing."""
    import workloads
    spec = json.loads(_read(ROOT / "BENCHMARK.json"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            cmd = _child(["--workload", name, "--seed", "1", "--seconds", "2",
                          "--trace", str(traced), "--size", "tiny"])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = "%s trace %d" % (name, traced)
            before = len(problems)
            if proc.returncode != 0:
                problems.append("%s: exit %d: %s" % (label, proc.returncode, proc.stderr[-500:]))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if got != want[traced]:
                diff = set(got.items()) ^ set(want[traced].items())
                problems.append("%s: metric names/units differ: %s" % (label, sorted(diff)))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                detail = [l for l in lines if l.startswith(("missing", "sentences"))]
                problems.append("%s: not correct: %s" % (label, detail))
            print("%-22s %s" % (label, "FAIL" if len(problems) > before else "ok"))
    for problem in problems:
        print("FAIL " + problem)
    print("smoke %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size run of every workload, traced and not")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
