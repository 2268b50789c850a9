#!/usr/bin/env python3
"""Record the reference outputs that run.py checks for the given seeds.

    python3 bench/record.py 0 1 2 3

For each seed and workload, sets up at paper size and runs a fixed number
of ops untimed: the loss of each minibatch update (train) or a digest of
each parse (const-parse). Results merge into bench/reference.json. Record
again only when the workloads or the program's intended outputs change.
"""

import json
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

# More ops than a 30 s run makes after one set-up on a 2-core Xeon (at most
# about 24, 14 and 97).
OPS = {"dep-train": 30, "const-train": 16, "const-parse": 100}


def main(seeds) -> int:
    run.import_program()
    import workloads

    path = run.BENCH_DIR / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=run.BENCH_DIR) as workdir:
        for seed in seeds:
            for name, n_ops in OPS.items():
                workload = workloads.WORKLOADS[name](workloads.PAPER, None)
                workload.setup(seed, None, workdir)
                workload.begin_window()
                ops = [workload.run_op() for _ in range(n_ops)]
                if any(op.failed for op in ops):
                    print("seed %d %s: an op failed; nothing recorded" % (seed, name))
                    return 1
                refs.setdefault(name, {})[str(seed)] = [op.output for op in ops]
                print("seed %d %s: %d ops" % (seed, name, n_ops), flush=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
