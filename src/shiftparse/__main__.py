"""The shiftparse command: ``shiftparse ...`` or ``python -m shiftparse ...``.

It runs cli.main with one BLAS thread unless OPENBLAS_NUM_THREADS is set.
OpenBLAS reads the variable when numpy loads, so it is set here, before
anything imports numpy (the package's names load lazily for this). Left
unset, OpenBLAS takes one thread per CPU; those threads compete with nn's
helper thread, which made training 24-39% and parsing 9-13% slower on two
CPUs, and its GEMMs round differently, so outputs depended on the CPU
count. A program that imports shiftparse as a library keeps its own
setting.
"""

import os
import sys


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
