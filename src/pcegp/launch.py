"""The `pcegp` console script: cap the math thread pools, then run the CLI.

OpenBLAS and OpenMP size their thread pools when numpy is first imported,
so `--threads` and `PCEGP_THREADS` take effect only if the thread
variables are set before that. This module imports no numeric code: it
reads the thread count from the command line or the environment, sets
the variables, and only then imports `pcegp.cli` and hands it the
arguments. A count that is not a positive integer is left for the CLI to
report as a usage error.
"""

from __future__ import annotations

import os
import sys

THREADS_ENV_VAR = "PCEGP_THREADS"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def set_thread_vars(n: int) -> None:
    """Set the BLAS and OpenMP thread variables to `n`."""
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def _thread_count(argv) -> int | None:
    """The count of the last `--threads`, else of the environment; None if not positive."""
    value = os.environ.get(THREADS_ENV_VAR)
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    try:
        n = int(value)
    except (TypeError, ValueError):
        return None
    return n if n >= 1 else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    n = _thread_count(argv)
    if n is not None:
        set_thread_vars(n)
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
