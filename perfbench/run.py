"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload diarize-short --seed 0 --seconds 6 --trace 0
    python3 perfbench/run.py --manifest      # rewrite BENCHMARK.json

The program is imported from `src/` of the same checkout. BLAS threads
are pinned before numpy loads. The last stdout line is the JSON result.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: the workloads' matrices (d = 12, hidden 64) are too small for
# BLAS threading to pay, and a second thread only adds noise.
BLAS_THREADS = 1


def bootstrap() -> None:
    """Pin BLAS threads and put src/ and this directory on sys.path.
    Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    src = HERE.parent / "src"
    try:
        import feddiar
    except ImportError as exc:
        print(f"error: cannot import feddiar from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(feddiar.__file__).resolve().parent != src / "feddiar":
        print(f"error: feddiar imported from {feddiar.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if argv == ["--manifest"]:
        from harness import ROOT, manifest
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    from harness import print_record, run
    print_record(run(argv))
    return 0


if __name__ == "__main__":
    bootstrap()
    sys.exit(main(sys.argv[1:]))
