"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py 0 40              # seeds 0..39
    python3 perfbench/record_reference.py 0 40 sweep,fedsim # only these

Runs one op of every workload per seed and writes the output digests
(change-point frames, cluster assignments and speaker labels; sweep.csv
for the sweep) and the final fedsim accuracy to perfbench/reference.json.
Only run this at a commit whose outputs are known to be right.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, bootstrap


def main(first: int, stop: int, names: list[str] | None) -> int:
    import platform

    import numpy as np

    from harness import OUT_ROOT, REFERENCE_PATH
    from workloads import WORKLOADS

    refs = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    refs["recorded_with"] = {"python": platform.python_version(),
                             "numpy": np.__version__, "blas_threads": BLAS_THREADS}
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
        for seed in range(first, stop):
            for name in names or WORKLOADS:
                cls = WORKLOADS[name]
                out_dir = Path(tmp) / name
                out_dir.mkdir(exist_ok=True)
                workload = cls(seed, "full", out_dir)
                workload.setup()
                items, _ = workload.op()
                if any(it.error for it in items):
                    raise SystemExit(f"{name} seed {seed}: {items}")
                if name == "fedsim":
                    entry = {"fed_accuracy": items[0].quality["fed_accuracy"]}
                else:
                    entry = {"digests": [it.digest for it in items]}
                refs.setdefault(name, {})[str(seed)] = entry
                print(name, seed, entry, flush=True)
            REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    bootstrap()
    names = sys.argv[3].split(",") if len(sys.argv) > 3 else None
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2]), names))
