"""Pin the golden outputs of every workload at the golden seed.

    python3 perfbench/make_golden.py [workload ...]

Run from the root of a source checkout.  Rewrites golden/<name>.json.gz
from the current package, so run it only for a change that is meant to
alter results; a refactor must pass the existing files unchanged.
"""

import contextlib
import gzip
import json
import shutil
import sys
import time
from pathlib import Path

import check
import run


def main(names) -> int:
    root = Path.cwd().resolve()
    work = root / ".perfbench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(run.WORKLOADS):
            workload = run.WORKLOADS[name]
            deadline = time.perf_counter() + 600.0
            experiment = run.run_experiment(workload, run.GOLDEN_SEED, 1, False, work, root, deadline)
            if not experiment.ok:
                print(f"{name}: {experiment.problems}", file=sys.stderr)
                return 1
            check.GOLDEN_DIR.mkdir(exist_ok=True)
            # mtime=0 keeps the file bytes a function of the pinned values
            with gzip.GzipFile(check.GOLDEN_DIR / f"{name}.json.gz", "wb", mtime=0) as stream:
                stream.write(json.dumps(check.make_golden(experiment.outputs)).encode("utf-8"))
            print(f"{name}: pinned {', '.join(experiment.outputs)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
