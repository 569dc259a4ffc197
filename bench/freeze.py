"""Freeze the answer of every pool item of every workload into ``golden.json``.

Run from the repository root at a commit whose answers are trusted:

    python3 bench/freeze.py

Each pool item of ``sweep``, ``deep`` and ``cli`` is executed once and its
answer digest is stored.  If any item's known-answer checks fail, the
failures are reported and the file is not written.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import GOLDEN, OUT_DIR, SRC, import_package, run_item
from workloads import WORKLOADS


def freeze(workload, lib, tmp):
    digests, problems = {}, []
    for item in workload.pool().values():
        result = run_item(workload, lib, item, tmp)
        digests[item.key] = result["digest"]
        problems += [f"{item.key}: {p}" for p in result["problems"]]
        print(f"{item.key} {result['latency_s']:.3f}s", file=sys.stderr, flush=True)
    return digests, problems


def main():
    sys.path.insert(0, str(SRC))
    lib = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    golden, problems = {}, []
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
            golden[name], found = freeze(workload, lib, tmp)
        problems += found
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
