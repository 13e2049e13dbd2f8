"""Record the output digests that runs with the named seeds must reproduce.

    python3 perfbench/record_digests.py

For the default and held-out seeds in meta.json, runs the first
RECORDED_REQUESTS requests of every workload in a fresh interpreter and
writes their sha256 digests to digests.json.  Re-record only when a change
is meant to alter the CLI's output bytes, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, OUT, serve
import workloads

RECORDED_REQUESTS = 16


def main() -> int:
    meta = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))
    seeds = [meta["seeds"]["default"], meta["seeds"]["held_out"]]
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for seed in seeds:
            work = OUT / f"record-{name}-{seed}"
            try:
                result = serve(name, seed, work, indices=range(RECORDED_REQUESTS))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not all(r[2] for r in result["records"]):
                print(f"{name} seed {seed}: a request failed; nothing recorded", file=sys.stderr)
                return 1
            table[name][str(seed)] = [r[3] for r in result["records"]]
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
