#!/usr/bin/env python3
"""Record the input pool and the digests of every byte-stable output.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record.py

It picks the rand and grid pool seeds (the first generator seeds whose
landscape has the stated number of local minima), runs each CLI command of the
workload once per input and writes ``perfbench/pool.json``. A later commit
that changes any output byte then fails the benchmark's checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def digests_for(workload: str, path: Path, out: Path) -> dict:
    got = {}
    for op in wl.CLI_OPS[workload]:
        rc = wl.run_cli(op, path, out)
        if rc != 0:
            raise SystemExit(f"{op} exited {rc} on {path}")
        got[op] = wl.output_digests(op, out)
    return got


def main() -> int:
    (HERE / "_runs").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=HERE / "_runs"))
    try:
        pool = {}
        for workload in ("rand", "grid"):
            inputs = []
            for s in wl.pool_seeds(workload):
                path = work / f"{workload}{s}.json"
                wl.save_landscape(wl.make_landscape(workload, s), path)
                inputs.append({"gen_seed": s,
                               "digests": digests_for(workload, path, work / "out")})
                print(workload, s, flush=True)
            pool[workload] = {"inputs": inputs}
        path = work / "L14X.json"
        wl.write_mc_landscape(path)
        pool["mc"] = {"inputs": [{"name": "L14X",
                                  "digests": digests_for("mc", path, work / "out")}]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(wl.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
