"""Which ``repro`` modules does a workload import *after* it is open?

Run by ``tests/test_import_closure.py`` in a fresh interpreter (this
process's ``sys.modules`` is the measurement), once per ``bench_e2e``
workload at smoke size::

    python tests/late_import_probe.py zipf_write

Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UPDATES = 300
READ_EVERY = 8


def main(name: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from e2e import bench_e2e

    w = bench_e2e.make_workload(name, bench_e2e.DEFAULT_SEED, smoke=True)
    try:
        w.open()
        opened = set(sys.modules)
        op, read = w.op(), w.read()
        for index in range(UPDATES):
            op(index)
            if index % READ_EVERY == READ_EVERY - 1:
                read(index)
        w.drain()
        late = sorted(module for module in set(sys.modules) - opened
                      if module.split(".")[0] == "repro")
        session = getattr(w, "session", None)
        replans = (getattr(session, "refreshes", 0)
                   // getattr(session, "check_every", 1))
    finally:
        w.close()
    print(json.dumps({"late": late, "replans": replans,
                      "loaded": sum(module.split(".")[0] == "repro"
                                    for module in opened)}))


if __name__ == "__main__":
    main(sys.argv[1])
