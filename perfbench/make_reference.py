"""Write reference_digests.json: per-op digests of pass 0 at the default seed.

    python3 perfbench/make_reference.py

Regenerate it only when a workload's definition (its inputs or its settings)
changes, from a commit whose outputs are known to be right; never to absorb
a changed library output. Every op must pass its checks first.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, load_library
from workloads import DEFAULT_SEED, WORKLOADS, op_digest


def main() -> int:
    lib = load_library()
    reference = {}
    for name, make in WORKLOADS.items():
        wl = make(lib, DEFAULT_SEED)
        digests = []
        for op in wl.pass_inputs(0):
            out = wl.run(op)
            problems = wl.check(op, out)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            digests.append(op_digest(wl.record(out)))
        reference[name] = {"params": wl.params, "ops": digests}
        print(f"{name}: {len(digests)} ops")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
