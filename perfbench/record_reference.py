"""Record the reference output digests that runs on the reference seed check.

    python3 perfbench/record_reference.py

Runs the first `checked_ops` operations of every workload on the reference
seed, checks each output, and writes the per-op digests to
perfbench/reference_digests.json.  Re-record only when a change is meant to
alter the library's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_library()
    import workloads

    digests = {}
    for name, w in workloads.WORKLOADS.items():
        records = run.run_ops(w, workloads.REFERENCE_SEED, run._workdir(run.DEFAULT_OUT, name, "reference"), count=w.checked_ops)
        failed = [r for r in records if r.error is not None]
        if failed:
            print(f"error: {name} op {failed[0].index}: {failed[0].error}", file=sys.stderr)
            return 1
        digests[name] = [r.digest for r in records]
    document = {"seed": workloads.REFERENCE_SEED, "workloads": digests}
    run.REFERENCE_FILE.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
