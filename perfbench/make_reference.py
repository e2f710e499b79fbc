"""Write the reference digests that every benchmark run compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced pass of each named workload (default: all) at the
reference seed and writes ``reference/<workload>.json``: the SHA-256 of
every verdict's scale table and, for config-batch, of every output file
(manifests without their wall-clock field).  It refuses to write a
reference from a pass whose checks fail.  Regenerate only when a change
is meant to alter outputs, and say so in its description.
"""

from __future__ import annotations

import json
import sys

from run import OUT, ROOT, load_workloads, stamp


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    names = argv or sorted(workloads.WORKLOADS)
    OUT.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name]
        p = workloads.Pass(workdir=OUT)
        wl.run_pass(wl.prepare(workloads.REFERENCE_SEED), p)
        failed = [(r.vid, r.problems) for r in p.records if r.problems]
        if failed:
            print(f"{name}: checks failed, no reference written: {failed[:5]}")
            return 1
        reference = {
            "stamp": stamp(name, workloads.REFERENCE_SEED),
            "seed": workloads.REFERENCE_SEED,
            "verdicts": {r.vid: r.digest for r in sorted(p.records, key=lambda r: r.vid)},
            "files": dict(sorted(p.files.items())),
        }
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"{name}: {len(p.records)} verdict digests -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
