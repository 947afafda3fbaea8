"""Pin the reference outputs the benchmark's correctness gate compares with.

Usage (from the repository root)::

    python3 perfbench/pin_reference.py --workload office-table3 --seeds 0-31
    python3 perfbench/pin_reference.py --workload rip-scale --seeds 0-15

Merges, per seed, the digests the correctness gate compares with into
``perfbench/reference/<workload>.json``: per-setting digests of one pass
for ``office-table3``; UNG/forest/core digests per size plus the
seed-independent model shape for ``rip-scale``.  (``synthetic-broker``
needs no pin: its set-up runs the serial reference grid.)  Re-pin only in a
change meant to alter outputs, and say why.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_DIR, WORKLOADS, OfficeTable3  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def pin(workload_cls, seed: int, reference: dict) -> None:
    work_root = HERE.parent / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        workload = workload_cls(seed, Path(work_dir))
        workload.setup()
        stats = workload.run_pass()
    if workload_cls is OfficeTable3:
        reference[str(seed)] = stats.digests
        return
    shapes = reference.setdefault("shape", {})
    digests = reference.setdefault("seeds", {}).setdefault(str(seed), {})
    for size, found in stats.digests.items():
        shape = found["shape"]
        if shapes.setdefault(size, shape) != shape:
            raise SystemExit(f"seed {seed} {size}: shape {shape} differs from "
                             f"the pinned {shapes[size]}")
        digests[size] = {k: v for k, v in found.items() if k != "shape"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("office-table3", "rip-scale"))
    parser.add_argument("--seeds", required=True, help="e.g. 0-63 or 1,5,9")
    args = parser.parse_args()
    workload_cls = WORKLOADS[args.workload]
    path = REFERENCE_DIR / f"{args.workload}.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        pin(workload_cls, seed, reference)
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"pinned {args.workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
