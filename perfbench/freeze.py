"""Regenerate ``reference.json``, the benchmark's frozen expectations.

    python3 perfbench/freeze.py

Runs every experiment kind, with the benchmark's trial scaling, at each
config seed below ``VERIFIED_SEEDS`` and records

- the metric values at the reference seed, which ``gate.py`` holds later
  runs to;
- the seeds at which a kind reports a threshold breach (exit code 1), so
  that the gate expects that verdict there instead of a pass.

A run that raises, exits with any other code or records a non-finite
metric aborts the freeze.  Regenerate only when a change is meant to move
the frozen values, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import gate
import run

REFERENCE_SEED = 0
VERIFIED_SEEDS = 64
KINDS = [kind for pair in run.WORKLOADS.values() for kind in pair]


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    metrics = {}
    breaches: dict[str, list[int]] = {kind: [] for kind in KINDS}
    for seed in range(VERIFIED_SEEDS):
        configs = run.write_configs(
            os.path.join(run.WORK, f"configs{seed}"), KINDS, seed)
        report = run.run_pass(run.ROOT, os.path.join(run.WORK, f"seed{seed}"),
                              configs, traced=False)
        for kind, result in report["kinds"].items():
            if result["error"] is not None or result["rc"] not in (0, 1):
                raise SystemExit(f"seed {seed} {kind}: rc {result['rc']} "
                                 f"{result['error']}")
            values, _ = gate.read_records(os.path.join(report["dir"], kind))
            if not all(math.isfinite(v) for v in values.values()):
                raise SystemExit(f"seed {seed} {kind}: non-finite metric")
            if result["rc"] == 1:
                breaches[kind].append(seed)
            if seed == REFERENCE_SEED:
                metrics[kind] = values
        print(f"seed {seed}: breaches "
              f"{[k for k in KINDS if seed in breaches[k]]}", flush=True)
    reference = {"seed": REFERENCE_SEED, "verified_seeds": VERIFIED_SEEDS,
                 "trials": run.TRIALS,
                 "breach_seeds": {k: v for k, v in breaches.items() if v},
                 "metrics": metrics}
    with open(gate.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
