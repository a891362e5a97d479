"""Regenerate ``digests.json``, the frozen records of every experiment kind.

    python3 tests/freeze_digests.py

Runs all eight kinds at their default config for each seed in ``SEEDS``
and records each run's ``records_sha256``, its metric values and the numpy
version they were taken with.  ``test_digests.py`` reruns the same configs
against this table.  Regenerate only when a change is meant to move a
digest, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import freqbench.experiments as ex  # noqa: E402

SEEDS = (0, 7)
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "digests.json")


def frozen_run(kind: str, seed: int) -> dict:
    """Digest and metric values of one default-config run."""
    cfg = ex.default_config(kind)
    cfg.seed = seed
    result = ex.run(cfg)
    return {"kind": kind, "seed": seed,
            "records_sha256": ex.records_digest(result.records),
            "metrics": {r.metric: r.value for r in result.records}}


def main() -> int:
    runs = [frozen_run(kind, seed)
            for kind, _ in ex.experiment_kinds() for seed in SEEDS]
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump({"numpy": np.__version__, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
