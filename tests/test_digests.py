"""Every kind's default-config records against the frozen table.

``digests.json`` holds, for all eight kinds at seeds 0 and 7, the
``records_sha256`` and metric values of a default run and the numpy
version they were taken with (regenerate it with
``python3 tests/freeze_digests.py``).  On that numpy version a rerun must
reproduce each digest exactly.  Another version may round FFTs and
reductions differently, so there each metric may drift by at most 1e-12,
measured as ``compare_runs`` measures drift.
"""

import json
import math

import numpy as np

from freeze_digests import TABLE, frozen_run

MAX_DRIFT = 1e-12


def _drift(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) \
            else math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def test_default_runs_match_frozen_table():
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    exact = table["numpy"] == np.__version__
    bad = []
    for want in table["runs"]:
        got = frozen_run(want["kind"], want["seed"])
        label = f"{want['kind']} seed {want['seed']}"
        if exact:
            if got["records_sha256"] != want["records_sha256"]:
                bad.append(f"{label}: records_sha256 moved")
            continue
        if got["metrics"].keys() != want["metrics"].keys():
            bad.append(f"{label}: metric names differ")
            continue
        for name, value in want["metrics"].items():
            drift = _drift(value, got["metrics"][name])
            if drift > MAX_DRIFT:
                bad.append(f"{label}: {name} drift {drift:.3g}")
    assert not bad, "\n".join(bad)
