"""Correctness gate for one ``freqbench run`` inside a benchmark pass.

A run fails when any of these holds:

- ``cli.main`` raised, or returned an exit code other than the frozen
  verdict for its kind and seed (0 unless ``reference.json`` records a
  threshold breach for that seed);
- ``records.csv`` holds more than one config hash, which means a run
  directory was reused and records were mixed;
- a recorded metric is NaN or infinite;
- on the reference seed, a metric is missing, extra, or drifts from the
  frozen value by more than ``DRIFT_TOL`` (floored relative drift, far
  inside the 0.2 budget of ``freqbench compare``).

The fourth rule of the gate, equal ``records_sha256`` across the passes of
one set, is applied by the caller over the digests this module returns.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
DRIFT_TOL = 1e-6
DRIFT_FLOOR = 1e-3


def load_reference(path: str = REFERENCE_FILE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_exit(reference: dict, kind: str, seed: int) -> int:
    """Frozen verdict of ``kind`` at ``seed``: 1 for a recorded breach."""
    return 1 if seed in reference["breach_seeds"].get(kind, ()) else 0


def read_records(out_dir: str) -> tuple[dict[str, float], set[str]]:
    """Metric values and config hashes of a run's ``records.csv``."""
    values: dict[str, float] = {}
    hashes: set[str] = set()
    with open(os.path.join(out_dir, "records.csv"), "r",
              encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            config, _seed, metric, value = line.split(",")[:4]
            hashes.add(config)
            values[metric] = float(value)
    return values, hashes


def read_digest(out_dir: str) -> str | None:
    with open(os.path.join(out_dir, "summary.txt"), "r",
              encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(" = ")
            if key == "records_sha256":
                return value
    return None


def check_run(kind: str, seed: int, rc, error: str | None, out_dir: str,
              reference: dict) -> tuple[str | None, list[str]]:
    """Return ``(records_sha256, failures)`` for one finished run."""
    if error is not None:
        return None, [f"{kind}: cli.main raised: {error.strip()}"]
    failures = []
    want = expected_exit(reference, kind, seed)
    if rc != want:
        failures.append(f"{kind}: exit code {rc}, frozen verdict {want}")
    try:
        values, hashes = read_records(out_dir)
        digest = read_digest(out_dir)
    except (OSError, ValueError) as err:
        return None, failures + [f"{kind}: unreadable run output: {err}"]
    if len(hashes) != 1:
        failures.append(f"{kind}: records.csv holds {len(hashes)} config "
                        "hashes; a run directory was reused")
    bad = sorted(m for m, v in values.items() if not math.isfinite(v))
    if bad:
        failures.append(f"{kind}: non-finite metrics {bad}")
    if digest is None:
        failures.append(f"{kind}: summary.txt has no records_sha256")
    if seed == reference["seed"]:
        failures += _drift(kind, values, reference["metrics"][kind])
    return digest, failures


def _drift(kind: str, values: dict[str, float],
           frozen: dict[str, float]) -> list[str]:
    if set(values) != set(frozen):
        return [f"{kind}: metric names differ from the frozen reference"]
    out = []
    for name, want in frozen.items():
        got = values[name]
        drift = abs(got - want) / max(abs(got), abs(want), DRIFT_FLOOR)
        if not drift <= DRIFT_TOL:
            out.append(f"{kind}: {name} = {got!r}, frozen {want!r} "
                       f"(drift {drift:.3g})")
    return out
