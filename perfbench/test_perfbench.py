"""Tests of the benchmark itself: tracing must not change any result, the
exact work counts must repeat, and the gate must catch bad run output.

The passes use small trial counts so the module runs in a few seconds.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {"paraproduct": 2, "forest-bessel": 1, "model-sum": 2, "tiles": 3,
         "hs-oracle": 1, "polygon-scan": 2}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    work = tmp_path_factory.mktemp("passes")
    configs = {}
    for kind, trials in SMALL.items():
        configs[kind] = str(work / f"{kind}.cfg")
        with open(configs[kind], "w", encoding="utf-8") as fh:
            fh.write(f"kind = {kind}\nseed = 1\ntrials = {trials}\n")
    return [run.run_pass(run.ROOT, str(work / f"pass{i}"), configs, traced)
            for i, traced in enumerate((False, True, True))]


def test_traced_pass_keeps_records_digest(passes):
    plain, traced, _ = passes
    for kind in SMALL:
        assert plain["kinds"][kind]["rc"] == 0, plain["kinds"][kind]
        assert traced["kinds"][kind]["rc"] == 0, traced["kinds"][kind]
        want = gate.read_digest(os.path.join(plain["dir"], kind))
        got = gate.read_digest(os.path.join(traced["dir"], kind))
        assert want is not None and got == want, kind


def test_exact_counts_repeat_between_traced_passes(passes):
    _, first, second = passes
    for name in tracer.EXACT_COUNTS:
        assert first["layers"][name] > 0, name
        assert first["layers"][name] == second["layers"][name], name


def _fake_run(path, rows, digest="abc"):
    os.makedirs(path)
    with open(os.path.join(path, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write("config,seed,metric,value,grid_n,wall_time\n")
        for config, metric, value in rows:
            fh.write(f"{config},1,{metric},{value!r},256,0.100\n")
    with open(os.path.join(path, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"run:\n  records_sha256 = {digest}\n")
    return str(path)


REFERENCE = {"seed": 0, "breach_seeds": {"model-sum": [3]},
             "metrics": {"tiles": {"violations": 0.0}}}


def test_gate_flags_nonfinite_metrics(tmp_path):
    out = _fake_run(tmp_path / "r", [("h1", "violations", float("nan")),
                                     ("h1", "trees", float("inf"))])
    digest, failures = gate.check_run("tiles", 1, 0, None, out, REFERENCE)
    assert digest == "abc"
    assert len(failures) == 1 and "non-finite" in failures[0]


def test_gate_flags_mixed_config_hashes(tmp_path):
    out = _fake_run(tmp_path / "r", [("h1", "violations", 0.0),
                                     ("h2", "violations", 0.0)])
    _, failures = gate.check_run("tiles", 1, 0, None, out, REFERENCE)
    assert len(failures) == 1 and "2 config hashes" in failures[0]


def test_gate_holds_reference_seed_and_verdicts(tmp_path):
    out = _fake_run(tmp_path / "r", [("h1", "violations", 1e-6)])
    _, failures = gate.check_run("tiles", 0, 0, None, out, REFERENCE)
    assert len(failures) == 1 and "frozen 0.0" in failures[0]
    _, failures = gate.check_run("tiles", 1, 0, None, out, REFERENCE)
    assert failures == []
    _, failures = gate.check_run("model-sum", 3, 0, None, out, REFERENCE)
    assert failures == ["model-sum: exit code 0, frozen verdict 1"]
