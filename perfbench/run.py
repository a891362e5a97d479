"""Closed-loop benchmark of ``freqbench run``: one client, fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass starts one fresh interpreter (``child.py``) that runs the workload's
two experiment kinds one after the other through
``freqbench.cli.main(["run", ...])``, the path a user takes.  Every real
``freqbench run`` is a fresh process, so passes are cold by design.  Passes
repeat until ``--seconds`` have been measured; every timing is the median
over passes.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
pass wall time, the time of each of the two kinds, set-up time (child spawn
until numpy, ``freqbench.cli`` and the configs are loaded) and peak RSS.

On a shared 2-vCPU KVM guest (Xeon, family 6 model 207) the speed of a
fixed loop switches between two levels about 1.6x apart within seconds, and
the speed of the kinds drifts over minutes: raw medians of ten runs spread
by up to a fifth, and move by up to 1.4x from one set of runs to the next.
Every time is therefore scaled by ``NOMINAL_CAL_S`` over the calibrations
the child timed next to it (see ``child.calibrate``): reported seconds are
seconds on a host that runs the calibration in ``NOMINAL_CAL_S``.  The raw
medians are printed above the result line, and
``.perfbench_work/passes.json`` keeps every pass's report.

With ``--trace 1`` traced and untraced passes alternate and the last line
reports the per-layer metrics of ``tracer.summarize``, process CPU time and
the tracing overhead.  Every run of every pass goes through ``gate.py``;
the line's ``attempted`` and ``failed`` count those runs.

Config seeds are the benchmark seed modulo ``reference.json``'s
``verified_seeds``, the range over which every kind's verdict is frozen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# workload -> (kind_a, kind_b); why each workload exists is in BENCHMARK.json
WORKLOADS = {
    "spectral": ("paraproduct", "size-decay"),
    "tree-sizes": ("forest-bessel", "model-sum"),
    "combinatorial": ("partition", "tiles"),
    "bilinear": ("hs-oracle", "polygon-scan"),
}
# trials scaled from the kind's default; trial t keeps the inputs of the
# default run's trial t
TRIALS = {"hs-oracle": 1}

NOMINAL_CAL_S = 0.020  # calibration seconds of the reported time scale
MIN_PASSES = 3          # per pass type, before the time budget may stop a run
HARD_LIMIT_S = 140.0    # no pass starts after this, whatever MIN_PASSES says
CHILD_TIMEOUT_S = 120.0


def write_configs(directory: str, kinds, seed: int) -> dict[str, str]:
    os.makedirs(directory)
    paths = {}
    for kind in kinds:
        lines = [f"kind = {kind}", f"seed = {seed}"]
        if kind in TRIALS:
            lines.append(f"trials = {TRIALS[kind]}")
        paths[kind] = os.path.join(directory, f"{kind}.cfg")
        with open(paths[kind], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return paths


def run_pass(root: str, pass_dir: str, configs: dict[str, str],
             traced: bool, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One fresh child over every config, as the child's report plus
    ``setup_s``, ``dir`` and, for a traced pass, ``layers``.

    A child that crashes or times out yields ``kinds`` entries carrying the
    error, so each of its runs is counted as failed.
    """
    os.makedirs(pass_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), root, pass_dir,
           "1" if traced else "0"]
    cmd += [f"{kind}={path}" for kind, path in configs.items()]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=root)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 else None
        error = None if report else (
            f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    except subprocess.TimeoutExpired:
        report, error = None, f"child timed out after {timeout:.0f} s"
    except (json.JSONDecodeError, IndexError) as err:
        report, error = None, f"unreadable child report: {err}"
    if report is None:
        return {"kinds": {kind: {"rc": None, "error": error, "seconds": 0.0}
                          for kind in configs}, "error": error}
    report["setup_s"] = report["ready"] - spawn
    report["dir"] = pass_dir
    if traced:
        with open(os.path.join(pass_dir, "trace.json"), "r",
                  encoding="utf-8") as fh:
            report["layers"] = tracer.summarize(json.load(fh))
    return report


def timed_passes(root: str, configs: dict[str, str], seconds: float,
                 trace: bool) -> list[dict]:
    """Passes until ``seconds`` are spent; traced and untraced alternate
    when ``trace`` is set."""
    start = time.monotonic()
    order = [True, False] if trace else [False]
    passes: list[dict] = []
    took: dict[bool, list[float]] = {traced: [] for traced in order}
    while True:
        traced = order[len(passes) % len(order)]
        now = time.monotonic() - start
        if now > HARD_LIMIT_S:
            break
        if len(took[traced]) >= MIN_PASSES and \
                now + statistics.median(took[traced]) > seconds:
            break
        t0 = time.monotonic()
        timeout = min(CHILD_TIMEOUT_S, HARD_LIMIT_S + 30.0 - now)
        report = run_pass(root, os.path.join(WORK, f"pass{len(passes)}"),
                          configs, traced, timeout)
        report["traced"] = traced
        took[traced].append(time.monotonic() - t0)
        passes.append(report)
    return passes


def check_passes(passes: list[dict], seed: int,
                 reference: dict) -> tuple[int, int, list[str]]:
    """Gate every run; digests of one kind must agree across all passes."""
    attempted = failed = 0
    messages = []
    digests: dict[str, str] = {}
    for i, report in enumerate(passes):
        for kind, run in report["kinds"].items():
            attempted += 1
            out_dir = os.path.join(report.get("dir", ""), kind)
            digest, failures = gate.check_run(kind, seed, run["rc"],
                                              run["error"], out_dir,
                                              reference)
            if digest is not None:
                first = digests.setdefault(kind, digest)
                if digest != first:
                    failures.append(f"{kind}: records_sha256 {digest} "
                                    f"differs from the set's {first}")
            if failures:
                failed += 1
                messages += [f"pass {i}: {msg}" for msg in failures]
    return attempted, failed, messages


def describe(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` timed next to a calibration of ``cal_s``, on the
    ``NOMINAL_CAL_S`` scale."""
    return seconds * NOMINAL_CAL_S / cal_s


def end_to_end(passes: list[dict], kinds,
               raw: bool = False) -> dict[str, list[float]]:
    """Samples of the end-to-end metrics, scaled unless ``raw``."""
    def scale(seconds, cal_s):
        return seconds if raw else scaled(seconds, cal_s)

    good = [p for p in passes if "wall_s" in p]
    samples = {"wall_s": [sum(scale(run["seconds"], run["cal_s"])
                              for run in p["kinds"].values())
                          for p in good],
               "setup_s": [scale(p["setup_s"], p["cal_s"][0]) for p in good],
               "peak_rss_mb": [p["peak_rss_mb"] for p in good]}
    for slot, kind in zip(("kind_a_s", "kind_b_s"), kinds):
        samples[slot] = [scale(p["kinds"][kind]["seconds"],
                               p["kinds"][kind]["cal_s"]) for p in good]
    return samples


def per_layer(passes: list[dict]) -> tuple[dict[str, list[float]], list[str]]:
    traced = [p for p in passes if p["traced"] and "layers" in p]
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    if not traced or not plain:
        return {}, ["no complete traced and untraced pass pair"]

    def factor(p):
        return scaled(1.0, statistics.mean(p["cal_s"]))

    samples = {name: [p["layers"][name] * (factor(p) if unit(name) == "s"
                                           else 1.0) for p in traced]
               for name in traced[0]["layers"]}
    problems = [f"count {name} differs between traced passes: "
                f"{samples[name]}" for name in tracer.EXACT_COUNTS
                if len(set(samples[name])) > 1]
    samples["process.cpu_s"] = [p["cpu_s"] * factor(p) for p in plain]
    overhead = (statistics.median(p["wall_s"] * factor(p) for p in traced)
                - statistics.median(p["wall_s"] * factor(p) for p in plain))
    samples["trace.overhead_s"] = [overhead]
    return samples, problems


def environment(root: str, workload: str, seed: int, passes) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = None
    trials = next((p["trials"] for p in passes if "trials" in p), None)
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas_build,
            "blas_threads": _blas_threads(numpy),
            "commit": _git_commit(root),
            "workload": workload,
            "kinds": list(WORKLOADS[workload]),
            "seed": seed,
            "trials": trials}


def _blas_threads(numpy) -> int | None:
    """OpenBLAS's default thread count, read from the loaded library."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "freqbench", "cli.py")):
        print(f"error: no freqbench sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    reference = gate.load_reference()
    seed = args.seed % reference["verified_seeds"]
    kinds = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    configs = write_configs(os.path.join(WORK, "configs"), kinds, seed)
    passes = timed_passes(ROOT, configs, args.seconds, bool(args.trace))
    attempted, failed, messages = check_passes(passes, seed, reference)
    with open(os.path.join(WORK, "passes.json"), "w", encoding="utf-8") as fh:
        json.dump([{k: v for k, v in p.items() if k != "layers"}
                   for p in passes], fh)

    if args.trace:
        samples, problems = per_layer(passes)
        messages += problems
    else:
        samples = end_to_end(passes, kinds)
        problems = [] if samples["wall_s"] else ["no pass completed"]
        messages += problems

    print("env " + json.dumps(environment(ROOT, args.workload, seed,
                                          passes)))
    if not args.trace and samples["wall_s"]:
        raw = end_to_end(passes, kinds, raw=True)
        raw["cal_s"] = [c for p in passes for c in p.get("cal_s", [])]
        for name in ("cal_s", "wall_s", "setup_s", "kind_a_s", "kind_b_s"):
            d = describe(raw[name])
            print(f"raw {name}: median {d['median']:.6g} q1 {d['q1']:.6g} "
                  f"q3 {d['q3']:.6g} n {d['n']}")
    for name, values in samples.items():
        if values:
            d = describe(values)
            print(f"{name}: median {d['median']:.6g} q1 {d['q1']:.6g} "
                  f"q3 {d['q3']:.6g} n {d['n']}")
    for msg in messages:
        print(f"FAIL {msg}")
    metrics = {name: {"value": statistics.median(values), "unit": unit(name)}
               for name, values in samples.items() if values}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
