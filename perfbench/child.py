"""One benchmark pass, run in a fresh interpreter.

    python3 child.py ROOT PASS_DIR TRACE KIND=CONFIG [KIND=CONFIG ...]

Imports ``freqbench`` from ``ROOT/src``, loads the configs, then runs each
kind through ``freqbench.cli.main(["run", ...])`` exactly as a user would,
with a fresh ``--out`` directory ``PASS_DIR/KIND`` per run.  With TRACE=1
the outside-in tracer is installed first and its spans are written to
``PASS_DIR/trace.json`` after the pass.

Before the first kind and after every kind the child times a fixed
calibration (:func:`calibrate`), outside the timed runs.  A shared host's
speed changes within seconds and drifts over minutes; the parent divides
each time by the calibrations next to it.

The last line of standard output is a JSON object with the set-up stamp,
per-kind exit codes, times and calibrations, the pass wall time, the
kinds' CPU time and peak RSS.
"""

import contextlib
import io
import json
import marshal
import os
import random
import resource
import sys
import time
import traceback

CAL_REPS = 3


def calibrate(numpy) -> float:
    """Median seconds of one fixed mix of interpreter and numpy work.

    The mix has five parts of a few milliseconds each: a Python loop of
    arithmetic, dict stores and calls; three rounds of building, sorting
    and indexing 2000 tuples; three rounds of compiling and marshalling a
    generated module, the work of an import; real FFT round trips of
    length 1000 (a length no kind uses); and elementwise passes over a
    32 KiB array.  The tuple and compile parts allocate and walk Python
    objects as set-up and the kinds' Python code do, so the mix also slows
    when the host's caches are contended.  All parts together add well
    under 1 MiB to the pass's peak RSS.
    """
    def step(i):
        return (i * i + 7) % 13

    source = "\n".join(f"def f{i}(a, b=2):\n"
                       f"    c = [a * k + b for k in range(a)]\n"
                       f"    return {{'x': c, 'y': (a, b, {i})}}\n"
                       for i in range(20))
    x = numpy.linspace(0.0, 1.0, 1000)
    a = numpy.linspace(1.0, 2.0, 1 << 12)
    reps = []
    for _ in range(CAL_REPS):
        rng = random.Random(5)
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(15000):
            acc += step(i)
            table[i & 255] = acc
        for _ in range(3):
            rows = sorted((rng.random(), i, str(i)) for i in range(2000))
            table.update((name, key) for key, _, name in rows)
            marshal.loads(marshal.dumps(compile(source, "<calibrate>",
                                                "exec")))
        for _ in range(90):
            numpy.fft.irfft(numpy.fft.rfft(x), 1000)
        for _ in range(240):
            numpy.sqrt(a * a + 1.0).sum()
        reps.append(time.perf_counter() - t0)
    reps.sort()
    return reps[len(reps) // 2]


def main(argv) -> int:
    root, pass_dir, trace = argv[0], argv[1], argv[2] == "1"
    jobs = [arg.split("=", 1) for arg in argv[3:]]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    import numpy  # set-up cost the user pays
    from freqbench import cli, experiments

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"freqbench imported from {cli.__file__}, "
                           f"not from {src}")
    trials = {kind: experiments.load_config(path).trials
              for kind, path in jobs}
    ready = time.monotonic()

    tracer = None
    if trace:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    kinds = {}
    cal = [calibrate(numpy)]
    cpu = 0.0
    for kind, path in jobs:
        out = os.path.join(pass_dir, kind)
        if os.path.exists(out):
            raise RuntimeError(f"output directory {out} already exists")
        rc, error = None, None
        sink = io.StringIO()
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(["run", "--config", path, "--out", out])
        except Exception:  # a raising run is a failed run, not a crash
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        cal.append(calibrate(numpy))
        kinds[kind] = {"rc": rc, "error": error, "seconds": seconds,
                       "cal_s": (cal[-2] + cal[-1]) / 2.0}
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.write(os.path.join(pass_dir, "trace.json"))
    print(json.dumps({
        "ready": ready,
        "kinds": kinds,
        "trials": trials,
        "wall_s": sum(run["seconds"] for run in kinds.values()),
        "cal_s": cal,
        "cpu_s": cpu,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
