"""Every name the benchmark tracer wraps exists in ``freqbench``.

``perfbench/tracer.py`` wraps functions, methods and symbol factories by
name.  A refactor that drops one breaks the traced benchmark pass with a
``KeyError`` deep inside it; this check reads the tracer's tables and
fails at once, naming what is missing.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"freqbench.{name}")


def test_every_traced_name_exists():
    tracer = load_tracer()
    missing = [f"freqbench.{mod}.{name}"
               for mod, names in tracer.FUNCTIONS.items()
               for name in names if not hasattr(layer(mod), name)]
    # methods are wrapped from the class's own namespace
    missing += [f"freqbench.{mod}.{cls}.{name}"
                for (mod, cls), names in tracer.METHODS.items()
                for name in names
                if name not in vars(getattr(layer(mod), cls, object))]
    missing += [f"freqbench.bilinear.{name}" for name in tracer.FACTORIES
                if not hasattr(layer("bilinear"), name)]
    assert not missing, "the tracer wraps missing names: " + ", ".join(
        missing)


# small configs of every kind: each still runs and passes the whole driver
SMALL_RUNS = {
    "partition": "mu_max = 2",
    "polygon-scan": "trials = 1",
    "hs-oracle": "trials = 1",
    "tiles": "trials = 1",
    "forest-bessel": "trials = 1",
    "model-sum": "trials = 1",
    "paraproduct": "trials = 1",
    "size-decay": "",   # one trial by default
}

# a traced pass over SMALL_RUNS; prints the exit codes and every wrapped
# span name that no call entered
TRACED_PASS = """
import json, os, sys
from freqbench import cli
sys.path.insert(0, os.path.dirname(sys.argv[1]))
from tracer import FACTORIES, FUNCTIONS, METHODS, RENAMED, Tracer
tracer = Tracer()
tracer.install()
codes = {}
for path in sys.argv[2:]:
    kind = os.path.basename(path)[:-4]
    codes[kind] = cli.main(["run", "--config", path, "--out", path[:-4]])
wrapped = {f"{mod}.{name}" for mod, names in FUNCTIONS.items()
           for name in names}
wrapped |= {RENAMED.get(f"{mod}.{cls}.{name}", f"{mod}.{name}")
            for (mod, cls), names in METHODS.items() for name in names}
wrapped |= set(FACTORIES.values())
entered = {span[0] for span in tracer.spans}
print(json.dumps({"codes": codes, "idle": sorted(wrapped - entered)}))
"""


def test_drivers_reach_every_traced_name(tmp_path):
    # a wrapped name that no driver calls leaves its per-layer metric at 0
    # on every workload.  The tracer rebinds module globals and np.fft for
    # the rest of its process, so the pass runs in a fresh interpreter.
    configs = []
    for kind, body in SMALL_RUNS.items():
        configs.append(str(tmp_path / f"{kind}.cfg"))
        with open(configs[-1], "w", encoding="utf-8") as fh:
            fh.write(f"kind = {kind}\n{body}\n")
    src = os.path.join(os.path.dirname(TRACER), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", TRACED_PASS, TRACER,
                           *configs], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == dict.fromkeys(SMALL_RUNS, 0)
    # qk is reached only by tests; TreeSizer sizes whole trees from its
    # term cache, so no driver calls tile_seminorm or collection_size
    assert out["idle"] == ["paraproduct.qk", "sizes.collection_size",
                           "sizes.tile_seminorm"]
