"""Every name the benchmark tracer wraps exists in ``freqbench``.

``perfbench/tracer.py`` wraps functions, methods and symbol factories by
name.  A refactor that drops one breaks the traced benchmark pass with a
``KeyError`` deep inside it; this check reads the tracer's tables and
fails at once, naming what is missing.
"""

import importlib
import importlib.util
import os

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
