"""Outside-in tracer for one benchmark pass.

The tracer wraps public layer functions of an imported ``freqbench`` without
editing its source.  Every wrapped call records a span (name, start, end,
parent) in memory; a few wrappers also add exact work counts.  The child
process writes the spans out once, after the pass, and the parent reduces
them to per-layer metrics with :func:`summarize`.

A layer is a ``freqbench`` module; a span's layer is the part of its name
before the first dot.  Only functions on the boundaries named below are
wrapped: small helpers called O(n^2) times (``tile_le``, ``Iv`` methods)
stay unwrapped so that tracing does not swamp what it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# module -> functions wrapped in it, under the span name "<layer>.<function>"
FUNCTIONS = {
    "grid": ("maximal_average", "convolve", "indicator"),
    "paraproduct": ("qk", "pk", "pp_apply", "max_martingale",
                    "telescoping_decompose"),
    "sizes": ("tail_weight", "multiplier_family", "exceptional_mask",
              "layer_split", "model_sum", "single_tree_audit",
              "spatial_cutoff"),
    "bilinear": ("bilinear_apply", "unit_symbol"),
    "geometry": ("polygon_cover", "chord_intervals", "interval_overlap_count"),
    "timefreq": ("compact_family", "cluster_family", "spacing_violations",
                 "build_halos", "regularize", "candidate_tops",
                 "greedy_select", "tree_members", "le_matrix",
                 "selection_convexity_violations", "footprint_violations",
                 "forest_decompose"),
    "experiments": ("load_config", "run", "band_noise", "restricted_input",
                    "records_digest", "write_records", "write_summary"),
    "cli": ("main",),
}

# (module, class) -> methods wrapped on the class itself
METHODS = {
    ("grid", "GridFunction"): ("from_spectrum", "spectrum",
                               "multiply_spectrum", "norm"),
    ("grid", "PositiveBandKernel"): ("__init__",),
    ("sizes", "TreeSizer"): ("tile_seminorm", "tree_size", "collection_size"),
    ("geometry", "LacunaryPolygon"): ("contains",),
    ("geometry", "PolygonPartition"): ("__init__", "partition_sum",
                                       "hypothesis_report"),
}

# symbol factories whose returned closures are wrapped, and the span name
# each closure records
FACTORIES = {
    "halfplane_sign_symbol": "bilinear.sign_symbol",
    "pv_cotangent_symbol": "bilinear.pv_symbol",
    "region_symbol": "bilinear.region_symbol",
}

# span names that are not "<layer>.<function>"
RENAMED = {
    "geometry.PolygonPartition.__init__": "geometry.partition_init",
    "grid.PositiveBandKernel.__init__": "grid.band_kernel",
}

# counts that must repeat exactly between two traced passes of one input
EXACT_COUNTS = (
    "grid.fft_points",
    "bilinear.apply.pairs",
    "bilinear.pv_symbol.node_products",
    "timefreq.le_matrix.entries",
    "paraproduct.band_projections",
    "sizes.multiplier_family.calls",
)


class Tracer:
    """Span and counter recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list = []         # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.transforms: set[int] = set()   # spans that ran an FFT directly
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs on success, outside the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary of an already imported ``freqbench``."""
        import numpy as np

        modules = {name: sys.modules[f"freqbench.{name}"]
                   for name in FUNCTIONS}
        hooks = self._hooks()
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                span = f"{layer}.{fname}"
                self._rebind(original,
                             self.wrap(span, original, hooks.get(span)))
        for (layer, cname), names in METHODS.items():
            cls = getattr(modules[layer], cname)
            for mname in names:
                span = f"{layer}.{cname}.{mname}"
                span = RENAMED.get(span, f"{layer}.{mname}")
                raw = cls.__dict__[mname]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(span, raw.__func__))
                else:
                    wrapped = self.wrap(span, raw, hooks.get(span))
                setattr(cls, mname, wrapped)
        bil = modules["bilinear"]
        for fname, span in FACTORIES.items():
            original = getattr(bil, fname)
            self._rebind(original, self._factory(original, span))

        def count_transform(args, kwargs, out):
            self.add("grid.fft_points", out.shape[-1])
            if self._stack:
                self.transforms.add(self._stack[-1])

        for fname in ("fft", "ifft"):
            fn = getattr(np.fft, fname)
            setattr(np.fft, fname, _untimed(fn, count_transform))

    def _rebind(self, original, wrapped) -> None:
        # "from .timefreq import greedy_select" leaves aliases in other
        # freqbench namespaces; each one must call the wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "freqbench" and not modname.startswith("freqbench."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _factory(self, factory, span):
        def make(*args, **kwargs):
            closure = factory(*args, **kwargs)
            after = None
            if span == "bilinear.pv_symbol":
                bound = inspect.signature(factory).bind(*args, **kwargs)
                bound.apply_defaults()
                after = functools.partial(self._count_thetas,
                                          bound.arguments["slope"],
                                          bound.arguments["nodes"])
            return self.wrap(span, closure, after)
        return functools.wraps(factory)(make)

    def _count_thetas(self, slope, nodes, args, kwargs, out) -> None:
        import numpy as np
        ki, kj = args
        thetas = np.unique(slope * ki - kj).size
        self.add("bilinear.pv_symbol.thetas", thetas)
        self.add("bilinear.pv_symbol.node_products", thetas * (nodes // 2))

    def _hooks(self) -> dict:
        import numpy as np

        def apply(args, kwargs, out):
            report = out[1]
            self.add("bilinear.apply.pairs", report.pairs)
            self.add("bilinear.apply.in_band_mass", report.in_band_mass)
            self.add("bilinear.apply.wrapped_mass", report.wrapped_mass)

        def contains(args, kwargs, out):
            self.add("geometry.contains.points",
                     len(np.atleast_2d(np.asarray(args[1]))))

        def le_matrix(args, kwargs, out):
            self.add("timefreq.le_matrix.entries", len(args[0]) ** 2)

        def family(args, kwargs, out):
            self.add("timefreq.family.returned", 1)

        return {"bilinear.bilinear_apply": apply,
                "geometry.contains": contains,
                "timefreq.le_matrix": le_matrix,
                "timefreq.compact_family": family,
                "timefreq.cluster_family": family}

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "transforms": sorted(self.transforms)}, fh)


def _untimed(fn, after):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(args, kwargs, out)
        return out
    return counted


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

LAYERS = ("grid", "paraproduct", "sizes", "bilinear", "geometry", "timefreq",
          "experiments")


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    spans = trace["spans"]
    counts = trace["counts"]
    names = [s[0] for s in spans]
    durs = [s[2] - s[1] for s in spans]
    parents = [s[3] for s in spans]

    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += durs[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += durs[i] - child_time[i]

    def calls(*wanted):
        return sum(1 for n in names if n in wanted)

    def seconds(*wanted):
        # outermost spans only, so nested members of the group count once
        total = 0.0
        for i, n in enumerate(names):
            if n not in wanted:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in wanted:
                p = parents[p]
            if p < 0:
                total += durs[i]
        return total

    def ratio(num, den):
        return num / den if den else 0.0

    transforms = set(trace["transforms"])
    spectrum = [i for i, n in enumerate(names) if n == "grid.spectrum"]
    seminorms = {i for i, n in enumerate(names) if n == "sizes.tile_seminorm"}
    tile_misses = sum(1 for i, n in enumerate(names)
                      if n == "sizes.tail_weight" and parents[i] in seminorms)
    attempts = sum(1 for i, n in enumerate(names)
                   if n == "timefreq.spacing_violations" and parents[i] >= 0
                   and names[parents[i]].endswith("_family"))
    in_band = counts.get("bilinear.apply.in_band_mass", 0.0)
    wrapped = counts.get("bilinear.apply.wrapped_mass", 0.0)

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "grid.from_spectrum.calls": calls("grid.from_spectrum"),
        "grid.spectrum.calls": len(spectrum),
        "grid.spectrum.hit_ratio": ratio(
            sum(1 for i in spectrum if i not in transforms), len(spectrum)),
        "grid.fft_points": counts.get("grid.fft_points", 0),
        "grid.maximal_average.s": seconds("grid.maximal_average"),
        "grid.convolve.calls": calls("grid.convolve"),
        "paraproduct.telescoping.calls":
            calls("paraproduct.telescoping_decompose"),
        "paraproduct.telescoping.s":
            seconds("paraproduct.telescoping_decompose"),
        "paraproduct.band_projections": calls("paraproduct.qk",
                                              "paraproduct.pk"),
        "paraproduct.pp_apply.s": seconds("paraproduct.pp_apply"),
        "paraproduct.max_martingale.s": seconds("paraproduct.max_martingale"),
        "sizes.tree_size.calls": calls("sizes.tree_size"),
        "sizes.tile_cache.hit_ratio": ratio(len(seminorms) - tile_misses,
                                            len(seminorms)),
        "sizes.multiplier_family.calls": calls("sizes.multiplier_family"),
        "sizes.model_sum.s": seconds("sizes.model_sum"),
        "sizes.single_tree_audit.s": seconds("sizes.single_tree_audit"),
        "sizes.layer_split.s": seconds("sizes.layer_split"),
        "sizes.exceptional_mask.s": seconds("sizes.exceptional_mask"),
        "bilinear.apply.calls": calls("bilinear.bilinear_apply"),
        "bilinear.apply.pairs": counts.get("bilinear.apply.pairs", 0),
        "bilinear.in_band_ratio": ratio(in_band, in_band + wrapped),
        "bilinear.pv_symbol.s": seconds("bilinear.pv_symbol"),
        "bilinear.pv_symbol.thetas":
            counts.get("bilinear.pv_symbol.thetas", 0),
        "bilinear.pv_symbol.node_products":
            counts.get("bilinear.pv_symbol.node_products", 0),
        "geometry.polygon_cover.s": seconds("geometry.polygon_cover"),
        "geometry.partition_init.s": seconds("geometry.partition_init"),
        "geometry.partition_sum.s": seconds("geometry.partition_sum"),
        "geometry.hypothesis_report.s": seconds("geometry.hypothesis_report"),
        "geometry.contains.calls": calls("geometry.contains"),
        "geometry.contains.points": counts.get("geometry.contains.points", 0),
        "geometry.chord_intervals.s": seconds("geometry.chord_intervals"),
        "timefreq.family.s": seconds("timefreq.compact_family",
                                     "timefreq.cluster_family"),
        "timefreq.family.attempts": attempts,
        "timefreq.family.accept_ratio": ratio(
            counts.get("timefreq.family.returned", 0), attempts),
        "timefreq.build_halos.s": seconds("timefreq.build_halos"),
        "timefreq.regularize.s": seconds("timefreq.regularize"),
        "timefreq.greedy_select.s": seconds("timefreq.greedy_select"),
        "timefreq.le_matrix.s": seconds("timefreq.le_matrix"),
        "timefreq.le_matrix.entries":
            counts.get("timefreq.le_matrix.entries", 0),
        "timefreq.selection_convexity.s":
            seconds("timefreq.selection_convexity_violations"),
        "timefreq.forest_decompose.s": seconds("timefreq.forest_decompose"),
        "timefreq.tree_members.calls": calls("timefreq.tree_members"),
        "experiments.inputs.s": seconds("experiments.band_noise",
                                        "experiments.restricted_input"),
        "experiments.records.s": seconds("experiments.records_digest",
                                         "experiments.write_records",
                                         "experiments.write_summary"),
    })
    return out
