"""Deterministic experiment drivers over the package's numerical machinery.

Each experiment kind is a pure function from a validated configuration to a
list of named scalar metrics.  Randomness always flows through seed
sequences derived from (config seed, trial index), so a rerun with the
same configuration reproduces every metric bit for bit; wall time is the
only field allowed to differ.  Drivers also evaluate their built-in
acceptance thresholds and report failures, which the command line turns
into exit codes.

Probe inputs come in two flavors: band-limited Gaussian noise, and
"restricted" inputs built by mollifying interval indicators with a
positive band-limited kernel.  The latter are constructed from closed-form
Fourier coefficients, so the same configuration on a doubled grid yields
the *same* trigonometric polynomial; refinement comparisons then measure
pure quadrature drift rather than input drift.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import os
import time
import typing

import numpy as np

from . import bilinear as bil
from . import geometry as geo
from . import paraproduct as para
from .grid import GridFunction, indicator, shared_kernel
from .sizes import (
    TreeSizer,
    exceptional_mask,
    layer_split,
    model_sum,
    single_tree_audit,
)
from .timefreq import (
    SINK_LEVEL,
    Family,
    Tree,
    bessel_ratio,
    build_halos,
    cluster_family,
    compact_family,
    footprint_violations,
    forest_decompose,
    greedy_select,
    operator_band_edge,
    selection_convexity_violations,
)

GRID_ENV = "FREQBENCH_GRID_N"
HS_SLOPES = (1, 2, 5)
MARTINGALE_EXPONENTS = ((4.0 / 3.0, "4over3"), (2.0, "2"), (4.0, "4"))
MOLLIFIER_HALF_POWER = 2  # of the restricted inputs' PositiveBandKernel
DRIFT_BUDGET = 0.2        # default largest relative drift of a comparison


# ---------------------------------------------------------------------------
# configuration

@dataclasses.dataclass
class ExperimentConfig:
    """Every tunable of every module, in one flat record."""

    kind: str
    grid_n: int = 1024
    domain_len: float = 1.0
    seed: int = 0
    trials: int = 20
    # polygon cover and partition of unity
    mu_max: int = 8
    alpha: float = 0.99
    c0: int = 4
    k0: float = 5.0          # log2 of the frequency mapped to polygon coordinate 1
    # cube families and tree selection
    scale_bits: int = 4
    span_bits: int = 6
    clearance: float = 2.0   # offset factor for the clustered cube generator
    compact_spread: float = 0.5  # offset factor for the grid-coupled generator
    slope: float = 1.125
    # size functionals
    order: int = 5
    support_factor: float = 1.5
    weight_power: int = 10
    blur: float = 0.25
    exceptional_factor: float = 100.0
    decay_power: int = 4
    # probe inputs
    band: float = 8.0
    moll_width: float = 0.5
    set_count: int = 2
    # dyadic band arithmetic
    kbits: int = 8
    # exponent triple and the tree audit's size exponents
    exponents: tuple[float, float, float] | None = None
    theta2: float = 0.7
    theta3: float = 0.7
    allow_non_conjugate: bool = False


_KIND_DEFAULTS: dict[str, dict] = {
    "partition": dict(trials=1, grid_n=256),
    "polygon-scan": dict(grid_n=128, trials=50, moll_width=0.0625,
                         exponents=(5.0 / 3.0, 4.0, 20.0 / 3.0)),
    "hs-oracle": dict(grid_n=128, trials=20),
    "tiles": dict(trials=100, grid_n=256),
    "forest-bessel": dict(grid_n=512, trials=12, domain_len=32.0),
    "model-sum": dict(grid_n=1024, trials=50, domain_len=32.0,
                      exponents=(5.0 / 3.0, 4.0, 20.0 / 3.0)),
    "paraproduct": dict(grid_n=1024, trials=100, band=250.0),
    "size-decay": dict(grid_n=4096, trials=1, moll_width=0.02),
}


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_TYPE_LABELS = {bool: "true or false", str: "text", int: "an integer",
                float: "a finite number"}


def _as_type(want: type, value):
    """``value`` as ``want`` (bool, str, int or float), or None if it is
    not one.  Integral floats pass as ints and ints as floats; non-finite
    numbers never pass."""
    if want in (bool, str):
        return value if isinstance(value, want) else None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    if want is int:
        whole = (isinstance(value, numbers.Integral)
                 or float(value).is_integer())
        return int(value) if whole else None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


def _coerce(name: str, value):
    """``value`` as the type the config field ``name`` declares; raise
    ValueError naming the field when it is not one."""
    want = _FIELD_TYPES[name]
    if want in _TYPE_LABELS:
        out, label = _as_type(want, value), _TYPE_LABELS[want]
    elif value is None:  # the optional exponent triple
        return None
    else:
        parts = ([_as_type(float, v) for v in value]
                 if isinstance(value, tuple) else [None])
        out = None if None in parts else tuple(parts)
        label = "a comma-separated list of numbers or none"
    if out is None:
        raise ValueError(f"invalid config: {name} must be {label}, "
                         f"got {value!r}")
    return out


def experiment_kinds() -> list[tuple[str, str]]:
    return [(k, _RUNNERS[k][1]) for k in sorted(_RUNNERS)]


def default_config(kind: str) -> ExperimentConfig:
    if kind not in _KIND_DEFAULTS:
        raise ValueError(f"unknown experiment kind {kind!r}; "
                         f"choose from {sorted(_KIND_DEFAULTS)}")
    return ExperimentConfig(kind=kind, **_KIND_DEFAULTS[kind])


# field -> (domain, test) of the values a run can evaluate; a field with
# no row takes any value of its type.  Upper bounds stop short of a value
# shown to fail.
_DOMAINS = {
    "kind": (f"one of {sorted(_KIND_DEFAULTS)}", _KIND_DEFAULTS.__contains__),
    "grid_n": ("even and >= 16", lambda v: v >= 16 and v % 2 == 0),
    "domain_len": ("positive", lambda v: v > 0),
    "seed": (">= 0", lambda v: v >= 0),
    "trials": (">= 1", lambda v: v >= 1),
    "mu_max": (">= 1", lambda v: v >= 1),
    "alpha": ("in (0, 1)", lambda v: 0 < v < 1),
    # the Whitney band is empty below 2; at mu_max 8 a partition holds
    # 4.7 M members in under 1 GiB at 16 and runs out of memory at 64
    "c0": (">= 2 and <= 16", lambda v: 2 <= v <= 16),
    # 2**k0 scales the polygon: at +-2000 it overflows or divides by zero
    "k0": (">= -60 and <= 60", lambda v: -60 <= v <= 60),
    # families draw 3 of 2**scale_bits positions: 2 are too few, 2**30
    # take 16 GiB and 2**70 is no C long
    "scale_bits": (">= 2 and <= 16", lambda v: 2 <= v <= 16),
    "span_bits": (">= 0", lambda v: v >= 0),  # shorter tops miss unit tiles
    "slope": ("positive", lambda v: v > 0),
    "order": (">= 1", lambda v: v >= 1),
    # every symbol vanishes at 0, and the even bump takes -s for s
    "support_factor": ("positive", lambda v: v > 0),
    "weight_power": (">= 1", lambda v: v >= 1),
    "decay_power": (">= 1", lambda v: v >= 1),
    "set_count": (">= 1", lambda v: v >= 1),  # no spans make a zero input
    "moll_width": ("positive", lambda v: v > 0),  # the mollifier's width
    # below 1 the paraproduct has no depth; 2**2000 overflows
    "kbits": (">= 1 and <= 60", lambda v: 1 <= v <= 60),
    "theta2": ("in (0, 1]", lambda v: 0 < v <= 1),
    "theta3": ("in (0, 1]", lambda v: 0 < v <= 1),
}


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ValueError naming the first field outside its type, its
    :data:`_DOMAINS` row or a cross-field rule."""
    def bad(msg: str):
        raise ValueError(f"invalid config: {msg}")

    for name in _FIELD_TYPES:
        value = _coerce(name, getattr(cfg, name))
        if name in _DOMAINS and not _DOMAINS[name][1](value):
            bad(f"{name} must be {_DOMAINS[name][0]}, got {value!r}")
    # compact families hold tiles 2**scale_bits long; tops reach 2**span_bits
    if (cfg.kind in ("forest-bessel", "model-sum")
            and cfg.scale_bits > cfg.span_bits):
        bad(f"scale_bits must be <= span_bits = {cfg.span_bits} for "
            f"{cfg.kind}, got {cfg.scale_bits}")
    if cfg.kind == "polygon-scan" and cfg.exponents is None:
        bad("exponents must be a triple for polygon-scan, got None")
    if cfg.exponents is not None:
        ps = tuple(float(p) for p in cfg.exponents)
        if len(ps) != 3 or any(p <= 1 for p in ps):
            bad(f"exponents must be three values > 1, got {ps}")
        gap = abs(sum(1.0 / p for p in ps) - 1.0)
        if gap > 1e-9 and not cfg.allow_non_conjugate:
            bad(f"exponent triple {ps} violates the scaling identity "
                f"(reciprocal sum off by {gap:.3g}); set "
                f"allow_non_conjugate to record it as a diagnostic scan")


def _parse_value(raw: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", ""):
        return None
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines into a config; '#' starts a comment."""
    pairs = {}
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {ln}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        pairs[key.strip()] = _parse_value(raw)
    if "kind" not in pairs:
        raise ValueError("config must set 'kind'")
    cfg = default_config(str(pairs.pop("kind")))
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, value in pairs.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, value))
    return cfg


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """Read a config file, apply the environment grid override and
    an optional seed override, and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    env = os.environ.get(GRID_ENV)
    if env is not None:
        try:
            cfg.grid_n = int(env)
        except ValueError:
            raise ValueError(f"invalid {GRID_ENV}: expected an integer, "
                             f"got {env!r}") from None
    if seed is not None:
        cfg.seed = int(seed)
    validate_config(cfg)
    return cfg


def canonical_text(cfg: ExperimentConfig) -> str:
    lines = []
    for field in sorted(f.name for f in dataclasses.fields(ExperimentConfig)):
        value = getattr(cfg, field)
        if isinstance(value, tuple):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{field} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Experiment identity, independent of grid resolution.

    Leaving grid_n out lets refinement runs of the same experiment share
    a hash, so comparing a run against its doubled-grid twin measures
    quadrature drift instead of refusing to compare.
    """
    kept = [ln for ln in canonical_text(cfg).splitlines()
            if not ln.startswith("grid_n ")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# probe inputs

def trial_rng(cfg: ExperimentConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, trial)))


def band_noise(n: int, length: float, band: float, rng) -> GridFunction:
    """Random trigonometric polynomial with modes confined to |xi| <= band,
    normalized to unit L2 norm.

    Raises ValueError when the band holds no nonzero mode: the input would
    be a constant (or, normalized, all NaN), and every identity a run
    checks on it would hold vacuously.
    """
    coeffs = np.zeros(n, dtype=complex)
    ks = np.arange(-(n // 2), n - (n // 2))
    live = np.abs(ks / length) <= band
    if not np.any(live & (ks != 0)):
        raise ValueError(f"band {band:g} holds no nonzero mode on a domain "
                         f"of length {length:g}; inputs would be constant")
    coeffs[live] = rng.normal(size=live.sum()) + 1j * rng.normal(size=live.sum())
    f = GridFunction.from_spectrum(coeffs, length)
    return f / f.norm()


def random_spans(rng, length: float, count: int,
                 lo: float, hi: float) -> list[tuple[float, float]]:
    """Disjointly placed intervals with lengths drawn from [lo, hi]."""
    spans = []
    slots = np.sort(rng.uniform(0.0, length, size=count))
    for k in range(count):
        width = float(rng.uniform(lo, hi))
        a = float(slots[k])
        spans.append((a, a + width))
    return spans


def restricted_input(n: int, length: float, spans,
                     width: float) -> GridFunction:
    """Mollified indicator of a union of intervals, via exact coefficients.

    The indicator's continuum Fourier coefficients are closed-form; the
    mollifier is a positive unit-mass band-limited kernel, so the result
    satisfies 0 <= f <= 1 pointwise and is the identical function on any
    grid fine enough to carry the kernel's spectrum.
    """
    kern = shared_kernel(n, length, width, MOLLIFIER_HALF_POWER)
    kc = np.fft.fftshift(kern.transform) / n
    ks = np.arange(-(n // 2), n - (n // 2))
    chi = np.zeros(n, dtype=complex)
    for a, b in spans:
        pa = np.exp(-2j * np.pi * ks * (a / length))
        pb = np.exp(-2j * np.pi * ks * (b / length))
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(ks == 0, (b - a) / length,
                            (pa - pb) / (2j * np.pi * np.where(ks == 0, 1, ks)))
        chi += term
    return GridFunction.from_spectrum(length * chi * kc, length)


# ---------------------------------------------------------------------------
# drivers

def run_partition(cfg: ExperimentConfig):
    polygon = geo.LacunaryPolygon(cfg.mu_max)
    cover = geo.polygon_cover(polygon, alpha=cfg.alpha, C0=cfg.c0)
    part = geo.PolygonPartition(polygon, cover, alpha=cfg.alpha)
    rng = trial_rng(cfg, 0)
    report = part.hypothesis_report(rng, cover_samples=4000,
                                    overlap_samples=4000)
    pts = polygon.interior_samples(10_000, rng)
    residual = float(np.max(np.abs(part.partition_sum(pts) - 1.0)))
    metrics = [
        ("partition_residual", residual),
        ("hypotheses_ok", float(report.ok)),
        ("containment_ok", float(report.containment_ok)),
        ("cover_ok", float(report.cover_ok)),
        ("overlap_m1", float(report.m1)),
        ("comparability_m2", float(report.m2)),
        ("members", float(len(part))),
    ]
    failures = []
    if residual > 1e-9:
        failures.append(f"partition residual {residual:.3e} > 1e-9")
    if not report.ok:
        failures.append("cover hypotheses failed machine verification")
    return metrics, failures


# largest share of an apply's pair mass allowed to wrap.  Band-limited
# inputs rebuilt by FFT carry roundoff on every mode, so a clean apply of
# them still wraps a share of order 1e-17, never exactly zero.
WRAP_TOLERANCE = 1e-12


def _wrapped_fraction(report: bil.AliasReport) -> float:
    """Share of an apply's pair mass that wrapped."""
    total = report.in_band_mass + report.wrapped_mass
    return report.wrapped_mass / total if total > 0 else 0.0


def _wrap_failures(wrapped: float) -> list[str]:
    """A wrapped apply computes the aliased operator, not the band-limited
    one a run measures, and it wraps alike on both sides of a comparison;
    so a run whose applies wrapped fails."""
    if wrapped > WRAP_TOLERANCE:
        return [f"sum frequencies wrapped ({wrapped:.3e} of the pair mass "
                f"> {WRAP_TOLERANCE:g}); grid_n is too small for the "
                "frequencies the run multiplies"]
    return []


def _fold_failures(edge: float, cfg: ExperimentConfig) -> list[str]:
    """A multiplier past the grid's fold frequency is silently cut, so the
    sizes and audits of a run whose operator band reaches the fold
    describe a different operator."""
    if 2.0 * edge >= cfg.grid_n / cfg.domain_len:
        return [f"operator band reaches the fold frequency: 2 * band edge "
                f"{2.0 * edge:.4g} >= grid_n / domain_len = "
                f"{cfg.grid_n / cfg.domain_len:g}"]
    return []


def run_polygon_scan(cfg: ExperimentConfig):
    p1, p2, p3 = (float(p) for p in cfg.exponents)
    q = p3 / (p3 - 1.0)
    polygon = geo.LacunaryPolygon(cfg.mu_max)
    scale = cfg.grid_n / (cfg.domain_len * 2.0 ** cfg.k0)
    symbol = bil.region_symbol(polygon.contains, cfg.grid_n, scale)
    ratios = []
    wrapped = 0.0
    for t in range(cfg.trials):
        rng = trial_rng(cfg, t)
        f, g = (restricted_input(cfg.grid_n, cfg.domain_len,
                                 random_spans(rng, cfg.domain_len,
                                              cfg.set_count, 0.05, 0.2),
                                 cfg.moll_width)
                for _ in range(2))
        out, report = bil.bilinear_apply(f, g, symbol)
        denom = f.norm(p1) * g.norm(p2)
        ratios.append(out.norm(q) / denom if denom > 0 else math.inf)
        wrapped = max(wrapped, _wrapped_fraction(report))
    fams10 = [geo.chord_intervals(mu, C0=cfg.c0, alpha=cfg.alpha)
              for mu in range(1, 11)]
    fams20 = fams10 + [geo.chord_intervals(mu, C0=cfg.c0, alpha=cfg.alpha)
                       for mu in range(11, 21)]
    metrics = [("ratio_max", float(max(ratios))),
               ("ratio_mean", float(np.mean(ratios))),
               ("wrapped_fraction_max", wrapped)]
    failures = _wrap_failures(wrapped)
    for i in (1, 2, 3):
        c10 = geo.interval_overlap_count(fams10, i)
        c20 = geo.interval_overlap_count(fams20, i)
        metrics.append((f"overlap_mu10_i{i}", float(c10)))
        metrics.append((f"overlap_mu20_i{i}", float(c20)))
        if c10 != c20:
            failures.append(f"component {i} overlap grew with depth: "
                            f"{c10} -> {c20}")
    if not math.isfinite(max(ratios)):
        failures.append("unbounded norm ratio")
    return metrics, failures


def run_hs_oracle(cfg: ExperimentConfig):
    worst = {s: 0.0 for s in HS_SLOPES}
    ident = 0.0
    wrapped = 0.0
    oracles = {s: bil.pv_cotangent_symbol(s, nodes=100_000)
               for s in HS_SLOPES}
    for t in range(cfg.trials):
        rng = trial_rng(cfg, t)
        f = band_noise(cfg.grid_n, cfg.domain_len, cfg.band, rng)
        g = band_noise(cfg.grid_n, cfg.domain_len, cfg.band, rng)
        for s in HS_SLOPES:
            fast, rf = bil.directional_hilbert(f, g, s)
            slow, rs = bil.bilinear_apply(f, g, oracles[s])
            rel = (fast - slow).norm() / max(fast.norm(), 1e-300)
            worst[s] = max(worst[s], rel)
            wrapped = max(wrapped, _wrapped_fraction(rf),
                          _wrapped_fraction(rs))
        plain, rp = bil.bilinear_apply(f, g, bil.unit_symbol)
        ref = f * g
        ident = max(ident, (plain - ref).norm() / max(ref.norm(), 1e-300))
        wrapped = max(wrapped, _wrapped_fraction(rp))
    metrics = [(f"rel_err_s{s}_max", worst[s]) for s in HS_SLOPES]
    metrics.append(("identity_rel_max", ident))
    failures = []
    for s in HS_SLOPES:
        if worst[s] > 1e-3:
            failures.append(f"slope {s} oracle error {worst[s]:.3e} > 1e-3")
    if ident > 1e-12:
        failures.append(f"unit symbol identity error {ident:.3e} > 1e-12")
    failures += _wrap_failures(wrapped)
    return metrics, failures


def run_tiles(cfg: ExperimentConfig):
    violations = 0
    triples = 0
    trees_total = 0
    tiles_max = 0
    for t in range(cfg.trials):
        tiles = cluster_family(cfg.seed + t, scale_bits=cfg.scale_bits,
                               c0=cfg.clearance)
        tiles_max = max(tiles_max, len(tiles))
        trees = greedy_select(tiles, cfg.span_bits, cfg.scale_bits)
        trees_total += len(trees)
        for tree in trees:
            violations += len(footprint_violations(tiles.take(tree.members)))
        checked, bad = selection_convexity_violations(tiles, trees)
        triples += checked
        violations += bad
    metrics = [("violations", float(violations)),
               ("triples_checked", float(triples)),
               ("trees_total", float(trees_total)),
               ("tiles_max", float(tiles_max))]
    failures = []
    if violations:
        failures.append(f"{violations} regularity/ordering violations")
    if triples == 0:
        failures.append("no ordered triples were exercised")
    return metrics, failures


def run_forest_bessel(cfg: ExperimentConfig):
    metrics = []
    failures = []
    ratio_max = 0.0
    global_max = 0.0
    edge = 0.0
    for t in range(cfg.trials):
        rng = trial_rng(cfg, t)
        tiles = compact_family(cfg.seed + t, scale_bits=cfg.scale_bits,
                               c0=cfg.compact_spread)
        edge = max(edge, operator_band_edge(tiles, cfg.slope,
                                            cfg.support_factor))
        spans = random_spans(rng, cfg.domain_len, cfg.set_count, 2.0, 4.0)
        f = restricted_input(cfg.grid_n, cfg.domain_len, spans,
                             cfg.moll_width)
        energy = f.norm() ** 2
        measure = float(sum(b - a for a, b in spans))
        sizer = TreeSizer(f, tiles, cfg.slope, cfg.order,
                          cfg.support_factor, cfg.weight_power)
        for i in range(3):
            forest = forest_decompose(tiles, lambda tr: sizer.tree_size(tr, i),
                                      cfg.span_bits, cfg.scale_bits)
            levels = [lv for lv in sorted(forest) if lv != SINK_LEVEL]
            r_best = g_best = 0.0
            for level in levels:
                r = bessel_ratio(forest[level], level, energy)
                tops = sum(tree.interval.length for tree in forest[level])
                r_best = max(r_best, r)
                g_best = max(g_best, tops / (4.0 ** level * measure))
            metrics.append((f"bessel_t{t}c{i}", r_best))
            metrics.append((f"global_t{t}c{i}", g_best))
            metrics.append((f"levels_t{t}c{i}", float(len(levels))))
            ratio_max = max(ratio_max, r_best)
            global_max = max(global_max, g_best)
    metrics.append(("bessel_max", ratio_max))
    metrics.append(("global_max", global_max))
    if not math.isfinite(ratio_max) or ratio_max > 1.0:
        failures.append(f"level ratio {ratio_max:.3g} above recorded bound 1")
    if not math.isfinite(global_max):
        failures.append("set-measure ratio unbounded")
    failures += _fold_failures(edge, cfg)
    return metrics, failures


def run_model_sum(cfg: ExperimentConfig):
    thetas = (1.0, cfg.theta2, cfg.theta3)
    exps = cfg.exponents
    metrics = []
    failures = []
    audit_max = 0.0
    form_max = 0.0
    edge = 0.0
    for t in range(cfg.trials):
        rng = trial_rng(cfg, t)
        tiles = compact_family(cfg.seed + t, scale_bits=cfg.scale_bits,
                               c0=cfg.compact_spread)
        edge = max(edge, operator_band_edge(tiles, cfg.slope,
                                            cfg.support_factor))
        fs = tuple(
            restricted_input(cfg.grid_n, cfg.domain_len,
                             random_spans(rng, cfg.domain_len, cfg.set_count,
                                          2.0, 4.0),
                             cfg.moll_width)
            for _ in range(3))
        trees = greedy_select(tiles, cfg.span_bits, cfg.scale_bits)
        tree = max(trees, key=lambda tr: len(tr.members))
        lhs, rhs = single_tree_audit(fs, tiles, tree, cfg.slope, thetas,
                                     cfg.order, cfg.support_factor,
                                     cfg.weight_power, cfg.blur,
                                     cfg.span_bits, cfg.scale_bits)
        ratio = lhs / rhs if rhs > 0 else math.inf
        metrics.append((f"audit_ratio_t{t}", ratio))
        audit_max = max(audit_max, ratio)
        if exps is not None:
            denom = 1.0
            for i in range(3):
                denom *= fs[i].norm(exps[i])
            val = abs(model_sum(fs, tiles, cfg.slope, cfg.order, cfg.blur))
            form = val / denom if denom > 0 else math.inf
            metrics.append((f"form_ratio_t{t}", form))
            form_max = max(form_max, form)
    metrics.append(("audit_ratio_max", audit_max))
    if exps is not None:
        metrics.append(("form_ratio_max", form_max))
    if not math.isfinite(audit_max) or audit_max > 1.0:
        failures.append(f"tree audit ratio {audit_max:.3g} above recorded "
                        "bound 1")
    if exps is not None and not math.isfinite(form_max):
        failures.append("model-sum form ratio unbounded")
    failures += _fold_failures(edge, cfg)
    return metrics, failures


def _kbits_failures(cfg: ExperimentConfig) -> list[str]:
    """Ball products that wrap check the aliased operator's identity."""
    if 2.0 ** (cfg.kbits + 2) > cfg.grid_n / cfg.domain_len:
        return [f"ball products at kbits = {cfg.kbits} wrap: "
                f"2**(kbits + 2) > grid_n / domain_len = "
                f"{cfg.grid_n / cfg.domain_len:g}"]
    return []


def run_paraproduct(cfg: ExperimentConfig):
    tele_max = 0.0
    naive_min = math.inf
    mart = {label: 0.0 for _, label in MARTINGALE_EXPONENTS}
    kmax = cfg.kbits + 1
    for t in range(cfg.trials):
        rng = trial_rng(cfg, t)
        f, g, h = (band_noise(cfg.grid_n, cfg.domain_len, cfg.band, rng)
                   for _ in range(3))
        out = para.telescoping_decompose(f, g, h, kbits=cfg.kbits)
        tele_max = max(tele_max, out["residual"] / out["scale"])
        naive_min = min(naive_min, out["naive_residual"] / out["scale"])
        psi = band_noise(cfg.grid_n, cfg.domain_len, cfg.band, rng)
        a = rng.choice([-1.0, 1.0], size=kmax + 1)
        mm = para.max_martingale(a, psi, kmax)
        for p, label in MARTINGALE_EXPONENTS:
            mart[label] = max(mart[label], mm.norm(p) / psi.norm(p))
    metrics = [("telescope_rel_max", tele_max),
               ("naive_rel_min", naive_min)]
    for _, label in MARTINGALE_EXPONENTS:
        metrics.append((f"martingale_p{label}_max", mart[label]))
    failures = _kbits_failures(cfg)
    if tele_max > 1e-10:
        failures.append(f"telescoping residual {tele_max:.3e} > 1e-10")
    return metrics, failures


def run_size_decay(cfg: ExperimentConfig):
    n, length = cfg.grid_n, cfg.domain_len
    side = float(n // 8)
    sides = np.array([side])
    centers = np.array([[0.0, 0.5 * side, -0.5 * side]])
    count = int(side * length)
    tiles = Family.tiled(sides, centers, build_halos(sides, centers),
                         np.zeros(count, dtype=int), np.arange(count))
    edge = operator_band_edge(tiles, cfg.slope, cfg.support_factor)

    density = indicator([(0.5 * length, 0.5 * length + 2.0 / side)], n, length)
    mask = exceptional_mask(density, cfg.exceptional_factor)
    base = restricted_input(n, length, [(0.25 * length, 0.85 * length)],
                            cfg.moll_width)
    f3 = GridFunction(base.values * (~mask).astype(float), length)

    sizer = TreeSizer(f3, tiles, cfg.slope, order=cfg.decay_power,
                      support_factor=cfg.support_factor,
                      weight_power=cfg.decay_power)
    layers = layer_split(tiles, mask, length)
    sizes = {}
    metrics = [("band_edge", edge),
               ("flagged_fraction", float(mask.mean()))]
    for level in sorted(layers):
        best = 0.0
        for j in layers[level].tolist():
            tree = Tree(tiles.own_top(j), np.array([j]))
            best = max(best, sizer.tree_size(tree, 2))
        sizes[level] = best
        metrics.append((f"layer{level}_size", best))
        metrics.append((f"layer{level}_count", float(len(layers[level]))))
    deep = [lv for lv in sorted(sizes) if lv >= 1]
    degenerate = [lv for lv in deep
                  if not (math.isfinite(sizes[lv]) and sizes[lv] > 0)]
    failures = []
    if len(deep) < 2:
        failures.append("fewer than two decaying layers were populated")
        rate = math.nan
    elif degenerate:
        lv = degenerate[0]
        failures.append(f"layer {lv} size {sizes[lv]} is not positive and "
                        "finite, so no decay rate exists")
        rate = math.nan
    else:
        steps = [math.log2(sizes[a] / sizes[b])
                 for a, b in zip(deep, deep[1:])]
        rate = float(np.mean(steps))
    metrics.append(("decay_rate", rate))
    if not rate > 0:
        failures.append(f"decay rate {rate} not positive")
    failures += _fold_failures(edge, cfg)
    return metrics, failures


_RUNNERS = {
    "partition": (run_partition,
                  "cover hypotheses and unity residual on the inscribed polygon"),
    "polygon-scan": (run_polygon_scan,
                     "norm ratios for the polygon multiplier, chord overlap counts"),
    "hs-oracle": (run_hs_oracle,
                  "directional transforms against principal-value quadrature"),
    "tiles": (run_tiles,
              "regularity and selection-order audits on clustered cube families"),
    "forest-bessel": (run_forest_bessel,
                      "threshold-sweep level ratios on restricted inputs"),
    "model-sum": (run_model_sum,
                  "single-tree audits and localized form ratios"),
    "paraproduct": (run_paraproduct,
                    "telescoping residuals and martingale transform ratios"),
    "size-decay": (run_size_decay,
                   "layered size decay outside the flagged set"),
}


# ---------------------------------------------------------------------------
# records and comparison

@dataclasses.dataclass(frozen=True)
class ResultRecord:
    config: str
    seed: int
    metric: str
    value: float
    grid_n: int
    wall_time: float


@dataclasses.dataclass
class RunResult:
    config: ExperimentConfig
    records: list[ResultRecord]
    failures: list[str]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def run(cfg: ExperimentConfig) -> RunResult:
    validate_config(cfg)
    runner = _RUNNERS[cfg.kind][0]
    start = time.perf_counter()
    metrics, failures = runner(cfg)
    elapsed = time.perf_counter() - start
    # a NaN slips through max() and every threshold check of a driver
    for name, value in metrics:
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite ({value!r})")
    digest = config_hash(cfg)
    records = [ResultRecord(digest, cfg.seed, name, float(value),
                            cfg.grid_n, elapsed)
               for name, value in metrics]
    return RunResult(cfg, records, failures, elapsed)


CSV_HEADER = "config,seed,metric,value,grid_n,wall_time"


def records_digest(records: list[ResultRecord]) -> str:
    """Hash of the deterministic projection of the records."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.config},{r.seed},{r.metric},{r.value!r},{r.grid_n}\n"
                 .encode())
    return h.hexdigest()


def write_records(path: str, records: list[ResultRecord]) -> None:
    """Write a fresh records file; an existing one raises FileExistsError,
    so two runs never share a file."""
    with open(path, "x", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(f"{r.config},{r.seed},{r.metric},{r.value!r},"
                     f"{r.grid_n},{r.wall_time:.3f}\n")


def read_records(path: str) -> list[ResultRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unrecognized records header {header!r}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != 6:
                raise ValueError(f"malformed record {line!r}")
            out.append(ResultRecord(cells[0], int(cells[1]), cells[2],
                                    float(cells[3]), int(cells[4]),
                                    float(cells[5])))
    return out


def write_summary(path: str, result: RunResult) -> None:
    cfg = result.config
    lines = ["run:",
             f"  kind = {cfg.kind}",
             f"  hash = {config_hash(cfg)}",
             f"  passed = {str(result.passed).lower()}",
             f"  elapsed_s = {result.elapsed:.3f}",
             f"  records_sha256 = {records_digest(result.records)}",
             "config:"]
    lines += ["  " + ln for ln in canonical_text(cfg).splitlines()]
    lines.append("metrics:")
    lines += [f"  {r.metric} = {r.value!r}" for r in result.records]
    lines.append("failures:")
    lines += [f"  - {msg}" for msg in result.failures] or ["  none"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary_config(path: str) -> dict[str, str]:
    """The config block of a summary file, as raw key -> value text."""
    out = {}
    in_cfg = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.rstrip() == "config:":
                in_cfg = True
                continue
            if in_cfg:
                if not line.startswith("  ") or "=" not in line:
                    break
                key, val = line.strip().split("=", 1)
                out[key.strip()] = val.strip()
    return out


@dataclasses.dataclass
class CompareReport:
    status: str            # "ok" | "drift" | "rebaseline" | "mismatch"
    worst_drift: float
    breaches: list[str]

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "rebaseline": 0, "drift": 1, "mismatch": 2}[self.status]


def compare_runs(base_dir: str, cur_dir: str,
                 budget: float = DRIFT_BUDGET) -> CompareReport:
    """Per-metric floored relative drift between two run directories.

    Matching config hashes gate the comparison; a difference only in the
    seed field asks for a new baseline instead of reporting an error.  A
    NaN or infinite value on either side is a breach of any budget.  The
    budget must be a finite number >= 0: no drift exceeds a NaN or an
    infinite budget, and every drift exceeds a negative one.
    """
    if not 0.0 <= budget < math.inf:
        raise ValueError(f"drift budget must be a finite number >= 0, "
                         f"got {budget!r}")
    base_cfg = read_summary_config(os.path.join(base_dir, "summary.txt"))
    cur_cfg = read_summary_config(os.path.join(cur_dir, "summary.txt"))
    diff = {k for k in set(base_cfg) | set(cur_cfg)
            if base_cfg.get(k) != cur_cfg.get(k)}
    if "seed" in diff:
        return CompareReport("rebaseline", 0.0,
                             ["seed changed: record a new baseline"])
    if diff - {"grid_n"}:
        keys = ", ".join(sorted(diff - {"grid_n"}))
        return CompareReport("mismatch", 0.0,
                             [f"config mismatch in: {keys}"])
    base = {r.metric: r.value
            for r in read_records(os.path.join(base_dir, "records.csv"))}
    cur = {r.metric: r.value
           for r in read_records(os.path.join(cur_dir, "records.csv"))}
    breaches = []
    worst = 0.0
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            breaches.append(f"metric {name} present in only one run")
            continue
        a, b = base[name], cur[name]
        if not (math.isfinite(a) and math.isfinite(b)):
            worst = math.inf
            breaches.append(f"{name}: {a!r} -> {b!r} (non-finite)")
            continue
        drift = abs(a - b) / max(abs(a), abs(b), 1e-3)
        worst = max(worst, drift)
        if drift > budget:
            breaches.append(f"{name}: {a!r} -> {b!r} (drift {drift:.3f})")
    status = "drift" if breaches else "ok"
    return CompareReport(status, worst, breaches)
