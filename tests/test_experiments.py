"""Configuration, drivers, record plumbing and the command line."""

import math
import os
import re
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import freqbench.experiments as ex
import freqbench.timefreq as tf
from freqbench.cli import main as cli_main
from freqbench.grid import PositiveBandKernel, maximal_average
from freqbench.sizes import exceptional_mask
from freqbench.timefreq import SINK_LEVEL, Tree


def small(kind, **tweaks):
    cfg = ex.default_config(kind)
    cfg.trials = 2
    for key, value in tweaks.items():
        setattr(cfg, key, value)
    return cfg


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw):
    """Any config that passes validate_config, for every kind."""
    open_unit = dict(exclude_min=True, exclude_max=True)
    allow = draw(st.booleans())
    pair = finite(2.5, 100.0)
    conjugate = st.tuples(pair, pair).map(
        lambda ps: ps + (1.0 / (1.0 - 1.0 / ps[0] - 1.0 / ps[1]),))
    loose = st.tuples(*[finite(1.0, 1e6, exclude_min=True)] * 3)
    triple = loose if allow else conjugate
    kind = draw(st.sampled_from([kind for kind, _ in ex.experiment_kinds()]))
    cfg = ex.default_config(kind)
    scale_bits = draw(st.integers(2, 16))
    # a partition resolves chords down to 22, and 22 only at c0 <= 9
    deep = kind == "partition"
    mu_max = draw(st.integers(1, 22 if deep else 64))
    c0 = draw(st.integers(2, 9 if deep and mu_max == 22 else 16))
    # the compact families' tiles need tops as long as 2**scale_bits
    pooled = kind in ("forest-bessel", "model-sum")
    positive = finite(0.0, None, exclude_min=True)
    fields = dict(
        grid_n=st.integers(8, 1 << 14).map(lambda n: 2 * n),
        domain_len=finite(0.0, 1e6, exclude_min=True),
        seed=st.integers(0, 2 ** 63), trials=st.integers(1, 10 ** 6),
        mu_max=st.just(mu_max), alpha=finite(0.0, 1.0, **open_unit),
        c0=st.just(c0), k0=finite(-60.0, 60.0),
        scale_bits=st.just(scale_bits),
        span_bits=st.integers(scale_bits if pooled else 0, 1023),
        clearance=finite(0.25, 32.0), compact_spread=finite(0.25, 32.0),
        slope=finite(0.0, 1e6, exclude_min=True),
        order=st.integers(1, 64),
        support_factor=finite(0.0, None, exclude_min=True),
        weight_power=st.integers(1, 64), blur=positive,
        exceptional_factor=positive, decay_power=st.integers(1, 64),
        band=finite(), moll_width=finite(0.0, None, exclude_min=True),
        set_count=st.integers(1, 64), kbits=st.integers(1, 60),
        exponents=triple if kind == "polygon-scan" else st.none() | triple,
        theta2=finite(0.0, 1.0, exclude_min=True),
        theta3=finite(0.0, 1.0, exclude_min=True),
        allow_non_conjugate=st.just(allow))
    for name, strategy in fields.items():
        setattr(cfg, name, draw(strategy))
    if kind in ("paraproduct", "hs-oracle"):
        floor = 1.0 / cfg.domain_len  # band_noise's lowest nonzero mode
        assume(math.isfinite(floor))
        cfg.band = draw(finite(floor))
    if kind in ("polygon-scan", "forest-bessel", "model-sum", "size-decay"):
        # the restricted inputs' mollifier aliases at and below this width
        floor = 2 * ex.MOLLIFIER_HALF_POWER * cfg.domain_len / cfg.grid_n
        cfg.moll_width = draw(finite(floor, None, exclude_min=True))
        assume(ex.MOLLIFIER_HALF_POWER * cfg.domain_len / cfg.moll_width
               < cfg.grid_n / 2)
    if kind == "size-decay":
        # the mask flags every sample below
        floor = ex._decay_density(cfg.grid_n, cfg.domain_len)[1]
        assume(math.isfinite(floor))
        cfg.exceptional_factor = draw(finite(floor))
    ex.validate_config(cfg)
    return cfg


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_canonical_round_trip_any_valid(self, cfg):
        assert ex.parse_config(ex.canonical_text(cfg)) == cfg

    def test_canonical_round_trip(self):
        for kind in ("tiles", "model-sum", "size-decay"):
            cfg = ex.default_config(kind)
            again = ex.parse_config(ex.canonical_text(cfg))
            assert again == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ex.default_config("nope")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ex.parse_config("kind = tiles\nwobble = 3\n")

    def test_kind_required(self):
        with pytest.raises(ValueError, match="must set 'kind'"):
            ex.parse_config("trials = 3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ex.parse_config("# header\nkind = tiles  # inline\n\ntrials = 9\n")
        assert cfg.kind == "tiles" and cfg.trials == 9

    def test_non_conjugate_triple_needs_flag(self):
        cfg = small("model-sum", exponents=(1.5, 4.0, 4.0))
        with pytest.raises(ValueError, match="scaling identity"):
            ex.validate_config(cfg)
        cfg.allow_non_conjugate = True
        ex.validate_config(cfg)

    def test_conjugate_triple_accepted(self):
        cfg = small("model-sum", exponents=(5 / 3, 4.0, 20 / 3))
        ex.validate_config(cfg)

    def test_bad_scalars_rejected(self):
        for field, value, hint in (("kind", "nope", "kind must be one of"),
                                   ("grid_n", 129, "grid_n"),
                                   ("alpha", 1.5, "alpha"),
                                   ("theta2", 0.0, "theta"),
                                   ("trials", 0, "trials")):
            cfg = small("tiles")
            setattr(cfg, field, value)
            with pytest.raises(ValueError, match=hint):
                ex.validate_config(cfg)

    @pytest.mark.parametrize("line,field", [
        ("trials = 2.5", "trials"), ("seed = abc", "seed"),
        ("alpha = nan", "alpha"), ("band = inf", "band"),
        ("exponents = 2", "exponents"), ("exponents = 1.5, x, 4", "exponents"),
        ("allow_non_conjugate = 1", "allow_non_conjugate"),
    ])
    def test_mistyped_values_rejected(self, line, field):
        with pytest.raises(ValueError, match=f"invalid config: {field} must"):
            ex.parse_config(f"kind = model-sum\n{line}\n")

    def test_values_coerced_to_field_types(self):
        cfg = ex.parse_config("kind = tiles\ntrials = 3.0\nband = 8\n"
                              "exponents = 2, 4, 4\n")
        assert cfg.trials == 3 and type(cfg.trials) is int
        assert type(cfg.band) is float
        assert cfg.exponents == (2.0, 4.0, 4.0)

    def test_validate_stores_coerced_values(self):
        # a config built in Python hashes like the same config read from
        # a file once it is validated
        cfg = ex.default_config("paraproduct")
        cfg.band, cfg.trials = 250, 100.0
        ex.validate_config(cfg)
        assert type(cfg.band) is float and type(cfg.trials) is int
        assert ex.config_hash(cfg) == ex.config_hash(
            ex.default_config("paraproduct")) == "e373521d4af8540b"

    def test_band_floor_only_for_band_noise_kinds(self):
        cfg = small("paraproduct", band=1.0)
        ex.validate_config(cfg)
        cfg.domain_len = 0.5
        with pytest.raises(ValueError, match=r"band must be >= 1 / domain_len"
                           r" = 2 for paraproduct, got 1\.0"):
            ex.validate_config(cfg)
        for kind in ("tiles", "polygon-scan", "size-decay"):
            ex.validate_config(small(kind, band=-5.0))

    @pytest.mark.parametrize("kind", ["polygon-scan", "forest-bessel",
                                      "model-sum", "size-decay"])
    def test_moll_width_refused_exactly_where_its_kernel_aliases(self, kind):
        # at the edge width the kernel's spectrum radius is grid_n / 2; one
        # ulp wider it fits, and no wider width is refused
        cfg = ex.default_config(kind)
        edge = 2 * ex.MOLLIFIER_HALF_POWER * cfg.domain_len / cfg.grid_n
        for width in (edge / 2, edge, np.nextafter(edge, math.inf),
                      cfg.moll_width):
            cfg.moll_width = float(width)
            try:
                PositiveBandKernel(cfg.grid_n, cfg.domain_len, width,
                                   ex.MOLLIFIER_HALF_POWER)
            except ValueError as err:
                assert "would alias" in str(err)
                hint = f"moll_width must be > {edge!r} for {kind}"
                with pytest.raises(ValueError, match=re.escape(hint)):
                    ex.validate_config(cfg)
            else:
                assert width > edge
                ex.validate_config(cfg)
        # widths that alias on the default grid are not refused elsewhere
        for other in ("tiles", "paraproduct"):
            ex.validate_config(small(other, moll_width=edge / 2))

    def test_validate_checks_field_types(self):
        cfg = small("tiles", seed="abc")
        with pytest.raises(ValueError, match="seed must be an integer"):
            ex.validate_config(cfg)

    def test_hash_ignores_grid_but_not_seed(self):
        a = small("tiles")
        b = small("tiles", grid_n=2 * a.grid_n)
        c = small("tiles", seed=99)
        assert ex.config_hash(a) == ex.config_hash(b)
        assert ex.config_hash(a) != ex.config_hash(c)

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "t.cfg"
        path.write_text("kind = tiles\ntrials = 1\n")
        monkeypatch.setenv(ex.GRID_ENV, "512")
        cfg = ex.load_config(str(path))
        assert cfg.grid_n == 512

    def test_seed_override(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("kind = tiles\nseed = 1\n")
        assert ex.load_config(str(path), seed=42).seed == 42


class TestInputs:
    def test_restricted_input_dominated_by_one(self):
        f = ex.restricted_input(512, 1.0, [(0.1, 0.3), (0.6, 0.62)], 0.02)
        vals = f.values.real
        assert np.abs(f.values.imag).max() < 1e-11
        assert vals.min() > -1e-11 and vals.max() < 1.0 + 1e-11
        assert f.integral().real == pytest.approx(0.22, abs=1e-12)

    def test_restricted_input_refines_exactly(self):
        # same trigonometric polynomial on both grids, so coarse samples
        # reappear among the fine ones
        coarse = ex.restricted_input(512, 32.0, [(4.0, 7.0)], 0.5)
        fine = ex.restricted_input(1024, 32.0, [(4.0, 7.0)], 0.5)
        assert np.abs(fine.values[::2] - coarse.values).max() < 1e-8

    def test_restricted_input_shares_its_kernel(self, monkeypatch):
        # a model-sum run builds 150 inputs on one grid at one width
        import freqbench.grid as grid
        built = []

        class Counted(grid.PositiveBandKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(grid, "PositiveBandKernel", Counted)
        for a in (4.0, 9.0, 4.0):
            ex.restricted_input(512, 32.0, [(a, a + 3.0)], 0.4375)
        assert built == [(512, 32.0, 0.4375, ex.MOLLIFIER_HALF_POWER)]

    def test_band_noise_confined_and_unit(self):
        rng = np.random.default_rng(5)
        f = ex.band_noise(256, 1.0, 8.0, rng)
        coeffs = f.spectrum()
        ks = f.freqs()
        assert np.abs(coeffs[np.abs(ks) > 8]).max() < 1e-14
        assert f.norm() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("band", [0.0, 0.5, -5.0])
    def test_band_noise_refuses_band_without_modes(self, band):
        # only the zero mode (or none) fits: the input would be a constant
        # (normalized, all NaN) and every identity would hold vacuously
        with pytest.raises(ValueError, match="no nonzero mode"):
            ex.band_noise(64, 1.0, band, np.random.default_rng(0))

    def test_trial_rng_reproducible(self):
        cfg = small("tiles", seed=11)
        a = ex.trial_rng(cfg, 3).normal(size=4)
        b = ex.trial_rng(cfg, 3).normal(size=4)
        c = ex.trial_rng(cfg, 4).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


HS_APPLIES = 2 * len(ex.HS_SLOPES) + 1  # bilinear applies per hs-oracle trial


def nan_output(result):
    out, report = result
    return out * math.nan, report


def nan_wrapped(result):
    return result[0], types.SimpleNamespace(wrapped_fraction=math.nan)


def nan_last_level(forest):
    """One more level, deeper than every real one, whose tree's top length
    is NaN."""
    return {**forest, SINK_LEVEL - 1: [Tree((0.0, 0.0, math.nan),
                                            np.arange(1))]}


FOLD_EDGE = "operator band reaches the fold frequency"


# kind, patched owner and name, the call (from 0) whose result is spoiled,
# the spoil, and the failure it must cause
NAN_FOLDS = [
    pytest.param("size-decay", ex.TreeSizer, "tree_size", 1,
                 lambda size: math.nan,
                 "metric layer0_size is not finite (nan)",
                 id="size-decay-best"),
    pytest.param("paraproduct", ex.para, "telescoping_decompose", 1,
                 lambda out: dict(out, residual=math.nan),
                 "metric telescope_rel_max is not finite (nan)",
                 id="paraproduct-tele_max"),
    pytest.param("paraproduct", ex.para, "telescoping_decompose", 1,
                 lambda out: dict(out, naive_residual=math.nan),
                 "metric naive_rel_min is not finite (nan)",
                 id="paraproduct-naive_min"),
    pytest.param("paraproduct", ex.para, "max_martingale", 1,
                 lambda mm: mm * math.nan,
                 "metric martingale_p2_max is not finite (nan)",
                 id="paraproduct-martingale"),
    pytest.param("hs-oracle", ex.bil, "bilinear_apply", HS_APPLIES,
                 nan_output, "metric rel_err_s1_max is not finite (nan)",
                 id="hs-oracle-worst"),
    pytest.param("hs-oracle", ex.bil, "bilinear_apply", 2 * HS_APPLIES - 1,
                 nan_output, "metric identity_rel_max is not finite (nan)",
                 id="hs-oracle-ident"),
    pytest.param("hs-oracle", ex.bil, "bilinear_apply", HS_APPLIES,
                 nan_wrapped, "sum frequencies wrapped (nan",
                 id="hs-oracle-wrapped"),
    pytest.param("polygon-scan", ex.bil, "bilinear_apply", 1,
                 nan_output, "metric ratio_max is not finite (nan)",
                 id="polygon-scan-ratio_max"),
    pytest.param("polygon-scan", ex.bil, "bilinear_apply", 1,
                 nan_wrapped, "metric wrapped_fraction_max is not finite (nan)",
                 id="polygon-scan-wrapped"),
    pytest.param("forest-bessel", ex, "forest_decompose", 1, nan_last_level,
                 "metric bessel_max is not finite (nan)",
                 id="forest-bessel-r_best"),
    pytest.param("forest-bessel", ex, "forest_decompose", 1, nan_last_level,
                 "metric global_max is not finite (nan)",
                 id="forest-bessel-g_best"),
    pytest.param("forest-bessel", ex, "operator_band_edge", 1,
                 lambda edge: math.nan, FOLD_EDGE, id="forest-bessel-edge"),
    pytest.param("model-sum", ex, "single_tree_audit", 1,
                 lambda out: (math.nan, out[1]),
                 "metric audit_ratio_max is not finite (nan)",
                 id="model-sum-audit_max"),
    pytest.param("model-sum", ex, "term_sum", 1, lambda total: math.nan,
                 "metric form_ratio_max is not finite (nan)",
                 id="model-sum-form_max"),
    pytest.param("model-sum", ex, "operator_band_edge", 1,
                 lambda edge: math.nan, FOLD_EDGE, id="model-sum-edge"),
]


class TestDrivers:
    def test_runs_are_deterministic(self):
        r1 = ex.run(small("tiles", trials=4))
        r2 = ex.run(small("tiles", trials=4))
        assert ex.records_digest(r1.records) == ex.records_digest(r2.records)

    def test_tiles_clean(self):
        res = ex.run(small("tiles", trials=4))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        assert named["violations"] == 0
        assert named["triples_checked"] > 0

    def test_hs_oracle_within_tolerance(self):
        res = ex.run(small("hs-oracle"))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        for s in (1, 2, 5):
            assert named[f"rel_err_s{s}_max"] < 1e-3
        assert named["identity_rel_max"] < 1e-12

    def test_hs_oracle_fails_when_sums_wrap(self):
        # 16 modes with band 100 alias on both paths alike, so the oracle
        # comparison alone would pass
        res = ex.run(small("hs-oracle", grid_n=16, band=100.0, trials=1))
        named = {r.metric: r.value for r in res.records}
        assert named["rel_err_s1_max"] < 1e-3
        assert not res.passed
        assert any("wrapped" in msg for msg in res.failures)

    def test_forest_bessel_bounded(self):
        res = ex.run(small("forest-bessel"))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        assert 0 < named["bessel_max"] <= 1.0
        assert np.isfinite(named["global_max"])
        assert named["levels_t0c0"] >= 1

    def test_paraproduct_residual_and_foil(self):
        res = ex.run(small("paraproduct"))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        assert named["telescope_rel_max"] < 1e-10
        # shifting the diagonal couplings by one leaves a visible defect
        assert named["naive_rel_min"] > 1e-4
        assert named["martingale_p2_max"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("kbits,hint", [
        (9, "wrap"),
        (12, "wrap"),
    ])
    def test_paraproduct_fails_on_degenerate_kbits(self, kbits, hint):
        # ball products past grid_n / 4 make the telescoping identity hold
        # for the aliased operator; the verdict depends on grid_n, which a
        # refinement run overrides, so it is a run failure
        res = ex.run(small("paraproduct", kbits=kbits))
        assert not res.passed
        assert any(hint in msg for msg in res.failures)

    def test_polygon_scan_overlaps(self):
        res = ex.run(small("polygon-scan", mu_max=4))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        for i in (1, 2, 3):
            assert named[f"overlap_mu10_i{i}"] == named[f"overlap_mu20_i{i}"] == 2

    def test_polygon_scan_fails_when_sums_wrap(self):
        # at k0 = 6 the polygon covers the whole 128-mode band, so sums of
        # mode pairs leave it
        res = ex.run(small("polygon-scan", k0=6.0, trials=3))
        named = {r.metric: r.value for r in res.records}
        assert named["wrapped_fraction_max"] > 1e-12
        assert not res.passed
        assert any("wrapped" in msg for msg in res.failures)

    def test_model_sum_audits(self):
        res = ex.run(small("model-sum"))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        assert 0 <= named["audit_ratio_max"] <= 1.0
        assert np.isfinite(named["form_ratio_max"])

    @pytest.mark.parametrize("knob,value", [("weight_power", 4),
                                            ("blur", 0.5)])
    def test_model_sum_audit_follows_size_knobs(self, knob, value):
        # the audit's sizers and model sums run at the config's weight
        # power and blur, so changing either moves every audit ratio
        def audits(cfg):
            return {r.metric: r.value for r in ex.run(cfg).records
                    if r.metric.startswith("audit_ratio_t")}

        base = audits(small("model-sum"))
        moved = audits(small("model-sum", **{knob: value}))
        assert len(base) == 2
        assert all(moved[name] != base[name] for name in base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_metric_fails_the_run(self, monkeypatch, value):
        # max(0.0, nan) is 0.0 and nan > bound is False, so a driver's own
        # checks can miss a NaN; run() fails every non-finite metric
        def runner(cfg):
            return [("fine", 1.0), ("broken", value)], []

        monkeypatch.setitem(ex._RUNNERS, "tiles", (runner, "stub"))
        res = ex.run(small("tiles"))
        assert not res.passed
        assert res.failures == [f"metric broken is not finite ({value!r})"]

    def test_polygon_scan_zero_norm_fails_in_run(self, monkeypatch):
        # a zero input norm makes every ratio infinite; run_polygon_scan
        # leaves the verdict to run()'s finiteness rule
        monkeypatch.setattr(ex.GridFunction, "norm", lambda self, p=2.0: 0.0)
        res = ex.run(small("polygon-scan", mu_max=2))
        assert not res.passed
        assert "metric ratio_max is not finite (inf)" in res.failures

    @pytest.mark.parametrize("kind,owner,name,at,spoil,failure", NAN_FOLDS)
    def test_nan_after_the_first_trial_fails_the_run(self, monkeypatch, kind,
                                                     owner, name, at, spoil,
                                                     failure):
        # max(acc, nan) is acc, so a fold by max() dropped a NaN met after
        # its first value and the run passed with finite records
        real = getattr(owner, name)
        seen = []

        def spoiled(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(out)
            return spoil(out) if len(seen) == at + 1 else out

        monkeypatch.setattr(owner, name, spoiled)
        res = ex.run(small(kind))
        assert len(seen) > at
        assert not res.passed
        assert any(failure in line for line in res.failures), res.failures

    def test_forest_bessel_fills_once_and_visits_taking_levels(self,
                                                                monkeypatch):
        # the maximal trees of each component are sized in one fill, which
        # every later tree reuses; a level no tree passes is skipped
        fills, taken, forests = [], [], []

        def spy(owner, name, log, keep=lambda out: out):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                log.append(keep(out))
                return out
            monkeypatch.setattr(owner, name, wrapped)

        spy(ex.TreeSizer, "_fill", fills)
        spy(tf, "_select", taken, len)
        spy(ex, "forest_decompose", forests)
        res = ex.run(small("forest-bessel", trials=1))
        assert res.passed
        assert len(forests) == 3 and len(fills) == 3
        assert 0 not in taken
        assert len(taken) == sum(map(len, forests))

    @pytest.mark.parametrize("c0", [12, 13])
    def test_partition_cover_check_sees_the_residual_points(self, c0):
        # the report's 4,000 cover samples all pass here, but 3 of the
        # residual's 10,000 points lie outside every alpha-shrink
        res = ex.run(small("partition", mu_max=2, c0=c0))
        named = {r.metric: r.value for r in res.records}
        assert named["cover_ok"] == 0.0 and named["hypotheses_ok"] == 0.0
        assert not res.passed

    @pytest.mark.xfail(raises=AssertionError,
                       reason="the alpha-shrinks leave 13 of 10,000 guarded "
                       "points uncovered in the r = 1 shell of chord 2")
    def test_partition_passes_at_c0_ten(self):
        # c0 is admitted up to 16, yet at mu_max 2 and c0 10 the cover
        # check fails and the partition residual is 1.0
        res = ex.run(small("partition", mu_max=2, c0=10))
        assert res.passed

    def test_size_decay_rate_positive(self):
        res = ex.run(ex.default_config("size-decay"))
        named = {r.metric: r.value for r in res.records}
        assert res.passed
        assert named["decay_rate"] > 0
        assert named["layer2_size"] < named["layer1_size"] < named["layer0_size"]

    @pytest.mark.parametrize("factor,code", [(1.98, 2), (1.99, 0)])
    def test_size_decay_floor_at_default_grid(self, tmp_path, capsys,
                                              factor, code):
        # the density's floor is 4096 / 2064 = 1.9845 here
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"kind = size-decay\nexceptional_factor = {factor}\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == code
        assert ("exceptional_factor must be >= 1.98449"
                in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("n,length", [(16, 1.0), (64, 0.25), (256, 3.0),
                                          (512, 32.0), (1000, 1.0),
                                          (4096, 1.0), (4096, 3.0)])
    def test_size_decay_floor_is_least_maximal_average(self, n, length):
        density, floor = ex._decay_density(n, length)
        m = maximal_average(density).values.real
        assert floor == pytest.approx(m.min() / density.integral().real,
                                      rel=1e-14)
        assert exceptional_mask(density, floor * (1 - 1e-9)).all()
        assert not exceptional_mask(density, floor * (1 + 1e-9)).all()

    def test_size_decay_zero_layer_size_fails_cleanly(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(ex.TreeSizer, "tree_size",
                            lambda self, tree, i: 0.0)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = size-decay\n")
        out = tmp_path / "x"
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "failure: layer 1 size 0.0 is not positive and finite" in text
        named = {r.metric: r.value
                 for r in ex.read_records(str(out / "records.csv"))}
        assert np.isnan(named["decay_rate"])


class TestRecords:
    def test_round_trip_values_exact(self, tmp_path):
        res = ex.run(small("tiles", trials=3))
        path = tmp_path / "records.csv"
        ex.write_records(str(path), res.records)
        back = ex.read_records(str(path))
        assert [(r.metric, r.value) for r in back] == \
               [(r.metric, r.value) for r in res.records]

    def test_second_write_refused(self, tmp_path):
        res = ex.run(small("tiles", trials=2))
        path = tmp_path / "records.csv"
        ex.write_records(str(path), res.records)
        first = path.read_text()
        with pytest.raises(FileExistsError):
            ex.write_records(str(path), res.records)
        assert path.read_text() == first
        lines = first.splitlines()
        assert lines[0] == ex.CSV_HEADER
        assert len(lines) == 1 + len(res.records)

    def test_digest_blind_to_wall_time(self):
        res = ex.run(small("tiles", trials=2))
        slow = [ex.ResultRecord(r.config, r.seed, r.metric, r.value,
                                r.grid_n, r.wall_time + 7.0)
                for r in res.records]
        assert ex.records_digest(slow) == ex.records_digest(res.records)


def write_run(res, outdir):
    os.makedirs(outdir, exist_ok=True)
    ex.write_records(os.path.join(outdir, "records.csv"), res.records)
    ex.write_summary(os.path.join(outdir, "summary.txt"), res)


def compare_exit(tmp_path):
    """The CLI's exit code for comparing run directories a and b."""
    return cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")])


def compare_values(base, cur):
    """compare_runs over two runs holding one metric per value."""
    cfg = ex.default_config("tiles")
    digest = ex.config_hash(cfg)

    def result(values):
        return ex.RunResult(cfg, [ex.ResultRecord(digest, 0, f"m{i}", v,
                                                  cfg.grid_n, 0.0)
                                  for i, v in enumerate(values)], [], 0.0)

    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        write_run(result(base), a)
        write_run(result(cur), b)
        return ex.compare_runs(a, b)


class TestCompare:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite(), min_size=1, max_size=6))
    def test_identical_values_ok(self, values):
        rep = compare_values(values, values)
        assert rep.status == "ok" and rep.worst_drift == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite(), min_size=1, max_size=6), st.data())
    def test_any_non_finite_value_is_drift(self, values, data):
        at = data.draw(st.integers(0, len(values) - 1))
        bad = list(values)
        bad[at] = data.draw(st.sampled_from(
            [float("nan"), float("inf"), float("-inf")]))
        other = data.draw(st.sampled_from([values, bad]))
        pair = data.draw(st.permutations([bad, other]))
        rep = compare_values(*pair)
        assert rep.status == "drift" and rep.worst_drift == float("inf")

    def test_identical_runs_ok(self, tmp_path):
        res = ex.run(small("tiles", trials=3))
        write_run(res, tmp_path / "a")
        write_run(res, tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "ok" and compare_exit(tmp_path) == 0
        assert rep.worst_drift == 0.0

    def test_value_drift_breaches(self, tmp_path):
        res = ex.run(small("tiles", trials=3))
        write_run(res, tmp_path / "a")
        bumped = [r if r.metric != "tiles_max" else
                  ex.ResultRecord(r.config, r.seed, r.metric, 2.0 * r.value,
                                  r.grid_n, r.wall_time)
                  for r in res.records]
        write_run(ex.RunResult(res.config, bumped, [], 0.0), tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "drift" and compare_exit(tmp_path) == 1
        assert any("tiles_max" in msg for msg in rep.breaches)

    def test_small_absolute_changes_floored(self, tmp_path):
        res = ex.run(small("tiles", trials=3))
        write_run(res, tmp_path / "a")
        nudged = [ex.ResultRecord(r.config, r.seed, r.metric,
                                  r.value + 1e-5, r.grid_n, r.wall_time)
                  for r in res.records]
        write_run(ex.RunResult(res.config, nudged, [], 0.0), tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "ok"

    def test_missing_metric_breaches(self, tmp_path):
        res = ex.run(small("tiles", trials=3))
        write_run(res, tmp_path / "a")
        write_run(ex.RunResult(res.config, res.records[:-1], [], 0.0),
                  tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "drift"
        assert any("only one run" in msg for msg in rep.breaches)

    @pytest.mark.parametrize("base,cur", [(1.0, float("nan")),
                                          (float("nan"), float("nan")),
                                          (2.0, float("inf"))])
    def test_non_finite_values_breach(self, tmp_path, base, cur):
        res = ex.run(small("tiles", trials=3))

        def with_value(value):
            return [r if r.metric != "tiles_max" else
                    ex.ResultRecord(r.config, r.seed, r.metric, value,
                                    r.grid_n, r.wall_time)
                    for r in res.records]

        write_run(ex.RunResult(res.config, with_value(base), [], 0.0),
                  tmp_path / "a")
        write_run(ex.RunResult(res.config, with_value(cur), [], 0.0),
                  tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "drift" and compare_exit(tmp_path) == 1
        assert any("tiles_max" in msg for msg in rep.breaches)

    def test_seed_change_requests_rebaseline(self, tmp_path):
        write_run(ex.run(small("tiles", trials=3, seed=0)), tmp_path / "a")
        write_run(ex.run(small("tiles", trials=3, seed=1)), tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "rebaseline" and compare_exit(tmp_path) == 0

    def test_other_config_change_is_mismatch(self, tmp_path):
        write_run(ex.run(small("tiles", trials=3)), tmp_path / "a")
        write_run(ex.run(small("tiles", trials=4)), tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "mismatch" and compare_exit(tmp_path) == 2
        assert any("trials" in msg for msg in rep.breaches)

    def test_grid_doubling_is_comparable(self, tmp_path):
        write_run(ex.run(small("forest-bessel", grid_n=512)), tmp_path / "a")
        write_run(ex.run(small("forest-bessel", grid_n=1024)), tmp_path / "b")
        rep = ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert rep.status == "ok"
        assert rep.worst_drift < 1e-6


# (kind, config lines) just outside a row of the domain table or a
# cross-field rule; the first key names the refused field
OUT_OF_DOMAIN = [
    ("tiles", "grid_n = 14"), ("tiles", "domain_len = 0"),
    ("tiles", "seed = -1"), ("tiles", "trials = 0"),
    ("partition", "mu_max = 0"), ("partition", "alpha = 1"),
    ("partition", "c0 = 17"),
    ("partition", "c0 = 64"),              # past the host's memory
    # the last chord's thinnest Whitney members are no wider than the
    # containment slack of 2 ulps of 1 (2 ulps in the first three rows),
    # or have zero width
    ("partition", "mu_max = 23"), ("partition", "mu_max = 22\nc0 = 10"),
    ("partition", "mu_max = 22\nc0 = 16"),
    ("partition", "mu_max = 24"), ("partition", "mu_max = 200"),
    ("partition", "mu_max = 23\nc0 = 10"),
    ("polygon-scan", "k0 = 61"), ("polygon-scan", "k0 = -61"),
    ("polygon-scan", "k0 = 2000"),         # 2**k0 overflows
    ("polygon-scan", "k0 = -2000"),        # 2**k0 is 0, a divisor
    ("tiles", "scale_bits = 17"),
    ("tiles", "scale_bits = 1"),           # 2 positions, 3 to draw
    ("forest-bessel", "scale_bits = 70"),  # 2**70 is no C long
    ("tiles", "span_bits = -1"),           # the pool misses unit tiles
    ("tiles", "span_bits = 1024"),         # 2**span_bits is no double
    # the Whitney offsets' range [c0 + 0.5, 3 c0] is empty
    ("tiles", "clearance = -1"), ("tiles", "clearance = 0.24"),
    ("forest-bessel", "compact_spread = -1"),
    ("model-sum", "compact_spread = 0.2"),
    # from about 50 drawn cube sets need wider halos; 32 is checked
    ("tiles", "clearance = 33"), ("model-sum", "compact_spread = 32.5"),
    # compact families hold tiles longer than the pool's tops
    ("forest-bessel", "scale_bits = 7"),
    ("model-sum", "scale_bits = 5\nspan_bits = 4"),
    ("tiles", "slope = 0"), ("forest-bessel", "order = 0"),
    ("forest-bessel", "support_factor = 0"),
    ("forest-bessel", "weight_power = 0"),
    # the cutoff would sit at its cell floor unasked
    ("model-sum", "blur = 0"), ("model-sum", "blur = -1"),
    # the mask would flag the whole circle
    ("size-decay", "exceptional_factor = 0"),
    ("size-decay", "exceptional_factor = -1"),
    # under the density's floor (1.98, 0.996 and 3.94 here): the mask
    # flags the whole circle
    ("size-decay", "exceptional_factor = 1.9"),
    ("size-decay", "exceptional_factor = 0.9\ndomain_len = 2"),
    ("size-decay", "exceptional_factor = 3.9\ndomain_len = 0.5"),
    ("size-decay", "decay_power = 0"), ("forest-bessel", "set_count = 0"),
    # the mollifier kernel needs a width
    ("forest-bessel", "moll_width = 0"), ("size-decay", "moll_width = 0"),
    # the restricted inputs' mollifier would alias: MOLLIFIER_HALF_POWER *
    # domain_len / moll_width reaches grid_n / 2 (100 >= 8, 128 >= 32,
    # and 512 and 64 exactly at the band edge)
    ("size-decay", "moll_width = 0.02\ngrid_n = 16"),
    ("forest-bessel", "moll_width = 0.5\ngrid_n = 64"),
    ("model-sum", "moll_width = 0.125"),
    ("polygon-scan", "moll_width = 0.03125"),
    # no paraproduct depth, or 2**kbits overflows
    ("paraproduct", "kbits = 0"), ("paraproduct", "kbits = -3"),
    ("paraproduct", "kbits = 61"), ("paraproduct", "kbits = 2000"),
    ("model-sum", "theta2 = 0"), ("model-sum", "theta3 = 1.5"),
    ("polygon-scan", "exponents = none"),  # its norms need a triple
    # band_noise's lowest nonzero mode sits at 1 / domain_len
    ("paraproduct", "band = 0"), ("paraproduct", "band = -5"),
    ("paraproduct", "band = 0.5"), ("hs-oracle", "band = 0"),
]


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind, _ in ex.experiment_kinds():
            assert kind in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = tiles\ntrials = 2\n")
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.txt").exists()
        assert "passed = true" in capsys.readouterr().out

    def test_run_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = model-sum\nexponents = 1.5, 4, 4\ntrials = 1\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
        assert "scaling identity" in capsys.readouterr().err

    @pytest.mark.parametrize("body,hint", [
        # a zero support factor divides by zero in the decay rate
        ("kind = size-decay\nsupport_factor = 0\n",
         "support_factor must be positive"),
        # the bump envelope is even in its argument, so a negative factor
        # would pass as its absolute value
        ("kind = size-decay\nsupport_factor = -1.5\n",
         "support_factor must be positive"),
        # every symbol vanishes, so every size is zero
        ("kind = forest-bessel\nsupport_factor = 0\n",
         "support_factor must be positive"),
        # no spans make a zero input
        ("kind = forest-bessel\nset_count = 0\n",
         "set_count must be >= 1"),
        # the Whitney clearance band C0 2^Q < n - m is empty below 2
        ("kind = partition\nc0 = 1\n", "c0 must be >= 2"),
        ("kind = polygon-scan\nc0 = -2\n", "c0 must be >= 2"),
    ])
    def test_degenerate_config_exits_two(self, tmp_path, capsys, body, hint):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(body + "trials = 1\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and hint in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind,body", OUT_OF_DOMAIN)
    def test_out_of_domain_config_exits_two(self, tmp_path, capsys,
                                            monkeypatch, kind, body):
        # refused before the experiment runs: no warning, no output
        # directory; some of these values would take gigabytes to run
        monkeypatch.setattr(ex, "run", lambda cfg: pytest.fail("it ran"))
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"kind = {kind}\n{body}\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
        field = body.split("=")[0].strip()
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {field} must be ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_every_domain_row_has_an_out_of_domain_case(self):
        # kind is refused by name before a config reaches the table
        fields = {body.split("=")[0].strip() for _, body in OUT_OF_DOMAIN}
        assert set(ex._DOMAINS) - {"kind"} <= fields

    @pytest.mark.parametrize("body,hint", [
        ("kind = tiles\ntrials = 2.5\n", "trials must be an integer"),
        ("kind = tiles\nseed = abc\n", "seed must be an integer"),
        # not a config field
        ("kind = tiles\ngamma2 = 0.25\n", "unknown config key 'gamma2'"),
    ])
    def test_run_mistyped_config_exits_two(self, tmp_path, capsys, body,
                                           hint):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(body)
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert hint in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body,argv,env,hint", [
        ("kind = tiles\nseed = -1\n", [], None, "seed must be >= 0"),
        ("kind = tiles\n", ["--seed", "-1"], None, "seed must be >= 0"),
        ("kind = tiles\n", [], "abc", "invalid FREQBENCH_GRID_N"),
    ])
    def test_bad_seed_or_grid_override_exits_two(self, tmp_path, capsys,
                                                 monkeypatch, body, argv,
                                                 env, hint):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(body)
        if env is not None:
            monkeypatch.setenv(ex.GRID_ENV, env)
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x"), *argv]) == 2
        err = capsys.readouterr().err
        assert hint in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_arithmetic_error_exits_three(self, tmp_path, capsys,
                                          monkeypatch):
        # a valid config whose arithmetic overflows inside the driver could
        # not be run; exit 1 would read as a threshold breach
        def runner(cfg):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setitem(ex._RUNNERS, "paraproduct", (runner, "stub"))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = paraproduct\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: paraproduct run failed: "
                       "(34, 'Numerical result out of range')\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("error,reason", [
        (MemoryError(), "MemoryError"),
        (MemoryError("Unable to allocate 8.00 GiB"),
         "Unable to allocate 8.00 GiB"),
    ])
    def test_memory_error_exits_three(self, tmp_path, capsys, monkeypatch,
                                      error, reason):
        # a valid config too large for the host, such as a huge partition
        # c0, could not be run: one error line, no traceback
        def runner(cfg):
            raise error

        monkeypatch.setitem(ex._RUNNERS, "partition", (runner, "stub"))
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = partition\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: partition run failed: {reason}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["forest-bessel", "model-sum"])
    def test_band_past_fold_fails(self, tmp_path, capsys, monkeypatch, kind):
        # the compact families' operator band edge is about 7.5, so at
        # grid_n = 300 twice the edge passes the fold n / L = 9.375 and
        # every multiplier beyond it would be cut without a word
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"kind = {kind}\ntrials = 2\n")
        monkeypatch.setenv(ex.GRID_ENV, "300")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 1
        out = capsys.readouterr().out
        assert "failure: operator band reaches the fold frequency" in out
        assert "passed = false" in out

    def test_rerun_into_same_out_refused(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = tiles\ntrials = 2\n")
        out = tmp_path / "run"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        before = (out / "records.csv").read_text()
        assert cli_main(["run", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert (out / "records.csv").read_text() == before

    def test_out_naming_a_file_refused_before_the_run(self, tmp_path,
                                                       capsys, monkeypatch):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = tiles\ntrials = 1\n")
        out = tmp_path / "notes.txt"
        out.write_text("keep me\n")
        ran = []
        monkeypatch.setattr(ex, "run", lambda c: ran.append(c))
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out must be a directory")
        assert err.count("\n") == 1
        assert ran == [] and out.read_text() == "keep me\n"

    def test_compare_flow(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = tiles\ntrials = 2\n")
        for name in ("a", "b"):
            assert cli_main(["run", "--config", str(cfg),
                             "--out", str(tmp_path / name)]) == 0
        assert cli_main(["compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("budget", ["nan", "-0.1", "inf"])
    def test_compare_budget_must_be_finite_and_non_negative(
            self, tmp_path, capsys, budget):
        # no drift exceeds nan or inf, and every drift exceeds -0.1
        res = ex.run(small("tiles", trials=2))
        write_run(res, tmp_path / "a")
        drifted = [ex.ResultRecord(r.config, r.seed, r.metric,
                                   r.value + 1.0, r.grid_n, r.wall_time)
                   for r in res.records]
        write_run(ex.RunResult(res.config, drifted, [], 0.0), tmp_path / "b")
        assert cli_main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                         "--budget", budget]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: drift budget must be a finite number")
        assert err.count("\n") == 1

    def test_compare_budget_default_is_one_constant(self, tmp_path,
                                                    monkeypatch):
        seen = []
        monkeypatch.setattr(ex, "compare_runs",
                            lambda a, b, budget: seen.append(budget)
                            or ex.CompareReport("ok", 0.0, []))
        assert cli_main(["compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 0
        assert seen == [ex.DRIFT_BUDGET]
        # the function default is the same constant
        res = ex.run(small("tiles", trials=2))
        write_run(res, tmp_path / "a")
        drifted = [ex.ResultRecord(r.config, r.seed, r.metric,
                                   r.value * (1.0 + 0.9 * ex.DRIFT_BUDGET),
                                   r.grid_n, r.wall_time)
                   for r in res.records]
        write_run(ex.RunResult(res.config, drifted, [], 0.0), tmp_path / "b")
        monkeypatch.undo()
        assert ex.compare_runs(str(tmp_path / "a"),
                               str(tmp_path / "b")).status == "ok"
        assert ex.compare_runs(str(tmp_path / "a"), str(tmp_path / "b"),
                               budget=0.5 * ex.DRIFT_BUDGET).status == "drift"

    def test_compare_missing_dir_exits_two(self, tmp_path, capsys):
        assert cli_main(["compare", str(tmp_path / "no"),
                         str(tmp_path / "pe")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_changes_records(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("kind = tiles\ntrials = 2\n")
        cli_main(["run", "--config", str(cfg), "--seed", "5",
                  "--out", str(tmp_path / "a")])
        recs = ex.read_records(str(tmp_path / "a" / "records.csv"))
        assert all(r.seed == 5 for r in recs)
