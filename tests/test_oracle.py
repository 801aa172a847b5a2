import cmath
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eqloc.oracle as oracle_module
from eqloc import cli
from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    builtin_atlas,
    hk_point_atlas,
    mirror_pair_atlas,
    parse_atlas,
    serialize_atlas,
    sphere_atlas,
    validate_atlas,
)
from eqloc.engines import reduce_hk_circle, reduce_hk_circle_viaP, reduce_symplectic_circle
from eqloc.errors import InsufficientTruncationError, QuadratureError, ValidationError
from eqloc.exact import ComplexRational, LaurentSeries, exp_series
from eqloc.localize import localize, monomial_euler_class, phase_covector, phase_factory
from eqloc.oracle import (
    PANEL_NODES,
    RULES,
    MollifierConfig,
    OracleIntegrand,
    _Budget,
    _centers,
    _eval_panels,
    _fsum,
    _MollifiedPanels,
    _PointSum,
    _panel_grid,
    _principal_part,
    _spacing,
    _spread,
    adaptive_quadrature,
    atlas_integrand,
    contour_coeff,
    mollified_oint,
    moment_gap,
    oracle_comparison,
    shift_smoothness_check,
    suptsq_check,
)
from eqloc.record import replace

CIRCLE = GroupSpec.circle()
GOLDEN_DIR = Path(__file__).parent / "golden"


def entire_hk_pair_atlas():
    """Two hyperkahler points whose summed series is y^2 exp(i y^2): entire,
    so no pole gate refuses it, but a hyperkahler atlas all the same."""
    v = ("y",)
    eta_plus = LaurentSeries(
        v, {(0,): ComplexRational.one(), (3,): ComplexRational.one()}
    )
    points = (
        FixedPointDatum(
            name="plus",
            moment=(Fraction(0),),
            weights=((1,),),
            eta=eta_plus,
            moment_hk=((Fraction(1), Fraction(0), Fraction(0)),),
        ),
        FixedPointDatum(
            name="minus",
            moment=(Fraction(0),),
            weights=((-1,),),
            eta=LaurentSeries.const(v, 1),
            moment_hk=((Fraction(1), Fraction(0), Fraction(0)),),
        ),
    )
    atlas = FixedPointAtlas(
        group=CIRCLE,
        geometry="hyperkahler",
        dim_m=4,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=v,
        fixed_points=points,
    )
    validate_atlas(atlas)
    return atlas


# -- the quadrature rule itself -----------------------------------------


class TestGaussKronrod:
    """The composite midpoint rule that replaced the Gauss-Kronrod pair;
    the class keeps its name so that the ids of its tests stay stable."""

    def test_weights_normalized(self):
        # in units of the node spacing h: both rules span the 15 h of a panel
        assert RULES[:, 0].sum() == 15.0
        assert RULES[:, 1].sum() == 15.0

    def test_node_layout(self):
        assert len(PANEL_NODES) == 15
        assert np.all(np.diff(PANEL_NODES) == 1.0)
        assert np.array_equal(PANEL_NODES, -PANEL_NODES[::-1])

    def test_no_node_on_a_panel_edge(self):
        """Every node is a midpoint, h / 2 from its cell's edges, so none
        is at a panel edge and none is at 0, an edge of every grid."""
        mid, h, n = _panel_grid(50.0, 3.0)
        assert mid == 0.0 and n % 2 == 0
        edges = mid + 15 * h * np.arange(-(n // 2), n // 2 + 1)
        x = (_centers(mid, h, n)[:, None] + h * PANEL_NODES).ravel()
        assert np.min(np.abs(x)) == h / 2
        assert np.all(np.diff(x) == h)
        gaps = np.abs(x[:, None] - edges[None, :]).min(axis=1)
        assert np.allclose(gaps.min(), h / 2)
        # every node is exact: (15 (2j + 1 - n) + 2k) h / 2
        assert np.array_equal(x / (h / 2), np.arange(1 - 15 * n, 15 * n, 2))

    def test_coarse_rule_is_nested(self):
        """The 5-node rule takes nodes 1, 4, 7, 10, 13, the midpoints of
        cells three times as wide, with weight 3 h each."""
        (coarse,) = np.nonzero(RULES[:, 1])
        assert list(coarse) == [1, 4, 7, 10, 13]
        assert np.array_equal(PANEL_NODES[coarse], [-6.0, -3.0, 0.0, 3.0, 6.0])
        assert np.all(RULES[coarse, 1] == 3.0)
        assert np.all(RULES[:, 0] == 1.0)

    @pytest.mark.parametrize("t", [1.0, 100.0])
    @pytest.mark.parametrize("f", [0.0, 2.0, 7.5])
    def test_coarse_rule_resolves_phase_and_spread(self, t, f):
        """At spacing 3h = 2 pi / (f + sqrt(60 / t)) the 5-node rule already
        has exp(-y^2/4t) exp(i f y) to rounding: its first alias sits past
        the Gaussian's spread, where the transform is below exp(-60)."""
        window = 12.0 * math.sqrt(2.0 * t)
        mid, h, n = _panel_grid(window, f + _spread(t))
        values = _eval_panels(
            lambda y: np.exp(-(y * y) / (4.0 * t) + 1j * f * y), [(0, _centers(mid, h, n), h)]
        )
        want = math.sqrt(4.0 * math.pi * t) * math.exp(-t * f * f)
        scale = math.sqrt(4.0 * math.pi * t)
        for rule in (0, 1):
            assert abs(_fsum(values[:, rule]) - want) <= 1e-14 * scale

    def test_rules_matrix(self):
        assert RULES.shape == (15, 2)
        assert np.count_nonzero(RULES[:, 0]) == 15
        assert np.count_nonzero(RULES[:, 1]) == 5

    def test_adaptive_gaussian(self):
        # 24 panels of width 1 about 0
        grid = (0.0, _spacing(1.0 / 15), 24)
        [(val, err)] = adaptive_quadrature(
            lambda y: np.exp(-y * y), [grid], 1e-12, _Budget(10_000, 1)
        )
        assert abs(val - math.sqrt(math.pi)) < 1e-12
        assert err < 1e-10

    def test_panel_edges_shape(self):
        # 15 nodes h = 2 pi / (3 freq) apart per panel, 0 an edge
        mid, h, n = _panel_grid(100.0, 2.0)
        assert mid == 0.0 and n % 2 == 0
        width = 15 * h
        assert abs(width - 5.0 * math.pi) < 1e-7
        assert h == _spacing(math.pi / 3)
        assert n == 2 * math.ceil(100.0 / width)
        # h keeps 28 significant bits, so every node is exact
        m, _ = math.frexp(h)
        assert math.ldexp(m, 28).is_integer()


# -- exact sums ----------------------------------------------------------

#: m 2^j with |m| < 2^53, so exactly a double: subnormals from 2^-1074 up
#: to magnitudes near 2^1000
_DOUBLES = st.builds(
    math.ldexp, st.integers(-(2**53 - 1), 2**53 - 1), st.integers(-1074, 1000 - 53)
)


@st.composite
def _summands(draw):
    """Mixed signs and exponents, some values cancelled exactly, sometimes
    all of them, and signed zeros."""
    xs = draw(st.lists(_DOUBLES, max_size=30))
    if xs and draw(st.booleans()):
        cancelled = xs if draw(st.booleans()) else draw(st.lists(st.sampled_from(xs)))
        xs = xs + [-x for x in cancelled]
    xs += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=2))
    return draw(st.permutations(xs))


def _complex_array(re, im):
    """re + i im part by part, so that signed zeros survive."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _bits(z: complex):
    # hex tells -0.0 from 0.0
    return z.real.hex(), z.imag.hex()


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestExactSum:
    """_fsum returns math.fsum's double for each part, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_summands(), _summands())
    def test_matches_fsum(self, re, im):
        n = max(len(re), len(im))
        re, im = re + [-0.0] * (n - len(re)), im + [-0.0] * (n - len(im))
        got = _fsum(_complex_array(re, im))
        assert _bits(got) == _bits(complex(math.fsum(re), math.fsum(im)))

    @settings(max_examples=100, deadline=None)
    @given(_summands(), _summands())
    def test_columns_sum_as_one(self, re, im):
        """The columns of a 2-d array, summed at once, give each column's
        own sum."""
        n = max(len(re), len(im))
        re, im = re + [0.0] * (n - len(re)), im + [-0.0] * (n - len(im))
        a, b = _complex_array(re, im), _complex_array(im[::-1], re)
        got = _fsum(np.stack([a, b], axis=1))
        assert [_bits(z) for z in got] == [_bits(_fsum(a)), _bits(_fsum(b))]

    @settings(max_examples=200, deadline=None)
    @given(_DOUBLES, st.sampled_from([1, -1]), st.sampled_from([0.0, 2.0**-60, -(2.0**-60)]))
    def test_half_ulp_ties(self, x, sign, nudge):
        """x plus half its ulp is a tie, broken by a far smaller third term
        when there is one."""
        half = sign * math.ulp(x) / 2
        xs = [x, half] + ([half * nudge] if nudge else [])
        got = _fsum(_complex_array(xs, xs[::-1]))
        assert _bits(got) == _bits(complex(math.fsum(xs), math.fsum(xs[::-1])))

    @pytest.mark.parametrize(
        "xs",
        [
            [1.0, 2.0**-53],
            [1.0, 2.0**-53, 2.0**-106],
            [1.0, -(2.0**-54)],
            [1.0 + 2.0**-52, 2.0**-53],
            [2.0**-1074] * 3,
            [2.0**-1074, -(2.0**-1074)],
            [2.0**-1022, -(2.0**-1074)],
            [1e300, 1.0, -1e300],
            [2.0**1000, 2.0**1000, -(2.0**1000)],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [1.0, -1.0],
            [-0.0, 1.0, -1.0],
            [],
        ],
    )
    def test_edge_cases(self, xs):
        got = _fsum(_complex_array(xs, [-x for x in xs]))
        assert _bits(got) == _bits(complex(math.fsum(xs), math.fsum([-x for x in xs])))

    def test_symmetric_panels(self):
        """Panel values of sphere_S2's integrand, whose real parts are all
        zeros, and the same values with their mirror images, whose
        imaginary parts cancel exactly."""
        g = atlas_integrand(sphere_atlas())
        mid, h, n = _panel_grid(12.0 * math.sqrt(20.0), g.freq_linear)
        i15 = _eval_panels(_MollifiedPanels(g.fn, (10.0,)), [(0, _centers(mid, h, n), h)])[:, 0]
        mirrored = np.concatenate([i15, -i15[::-1]])
        assert not i15.real.any() and mirrored.imag.any()
        for values in (i15, mirrored, 1j * mirrored):
            want = complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
            assert _bits(_fsum(values)) == _bits(want)

    def test_longer_than_one_chunk(self):
        """2^17 + 1 copies of an odd 36-bit multiple of 2^-22, so that
        their sum in units of 2^-22 passes 2^53, where a double would round,
        and a far smaller term that makes such a rounding show in the total."""
        xs = [-(2.0**36 - 1) * 2.0**-22] * (2**17 + 1) + [2.0**-40]
        got = _fsum(_complex_array(xs, xs[::-1]))
        assert _bits(got) == _bits(complex(math.fsum(xs), math.fsum(xs)))

    def test_many_chunks(self):
        rng = np.random.default_rng(7)
        n = 3 * 2**17 + 5
        x = np.ldexp(rng.uniform(-1, 1, n), rng.integers(-80, 80, n))
        values = _complex_array(x, -x[::-1] * 3)
        got = _fsum(values)
        want = complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "xs",
        [
            [math.inf, 1.0],
            [-math.inf, -math.inf, 2.0],
            [-math.inf, math.inf],
            [math.nan, 1.0],
            [1e308, 1e308],
            [1e308, 1e308, -1e308],
            [sys.float_info.max, math.ulp(sys.float_info.max) / 2],
        ],
    )
    def test_specials_as_fsum(self, xs):
        """Non-finite values and overflowing sums give fsum's value or
        exception type, in either part."""
        other = [1.0] * len(xs)
        for re, im in ((xs, other), (other, xs)):
            got = _outcome(_fsum, _complex_array(re, im))
            want = _outcome(lambda: complex(math.fsum(re), math.fsum(im)))
            if isinstance(want, complex):
                assert isinstance(got, complex)
                assert np.array_equal([got], [want], equal_nan=True)
            else:
                assert got is want


# -- mollified limits ----------------------------------------------------


class TestMollified:
    def test_gaussian_reference_value(self):
        cfg = MollifierConfig(extrapolation="richardson")
        res = mollified_oint(lambda y: np.exp(-y * y), CIRCLE, cfg)
        want = math.sqrt(math.pi) / (2 * math.pi)
        assert abs(res.estimate - want) / want < 1e-8

    def test_pure_phase_dies(self):
        res = mollified_oint(lambda y: np.exp(1j * y), CIRCLE)
        assert abs(res.estimate) < 1e-8
        # finite-t rows follow the heat-kernel closed form
        t0 = res.rows[0]
        want = math.sqrt(4 * math.pi * t0.t) * math.exp(-t0.t) / (2 * math.pi)
        assert abs(t0.value - want) < 1e-10

    def test_sphere_sum_limit_is_i(self):
        res = mollified_oint(atlas_integrand(sphere_atlas()), CIRCLE)
        assert abs(res.estimate - 1j) < 1e-9
        assert res.ladder_monotone()

    def test_halves_invariance(self):
        g = atlas_integrand(sphere_atlas())
        neg = OracleIntegrand(fn=lambda ys: g.fn([-ys[0]]), freq_linear=g.freq_linear)
        cfg = MollifierConfig(t_ladder=(1.0, 10.0, 100.0))
        a = mollified_oint(g, CIRCLE, cfg).estimate
        b = mollified_oint(neg, CIRCLE, cfg).estimate
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_torus_is_refused_naming_the_contour_read(self, rank):
        """A torus has no mollified limit here: reduce --oracle reads its
        reports on the contour."""
        with pytest.raises(ValidationError, match="reduce --oracle") as err:
            mollified_oint(lambda y: np.exp(-y * y), GroupSpec.torus(rank))
        assert err.value.context == {"rank": rank}
        with pytest.raises(ValidationError, match="reduce --oracle"):
            atlas_integrand(builtin_atlas("hk_torus_rank2"))

    def test_budget_exhaustion(self):
        cfg = MollifierConfig(t_ladder=(100.0, 200.0), max_panels=16)
        with pytest.raises(QuadratureError):
            mollified_oint(lambda y: np.exp(-y * y), CIRCLE, cfg)

    def test_config_validation(self):
        for bad in (
            dict(t_ladder=(1.0,)),
            dict(t_ladder=(10.0, 10.0)),
            dict(t_ladder=(-1.0, 2.0)),
            dict(t_ladder=(1.0, math.nan)),
            dict(t_ladder=(1.0, math.inf)),
            dict(extrapolation="pade"),
            dict(max_panels=2),
            dict(max_panels=15),
            dict(max_panels=math.nan),
            dict(max_panels=math.inf),
            dict(max_panels=16.5),
            dict(max_panels=300_000.0),
            dict(max_panels=True),
            dict(max_panels="300000"),
        ):
            with pytest.raises(ValidationError):
                MollifierConfig(**bad)

    def test_result_json_shape(self):
        res = mollified_oint(
            lambda y: np.exp(-y * y), CIRCLE, MollifierConfig(t_ladder=(1.0, 10.0))
        )
        d = res.to_json_dict()
        assert set(d) == {
            "rows",
            "estimate",
            "extrapolation",
            "ladder_monotone",
            "converged",
            "max_panels",
        }
        assert d["max_panels"] == MollifierConfig().max_panels
        assert len(d["rows"]) == 2
        assert set(d["rows"][0]) == {"t", "value", "err_estimate", "panels"}
        assert all(type(r["panels"]) is int and 16 <= r["panels"] for r in d["rows"])

    @pytest.mark.parametrize("name", ["sphere_S2", "mirror_pair(3)", "mirror_pair(11)"])
    def test_first_round_lays_half_period_panels(self, name, monkeypatch):
        """The first round of a rung lays 2 ceil(window / (15 h)) panels of
        15 nodes h = 2 pi / (3 (f + sqrt(60 / t))) apart, f the fastest
        phase: the nested 5-node rule's spacing 3 h is one period of the
        phase plus the Gaussian's spread."""
        seen = []
        real = oracle_module.adaptive_quadrature

        def spy(fn, grids, tol, budget):
            seen.extend(n for _, _, n in grids)
            return real(fn, grids, tol, budget)

        monkeypatch.setattr(oracle_module, "adaptive_quadrature", spy)
        atlas = builtin_atlas(name)
        g = atlas_integrand(atlas)
        cfg = MollifierConfig(t_ladder=(10.0, 100.0, 10000.0))
        mollified_oint(g, atlas.group, cfg)
        want = []
        for t in cfg.t_ladder:
            window = 12.0 * math.sqrt(2.0 * t)
            h = 2 * math.pi / (3 * (g.freq_linear + math.sqrt(60.0 / t)))
            want.append(2 * math.ceil(window / (15 * h)))
        assert seen == want

    def test_rung_panels_are_the_budget_spent(self):
        """A rung's panels, as max_panels, is just enough for that rung,
        and one fewer exhausts the budget."""
        atlas = mirror_pair_atlas(3)
        g = atlas_integrand(atlas)
        cfg = MollifierConfig(t_ladder=(1.0, 100.0))
        rows = mollified_oint(g, atlas.group, cfg).rows
        assert rows[0].panels < rows[1].panels
        top = replace(cfg, max_panels=rows[1].panels)
        again = mollified_oint(g, atlas.group, top).rows
        assert [r.panels for r in again] == [r.panels for r in rows]
        with pytest.raises(QuadratureError):
            mollified_oint(g, atlas.group, replace(top, max_panels=rows[1].panels - 1))


    def test_too_low_a_declared_frequency_is_refined(self):
        """exp(5iy) declared as frequency 1: at t = 1 the nested 5-node rule
        aliases the phase, the two rules disagree, and the grid is cut in
        three until they agree; every rung lands on the closed form
        sqrt(4 pi t) exp(-25 t) / (2 pi).  (A phase near a multiple of the
        15-node rule's own sampling frequency 2 pi / h is aliased by both
        rules alike, which no nested estimate sees: at t = 100 this one is.
        The declared frequency must bound the phase.)"""
        g = OracleIntegrand(fn=lambda ys: np.exp(5j * ys[0]), freq_linear=1.0)
        res = mollified_oint(g, CIRCLE, MollifierConfig(t_ladder=(1.0, 10.0)))
        first = res.rows[0]
        window = 12.0 * math.sqrt(2.0)
        _, _, laid = _panel_grid(window, 1.0 + _spread(1.0))
        assert first.panels > laid
        for row in res.rows:
            want = math.sqrt(4 * math.pi * row.t) * math.exp(-25.0 * row.t) / (2 * math.pi)
            assert abs(row.value - want) <= 1e-14, row.t
        assert res.converged()

    @pytest.mark.parametrize(
        "name", [f"mirror_pair({n})" for n in range(20)] + ["sphere_S2", "mirror_pair_7.json"]
    )
    def test_a_rung_does_not_depend_on_its_round(self, name):
        """The rungs of a ladder share their quadrature rounds, yet each
        row of the default ladder is the row its t gets in a two-rung
        ladder with another partner, bit for bit: value, error estimate
        and panels."""
        if name.endswith(".json"):
            atlas = parse_atlas((GOLDEN_DIR / name).read_text())
        else:
            atlas = builtin_atlas(name)
        g = atlas_integrand(atlas)
        for row in mollified_oint(g, atlas.group).rows:
            pair = MollifierConfig(t_ladder=(row.t / 3, row.t))
            assert mollified_oint(g, atlas.group, pair).rows[1] == row, row.t

    def test_a_refined_rung_keeps_its_own_panels(self):
        """exp(5iy) declared as frequency 1 is refined at t = 1 and closes
        in the first round at t = 10: the refined row is the one t = 1 gets
        beside t = 0.5, and its panels are its own first grid and the grid
        cut in three, nothing of its partner's."""
        g = OracleIntegrand(fn=lambda ys: np.exp(5j * ys[0]), freq_linear=1.0)
        refined, closed = mollified_oint(g, CIRCLE, MollifierConfig(t_ladder=(1.0, 10.0))).rows
        laid = {
            t: _panel_grid(12.0 * math.sqrt(2.0 * t), 1.0 + _spread(t))[2] for t in (1.0, 10.0)
        }
        assert refined.panels == laid[1.0] + 3 * laid[1.0]
        assert closed.panels == laid[10.0]
        beside = mollified_oint(g, CIRCLE, MollifierConfig(t_ladder=(0.5, 1.0))).rows[1]
        assert beside == refined

    @pytest.mark.parametrize("integrand", ["mirror_pair(3)", "refined"])
    def test_the_ladder_spends_one_budget_through_the_module_global(
        self, integrand, monkeypatch
    ):
        """The ladder integrates every rung in one adaptive_quadrature call,
        looked up on the module as a tracer would rebind it, and the left
        of the budget it passes falls by exactly the rows' panels."""
        seen = []
        real = oracle_module.adaptive_quadrature

        def spy(fn, grids, tol, budget):
            before = budget.left
            out = real(fn, grids, tol, budget)
            seen.append(before - budget.left)
            return out

        monkeypatch.setattr(oracle_module, "adaptive_quadrature", spy)
        if integrand == "refined":
            g, group = OracleIntegrand(fn=lambda ys: np.exp(5j * ys[0]), freq_linear=1.0), CIRCLE
        else:
            atlas = builtin_atlas(integrand)
            g, group = atlas_integrand(atlas), atlas.group
        cfg = MollifierConfig(t_ladder=(1.0, 10.0, 100.0))
        rows = mollified_oint(g, group, cfg).rows
        assert seen == [sum(r.panels for r in rows)]


def _sphere_with_moment(m):
    """sphere_S2 with its moments scaled from +-1 to +-m."""
    atlas = sphere_atlas()
    points = tuple(replace(fp, moment=(fp.moment[0] * m,)) for fp in atlas.fixed_points)
    return replace(atlas, fixed_points=points)


@pytest.fixture
def no_grid(monkeypatch):
    """Make building any node array fail, so that a refusal is seen to
    come before the allocation it guards against: every quadrature round
    lays its nodes about the panel centres that _centers builds."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracle_module, "_centers", refuse)


class TestGridRefusal:
    def test_panel_edges_counts_first(self, no_grid):
        for args in (
            (75.0, math.pi, 15),  # 16 panels of width 10
            (1.0e3, 1.0e308),  # window / width overflows
            (1.0e3, math.inf),  # h = 0
            (1.0e155, 1.0e307),  # window / width overflows
        ):
            with pytest.raises(QuadratureError, match="budget exhausted"):
                _panel_grid(*args)

    def test_panel_edges_at_the_budget(self):
        assert _panel_grid(75.0, math.pi, 16) == (0.0, _spacing(2.0 / 3.0), 16)

    @pytest.mark.parametrize(
        "moment, ladder",
        [(10**308, (1.0, 10.0, 100.0, 1000.0, 10000.0)), (10**5, (10000.0, 20000.0))],
    )
    def test_oversize_grid_is_refused(self, no_grid, moment, ladder):
        atlas = _sphere_with_moment(moment)
        cfg = MollifierConfig(t_ladder=ladder)
        with pytest.raises(QuadratureError, match="budget exhausted"):
            mollified_oint(atlas_integrand(atlas), atlas.group, cfg)
        report = reduce_symplectic_circle(atlas)
        with pytest.raises(QuadratureError, match="budget exhausted"):
            oracle_comparison(report, atlas, cfg)

    def test_large_shift_is_refused(self, no_grid):
        # ~2 |zeta| window / (10 pi) = 1.1e6 panels at the default top rung
        with pytest.raises(QuadratureError, match="budget exhausted"):
            shift_smoothness_check(sphere_atlas(), [1.0e4])

    def test_shift_grid_within_the_budget_runs(self):
        # 20 panels at t = 100, more than the smallest budget of 16
        cfg = MollifierConfig(t_ladder=(0.5, 100.0), max_panels=1000)
        assert shift_smoothness_check(sphere_atlas(), [0.01], cfg).linear_ok
        with pytest.raises(QuadratureError, match="budget exhausted") as info:
            shift_smoothness_check(sphere_atlas(), [0.01], replace(cfg, max_panels=16))
        # the refusal names its total, and the two ways to stay inside it
        assert info.value.context == {"budget": 16}
        assert "more than 16 panels" in info.value.message
        assert "(--t)" in info.value.message and "MollifierConfig.max_panels" in info.value.message


def north_pole_atlas():
    """sphere_S2's north point alone: the summed series exp(i y) / y has a
    pole at the origin."""
    atlas = sphere_atlas()
    atlas = replace(atlas, fixed_points=atlas.fixed_points[:1])
    validate_atlas(atlas)
    return atlas


class TestHyperkahlerOracle:
    """The mollified oracle reads symplectic circles only: a hyperkahler
    report is checked by reduce --oracle's contour read.  The gate refusals
    once read on hyperkahler data are read here on symplectic circles."""

    def test_pole_is_refused(self):
        """A hyperkahler atlas is refused for its geometry, before the gate,
        whether or not its sum has a pole; a symplectic pole is refused by
        the gate, naming the principal exponents (its context is checked
        in test_refusal_context_names_the_value)."""
        for atlas in (hk_point_atlas(), entire_hk_pair_atlas()):
            with pytest.raises(ValidationError, match="reduce --oracle") as err:
                atlas_integrand(atlas)
            assert err.value.context == {"geometry": "hyperkahler"}
        with pytest.raises(QuadratureError, match=re.escape("principal exponents [(-1,)]")):
            atlas_integrand(north_pole_atlas())

    def test_short_raw_truncation_is_refused(self):
        """An empty raw point trusted only through y^-5 would hide a pole
        at y^-1 from the gate; the engines refuse such a point for the same
        reason, the symplectic one since the point's moment is positive."""

        def with_cut_point(atlas):
            raw = replace(
                atlas.fixed_points[0],
                name="cut",
                weights=(),
                eta=LaurentSeries.const(("y",), 1),
                mode="raw",
                raw_contribution=LaurentSeries(("y",), {}, (-5,)),
            )
            atlas = replace(atlas, fixed_points=atlas.fixed_points + (raw,))
            validate_atlas(atlas)
            return atlas

        atlas = with_cut_point(sphere_atlas())
        with pytest.raises(InsufficientTruncationError, match="'cut'.*y\\^-5") as exc:
            atlas_integrand(atlas)
        assert (exc.value.required, exc.value.context["point"]) == (-1, "cut")
        with pytest.raises(InsufficientTruncationError):
            reduce_symplectic_circle(atlas)
        hk = with_cut_point(hk_point_atlas())
        for engine in (reduce_hk_circle, reduce_hk_circle_viaP):
            with pytest.raises(InsufficientTruncationError):
                engine(hk)


# -- exact vs oracle comparison -----------------------------------------


class TestComparison:
    def test_sphere_comparison(self):
        atlas = sphere_atlas()
        report = reduce_symplectic_circle(atlas)
        cmp = oracle_comparison(report, atlas)
        assert cmp["rel_err"] < 1e-8
        want = 1.0 / (4 * math.pi**2)
        assert abs(cmp["exact_value"][0] - want) < 1e-15
        assert abs(cmp["oracle_value"][0] - want) < 1e-8

    def test_mirror_pair_comparison(self):
        atlas = mirror_pair_atlas(7)
        report = reduce_symplectic_circle(atlas)
        cmp = oracle_comparison(report, atlas)
        assert cmp["rel_err"] < 1e-6

    @pytest.mark.parametrize("eta_mode", ["atlas", "one"])
    def test_every_symplectic_circle_within_1e9(self, eta_mode):
        """mirror_pair(0..19), sphere_S2 and the symplectic goldens: the
        oracle agrees with the exact report to 1e-9 and its default ladder
        has converged."""
        atlases = [mirror_pair_atlas(seed) for seed in range(20)] + [sphere_atlas()]
        for name in ("sphere_s2.json", "mirror_pair_7.json"):
            atlases.append(parse_atlas((GOLDEN_DIR / name).read_text()))
        for atlas in atlases:
            report = reduce_symplectic_circle(atlas, eta_mode=eta_mode)
            cmp = oracle_comparison(report, atlas)
            assert cmp["rel_err"] <= 1e-9, (atlas.fixed_points[0].name, cmp["rel_err"])
            assert cmp["converged"] is True

    @pytest.mark.parametrize("ladder", [(1.0, 2.0), (0.1, 0.2), (0.01, 0.02)])
    def test_short_ladder_has_not_converged(self, ladder):
        for atlas in (sphere_atlas(), mirror_pair_atlas(7)):
            report = reduce_symplectic_circle(atlas)
            cmp = oracle_comparison(report, atlas, MollifierConfig(t_ladder=ladder))
            assert cmp["converged"] is False

    def test_hyperkahler_circle_is_read_on_the_contour(self):
        """hk and hk-p circle reports are checked by the contour read; the
        entire pair reads 0 on both sides."""
        for atlas in (hk_point_atlas(), entire_hk_pair_atlas()):
            for engine in (reduce_hk_circle, reduce_hk_circle_viaP):
                cmp = oracle_comparison(engine(atlas), atlas)
                assert cmp["route"] == "contour"
                assert cmp["rel_err"] <= 1e-9 or (
                    cmp["exact_value"] == [0.0, 0.0] and cmp["abs_err"] <= 1e-12
                ), cmp

    def test_report_of_another_atlas_refused(self):
        report = reduce_symplectic_circle(sphere_atlas())
        with pytest.raises(ValidationError, match="rank-1 symplectic reduction") as err:
            oracle_comparison(report, entire_hk_pair_atlas())
        assert err.value.context == {"geometry": "hyperkahler", "rank": 1}


# -- contour coefficient extraction -------------------------------------


class TestContour:
    def test_simple_pole(self):
        f = LaurentSeries.monomial(("y",), (-1,), 1)
        assert abs(contour_coeff(f, 1, "y") - 1.0) < 1e-12

    def test_phase_over_cube(self):
        v = ("y",)
        f = exp_series(LaurentSeries.linear_form(v, (1,), scale=ComplexRational.i()), 8)
        f = f * LaurentSeries.monomial(v, (-3,), 1)
        assert abs(contour_coeff(f, 1, "y") - (-0.5)) < 1e-10

    def test_regular_term_has_no_residue(self):
        f = LaurentSeries.monomial(("y",), (2,), 1)
        assert abs(contour_coeff(f, 1, "y")) < 1e-12

    def test_multivariate_rejected(self):
        f = LaurentSeries.const(("y1", "y2"), 1)
        with pytest.raises(ValidationError):
            contour_coeff(f, 1, "y1")

    def test_wrong_variable_rejected(self):
        f = LaurentSeries.const(("y",), 1)
        with pytest.raises(ValidationError):
            contour_coeff(f, 0, "z")

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.tuples(
                st.integers(min_value=-9, max_value=9),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=-3, max_value=3),
    )
    def test_matches_exact_coefficient(self, coeffs, m):
        terms = {
            (e,): ComplexRational.of(Fraction(re), Fraction(im))
            for e, (re, im) in coeffs.items()
            if re or im
        }
        if not terms:
            terms = {(0,): ComplexRational.one()}
        f = LaurentSeries(("y",), terms)
        exact = complex(f.coefficient((-m,)))
        assert abs(contour_coeff(f, m, "y") - exact) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=-6, max_value=20),
            st.tuples(
                st.fractions(min_value=-10, max_value=10, max_denominator=60),
                st.fractions(min_value=-10, max_value=10, max_denominator=60),
            ),
            min_size=1,
            max_size=27,
        ),
        st.integers(min_value=-20, max_value=6),
    )
    def test_matches_exact_coefficient_of_long_series(self, coeffs, m):
        """Every coefficient of a series with exponents -6..20, relative to
        the terms' sizes on the circle |y| = 1/2, where a term of the
        average is c_e (1/2)^(e + m)."""
        terms = {
            (e,): ComplexRational.of(re, im) for e, (re, im) in coeffs.items() if re or im
        }
        if not terms:
            terms = {(0,): ComplexRational.one()}
        f = LaurentSeries(("y",), terms)
        exact = complex(f.coefficient((-m,)))
        size = sum(abs(complex(c)) * 0.5 ** (e + m) for (e,), c in terms.items())
        assert abs(contour_coeff(f, m, "y") - exact) <= 1e-13 * size


# -- decay and smoothness diagnostics ------------------------------------


SHORT = "t ladder needs at least two entries"
INCREASING = "t ladder must be finite, positive and strictly increasing"


class TestSuptsq:
    def test_oscillatory_decay(self):
        table = suptsq_check(1.0, 0)
        assert table.decay_ok is True
        # t = 1 row is sqrt(4 pi) / e
        want = math.sqrt(4 * math.pi) * math.exp(-1.0)
        assert abs(table.rows[0].value - want) < 1e-10
        # by t = 30 the value is far below 1e-10
        assert abs(table.rows[-1].value) < 1e-10

    def test_stationary_growth(self):
        table = suptsq_check(0.0, 0)
        assert table.decay_ok is None
        assert table.constant is None
        for row in table.rows:
            want = math.sqrt(4 * math.pi * row.t)
            assert abs(row.value - want) / want < 1e-8

    def test_quartic_insertion_scale(self):
        # integral y^2 exp(-y^2/40 + 2iy) dy, a tiny but nonzero number
        table = suptsq_check(2.0, 4, t_ladder=(10.0,))
        a = 1.0 / 40.0
        want = (
            math.sqrt(math.pi / a)
            * math.exp(-4.0 / (4 * a))
            * (1.0 / (2 * a) - 4.0 / (4 * a * a))
        )
        v = table.rows[0].value
        assert abs(v - want) < 2e-14
        assert 5e-14 < abs(v) < 1e-13

    @pytest.mark.parametrize(
        "x, n",
        [(0.0, 12), (0.0, 20), (0.0, 30), (0.0, 40), (0.0, 50), (1.0, 2), (1.0, 8), (0.5, 4)],
    )
    def test_rows_match_the_closed_form(self, x, n):
        """Every row is within 1e-9 S(t) of sqrt(4 pi t) (i sqrt t)^m
        H_m(x sqrt t) exp(-t x^2), m = n / 2, S(t) = Gamma((m+1)/2)
        (4t)^((m+1)/2), inside the panel budget; for x != 0 the decay
        claim holds."""
        m = n // 2
        table = suptsq_check(x, n)
        for row in table.rows:
            t = row.t
            hermite = np.polynomial.hermite.hermval(x * math.sqrt(t), [0] * m + [1])
            want = math.sqrt(4 * math.pi * t) * (1j * math.sqrt(t)) ** m * hermite
            want *= math.exp(-t * x * x)
            size = math.gamma((m + 1) / 2) * (4 * t) ** ((m + 1) / 2)
            assert abs(row.value - want) <= 1e-9 * size, t
            if x:
                assert row.bound == pytest.approx(2 * abs(want) + 1e-9 * size, rel=1e-6)
        if x:
            assert table.decay_ok is True
            assert table.constant <= 1e-9
        else:
            assert table.decay_ok is None

    def test_far_oscillation_has_a_zero_closed_form(self):
        # H_80(1e4) ~ 2e4^80 overflows a double and exp(-1e8) underflows;
        # the window about the peak sqrt(2tm) holds the mass of y^80 exp(-y^2/4)
        table = suptsq_check(1.0e4, 160, t_ladder=(1.0,))
        assert table.decay_ok is True
        assert table.rows[0].bound == pytest.approx(1e-9 * math.gamma(40.5) * 4**40.5)

    def test_size_past_double_is_refused(self):
        # y^2 stays finite at the window edge ~1.9e126 of t = 1e250, while
        # Gamma(1.5) (4e250)^1.5 does not
        with pytest.raises(ValidationError, match="size"):
            suptsq_check(0.0, 4, t_ladder=(1e250,))

    @pytest.mark.parametrize(
        "ladder, config_message, suptsq_message",
        [
            ((), SHORT, INCREASING),
            ((math.nan,), SHORT, INCREASING),
            ((2.0,), SHORT, None),
            ((1.0, math.nan), INCREASING, INCREASING),
            ((3.0, 1.0), INCREASING, INCREASING),
        ],
    )
    def test_one_ladder_check_two_minimum_lengths(self, ladder, config_message, suptsq_message):
        """MollifierConfig needs two rungs and suptsq_check one; the length
        is checked before the values, and suptsq_check checks n first."""
        with pytest.raises(ValidationError) as err:
            MollifierConfig(t_ladder=ladder)
        assert err.value.message == config_message
        if suptsq_message is None:
            assert suptsq_check(1.0, 0, t_ladder=ladder).rows
        else:
            with pytest.raises(ValidationError) as err:
                suptsq_check(1.0, 0, t_ladder=ladder)
            assert err.value.message == suptsq_message
        with pytest.raises(ValidationError) as err:
            suptsq_check(1.0, 3, t_ladder=ladder)
        assert err.value.message == "n must be an even nonnegative integer"

    def test_odd_power_rejected(self):
        with pytest.raises(ValidationError):
            suptsq_check(1.0, 3)
        with pytest.raises(ValidationError):
            suptsq_check(1.0, -2)

    def test_bad_ladder_rejected(self):
        for ladder in ((3.0, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValidationError):
                suptsq_check(1.0, 0, t_ladder=ladder)

    def test_non_finite_x_rejected(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                suptsq_check(x, 2)

    def test_x_past_the_panel_budget_names_the_largest_fit(self):
        with pytest.raises(ValidationError) as exc:
            suptsq_check(1e308, 2)
        x_max = exc.value.context["max_abs_x"]
        assert 46_000 < x_max < 47_000
        with pytest.raises(ValidationError):
            suptsq_check(-1.001 * x_max, 2)
        # the outer grid of the largest x fits the budget, at every rung
        for t in (1.0, 3.0, 10.0, 30.0):
            _, _, n = _panel_grid(*oracle_module._suptsq_grid(0.999 * x_max, 1, t))
            assert n <= 300_000

    @pytest.mark.parametrize("ladder", [(1.0, 3.0, 10.0, 30.0), (0.5, 1000.0)])
    def test_power_past_double_names_the_largest_fit(self, ladder):
        with pytest.raises(ValidationError) as exc:
            suptsq_check(0.0, 10**6, t_ladder=ladder)
        max_n = exc.value.context["max_n"]
        # the window widens with n, so each n is held to its own window's edge
        edges = []
        for n in (max_n, max_n + 2):
            _, h, panels = _panel_grid(*oracle_module._suptsq_grid(0.0, n // 2, ladder[-1]))
            edges.append(panels // 2 * 15 * h)
        assert math.isfinite(edges[0] ** (max_n // 2))
        with pytest.raises(OverflowError):
            edges[1] ** (max_n // 2 + 1)
        assert len(suptsq_check(0.0, max_n, t_ladder=ladder).rows) == len(ladder)
        with pytest.raises(ValidationError) as exc:
            suptsq_check(0.0, max_n + 2, t_ladder=ladder)
        assert exc.value.context["max_n"] == max_n

    def test_narrow_window_takes_any_power(self):
        # |y| <= sqrt(2tm) + 12 sqrt(2t) < 1 at t = 1e-5, m = 1000: no
        # power overflows
        table = suptsq_check(0.0, 2000, t_ladder=(1e-5,))
        assert abs(table.rows[0].value) < 1e-300

    @pytest.mark.parametrize("x", [1000.0, 100.0])
    def test_window_follows_the_power(self, x):
        """y^100 exp(-y^2/4) peaks at sqrt(200), near the edge 12 sqrt(2)
        of a window that ignored m: the window and the spread follow m, so
        the row is within 1e-9 S(t) of the closed form."""
        table = suptsq_check(x, 200, t_ladder=(1.0,))
        assert table.constant <= 1e-9
        assert table.decay_ok is True

    def test_json_shape(self):
        d = suptsq_check(1.0, 0, t_ladder=(1.0, 3.0)).to_json_dict()
        assert set(d) == {"x", "n", "rows", "constant", "decay_ok"}


class TestShiftSmoothness:
    def test_sphere_shift_table(self):
        table = shift_smoothness_check(sphere_atlas(), (0.0, 1e-3, 1e-2, 0.9))
        assert table.gap == 1.0
        assert abs(table.base_value - 1j) < 1e-9
        by_zeta = {row.zeta: row for row in table.rows}
        assert by_zeta[0.0].difference == 0.0
        assert by_zeta[0.0].asserted
        assert by_zeta[1e-3].asserted
        assert by_zeta[1e-2].asserted
        assert not by_zeta[0.9].asserted
        assert table.linear_ok

    def test_small_shift_scales_quadratically(self):
        # the summed sphere series is even, so the linear response cancels
        # and D(zeta) = zeta^2 * (2 t^(3/2)/sqrt(pi)) exp(-t): still inside
        # the one-sided near-linear bound, and measurable at t = 1
        cfg = MollifierConfig(t_ladder=(0.5, 1.0))
        table = shift_smoothness_check(sphere_atlas(), (1e-3, 1e-2), cfg)
        assert table.linear_ok
        by_zeta = {row.zeta: row for row in table.rows}
        d_small = by_zeta[1e-3].difference
        d_large = by_zeta[1e-2].difference
        assert d_large > 1e-6
        assert 0.005 < d_small / d_large < 0.02
        lead = 1e-4 * (2 / math.sqrt(math.pi)) * math.exp(-1.0)
        assert abs(d_large - lead) / lead < 0.01

    def test_rows_in_the_noise_are_not_compared(self):
        """sphere_S2's rows are all below the noise floor, even at shifts
        far apart: such a pair says nothing about the scaling."""
        zetas = [0, 1e-8, 1e-6, 1e-4, 1e-2, 0.125]
        table = shift_smoothness_check(sphere_atlas(), zetas)
        floor = 1e-13 * max(1.0, abs(table.base_value))
        assert all(row.difference <= floor for row in table.rows)
        assert table.linear_ok

    def test_mirror_pairs_at_small_shifts(self):
        for seed in range(20):
            table = shift_smoothness_check(mirror_pair_atlas(seed), [0, 1e-8, 1e-6, 1e-4, 1e-2])
            assert table.linear_ok, seed
            assert all(r.difference <= 1e-12 * abs(table.base_value) for r in table.rows)

    def test_hyperkahler_rejected(self):
        with pytest.raises(ValidationError):
            shift_smoothness_check(entire_hk_pair_atlas(), (1e-3,))

    def test_moment_gap(self):
        assert moment_gap(sphere_atlas()) == 1.0
        assert moment_gap(mirror_pair_atlas(3)) >= 1.0

    def test_moment_beyond_double_is_refused(self):
        atlas = sphere_atlas()
        south = replace(atlas.fixed_points[1], moment=(Fraction(-(10**400)),))
        with pytest.raises(ValidationError) as err:
            moment_gap(replace(atlas, fixed_points=(atlas.fixed_points[0], south)))
        assert err.value.context == {"point": "south", "value": Fraction(-(10**400))}


class TestAtlasIntegrand:
    def test_sphere_values_are_sinc(self):
        g = atlas_integrand(sphere_atlas())
        y = np.array([0.5, 1.0, 2.0])
        got = g.fn([y])
        want = 2j * np.sin(y) / y
        assert np.allclose(got, want, atol=1e-14)

    def test_frequency_bounds(self):
        """freq_linear is the largest |moment|."""
        atlas = mirror_pair_atlas(0)
        top = max(abs(float(fp.moment[0])) for fp in atlas.fixed_points)
        assert atlas_integrand(atlas).freq_linear == top >= 1.0

    def test_shift_on_hk_rejected(self):
        """--shift builds its integrand here, which refuses hyperkahler
        data and names the route that checks it."""
        with pytest.raises(ValidationError, match="reduce --oracle") as err:
            atlas_integrand(entire_hk_pair_atlas())
        assert err.value.context == {"geometry": "hyperkahler"}


@pytest.mark.parametrize(
    "call, error, message, context",
    [
        (
            lambda: MollifierConfig(t_ladder=(1.0,)),
            ValidationError,
            "t ladder needs at least two entries",
            {"t_ladder": (1.0,)},
        ),
        (
            lambda: MollifierConfig(t_ladder=(10.0, 10.0)),
            ValidationError,
            "t ladder must be finite, positive and strictly increasing",
            {"t_ladder": (10.0, 10.0)},
        ),
        (
            lambda: MollifierConfig(extrapolation="pade"),
            ValidationError,
            "unknown extrapolation rule 'pade'",
            {"extrapolation": "pade"},
        ),
        (
            lambda: MollifierConfig(max_panels=15),
            ValidationError,
            "max_panels must be an integer of at least 16, got 15",
            {"max_panels": 15},
        ),
        (
            lambda: atlas_integrand(north_pole_atlas()),
            QuadratureError,
            "localized sum has a pole at the origin (principal exponents [(-1,)]); the "
            "mollified integral does not exist for this data",
            {"exponents": [(-1,)]},
        ),
        (
            lambda: contour_coeff(LaurentSeries(("y",), {(-1,): 1}), 1, "z"),
            ValidationError,
            "series has variable 'y', not 'z'",
            {"variable": "y", "expected": "z"},
        ),
        (
            lambda: suptsq_check(1.0, 3),
            ValidationError,
            "n must be an even nonnegative integer",
            {"n": 3},
        ),
        (
            lambda: suptsq_check(math.inf, 2),
            ValidationError,
            "x must be a finite number, got inf",
            {"x": math.inf},
        ),
        (
            lambda: oracle_module._suptsq_size(400, 1.0e6),
            ValidationError,
            "the integrand's size Gamma((m+1)/2) (4t)^((m+1)/2) for m = 400 is beyond "
            "the range of a double at t = 1e+06; lower n or the t ladder",
            {"m": 400, "t": 1.0e6},
        ),
    ],
    ids=[
        "short_ladder",
        "unordered_ladder",
        "extrapolation",
        "max_panels",
        "pole_gate",
        "contour_variable",
        "suptsq_n",
        "suptsq_x",
        "suptsq_size",
    ],
)
def test_refusal_context_names_the_value(call, error, message, context):
    """Each oracle refusal whose message names a value carries that value
    in its context; the message itself is unchanged."""
    with pytest.raises(error) as err:
        call()
    assert err.value.message == message
    assert err.value.context == context


# -- closed-form pole gate and panel evaluation --------------------------


@st.composite
def gated_atlases(draw, max_rank=3, pole_free=None, min_trunc=-3, bits=None, hk=None):
    """(atlas, eta_mode) for rank 1..max_rank, hyperkahler when hk (drawn if
    None) and symplectic otherwise: structured
    points with several signed weights, each involving one variable, moments
    of either sign and eta terms up to past the pole order; raw points with
    random terms and truncation orders from min_trunc up; and, when
    pole_free (drawn if None), one more raw point holding the negated
    principal part of the localized sum, so that the sum has no pole.  With
    bits, eta and raw coefficients have numerators and denominators of up
    to that many bits, more than a double holds."""
    k = draw(st.integers(1, max_rank))
    if hk is None:
        hk = draw(st.booleans())
    eta_mode = draw(st.sampled_from(["atlas", "one"]))
    variables = tuple(f"y{v + 1}" for v in range(k))
    n_weights = 2 * draw(st.integers(k, 3)) if hk else draw(st.integers(k, 5))
    small = st.integers(-3, 3)
    nonzero = small.filter(bool)
    rational = st.builds(Fraction, small, st.integers(1, 2))
    if bits:
        big = 2**bits
        wide = st.builds(Fraction, st.integers(-big, big), st.integers(1, big))
        coeff = st.builds(ComplexRational, st.one_of(rational, wide), st.one_of(rational, wide))
    else:
        coeff = st.builds(ComplexRational, rational, rational)

    def moments():
        if hk:
            vec = st.tuples(rational, rational, rational).filter(any)
            return (Fraction(0),) * k, tuple(draw(vec) for _ in range(k))
        moment = st.builds(Fraction, nonzero, st.integers(1, 2))
        return tuple(draw(moment) for _ in range(k)), None

    points = []
    for j in range(draw(st.integers(1, 3))):
        weights = []
        for i in range(n_weights):
            w = [0] * k
            w[i if i < k else draw(st.integers(0, k - 1))] = draw(nonzero)
            weights.append(tuple(w))
        eta = {
            tuple(draw(st.integers(0, n_weights + 1)) for _ in range(k)): draw(coeff)
            for _ in range(draw(st.integers(0, 3)))
        }
        moment, moment_hk = moments()
        points.append(
            FixedPointDatum(
                name=f"fp{j}",
                moment=moment,
                weights=tuple(weights),
                eta=LaurentSeries(variables, eta),
                moment_hk=moment_hk,
            )
        )

    def raw_point(name, terms, trunc):
        moment, moment_hk = moments()
        return FixedPointDatum(
            name=name,
            moment=moment,
            weights=(),
            eta=LaurentSeries.const(variables, 1),
            moment_hk=moment_hk,
            mode="raw",
            raw_contribution=LaurentSeries(variables, terms, trunc),
        )

    for j in range(draw(st.integers(0, 2))):
        terms = {
            tuple(draw(st.integers(-3, 3)) for _ in range(k)): draw(coeff)
            for _ in range(draw(st.integers(0, 3)))
        }
        trunc = tuple(
            draw(st.one_of(st.none(), st.integers(min_trunc, 3))) for _ in range(k)
        )
        points.append(raw_point(f"raw{j}", terms, trunc))

    def make(pts):
        dim_m = 2 * n_weights
        atlas = FixedPointAtlas(
            group=GroupSpec.torus(k),
            geometry="hyperkahler" if hk else "symplectic",
            dim_m=dim_m,
            dim_quotient=dim_m - (4 if hk else 2) * k,
            deg_eta0=0,
            variable_order=variables,
            fixed_points=tuple(pts),
        )
        validate_atlas(atlas)
        return atlas

    atlas = make(points)
    if pole_free is None:
        pole_free = draw(st.booleans())
    if pole_free:
        total = localize(atlas, phase_factory(eta_mode), (-1,) * k).total
        negated = {e: -c for e, c in total.principal_terms().items()}
        atlas = make(points + [raw_point("cancel", negated, None)])
    return atlas, eta_mode


def _exact_doubles(atlas, eta_mode, fp):
    """The reference for _point_coeffs: each exact coefficient as a
    ComplexRational quotient, eta_j / c for a structured point, and float of
    its Fraction parts."""
    if fp.mode == "raw":
        exact = fp.raw_contribution.terms
    else:
        c, n = monomial_euler_class(fp, atlas.group.rank)
        eta = {(0,) * len(n): ComplexRational.one()} if eta_mode == "one" else fp.eta.terms
        exact = {tuple(x - y for x, y in zip(j, n)): v / c for j, v in eta.items()}
    return {e: (float(v.re), float(v.im)) for e, v in exact.items()}


def _direct_value(atlas, eta_mode, ys):
    """The summed series of a symplectic atlas at one point straight from
    the atlas data, and the summed magnitudes of its terms."""
    point = dict(zip(atlas.variable_order, ys))
    total, scale = 0j, 0.0
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            v = fp.raw_contribution.evaluate(point)
        else:
            v = 1.0 if eta_mode == "one" else fp.eta.evaluate(point)
            freqs = phase_covector(atlas, fp)
            v *= cmath.exp(1j * sum(float(f) * y for f, y in zip(freqs, ys)))
            for w in fp.weights:
                v /= sum(c * y for c, y in zip(w, ys))
        total += v
        scale += abs(v)
    return total, scale


class TestPoleGate:
    @given(gated_atlases(max_rank=1))
    @settings(max_examples=80, deadline=None)
    def test_matches_localized_sum(self, case):
        atlas, eta_mode = case
        k = atlas.group.rank
        want = localize(atlas, phase_factory(eta_mode), (-1,) * k).total.principal_terms()
        assert _principal_part(atlas, eta_mode) == want
        if atlas.geometry == "hyperkahler":
            # refused for its geometry, before the gate
            with pytest.raises(ValidationError, match="reduce --oracle"):
                atlas_integrand(atlas, eta_mode=eta_mode)
            return
        short = [
            fp.name
            for fp in atlas.fixed_points
            if fp.mode == "raw"
            and any(t is not None and t < -1 for t in fp.raw_contribution.trunc)
        ]
        if short:
            # such a series could hide a pole below its truncation order
            with pytest.raises(InsufficientTruncationError, match=re.escape(repr(short[0]))):
                atlas_integrand(atlas, eta_mode=eta_mode)
            return
        if want:
            with pytest.raises(QuadratureError, match=re.escape(str(sorted(want)))):
                atlas_integrand(atlas, eta_mode=eta_mode)
            return
        g = atlas_integrand(atlas, eta_mode=eta_mode)
        for ys in ((0.7, -0.3, 1.3), (-1.1, 0.45, 0.9)):
            ys = ys[:k]
            got = g.fn([np.array([y]) for y in ys])[0]
            value, scale = _direct_value(atlas, eta_mode, ys)
            assert abs(got - value) <= 1e-12 * scale


def _shifted(fn, zeta):
    """The _PointSum fn with every frequency shifted by -zeta: every moment
    shifted by -zeta, raw points included."""
    return _PointSum([(coeffs, (f - zeta,)) for coeffs, (f,) in fn.points], False)


class TestPointCoefficients:
    @given(gated_atlases(bits=80), st.sampled_from([0.0, 0.3, -0.7]))
    @settings(max_examples=80, deadline=None)
    def test_doubles_are_the_rounded_exact_quotients(self, case, zeta):
        """Every double _point_coeffs builds from the (p, q, d) ints is
        float of the exact quotient's parts, bit for bit, signed zeros
        included; at rank 1 the coefficient matrix sums them in point
        order, one column per shifted frequency."""
        atlas, eta_mode = case
        want = [_exact_doubles(atlas, eta_mode, fp) for fp in atlas.fixed_points]
        for fp, doubles in zip(atlas.fixed_points, want):
            got = oracle_module._point_coeffs(atlas, eta_mode, fp)
            assert list(got) == list(doubles)
            for e, (re_part, im_part) in doubles.items():
                assert got[e].real.hex() == re_part.hex(), (fp.name, e)
                assert got[e].imag.hex() == im_part.hex(), (fp.name, e)
        if atlas.group.rank != 1 or atlas.geometry == "hyperkahler":
            return
        try:
            g = atlas_integrand(atlas, eta_mode=eta_mode)
        except (QuadratureError, InsufficientTruncationError):
            return  # the pole gate refused the data
        # a shift of every frequency by -zeta varies the matrix's columns
        lo, hi, freqs, matrix = _shifted(g.fn, zeta).matrix
        points = []
        for fp, doubles in zip(atlas.fixed_points, want):
            if doubles:
                f = 0.0 if fp.mode == "raw" else float(phase_covector(atlas, fp)[0])
                points.append((doubles, f - zeta))
        assert list(freqs) == sorted({f for _, f in points})
        ref = {}
        for doubles, f in points:
            for (e,), (re_part, im_part) in doubles.items():
                key = (e - lo, list(freqs).index(f))
                ref[key] = ref.get(key, 0j) + complex(re_part, im_part)
        assert matrix.shape == (hi - lo + 1, len(freqs))
        for (row, col), v in np.ndenumerate(matrix):
            assert v.real.hex() == ref.get((row, col), 0j).real.hex()
            assert v.imag.hex() == ref.get((row, col), 0j).imag.hex()

    @given(
        gated_atlases(max_rank=1, pole_free=True, min_trunc=-1, bits=80),
        st.integers(400, 2000),
    )
    @settings(max_examples=25, deadline=None)
    def test_coefficient_beyond_double_exits_1_naming_the_point(self, case, digits):
        """A raw point's term 10^digits y^5 passes the pole gate and has no
        double: reduce --oracle exits 1 with the point in its context, on
        the mollified route (symplectic draws, whose integrand refuses it)
        and on the contour route (hyperkahler draws)."""
        atlas, eta_mode = case
        huge = FixedPointDatum(
            name="huge",
            moment=atlas.fixed_points[0].moment,
            weights=(),
            eta=LaurentSeries.const(atlas.variable_order, 1),
            moment_hk=atlas.fixed_points[0].moment_hk,
            mode="raw",
            raw_contribution=LaurentSeries(atlas.variable_order, {(5,): 10**digits}),
        )
        atlas = replace(atlas, fixed_points=atlas.fixed_points + (huge,))
        mode = "hk" if atlas.geometry == "hyperkahler" else "symplectic"
        if mode == "symplectic":
            with pytest.raises(ValidationError) as err:
                atlas_integrand(atlas, eta_mode=eta_mode)
            assert err.value.context == {"point": "huge", "value": Fraction(10**digits)}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "atlas.json"
            path.write_text(serialize_atlas(atlas))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                argv = ["reduce", str(path), "--mode", mode, "--eta-mode", eta_mode]
                assert cli.run(argv + ["--oracle"]) == 1
        doc = json.loads(stderr.getvalue())
        assert doc["error"] == "validation" and doc["context"]["point"] == "'huge'"
        assert "series coefficient at 'huge' is beyond the range of a double" in doc["message"]


class TestPanelEvaluation:
    @given(
        gated_atlases(max_rank=1, pole_free=True, min_trunc=-1, hk=False),
        st.sampled_from([0.0, 0.3, -0.7]),
        st.sampled_from([0.5, 2.0, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_node_evaluation(self, case, zeta, t):
        """Each panel's 15-node and 5-node sums equal the rules applied to
        exp(-y^2/4t) * fn(y) at the same nodes: on a uniform grid, and on
        panels of a real grid at t = 1e4.  The error is measured against
        the summed magnitudes of the point terms, the scale of either
        route's rounding: near a cancelled pole the sum itself is far
        smaller."""
        atlas, eta_mode = case
        unshifted = atlas_integrand(atlas, eta_mode=eta_mode).fn
        fn = _shifted(unshifted, zeta)
        window = 12.0 * math.sqrt(2.0 * t)
        uniform = (0.0, _spacing(2.0 * window / (15 * 64)), 64)
        real = _panel_grid(12.0 * math.sqrt(2.0e4), 3.0)
        for (mid, h, n), t_grid, keep in ((uniform, t, 64), (real, 1.0e4, 128)):
            centers = _centers(mid, h, n)[(n - keep) // 2 : (n + keep) // 2]
            x = centers[:, None] + h * PANEL_NODES
            gauss = np.exp(-(x * x) / (4.0 * t_grid))
            scale = sum(np.abs(_PointSum([p], False)([x])) for p in fn.points)
            got = _MollifiedPanels(fn, (t_grid,)).sums([(0, centers, h)])
            want = (gauss * fn([x])) @ RULES * h
            assert got.shape == (len(centers), 2)
            assert np.all(np.abs(got - want) <= 1e-12 * ((gauss * scale) @ RULES) * h)
        # the shift is a global phase, raw points included
        assert np.all(np.abs(fn([x]) - np.exp(-1j * zeta * x) * unshifted([x])) <= 1e-12 * scale)

    @given(gated_atlases(max_rank=1, pole_free=True, min_trunc=-1, hk=False))
    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    def test_pole_free_rungs_fit_and_agree_with_a_denser_grid(self, case):
        """Every rung of a symplectic pole-free draw fits its budget, and a
        grid three times denser agrees within 1e-12 of the L1 size, the
        rule applied to exp(-y^2/4t) times the summed term magnitudes."""
        atlas, eta_mode = case
        g = atlas_integrand(atlas, eta_mode=eta_mode)
        res = mollified_oint(g, atlas.group)
        vol = atlas.group.vol.numeric_value().real
        for row in res.rows:
            t = row.t
            window = 12.0 * math.sqrt(2.0 * t)
            mid, h, n = _panel_grid(window, g.freq_linear + _spread(t))
            assert row.panels == n
            dense = (mid, _spacing(h / 3), 3 * n)
            value = oracle_module.fixed_quadrature(_MollifiedPanels(g.fn, (t,)), dense)

            def size(y, t=t):
                terms = (_PointSum([p], False)([y]) for p in g.fn.points)
                return np.exp(-(y * y) / (4.0 * t)) * sum(np.abs(v) for v in terms)

            l1 = oracle_module.fixed_quadrature(size, dense).real
            assert abs(row.value * vol - value) <= 1e-12 * l1, t

    @pytest.mark.parametrize("name", [f"mirror_pair({n})" for n in range(6)] + ["sphere_S2"])
    def test_panel_route_matches_node_route_over_the_ladder(self, name):
        """The whole default ladder by the panel route and by a plain node
        callable on the same edges."""
        atlas = builtin_atlas(name)
        g = atlas_integrand(atlas)
        node = replace(g, fn=lambda ys: g.fn(ys))
        panels = mollified_oint(g, atlas.group)
        nodes = mollified_oint(node, atlas.group)
        assert [r.t for r in panels.rows] == list(MollifierConfig().t_ladder)
        for p, n in zip(panels.rows, nodes.rows):
            assert abs(p.value - n.value) <= 1e-12 * abs(n.value)

    def test_one_coefficient_matrix_per_comparison(self, monkeypatch):
        """The integrand builds its coefficient matrix once, and every rung
        of the ladder integrates that one matrix."""
        built = []
        build = oracle_module._coefficient_matrix

        def spy(points):
            built.append(len(points))
            return build(points)

        monkeypatch.setattr(oracle_module, "_coefficient_matrix", spy)
        atlas = mirror_pair_atlas(7)
        comparison = oracle_comparison(reduce_symplectic_circle(atlas), atlas)
        assert len(comparison["ladder"]) == len(MollifierConfig().t_ladder)
        assert built == [len(atlas.fixed_points)]
