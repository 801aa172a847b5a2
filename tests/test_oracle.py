import cmath
import math
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    builtin_atlas,
    hk_point_atlas,
    mirror_pair_atlas,
    sphere_atlas,
    validate_atlas,
)
from eqloc.engines import reduce_hk_circle, reduce_hk_circle_viaP, reduce_symplectic_circle
from eqloc.errors import InsufficientTruncationError, QuadratureError, ValidationError
from eqloc.exact import ComplexRational, LaurentSeries, exp_series
from eqloc.localize import localize, phase_covector, phase_factory
from eqloc.oracle import (
    GAUSS_INDEX,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    RULES,
    MollifierConfig,
    OracleIntegrand,
    _Budget,
    _eval_panels,
    _fsum,
    _MollifiedPanels,
    _PointSum,
    _panel_edges,
    _principal_part,
    adaptive_quadrature,
    atlas_integrand,
    contour_coeff,
    mollified_oint,
    moment_gap,
    oracle_comparison,
    shift_smoothness_check,
    suptsq_check,
)

CIRCLE = GroupSpec.circle()


def entire_hk_pair_atlas():
    """Two hyperkahler points whose summed series is y^2 exp(i y^2): entire,
    so the mollified limit exists and equals a Fresnel moment."""
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
    def test_weights_normalized(self):
        assert abs(KRONROD_WEIGHTS.sum() - 2.0) < 1e-12
        assert abs(GAUSS_WEIGHTS.sum() - 2.0) < 1e-12

    def test_node_layout(self):
        assert len(KRONROD_NODES) == 15
        assert np.all(np.diff(KRONROD_NODES) > 0)
        assert KRONROD_NODES[7] == 0.0
        assert np.allclose(KRONROD_NODES, -KRONROD_NODES[::-1])

    def test_gauss_exact_through_degree_13(self):
        x = KRONROD_NODES[GAUSS_INDEX]
        for d in range(14):
            got = float(GAUSS_WEIGHTS @ x**d)
            want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(got - want) < 1e-12, d

    def test_kronrod_exact_through_degree_22(self):
        for d in range(23):
            got = float(KRONROD_WEIGHTS @ KRONROD_NODES**d)
            want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(got - want) < 1e-12, d

    def test_gauss_not_exact_at_degree_14(self):
        x = KRONROD_NODES[GAUSS_INDEX]
        assert abs(float(GAUSS_WEIGHTS @ x**14) - 2.0 / 15) > 1e-8

    def test_rules_matrix(self):
        assert np.array_equal(RULES[:, 0], KRONROD_WEIGHTS)
        assert np.array_equal(RULES[GAUSS_INDEX, 1], GAUSS_WEIGHTS)
        assert np.count_nonzero(RULES[:, 1]) == 7

    def test_adaptive_gaussian(self):
        edges = np.linspace(-12.0, 12.0, 25)
        val, err = adaptive_quadrature(
            lambda y: np.exp(-y * y), edges, 1e-12, _Budget(10_000)
        )
        assert abs(val - math.sqrt(math.pi)) < 1e-12
        assert err < 1e-10

    def test_panel_edges_shape(self):
        e = _panel_edges(10.0, 2.0)
        assert len(e) % 2 == 1
        assert e[len(e) // 2] == 0.0
        assert abs((e[1] - e[0]) - math.pi / 8) < 1e-12
        # no oscillation: width capped at an eighth of the window
        e2 = _panel_edges(16.0, 0.0)
        assert abs((e2[1] - e2[0]) - 2.0) < 1e-12


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
            [],
        ],
    )
    def test_edge_cases(self, xs):
        got = _fsum(_complex_array(xs, [-x for x in xs]))
        assert _bits(got) == _bits(complex(math.fsum(xs), math.fsum([-x for x in xs])))

    def test_longer_than_one_chunk(self):
        """2^17 + 1 copies of a value whose integer part in the accumulator
        is odd and of 36 bits, so that their sum passes 2^53 where a double
        would round, and a far smaller term that makes such a rounding show
        in the total."""
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
        neg = OracleIntegrand(
            fn=lambda ys: g.fn([-ys[0]]),
            k=1,
            freq_linear=g.freq_linear,
            freq_quadratic=g.freq_quadratic,
        )
        cfg = MollifierConfig(t_ladder=(1.0, 10.0, 100.0))
        a = mollified_oint(g, CIRCLE, cfg).estimate
        b = mollified_oint(neg, CIRCLE, cfg).estimate
        assert abs(a - b) < 1e-10

    def test_rank2_gaussian_nested(self):
        g = OracleIntegrand(
            fn=lambda ys: np.exp(-ys[0] ** 2 - ys[1] ** 2),
            k=2,
            freq_linear=0.0,
        )
        cfg = MollifierConfig(t_ladder=(10.0, 100.0), extrapolation="richardson")
        res = mollified_oint(g, GroupSpec.torus(2), cfg)
        want = math.pi / (2 * math.pi) ** 2
        assert abs(res.estimate - want) / want < 2e-4

    def test_too_many_variables(self):
        g = OracleIntegrand(fn=lambda ys: ys[0], k=4)
        with pytest.raises(ValidationError):
            mollified_oint(g, GroupSpec.torus(4), MollifierConfig(t_ladder=(1.0, 2.0)))

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
            dict(quad_tolerance=0.0),
            dict(quad_tolerance=math.nan),
            dict(window_sigmas=math.inf),
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
        assert set(d) == {"rows", "estimate", "extrapolation", "ladder_monotone", "max_panels"}
        assert d["max_panels"] == MollifierConfig().max_panels
        assert len(d["rows"]) == 2
        assert set(d["rows"][0]) == {"t", "value", "err_estimate", "panels"}
        assert all(type(r["panels"]) is int and 16 <= r["panels"] for r in d["rows"])

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


def _sphere_with_moment(m):
    """sphere_S2 with its moments scaled from +-1 to +-m."""
    atlas = sphere_atlas()
    points = tuple(replace(fp, moment=(fp.moment[0] * m,)) for fp in atlas.fixed_points)
    return replace(atlas, fixed_points=points)


@pytest.fixture
def no_grid(monkeypatch):
    """Make building any grid fail, so that a refusal is seen to come
    before the allocation it guards against."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", refuse)


class TestGridRefusal:
    def test_panel_edges_counts_first(self, no_grid):
        for args in (
            (10.0, 2.0, 51),  # 52 panels
            (1.0e3, 1.0e308),  # 4 max_freq overflows: h = 0
            (1.0e155, 1.0e307),  # window / h overflows
        ):
            with pytest.raises(QuadratureError, match="budget exhausted"):
                _panel_edges(*args)

    def test_panel_edges_at_the_budget(self):
        assert len(_panel_edges(10.0, 2.0, 52)) == 53

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
        # ~8 |zeta| window / pi = 4.3e7 panels at the default top rung
        with pytest.raises(QuadratureError, match="budget exhausted"):
            shift_smoothness_check(sphere_atlas(), [1.0e4])

    def test_shift_grid_within_the_budget_runs(self):
        cfg = MollifierConfig(t_ladder=(0.5, 1.0), max_panels=1000)
        assert shift_smoothness_check(sphere_atlas(), [0.01], cfg).linear_ok
        with pytest.raises(QuadratureError, match="budget exhausted"):
            shift_smoothness_check(sphere_atlas(), [0.01], replace(cfg, max_panels=16))


class TestHyperkahlerOracle:
    def test_entire_pair_matches_fresnel_moment(self):
        # integral y^2 exp(i y^2) dy = (sqrt(pi)/2) exp(3 pi i / 4)
        atlas = entire_hk_pair_atlas()
        g = atlas_integrand(atlas)
        assert g.freq_quadratic == 1.0
        cfg = MollifierConfig(
            t_ladder=(8.0, 16.0, 32.0, 64.0), extrapolation="richardson"
        )
        res = mollified_oint(g, CIRCLE, cfg)
        want = (math.sqrt(math.pi) / 2) * cmath_exp_3pi4() / (2 * math.pi)
        assert abs(res.estimate - want) / abs(want) < 5e-4

    def test_pole_is_refused(self):
        with pytest.raises(QuadratureError, match="pole at the origin"):
            atlas_integrand(hk_point_atlas())

    def test_short_raw_truncation_is_refused(self):
        """An empty raw point trusted only through y^-5 would hide the
        poles at y^-4 and y^-2 from the gate; the engines refuse the same
        atlas for the same reason."""
        atlas = hk_point_atlas()
        (fp,) = atlas.fixed_points
        raw = replace(
            fp,
            name="cut",
            weights=(),
            eta=LaurentSeries.const(("y",), 1),
            mode="raw",
            raw_contribution=LaurentSeries(("y",), {}, (-5,)),
        )
        atlas = replace(atlas, fixed_points=(fp, raw))
        validate_atlas(atlas)
        with pytest.raises(InsufficientTruncationError, match="'cut'.*y\\^-5") as exc:
            atlas_integrand(atlas)
        assert (exc.value.required, exc.value.context["point"]) == (-1, "cut")
        for engine in (reduce_hk_circle, reduce_hk_circle_viaP):
            with pytest.raises(InsufficientTruncationError):
                engine(atlas)


def cmath_exp_3pi4() -> complex:
    return complex(-1.0, 1.0) / math.sqrt(2.0)


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

    def test_hyperkahler_refused(self):
        report = reduce_symplectic_circle(sphere_atlas())
        with pytest.raises(ValidationError):
            oracle_comparison(report, entire_hk_pair_atlas())


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
        assert 1000 < x_max < 2000
        with pytest.raises(ValidationError):
            suptsq_check(-1.001 * x_max, 2)
        # the outer grid of the largest x fits the budget, at every rung
        for t in (1.0, 3.0, 10.0, 30.0):
            edges = _panel_edges(12.0 * math.sqrt(2.0 * t), 0.999 * x_max)
            assert len(edges) - 1 <= 300_000

    @pytest.mark.parametrize("ladder", [(1.0, 3.0, 10.0, 30.0), (0.5, 1000.0)])
    def test_power_past_double_names_the_largest_fit(self, ladder):
        with pytest.raises(ValidationError) as exc:
            suptsq_check(0.0, 10**6, t_ladder=ladder)
        max_n = exc.value.context["max_n"]
        edge = float(_panel_edges(12.0 * math.sqrt(2.0 * ladder[-1]), 0.0)[-1])
        assert math.isfinite(edge ** (max_n // 2))
        with pytest.raises(OverflowError):
            edge ** (max_n // 2 + 1)
        with pytest.raises(ValidationError):
            suptsq_check(0.0, max_n + 2, t_ladder=ladder)

    def test_narrow_window_takes_any_power(self):
        # |y| <= 12 sqrt(2t) < 1 at t = 0.001: no power overflows
        table = suptsq_check(0.0, 2000, t_ladder=(0.001,))
        assert abs(table.rows[0].value) < 1e-300

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
        g = atlas_integrand(mirror_pair_atlas(0))
        assert g.freq_quadratic == 0.0
        assert g.freq_linear >= 1.0

    def test_shift_on_hk_rejected(self):
        with pytest.raises(ValidationError):
            atlas_integrand(entire_hk_pair_atlas(), zeta=0.5)


# -- closed-form pole gate and panel evaluation --------------------------


@st.composite
def gated_atlases(draw, max_rank=3, pole_free=None, min_trunc=-3):
    """(atlas, eta_mode) for rank 1..max_rank, either geometry: structured
    points with several signed weights, each involving one variable, moments
    of either sign and eta terms up to past the pole order; raw points with
    random terms and truncation orders from min_trunc up; and, when
    pole_free (drawn if None), one more raw point holding the negated
    principal part of the localized sum, so that the sum has no pole."""
    k = draw(st.integers(1, max_rank))
    hk = draw(st.booleans())
    eta_mode = draw(st.sampled_from(["atlas", "one"]))
    variables = tuple(f"y{v + 1}" for v in range(k))
    n_weights = 2 * draw(st.integers(k, 3)) if hk else draw(st.integers(k, 5))
    small = st.integers(-3, 3)
    nonzero = small.filter(bool)
    rational = st.builds(Fraction, small, st.integers(1, 2))
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


def _direct_value(atlas, eta_mode, ys):
    """The summed series at one point straight from the atlas data, and the
    summed magnitudes of its terms."""
    point = dict(zip(atlas.variable_order, ys))
    power = 2 if atlas.geometry == "hyperkahler" else 1
    total, scale = 0j, 0.0
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            v = fp.raw_contribution.evaluate(point)
        else:
            v = 1.0 if eta_mode == "one" else fp.eta.evaluate(point)
            freqs = phase_covector(atlas, fp)
            v *= cmath.exp(1j * sum(float(f) * y**power for f, y in zip(freqs, ys)))
            for w in fp.weights:
                v /= sum(c * y for c, y in zip(w, ys))
        total += v
        scale += abs(v)
    return total, scale


class TestPoleGate:
    @given(gated_atlases())
    @settings(max_examples=80, deadline=None)
    def test_matches_localized_sum(self, case):
        atlas, eta_mode = case
        k = atlas.group.rank
        want = localize(atlas, phase_factory(eta_mode), (-1,) * k).total.principal_terms()
        assert _principal_part(atlas, eta_mode) == want
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


def _split(a, b, idx):
    """Halve the panels at idx, keeping the others."""
    mid = (a[idx] + b[idx]) / 2
    keep = np.ones(len(a), dtype=bool)
    keep[idx] = False
    return np.concatenate([a[keep], a[idx], mid]), np.concatenate([b[keep], mid, b[idx]])


class TestPanelEvaluation:
    @given(
        gated_atlases(max_rank=1, pole_free=True, min_trunc=-1),
        st.sampled_from([0.0, 0.3, -0.7]),
        st.sampled_from([0.5, 2.0, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_node_evaluation(self, case, zeta, t):
        """Each panel's Kronrod and Gauss sums equal the rules applied to
        exp(-y^2/4t) * fn(y) at the same nodes: on a uniform grid, on one
        with mixed half-widths, as left by splitting, and on panels of a
        real grid at t = 1e4, whose half-widths differ in the last bits.
        The error is measured against the summed magnitudes of the point
        terms, the scale of either route's rounding: near a cancelled pole
        the sum itself is far smaller."""
        atlas, eta_mode = case
        if atlas.geometry == "hyperkahler":
            zeta = 0.0
        g = atlas_integrand(atlas, eta_mode=eta_mode, zeta=zeta)
        window = 12.0 * math.sqrt(2.0 * t)
        edges = np.linspace(-window, window, 65)
        uniform = (edges[:-1], edges[1:])
        mixed = _split(*uniform, np.arange(0, len(edges) - 1, 2))
        mixed = _split(*mixed, np.arange(0, len(mixed[0]), 3))
        assert len(np.unique(mixed[1] - mixed[0])) > 1
        big = _panel_edges(12.0 * math.sqrt(2.0e4), 3.0)
        mid = len(big) // 2
        real = (big[mid - 64 : mid + 64], big[mid - 63 : mid + 65])
        assert len(np.unique((real[1] - real[0]) / 2)) > 1
        for (a, b), t_grid in ((uniform, t), (mixed, t), (real, 1.0e4)):
            half, centers = (b - a) / 2, (a + b) / 2
            x = centers[:, None] + half[:, None] * KRONROD_NODES
            gauss = np.exp(-(x * x) / (4.0 * t_grid))
            scale = sum(np.abs(_PointSum([p], g.fn.quadratic)([x])) for p in g.fn.terms)
            got = _MollifiedPanels(g.fn, t_grid).sums(centers, half)
            want = (gauss * g.fn([x])) @ RULES
            assert got.shape == (len(a), 2)
            assert np.all(np.abs(got - want) <= 1e-12 * ((gauss * scale) @ RULES))
        # the shift is a global phase, raw points included
        unshifted = atlas_integrand(atlas, eta_mode=eta_mode).fn([x])
        assert np.all(np.abs(g.fn([x]) - np.exp(-1j * zeta * x) * unshifted) <= 1e-12 * scale)

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

    def test_split_panels_sum_like_left_edge_ordered_fsum(self):
        fn = _MollifiedPanels(atlas_integrand(mirror_pair_atlas(7)).fn, 1.0)
        edges = np.linspace(-16.0, 16.0, 5)
        tol = 1e-13
        budget = _Budget(10_000)
        val, _ = adaptive_quadrature(fn, edges, tol, budget)
        # reference: the same halving, each accepted panel kept with its
        # left edge and summed in left-edge order
        a, b = edges[:-1], edges[1:]
        accepted = []
        rounds = 0
        while len(a):
            rounds += 1
            i15, err = _eval_panels(fn, a, b)
            ok = err <= tol
            accepted += [(a[j], complex(i15[j])) for j in np.nonzero(ok)[0]]
            a, b = a[~ok], b[~ok]
            a, b = np.concatenate([a, (a + b) / 2]), np.concatenate([(a + b) / 2, b])
        accepted.sort(key=lambda p: p[0])
        want = complex(
            math.fsum(v.real for _, v in accepted), math.fsum(v.imag for _, v in accepted)
        )
        assert rounds > 2
        assert (val.real.hex(), val.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_convergence_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "oracle_convergence.py"
    out = subprocess.run(
        [sys.executable, str(script), "builtin:sphere_S2", "--t", "1,10"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "exact limit:" in out.stdout
    assert "panels" in out.stdout and "panel budget: 300000 per rung" in out.stdout
