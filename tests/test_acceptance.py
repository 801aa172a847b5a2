"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line on success; under pytest -v the test
name itself is the pass/fail record.  Tolerances and time budgets are part
of the guarantee and asserted here, not tuned to the test machine.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from eqloc import cli
from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    RootSystemData,
    hk_point_atlas,
    hk_synthetic_atlas,
    mirror_pair_atlas,
    parse_atlas,
    serialize_atlas,
    sphere_atlas,
    validate_atlas,
)
from eqloc.engines import (
    reduce_hk_circle,
    reduce_hk_circle_viaP,
    reduce_hk_torus,
    reduce_symplectic_circle,
    reduce_symplectic_torus,
    weyl_wrap,
)
from eqloc.exact import (
    ComplexRational,
    LaurentSeries,
    coeff_extract,
    even_projector,
    invert_series,
    series_mul,
    substitute_sqrt,
)
from eqloc.localize import euler_class, localize, phase_factory
from eqloc.oracle import (
    contour_coeff,
    oracle_comparison,
    shift_smoothness_check,
    suptsq_check,
)
from eqloc.record import replace
from eqloc.roots import group_spec

GOLDEN_DIR = Path(__file__).parent / "golden"


def _pass(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


def _cr(re, im=0) -> ComplexRational:
    return ComplexRational.of(Fraction(re), Fraction(im))


def test_criterion_01_contour_matches_exact_coefficients():
    rng = random.Random(20260822)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n_terms = rng.randint(1, 10)
        exponents = rng.sample(range(-6, 9), n_terms)
        terms = {}
        for e in exponents:
            re = rng.randint(-999, 999)
            im = rng.randint(-999, 999)
            if re == 0 and im == 0:
                re = 1
            den = rng.choice((1, 2))
            terms[(e,)] = ComplexRational.of(Fraction(re, den), Fraction(im, den))
        f = LaurentSeries(("y",), terms)
        target = rng.choice(exponents)
        exact = complex(coeff_extract(f, (target,)))
        numeric = contour_coeff(f, -target, "y")
        rel = abs(numeric - exact) / abs(exact)
        worst = max(worst, rel)
        assert rel <= 1e-10, (terms, target, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    _pass(1, f"50 contour reads, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_sphere_series_exact_through_order_6():
    # Taylor series of 2i sin(y)/y, derived from sin y = y - y^3/6 + y^5/120 - ...
    expected = {
        0: _cr(0, 2),
        1: _cr(0),
        2: _cr(0, Fraction(-1, 3)),
        3: _cr(0),
        4: _cr(0, Fraction(1, 60)),
        5: _cr(0),
        6: _cr(0, Fraction(-1, 2520)),
    }
    total = localize(sphere_atlas(), phase_factory("atlas"), (6,)).total
    for order, want in expected.items():
        assert coeff_extract(total, (order,)) == want, order
    _pass(2, "localized sphere sum equals the 2i sin(y)/y series exactly")


def test_criterion_03_residue_matches_mollified_limit():
    start = time.monotonic()
    atlases = [sphere_atlas()] + [mirror_pair_atlas(seed) for seed in range(20)]
    worst = 0.0
    for atlas in atlases:
        report = reduce_symplectic_circle(atlas)
        cmp = oracle_comparison(report, atlas)
        worst = max(worst, cmp["rel_err"])
        assert cmp["rel_err"] <= 1e-6, (atlas.fixed_points[0].name, cmp)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _pass(3, f"21 atlases, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_even_part_route_is_bitwise_identical():
    start = time.monotonic()
    for seed in range(100):
        atlas = hk_synthetic_atlas(seed)
        direct = reduce_hk_circle(atlas)
        via = reduce_hk_circle_viaP(atlas)
        assert direct.canonical_json() == via.canonical_json(), seed
        # the projected intermediate is a genuine function of y = z^2:
        # no odd powers survive the even projection, so the substitution
        # never meets a fractional exponent
        var = atlas.variable_order[0]
        for fp in atlas.fixed_points:
            e = euler_class(fp, atlas.variable_order)
            pole = -e.min_exponent()[0]
            s = series_mul(fp.eta, invert_series(e, (pole,)))
            p = even_projector(s, var)
            assert all(exp[0] % 2 == 0 for exp in p.terms), (seed, fp.name)
            substitute_sqrt(p, var)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _pass(4, f"100 synthetic atlases bitwise identical, {elapsed:.1f}s")


def test_criterion_05_degree_factor_law():
    base = hk_point_atlas()
    reports = {}
    for deg in range(base.dim_quotient + 1):
        atlas = replace(base, deg_eta0=deg)
        validate_atlas(atlas)
        reports[deg] = reduce_hk_circle(atlas)
    raw = reports[0].raw_coefficient
    for deg, report in reports.items():
        factor = base.dim_quotient - deg + 1
        assert report.degree_factor == factor, deg
        assert report.raw_coefficient == raw, deg
        want = raw * ComplexRational.of(Fraction(1, factor), Fraction(0))
        assert report.quotient_integral.coeff == want, deg
    _pass(5, "quotient scales by exactly 1/(dim - deg + 1), raw unchanged")


def test_criterion_06_suptsq_decay():
    osc = suptsq_check(1.0, 0, (1.0, 3.0, 10.0, 30.0))
    tail = abs(osc.rows[-1].value)
    assert tail <= 1e-10, tail
    flat = suptsq_check(0.0, 0, (1.0, 3.0, 10.0, 30.0))
    worst = 0.0
    for row in flat.rows:
        want = (4 * 3.141592653589793 * row.t) ** 0.5
        rel = abs(row.value - want) / want
        worst = max(worst, rel)
        assert rel <= 1e-8, row.t
    _pass(6, f"|I(30,1,0)| = {tail:.2e}; I(t,0,0) vs sqrt(4 pi t) worst {worst:.2e}")


def test_criterion_07_shift_smoothness():
    table = shift_smoothness_check(sphere_atlas(), (0.0, 1e-3, 1e-2))
    rows = {row.zeta: row for row in table.rows}
    assert rows[0.0].difference == 0.0
    d_small = rows[1e-3].difference
    d_large = rows[1e-2].difference
    assert d_small <= 10.0 * d_large * 1e-1, (d_small, d_large)
    _pass(7, f"|F(1e-3)-F(0)| = {d_small:.2e} <= |F(1e-2)-F(0)| = {d_large:.2e}")


def _su2_lift(atlas: FixedPointAtlas) -> FixedPointAtlas:
    """Give a rank-1 hyperkahler atlas SU(2) group data; s grows from 1 to 3,
    so dim M grows by 8 to keep the quotient dimension fixed."""
    lifted = replace(atlas, group=group_spec("SU(2)"), dim_m=atlas.dim_m + 8)
    validate_atlas(lifted)
    return lifted


def test_criterion_08_weyl_wrapper():
    trivial = RootSystemData((), 1)
    hk = hk_synthetic_atlas(3)
    assert weyl_wrap(hk, trivial) == reduce_hk_torus(hk)
    assert weyl_wrap(sphere_atlas(), trivial) == reduce_symplectic_torus(sphere_atlas())

    quartic = LaurentSeries.monomial(("y",), (4,), 16)
    half = ComplexRational.of(Fraction(1, 2), Fraction(0))
    for seed in range(10):
        atlas = _su2_lift(hk_synthetic_atlas(seed))
        wrapped = weyl_wrap(atlas)
        assert wrapped.inserted_polynomial == "(16,0) y^4", seed
        assert wrapped.weyl_divisor == 2, seed
        by_hand = replace(
            atlas,
            fixed_points=tuple(
                replace(fp, eta=series_mul(fp.eta, quartic))
                for fp in atlas.fixed_points
            ),
        )
        hand_report = reduce_hk_torus(by_hand)
        assert wrapped.raw_coefficient == hand_report.raw_coefficient * half, seed
        assert (
            wrapped.quotient_integral.coeff
            == hand_report.quotient_integral.coeff * half
        ), seed
    _pass(8, "trivial wrap is the identity; SU(2) inserts 16y^4 and halves")


def _tensor_circle_atlases(a1: FixedPointAtlas, a2: FixedPointAtlas) -> FixedPointAtlas:
    """Rank-2 product of two symplectic circle atlases."""
    v = ("y1", "y2")

    def lift(series: LaurentSeries, axis: int) -> LaurentSeries:
        terms = {}
        for (e,), c in series.terms.items():
            exps = (e, 0) if axis == 0 else (0, e)
            terms[exps] = c
        return LaurentSeries(v, terms)

    points = []
    for p1 in a1.fixed_points:
        for p2 in a2.fixed_points:
            weights = tuple((w[0], 0) for w in p1.weights) + tuple(
                (0, w[0]) for w in p2.weights
            )
            points.append(
                FixedPointDatum(
                    name=f"{p1.name}*{p2.name}",
                    moment=(p1.moment[0], p2.moment[0]),
                    weights=weights,
                    eta=series_mul(lift(p1.eta, 0), lift(p2.eta, 1)),
                )
            )
    atlas = FixedPointAtlas(
        group=GroupSpec.torus(2),
        geometry="symplectic",
        dim_m=a1.dim_m + a2.dim_m,
        dim_quotient=a1.dim_m + a2.dim_m - 4,
        deg_eta0=0,
        variable_order=v,
        fixed_points=tuple(points),
    )
    validate_atlas(atlas)
    return atlas


def test_criterion_09_torus_circle_degeneration():
    for seed in range(20):
        atlas = mirror_pair_atlas(seed)
        torus = reduce_symplectic_torus(atlas)
        circle = reduce_symplectic_circle(atlas)
        assert torus.canonical_json() == circle.canonical_json(), seed

    left = sphere_atlas()
    right = replace(
        sphere_atlas(),
        fixed_points=tuple(
            replace(
                fp,
                moment=(fp.moment[0] * 2,),
                weights=((fp.weights[0][0] * 2,),),
                eta=LaurentSeries.const(("y",), 3),
            )
            for fp in sphere_atlas().fixed_points
        ),
    )
    validate_atlas(right)
    product = _tensor_circle_atlases(left, right)
    raw_left = reduce_symplectic_circle(left).raw_coefficient
    raw_right = reduce_symplectic_circle(right).raw_coefficient
    raw_product = reduce_symplectic_torus(product).raw_coefficient
    assert raw_product == raw_left * raw_right
    _pass(9, "rank-1 torus reads are bitwise circle reads; products factor")


def test_criterion_10_goldens_and_round_trip():
    for name in cli.EXAMPLE_FILES:
        regenerated = cli.example_file_text(name)
        want = (GOLDEN_DIR / name).read_text()
        assert regenerated == want, name
        if name == "su2_roots.json":
            json.loads(want)
            continue
        atlas = parse_atlas(want)
        assert serialize_atlas(atlas) == want, name
    for seed in range(20):
        text = serialize_atlas(mirror_pair_atlas(seed))
        assert serialize_atlas(parse_atlas(text)) == text, seed
    for seed in range(100):
        text = serialize_atlas(hk_synthetic_atlas(seed))
        assert serialize_atlas(parse_atlas(text)) == text, seed
    _pass(10, "golden bytes stable; parse then serialize is the identity")
