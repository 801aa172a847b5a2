"""Reduction engines: frozen residue reads, profile constants, route
equalities, and the Weyl wrapper.

Hand-derived values used below:
  - two-point circle atlas: Coeff_{y^-1}[exp(iy)/y] = 1
  - e = y^2 variant: Coeff_{y^-1}[exp(iy)/y^2] = i (first Taylor coefficient)
  - quartic point with squared moment length 2: Coeff_{y^-2}[exp(2iy^2)/y^4]
    = 2i (first Taylor coefficient of exp(2iy^2))
  - rank-2 insertion (y1-y2)^4: the y1^2y2^2 coefficient is 6, so the raw
    read of 6/(y1^0y2^0-term) against exp(i y1^2 + 2i y2^2)/(y1^2 y2^2) is 6,
    halved by the Weyl order to 3.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    RootSystemData,
    builtin_atlas,
    hk_point_atlas,
    hk_torus_rank2_atlas,
    parse_atlas,
    permute_atlas_variables,
    serialize_atlas,
    sphere_atlas,
    validate_atlas,
)
from eqloc.engines import (
    PROFILES,
    ConventionProfile,
    ExactValue,
    ReductionReport,
    reduce_hk_circle,
    reduce_hk_circle_viaP,
    reduce_hk_torus,
    reduce_symplectic_circle,
    reduce_symplectic_torus,
    resolve_profile,
    weyl_product,
    weyl_wrap,
)
from eqloc.errors import EqlocError, NonInvertibleError, ValidationError, VariableMismatchError
from eqloc.exact import ComplexRational, LaurentSeries, SymbolicConstant
from eqloc.localize import (
    SERIES_WORK_BUDGET,
    localize,
    monomial_euler_class,
    phase_factory,
    point_coeff,
    series_work,
)
from eqloc.record import replace
from eqloc.roots import SU2_ROOTS, U2_ROOTS, group_spec


def cr(re, im=0):
    return ComplexRational.of(Fraction(re), Fraction(im))


def circle_point(name, mu, weights, eta_terms):
    return FixedPointDatum(
        name=name,
        moment=(Fraction(mu),),
        weights=tuple((w,) for w in weights),
        eta=LaurentSeries(("y",), eta_terms),
    )


def circle_atlas(points):
    a = FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="symplectic",
        dim_m=2,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=("y",),
        fixed_points=tuple(points),
    )
    validate_atlas(a)
    return a


def hk_circle_atlas(points, dim_m=4, deg_eta0=0):
    a = FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="hyperkahler",
        dim_m=dim_m,
        dim_quotient=dim_m - 4,
        deg_eta0=deg_eta0,
        variable_order=("y",),
        fixed_points=tuple(points),
    )
    validate_atlas(a)
    return a


def hk_point(name, lam_vec, weights, eta_terms):
    return FixedPointDatum(
        name=name,
        moment=(Fraction(0),),
        weights=tuple((w,) for w in weights),
        eta=LaurentSeries(("y",), eta_terms),
        moment_hk=(tuple(Fraction(x) for x in lam_vec),),
    )


# -- profiles ------------------------------------------------------------


def test_default_profile_constants():
    p = PROFILES["default"]
    assert p.vol_circle == SymbolicConstant(Fraction(2), pi_pow=1)
    assert p.prefactor_symplectic_circle == SymbolicConstant(
        Fraction(1, 4), pi_pow=-2
    )
    assert p.prefactor_hk_circle == SymbolicConstant(
        Fraction(-1, 24), pi_pow=-2, sqrt2_pow=1
    )
    assert p.prefactor("symplectic", 2) == SymbolicConstant(Fraction(1, 16), pi_pow=-4)
    assert p.prefactor("hyperkahler", 2) == SymbolicConstant(Fraction(1, 288), pi_pow=-4)
    assert abs(p.prefactor_hk_circle.numeric_value() + math.sqrt(2) / (24 * math.pi**2)) < 1e-15


def test_unit_volume_profile():
    p = PROFILES["unit_volume"]
    assert p.prefactor_symplectic_circle == SymbolicConstant(Fraction(1, 2), pi_pow=-1)
    assert p.prefactor_hk_circle == SymbolicConstant(
        Fraction(-1, 12), pi_pow=-1, sqrt2_pow=1
    )


def test_resolve_profile():
    assert resolve_profile() is PROFILES["default"]
    assert resolve_profile("unit_volume") is PROFILES["unit_volume"]
    p = PROFILES["default"]
    assert resolve_profile(p) is p
    with pytest.raises(ValidationError):
        resolve_profile("nope")
    with pytest.raises(ValidationError):
        resolve_profile(3.5)


def test_profile_invariants_enforced():
    with pytest.raises(ValidationError):
        ConventionProfile(
            "bad",
            SymbolicConstant(Fraction(-1)),
            SymbolicConstant(Fraction(1)),
            SymbolicConstant(Fraction(1)),
        )
    with pytest.raises(ValidationError):
        ConventionProfile(
            "bad",
            SymbolicConstant(Fraction(1)),
            SymbolicConstant(Fraction(0)),
            SymbolicConstant(Fraction(1)),
        )


# -- symplectic circle ---------------------------------------------------


def test_sphere_reduction_default_profile():
    rep = reduce_symplectic_circle(sphere_atlas())
    assert rep.raw_coefficient == cr(1)
    assert rep.degree_factor == 1
    assert rep.prefactor == SymbolicConstant(Fraction(1, 4), pi_pow=-2)
    assert rep.quotient_integral.coeff == cr(1)
    assert abs(rep.quotient_integral.numeric() - 1 / (4 * math.pi**2)) < 1e-15
    assert [(p.name, p.selected) for p in rep.contributions] == [
        ("north", True),
        ("south", False),
    ]
    assert rep.contributions[0].coefficient == cr(1)
    assert rep.contributions[1].coefficient == cr(0)


def test_sphere_reduction_unit_volume():
    rep = reduce_symplectic_circle(sphere_atlas(), "unit_volume")
    assert rep.raw_coefficient == cr(1)
    assert abs(rep.quotient_integral.numeric() - 1 / (2 * math.pi)) < 1e-15


def test_regular_integrand_gives_zero():
    a = circle_atlas([circle_point("p", 2, [1], {(1,): cr(1)})])
    assert reduce_symplectic_circle(a).raw_coefficient == cr(0)


def test_double_weight_reads_taylor_coefficient():
    a = circle_atlas([circle_point("p", 1, [1, 1], {(0,): cr(1)})])
    assert reduce_symplectic_circle(a).raw_coefficient == cr(0, 1)


def test_negative_moment_point_is_skipped():
    a = circle_atlas(
        [
            circle_point("neg", -1, [-1], {(0,): cr(7)}),
        ]
    )
    rep = reduce_symplectic_circle(a)
    assert rep.raw_coefficient == cr(0)
    assert rep.contributions[0].selected is False


def test_zero_eta_gives_zero():
    a = circle_atlas([circle_point("p", 1, [1], {})])
    assert reduce_symplectic_circle(a).raw_coefficient == cr(0)


def test_extra_order_does_not_change_report():
    """An extra expansion order only expanded terms that met zero phase
    coefficients, so it is gone: no reducer takes one."""
    a = builtin_atlas("mirror_pair", seed=7)
    for engine in (
        reduce_symplectic_circle,
        reduce_symplectic_torus,
        reduce_hk_circle,
        reduce_hk_circle_viaP,
        reduce_hk_torus,
        weyl_wrap,
    ):
        with pytest.raises(TypeError):
            engine(a, order=3)


# -- symplectic torus ----------------------------------------------------


def product_of_spheres_atlas():
    variables = ("y1", "y2")
    one = LaurentSeries.const(variables, 1)
    points = []
    for s1, n1 in ((1, "N"), (-1, "S")):
        for s2, n2 in ((1, "N"), (-1, "S")):
            points.append(
                FixedPointDatum(
                    name=n1 + n2,
                    moment=(Fraction(s1), Fraction(s2)),
                    weights=((s1, 0), (0, s2)),
                    eta=one,
                )
            )
    a = FixedPointAtlas(
        group=GroupSpec.torus(2),
        geometry="symplectic",
        dim_m=4,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=tuple(points),
    )
    validate_atlas(a)
    return a


def test_product_atlas_selects_all_positive_corner():
    rep = reduce_symplectic_torus(product_of_spheres_atlas())
    assert rep.raw_coefficient == cr(1)
    assert [(p.name, p.selected) for p in rep.contributions] == [
        ("NN", True),
        ("NS", False),
        ("SN", False),
        ("SS", False),
    ]
    assert rep.prefactor == SymbolicConstant(Fraction(1, 16), pi_pow=-4)
    assert abs(rep.quotient_integral.numeric() - 1 / (16 * math.pi**4)) < 1e-18


def test_mixed_sign_moment_gives_zero_not_error():
    a = product_of_spheres_atlas()
    only_mixed = replace(a, fixed_points=(a.fixed_points[1],))
    rep = reduce_symplectic_torus(only_mixed)
    assert rep.raw_coefficient == cr(0)


def test_empty_atlas_rejected():
    a = replace(sphere_atlas(), fixed_points=())
    with pytest.raises(ValidationError):
        reduce_symplectic_circle(a)


def test_geometry_and_rank_guards():
    with pytest.raises(ValidationError):
        reduce_symplectic_circle(hk_point_atlas())
    with pytest.raises(ValidationError):
        reduce_hk_circle(sphere_atlas())
    with pytest.raises(ValidationError):
        reduce_hk_circle(hk_torus_rank2_atlas())
    with pytest.raises(ValidationError):
        reduce_symplectic_circle(product_of_spheres_atlas())


# -- hyperkahler ---------------------------------------------------------


def test_hk_constant_over_quadratic():
    a = hk_circle_atlas([hk_point("p", (1, 0, 0), [1, 2], {(0,): cr(3)})])
    rep = reduce_hk_circle(a)
    assert rep.raw_coefficient == cr(Fraction(3, 2))
    assert rep.degree_factor == 1
    assert rep.quotient_integral.coeff == cr(Fraction(3, 2))


def test_hk_quartic_with_quadratic_eta_and_degree_factor():
    a = hk_circle_atlas(
        [hk_point("p", (0, 1, 0), [1, 1, 1, 3], {(2,): cr(5)})],
        dim_m=8,
        deg_eta0=2,
    )
    rep = reduce_hk_circle(a)
    assert rep.raw_coefficient == cr(Fraction(5, 3))
    assert rep.degree_factor == 3  # 4 - 2 + 1
    assert rep.quotient_integral.coeff == cr(Fraction(5, 9))


def test_hk_point_atlas_report():
    rep = reduce_hk_circle(hk_point_atlas())
    assert rep.raw_coefficient == cr(0, 2)
    assert rep.degree_factor == 5
    assert rep.quotient_integral.coeff == cr(0, Fraction(2, 5))
    expected = (2 / 5) * (-math.sqrt(2) / (24 * math.pi**2))
    assert abs(rep.quotient_integral.numeric() - complex(0, expected)) < 1e-15


def test_degree_factor_law():
    base = hk_point_atlas()
    reports = [
        reduce_hk_circle(replace(base, deg_eta0=d)) for d in range(0, 5)
    ]
    for rep, d in zip(reports, range(0, 5)):
        assert rep.raw_coefficient == reports[0].raw_coefficient
        assert rep.degree_factor == 5 - d
        scaled = rep.quotient_integral.coeff * cr(rep.degree_factor)
        assert scaled == reports[0].quotient_integral.coeff * cr(5)


def test_hk_rank2_report():
    rep = reduce_hk_torus(hk_torus_rank2_atlas())
    assert rep.raw_coefficient == cr(1)
    assert rep.prefactor == SymbolicConstant(Fraction(1, 288), pi_pow=-4)
    assert abs(rep.quotient_integral.numeric() - 1 / (288 * math.pi**4)) < 1e-18


def test_rank2_separable_product_of_circle_reads():
    # factor the two blocks of the separable atlas into rank-1 atlases and
    # compare the product of their raw reads with the rank-2 read
    rank2 = hk_torus_rank2_atlas()
    rep2 = reduce_hk_torus(rank2)
    f1 = hk_circle_atlas([hk_point("a", (1, 0, 0), [1, 1], {(0,): cr(1)})])
    f2 = hk_circle_atlas([hk_point("b", (0, 1, 1), [1, 1], {(0,): cr(1)})])
    r1 = reduce_hk_circle(f1).raw_coefficient
    r2 = reduce_hk_circle(f2).raw_coefficient
    assert rep2.raw_coefficient == r1 * r2


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_torus_rank1_degenerates_to_circle_bitwise(seed):
    a = builtin_atlas("hk_synthetic", seed=seed)
    rc = reduce_hk_circle(a)
    rt = reduce_hk_torus(a)
    assert rc.canonical_json() == rt.canonical_json()
    assert rc.path != rt.path


small_crs = st.builds(
    lambda a, b, d: ComplexRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(1, 4),
)
#: raw contributions trusted at least through y^-2, where both routes read
raw_series = st.builds(
    lambda terms, trunc: LaurentSeries(("y",), terms, (trunc,)),
    st.dictionaries(st.tuples(st.integers(-6, 4)), small_crs, max_size=6),
    st.one_of(st.none(), st.integers(-2, 4)),
)


@given(st.integers(0, 200), st.one_of(st.none(), raw_series))
@settings(max_examples=30, deadline=None)
def test_even_part_route_matches_direct_bitwise(seed, raw):
    """Both routes give the same bytes in both eta modes, also with a raw
    point beside the structured ones."""
    a = builtin_atlas("hk_synthetic", seed=seed)
    if raw is not None:
        point = FixedPointDatum(
            name="raw",
            moment=(Fraction(0),),
            weights=(),
            eta=LaurentSeries.const(("y",), 1),
            moment_hk=((Fraction(1), Fraction(0), Fraction(2)),),
            mode="raw",
            raw_contribution=raw,
        )
        a = replace(a, fixed_points=a.fixed_points + (point,))
        validate_atlas(a)
    for eta_mode in ("atlas", "one"):
        direct = reduce_hk_circle(a, eta_mode=eta_mode)
        via = reduce_hk_circle_viaP(a, eta_mode=eta_mode)
        assert direct.canonical_json() == via.canonical_json()


def test_even_part_route_on_quartic_point():
    direct = reduce_hk_circle(hk_point_atlas())
    via = reduce_hk_circle_viaP(hk_point_atlas())
    assert via.raw_coefficient == cr(0, 2)
    assert direct.canonical_json() == via.canonical_json()


def unit_weight_hk_atlas(n):
    """One hyperkahler circle point with n unit weights: the even-part route
    expands its numerator through y^(n-2), (n - 1)(n - 2) coefficient
    updates, so n = 708 fits SERIES_WORK_BUDGET and n = 710 does not."""
    return hk_circle_atlas([hk_point("p", (1, 0, 0), [1] * n, {(0,): cr(1)})], dim_m=4 * n)


def pad_with_unit_weights(atlas, k):
    """The atlas with k more unit weights at every fixed point (and dim_M
    grown to match), so its series work at the y^-2 read rises with k."""
    return replace(
        atlas,
        dim_m=atlas.dim_m + 4 * k,
        dim_quotient=atlas.dim_quotient + 4 * k,
        fixed_points=tuple(
            replace(fp, weights=fp.weights + ((1,),) * k) for fp in atlas.fixed_points
        ),
    )


@pytest.mark.parametrize("name", ["hk_point", "hk_synthetic(1)", "hk_synthetic(7)"])
def test_even_part_route_at_the_series_budget_matches_direct(name):
    """Padded to the most unit weights the exact series budget allows, the
    even-part route still gives the direct read's bytes; one more weight is
    refused, and the direct read, which expands no series, still answers."""
    base = builtin_atlas(name)
    k = 0
    while series_work(pad_with_unit_weights(base, k + 1), (-2,)) <= SERIES_WORK_BUDGET:
        k += 1
    assert k > 100
    a = pad_with_unit_weights(base, k)
    validate_atlas(a)
    assert reduce_hk_circle_viaP(a).canonical_json() == reduce_hk_circle(a).canonical_json()
    a = pad_with_unit_weights(base, k + 1)
    with pytest.raises(ValidationError) as exc:
        reduce_hk_circle_viaP(a)
    assert exc.value.context["work"] == series_work(a, (-2,)) > SERIES_WORK_BUDGET
    assert exc.value.context["max_order"] < -2
    reduce_hk_circle(a)


def test_even_part_route_budget_refusal_names_the_fitting_order():
    a = unit_weight_hk_atlas(710)
    with pytest.raises(ValidationError) as exc:
        reduce_hk_circle_viaP(a)
    assert exc.value.context == {"work": 501_972, "budget": SERIES_WORK_BUDGET, "max_order": -4}
    assert not reduce_hk_circle(a).raw_coefficient.is_zero()


def test_odd_eta_killed_by_even_projector_both_routes():
    a = hk_circle_atlas([hk_point("p", (1, 0, 0), [1, 1], {(1,): cr(4)})])
    assert reduce_hk_circle(a).raw_coefficient == cr(0)
    assert reduce_hk_circle_viaP(a).raw_coefficient == cr(0)


@given(st.integers(0, 150), st.sampled_from([2, 3, Fraction(1, 2), Fraction(-3, 2)]))
@settings(max_examples=25, deadline=None)
def test_engines_linear_in_eta(seed, c):
    a = builtin_atlas("hk_synthetic", seed=seed)
    scaled = replace(
        a,
        fixed_points=tuple(
            replace(fp, eta=fp.eta.scale(Fraction(c))) for fp in a.fixed_points
        ),
    )
    assert reduce_hk_circle(scaled).raw_coefficient == reduce_hk_circle(
        a
    ).raw_coefficient * cr(Fraction(c))


def test_eta_mode_one_probe():
    a = hk_circle_atlas([hk_point("p", (1, 0, 0), [1, 2], {(0,): cr(3)})])
    rep = reduce_hk_circle(a, eta_mode="one")
    assert rep.raw_coefficient == cr(Fraction(1, 2))
    assert rep.eta_mode == "one"
    for reduce in (reduce_hk_circle, reduce_hk_circle_viaP):
        with pytest.raises(ValidationError):
            reduce(a, eta_mode="bogus")


# -- closed-form read against the series path -----------------------------


def test_mixed_weight_rejected_naming_point_and_weight():
    base = hk_torus_rank2_atlas()
    fp = replace(
        base.fixed_points[0], weights=((1, 1), (1, 0), (0, 1), (1, -1))
    )
    atlas = replace(base, fixed_points=(fp,))
    with pytest.raises(ValidationError, match="mixed weights are not supported yet"):
        validate_atlas(atlas)
    # the engines do not validate again: an atlas built in code meets the
    # read-time refusal
    with pytest.raises(NonInvertibleError) as info:
        reduce_hk_torus(atlas)
    assert "'product'" in info.value.message
    assert "(1, 1)" in info.value.message
    assert info.value.context == {"point": "product", "weight": (1, 1)}


@pytest.mark.parametrize(
    "build, index, weight",
    [
        (sphere_atlas, 0, ()),
        (sphere_atlas, 0, (0, 1)),
        (sphere_atlas, 0, (0,)),
        (sphere_atlas, 1, (0, 1)),
        (sphere_atlas, 1, (0,)),
        (hk_point_atlas, 0, (1, 0)),
        (hk_torus_rank2_atlas, 0, (1,)),
        (hk_torus_rank2_atlas, 0, (1, 0, 0)),
        (hk_torus_rank2_atlas, 0, (0, 0)),
        (hk_torus_rank2_atlas, 0, (1, -1)),
        (product_of_spheres_atlas, 0, (1,)),
        (product_of_spheres_atlas, 0, (0, 1, 0)),
        (product_of_spheres_atlas, 0, (1, 1)),
    ],
    ids=[
        "S2-short", "S2-long", "S2-zero", "S2-south-long", "S2-south-zero",
        "hk_point-long", "hk_rank2-short", "hk_rank2-long", "hk_rank2-zero",
        "hk_rank2-mixed", "S2xS2-short", "S2xS2-long", "S2xS2-mixed",
    ],
)
def test_every_reader_refuses_a_malformed_weight_alike(build, index, weight):
    """An atlas built in code skips validation.  A wrong-length, zero or
    mixed first weight at one point gets the same refusal with the same
    context from the closed-form read, the series path, each engine that
    takes the rank and the oracle: at a point that every reader selects,
    and at the sphere's south pole, which the symplectic engines do not
    select but still read."""
    from eqloc.oracle import oracle_comparison

    atlas = build()
    k, hk = atlas.group.rank, atlas.geometry == "hyperkahler"
    report = (reduce_hk_torus if hk else reduce_symplectic_torus)(atlas)
    points = list(atlas.fixed_points)
    fp = replace(points[index], weights=(weight,) + points[index].weights[1:])
    points[index] = fp
    bad = replace(atlas, fixed_points=tuple(points))
    target = (-2 if hk else -1,) * k
    reads = [
        lambda: point_coeff(bad, fp, "atlas", target),
        lambda: localize(bad, phase_factory(), target),
        lambda: oracle_comparison(report, bad),
    ]
    engines = [reduce_hk_torus] if hk else [reduce_symplectic_torus]
    if k == 1:
        engines += [reduce_hk_circle, reduce_hk_circle_viaP] if hk else [reduce_symplectic_circle]
    reads += [lambda engine=engine: engine(bad) for engine in engines]
    refusals = []
    for read in reads:
        with pytest.raises(EqlocError) as info:
            read()
        refusals.append((type(info.value), info.value.message, info.value.context))
    if len(weight) != k:
        error, context = VariableMismatchError, {"point": fp.name, "weight": weight, "rank": k}
    else:
        error = NonInvertibleError if any(weight) else ValidationError
        context = {"point": fp.name, "weight": weight}
    assert refusals[0][0] is error and refusals[0][2] == context
    assert refusals == refusals[:1] * len(reads)


@st.composite
def product_atlases(draw):
    """Valid rank 1-3 atlases whose tangent weights each involve one
    variable, with signed weights, mixed moment signs (symplectic) and eta
    exponents past the pole order, so some eta terms cannot contribute."""
    k = draw(st.integers(1, 3))
    geometry = draw(st.sampled_from(["symplectic", "hyperkahler"]))
    hk = geometry == "hyperkahler"
    variables = tuple(f"y{v + 1}" for v in range(k))
    n_weights = 2 * draw(st.integers(k, 4)) if hk else draw(st.integers(k, 7))
    small = st.integers(-3, 3)
    nonzero = small.filter(bool)
    rational = st.builds(Fraction, small, st.integers(1, 2))
    points = []
    for j in range(draw(st.integers(1, 3))):
        # mostly at least one weight per variable, else that variable has no
        # pole and the point reads 0
        cover = draw(st.integers(0, 3)) > 0
        weights = []
        for i in range(n_weights):
            w = [0] * k
            v = i if cover and i < k else draw(st.integers(0, k - 1))
            w[v] = draw(nonzero)
            weights.append(tuple(w))
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = tuple(draw(st.integers(0, n_weights + 1)) for _ in range(k))
            terms[exps] = ComplexRational(draw(rational), draw(rational))
        if hk:
            moment = (Fraction(0),) * k
            moment_hk = tuple(
                draw(st.tuples(rational, rational, rational).filter(any))
                for _ in range(k)
            )
        else:
            moment = tuple(
                Fraction(draw(nonzero), draw(st.integers(1, 2))) for _ in range(k)
            )
            moment_hk = None
        points.append(
            FixedPointDatum(
                name=f"fp{j}",
                moment=moment,
                weights=tuple(weights),
                eta=LaurentSeries(variables, terms),
                moment_hk=moment_hk,
            )
        )
    dim_m = 2 * n_weights
    dim_quotient = dim_m - (4 if hk else 2) * k
    a = FixedPointAtlas(
        group=GroupSpec.torus(k),
        geometry=geometry,
        dim_m=dim_m,
        dim_quotient=dim_quotient,
        deg_eta0=draw(st.integers(0, dim_quotient)),
        variable_order=variables,
        fixed_points=tuple(points),
    )
    validate_atlas(a)
    return a


@given(product_atlases(), st.sampled_from(["atlas", "one"]))
@settings(max_examples=60, deadline=None)
def test_closed_form_read_matches_series_path(atlas, eta_mode):
    hk = atlas.geometry == "hyperkahler"
    reduce = reduce_hk_torus if hk else reduce_symplectic_torus
    rep = reduce(atlas, eta_mode=eta_mode)
    target = (-2 if hk else -1,) * atlas.group.rank
    series = localize(atlas, phase_factory(eta_mode), target)
    for p in rep.contributions:
        want = series.contribution(p.name).coefficient(target)
        assert p.coefficient == (want if p.selected else cr(0))


def cpn_product(a1, xi1, a2, xi2):
    """CP^n1 x CP^n2 with eta = 1: the circle acts on CP^n through the
    distinct ints a_0..a_n, and its fixed point e_j has moment a_j - xi and
    weights a_i - a_j for i != j.  Each factor's localization sum is entire,
    as on any closed manifold, so at regular levels xi the quotient integral
    is the same in every basis."""
    factors = [
        [(aj - xi, [ai - aj for ai in a if ai != aj]) for aj in a]
        for a, xi in ((a1, Fraction(xi1)), (a2, Fraction(xi2)))
    ]
    variables = ("y1", "y2")
    one = LaurentSeries.const(variables, 1)
    points = [
        FixedPointDatum(
            name=f"p{j1}_{j2}",
            moment=(m1, m2),
            weights=tuple((x, 0) for x in w1) + tuple((0, x) for x in w2),
            eta=one,
        )
        for (j1, (m1, w1)), (j2, (m2, w2)) in itertools.product(*map(enumerate, factors))
    ]
    dim_m = 2 * len(points[0].weights) + 4
    return FixedPointAtlas(
        group=GroupSpec.torus(2),
        geometry="symplectic",
        dim_m=dim_m,
        dim_quotient=dim_m - 4,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=tuple(points),
    )


@st.composite
def cpn_products(draw):
    """cpn_product with n1, n2 in 1..3, each a in -3..3 and each xi not an
    integer, so no moment component is 0."""
    args = []
    for _ in range(2):
        n = draw(st.integers(1, 3))
        args.append(draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1, unique=True)))
        den = draw(st.integers(2, 4))
        args.append(Fraction(draw(st.integers(-3 * den, 3 * den).filter(lambda x: x % den)), den))
    return cpn_product(*args)


#: S^2 x S^2 at xi = (1/3, 1/4)
S2_S2 = cpn_product((0, 1), Fraction(1, 3), (0, 1), Fraction(1, 4))

#: integer bases of the rank-2 torus with entries in -2..2 and determinant 1
#: (determinant -1 waits for its sign convention)
DET1_BASES = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
    if a * d - b * c == 1
]


def change_basis(atlas, b):
    """The atlas with b applied to every weight and moment (eta is 1)."""

    def apply(v):
        return tuple(row[0] * v[0] + row[1] * v[1] for row in b)

    points = tuple(
        replace(fp, moment=apply(fp.moment), weights=tuple(map(apply, fp.weights)))
        for fp in atlas.fixed_points
    )
    return replace(atlas, fixed_points=points)


@given(cpn_products(), st.sampled_from(DET1_BASES))
@settings(max_examples=80, deadline=None)
@example(S2_S2, ((-2, -1), (1, 0)))  # read raw 0 before mixed weights were refused
@example(S2_S2, ((0, -1), (1, 0)))
@example(S2_S2, ((0, 1), (-1, 0)))
@example(S2_S2, ((-1, 0), (0, -1)))
def test_basis_change_is_refused_or_reads_the_same(atlas, b):
    """A unimodular change of basis does not change the quotient integral:
    the changed atlas is refused at validation (a weight became mixed, or a
    moment component 0), or it reads the standard basis's raw coefficient."""
    validate_atlas(atlas)
    want = reduce_symplectic_torus(atlas).raw_coefficient
    changed = change_basis(atlas, b)
    try:
        validate_atlas(changed)
    except ValidationError:
        return
    assert reduce_symplectic_torus(changed).raw_coefficient == want


@st.composite
def wide_product_atlases(draw):
    """Rank 1-3 atlases with an odd number of negative weights at every point
    (Euler constant c < 0), moment values with denominators up to 9 and
    numerators up to 10^20, eta coefficients whose parts have unlike
    denominators, and now and then a weight involving two variables, which
    ``validate_atlas`` refuses and the closed-form read refuses again."""
    k = draw(st.integers(1, 3))
    geometry = draw(st.sampled_from(["symplectic", "hyperkahler"]))
    hk = geometry == "hyperkahler"
    variables = tuple(f"y{v + 1}" for v in range(k))
    n_weights = 2 * draw(st.integers(k, 4)) if hk else draw(st.integers(k, 7))
    big = st.integers(-(10**20), 10**20)
    rational = st.builds(Fraction, big, st.integers(1, 9))
    nonzero = st.builds(Fraction, big.filter(bool), st.integers(1, 9))
    points = []
    for j in range(draw(st.integers(1, 3))):
        weights = []
        for i in range(n_weights):
            w = [0] * k
            v = i if i < k else draw(st.integers(0, k - 1))
            w[v] = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
            weights.append(w)
        if sum(x < 0 for w in weights for x in w) % 2 == 0:
            v = next(v for v, x in enumerate(weights[0]) if x)
            weights[0][v] = -weights[0][v]
        if k > 1 and draw(st.integers(0, 9)) == 0:
            weights[-1][weights[-1].index(0)] = 1  # no monomial e(y)
        # mostly exponents j that meet the target, pole + target - j a
        # multiple of the phase degree, so that several terms add up over
        # unlike denominators; else any exponent up to one past the pole
        poles = [sum(1 for w in weights if w[v]) for v in range(k)]
        step = 2 if hk else 1
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            exps = []
            for pole in poles:
                j_v = pole - step - step * draw(st.integers(0, 2))
                if j_v < 0 or draw(st.integers(0, 4)) == 0:
                    j_v = draw(st.integers(0, pole + 1))
                exps.append(j_v)
            terms[tuple(exps)] = ComplexRational(
                Fraction(draw(big), draw(st.integers(1, 9))),
                Fraction(draw(big), draw(st.integers(1, 9))),
            )
        if hk:
            moment = (Fraction(0),) * k
            moment_hk = tuple(
                draw(st.tuples(rational, rational, rational).filter(any))
                for _ in range(k)
            )
        else:
            moment = tuple(draw(nonzero) for _ in range(k))
            moment_hk = None
        points.append(
            FixedPointDatum(
                name=f"fp{j}",
                moment=moment,
                weights=tuple(map(tuple, weights)),
                eta=LaurentSeries(variables, terms),
                moment_hk=moment_hk,
            )
        )
    dim_m = 2 * n_weights
    dim_quotient = dim_m - (4 if hk else 2) * k
    a = FixedPointAtlas(
        group=GroupSpec.torus(k),
        geometry=geometry,
        dim_m=dim_m,
        dim_quotient=dim_quotient,
        deg_eta0=draw(st.integers(0, dim_quotient)),
        variable_order=variables,
        fixed_points=tuple(points),
    )
    if any(len(w) - w.count(0) > 1 for fp in points for w in fp.weights):
        with pytest.raises(ValidationError, match="mixed weights are not supported yet"):
            validate_atlas(a)
    else:
        validate_atlas(a)
    return a


def fraction_point_coeff(atlas, fp, eta_mode, target):
    """The closed-form read summed in Fraction arithmetic, with its own
    squared moment lengths: the reference for the int-triple sum."""
    c, n = monomial_euler_class(fp, len(target))
    if atlas.geometry == "hyperkahler":
        freqs = [sum(x * x for x in vec) for vec in fp.moment_hk]
    else:
        freqs = fp.moment
    if eta_mode == "one":
        eta_terms = {(0,) * len(target): ComplexRational.one()}
    else:
        eta_terms = fp.eta.terms
    s = 2 if atlas.geometry == "hyperkahler" else 1
    re = im = Fraction(0)
    for j, eta_j in eta_terms.items():
        q = Fraction(1)
        i_pow = 0
        for n_v, e_v, j_v, f in zip(n, target, j, freqs):
            d = n_v + e_v - j_v
            if d < 0 or d % s:
                break
            m = d // s
            q = q * f**m / math.factorial(m)
            i_pow += m
        else:
            a, b = eta_j.re * q, eta_j.im * q
            for _ in range(i_pow % 4):
                a, b = -b, a
            re += a
            im += b
    return ComplexRational(re / c, im / c)


def outcome(fn, *args):
    """("value", fn(*args)), or ("error", the class of what it raised)."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "error", type(exc)


@given(wide_product_atlases())
@settings(max_examples=80, deadline=None)
def test_closed_form_read_matches_series_and_fraction_reference(atlas):
    hk = atlas.geometry == "hyperkahler"
    target = (-2 if hk else -1,) * atlas.group.rank
    for eta_mode, fp in itertools.product(("atlas", "one"), atlas.fixed_points):
        got = outcome(point_coeff, atlas, fp, eta_mode, target)
        assert got == outcome(fraction_point_coeff, atlas, fp, eta_mode, target)
        if got[0] == "value":
            single = replace(atlas, fixed_points=(fp,))
            series = localize(single, phase_factory(eta_mode), target)
            assert got[1] == series.contribution(fp.name).coefficient(target)
        else:
            assert got[1] is NonInvertibleError


def test_reduce_path_reads_no_fraction_parts(monkeypatch):
    """Parse, reduce and write on the reduce path keep coefficients as int
    triples: none of them reads ComplexRational.re or .im."""
    cases = [
        (builtin_atlas("hk_synthetic", 1), (reduce_hk_circle, reduce_hk_circle_viaP)),
        (builtin_atlas("hk_torus_rank2"), (reduce_hk_torus,)),
        (builtin_atlas("mirror_pair", 3), (reduce_symplectic_torus,)),
    ]
    texts = [serialize_atlas(a) for a, _ in cases]

    def refuse(self):
        raise AssertionError("a Fraction part of a coefficient was read")

    monkeypatch.setattr(ComplexRational, "re", property(refuse))
    monkeypatch.setattr(ComplexRational, "im", property(refuse))
    for text, (_, reducers) in zip(texts, cases):
        atlas = parse_atlas(text)
        assert serialize_atlas(atlas) == text
        for reduce in reducers:
            assert reduce(atlas).canonical_json()


# -- variable-order permutation -----------------------------------------


def test_permuted_extraction_order_same_raw():
    a = hk_torus_rank2_atlas()
    b = permute_atlas_variables(a, ("y2", "y1"))
    validate_atlas(b)
    ra = reduce_hk_torus(a)
    rb = reduce_hk_torus(b)
    assert ra.raw_coefficient == rb.raw_coefficient
    assert rb.variable_order == ("y2", "y1")
    with pytest.raises(ValidationError):
        permute_atlas_variables(a, ("y1", "z"))


def test_permuted_symplectic_torus():
    a = product_of_spheres_atlas()
    b = permute_atlas_variables(a, ("y2", "y1"))
    assert (
        reduce_symplectic_torus(a).raw_coefficient
        == reduce_symplectic_torus(b).raw_coefficient
    )


# -- Weyl wrapper --------------------------------------------------------


def test_weyl_product_shapes():
    assert weyl_product(("y",), SU2_ROOTS).canonical_text() == "(2,0) y^1"
    assert weyl_product(("y1", "y2"), U2_ROOTS).canonical_text() == "(-1,0) y2^1 + (1,0) y1^1"
    with pytest.raises(ValidationError):
        weyl_product(("y",), U2_ROOTS)
    with pytest.raises(ValidationError):
        weyl_product(("y",), RootSystemData(((0,),), 1))


def su2_quartic_atlas():
    fp = FixedPointDatum(
        name="origin",
        moment=(Fraction(0),),
        weights=((1,), (1,), (1,), (1,)),
        eta=LaurentSeries.const(("y",), 1),
        moment_hk=((Fraction(1), Fraction(0), Fraction(0)),),
    )
    a = FixedPointAtlas(
        group=group_spec("SU(2)"),
        geometry="hyperkahler",
        dim_m=16,
        dim_quotient=4,
        deg_eta0=0,
        variable_order=("y",),
        fixed_points=(fp,),
    )
    validate_atlas(a)
    return a


def test_weyl_trivial_is_identity():
    trivial = RootSystemData((), 1)
    a = builtin_atlas("hk_synthetic", seed=3)
    assert weyl_wrap(a, trivial) == reduce_hk_torus(a)
    assert weyl_wrap(sphere_atlas(), trivial) == reduce_symplectic_torus(sphere_atlas())


def test_weyl_su2_insertion():
    rep = weyl_wrap(su2_quartic_atlas())
    assert rep.inserted_polynomial == "(16,0) y^4"
    assert rep.weyl_divisor == 2
    assert rep.raw_coefficient == cr(0)
    assert rep.quotient_integral.coeff == cr(0)
    assert rep.degree_factor == 5


def test_weyl_matches_hand_composed_pipeline():
    a = su2_quartic_atlas()
    wrapped = weyl_wrap(a)
    insert = LaurentSeries.monomial(("y",), (4,), 16)
    manual_atlas = replace(
        a,
        fixed_points=tuple(
            replace(fp, eta=fp.eta * insert) for fp in a.fixed_points
        ),
    )
    manual = reduce_hk_torus(manual_atlas)
    assert wrapped.raw_coefficient == manual.raw_coefficient * cr(Fraction(1, 2))
    assert wrapped.quotient_integral.coeff == manual.quotient_integral.coeff * cr(
        Fraction(1, 2)
    )


@given(st.integers(0, 120))
@settings(max_examples=15, deadline=None)
def test_weyl_pipeline_on_seeded_atlases(seed):
    base = builtin_atlas("hk_synthetic", seed=seed)
    a = replace(base, group=group_spec("SU(2)"), dim_m=base.dim_m + 8)
    validate_atlas(a)
    wrapped = weyl_wrap(a)
    insert = LaurentSeries.monomial(("y",), (4,), 16)
    manual_atlas = replace(
        a,
        fixed_points=tuple(
            replace(fp, eta=fp.eta * insert) for fp in a.fixed_points
        ),
    )
    manual = reduce_hk_torus(manual_atlas)
    assert wrapped.raw_coefficient == manual.raw_coefficient * cr(Fraction(1, 2))
    assert wrapped.degree_factor == manual.degree_factor


def test_weyl_u2_rank2():
    # pole y1^4 y2^4: the (-2,-2) read picks the y1^2y2^2 term of
    # (y1-y2)^4 * exp(...), namely 6 * 1, then the Weyl order halves it
    fp = FixedPointDatum(
        name="deep",
        moment=(Fraction(0), Fraction(0)),
        weights=((1, 0),) * 4 + ((0, 1),) * 4,
        eta=LaurentSeries.const(("y1", "y2"), 1),
        moment_hk=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(1)),
        ),
    )
    a = FixedPointAtlas(
        group=group_spec("U(2)"),
        geometry="hyperkahler",
        dim_m=16,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=("y1", "y2"),
        fixed_points=(fp,),
    )
    validate_atlas(a)
    rep = weyl_wrap(a)
    assert rep.weyl_divisor == 2
    assert rep.raw_coefficient == cr(3)
    assert rep.quotient_integral.coeff == cr(3)
    assert abs(rep.quotient_integral.numeric() - 3 / (288 * math.pi**4)) < 1e-18
    assert "y1^2 y2^2" in rep.inserted_polynomial


def test_weyl_requires_roots_and_hk():
    with pytest.raises(ValidationError):
        weyl_wrap(sphere_atlas())
    with pytest.raises(ValidationError):
        weyl_wrap(sphere_atlas(), SU2_ROOTS)
    with pytest.raises(ValidationError):
        weyl_wrap(su2_quartic_atlas(), RootSystemData(((2,),), 0))


def _huge_torus_read():
    from eqloc.oracle import torus_mean

    torus_mean(lambda zs: zs[0] * zs[1], (1.0, 1.0), (0, 0), reach=1024)


@pytest.mark.parametrize(
    "refusal, keys",
    [
        (lambda: resolve_profile("nope"), {"profile"}),
        (lambda: resolve_profile(3), {"profile"}),
        (
            lambda: reduce_hk_circle_viaP(unit_weight_hk_atlas(710)),
            {"work", "budget", "max_order"},
        ),
        (lambda: reduce_hk_circle(sphere_atlas()), {"geometry", "expected"}),
        (lambda: reduce_hk_circle(hk_torus_rank2_atlas()), {"rank", "expected"}),
        (lambda: reduce_hk_circle_viaP(hk_torus_rank2_atlas()), {"rank", "expected"}),
        (lambda: weyl_product(("y",), RootSystemData(((1, 2),), 2)), {"root", "rank"}),
        (lambda: weyl_product(("y",), RootSystemData(((0,),), 2)), {"root"}),
        (lambda: weyl_wrap(su2_quartic_atlas(), RootSystemData(((2,),), 0)), {"weyl_order"}),
        (lambda: weyl_wrap(sphere_atlas(), SU2_ROOTS), {"geometry"}),
        (_huge_torus_read, {"nodes", "budget"}),
    ],
)
def test_refusals_name_their_values(refusal, keys):
    """Each refusal that names a value passes it as context; messages and
    slugs are unchanged."""
    with pytest.raises(EqlocError) as err:
        refusal()
    assert set(err.value.context) == keys
    assert err.value.slug in ("validation", "quadrature")


# -- reports -------------------------------------------------------------


def test_report_json_shapes():
    rep = reduce_symplectic_circle(sphere_atlas())
    doc = rep.to_json_dict()
    assert doc["path"] == "symplectic_circle"
    canon = json.loads(rep.canonical_json())
    assert "path" not in canon
    assert canon["raw_coefficient"] == {"re": [1, 1], "im": [0, 1]}
    assert canon["profile"]["name"] == "default"
    assert canon["quotient_integral"]["numeric"][0] == pytest.approx(
        1 / (4 * math.pi**2), rel=1e-15
    )
    assert rep.canonical_json().endswith("\n")


def test_report_invariant_quotient_equals_prefactor_times_raw():
    for rep in (
        reduce_symplectic_circle(sphere_atlas()),
        reduce_hk_circle(hk_point_atlas()),
        weyl_wrap(su2_quartic_atlas()),
    ):
        lhs = rep.quotient_integral.numeric() * rep.degree_factor
        rhs = rep.prefactor.numeric_value() * complex(rep.raw_coefficient)
        assert abs(lhs - rhs) < 1e-15


def test_table_text_renders():
    rep = reduce_symplectic_circle(sphere_atlas())
    txt = rep.table_text()
    assert "raw coefficient" in txt
    assert "north" in txt
    txt2 = weyl_wrap(su2_quartic_atlas()).table_text()
    assert "inserted" in txt2
