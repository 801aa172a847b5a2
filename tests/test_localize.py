"""Localization sums: frozen small examples plus structural properties.

Frozen values below are worked by hand.  For the two-point circle atlas the
phase-weighted sum telescopes to (e^{iy} - e^{-iy}) / y = 2i sin(y)/y, whose
Taylor coefficients at y^0, y^2, y^4, y^6 are 2i, -i/3, i/60, -i/2520.
"""

import importlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    builtin_atlas,
    hk_point_atlas,
    hk_torus_rank2_atlas,
    sphere_atlas,
    validate_atlas,
)
from eqloc.errors import NonInvertibleError, ValidationError, VariableMismatchError
from eqloc.exact import ComplexRational, LaurentSeries
from eqloc.localize import (
    SERIES_WORK_BUDGET,
    euler_class,
    localize,
    phase_covector,
    phase_factory,
    restriction_factory,
    series_work,
)


def cr(re, im=0):
    return ComplexRational.of(Fraction(re), Fraction(im))


def test_euler_class_products():
    fp = sphere_atlas().fixed_points[0]
    assert euler_class(fp, ("y",)) == LaurentSeries.monomial(("y",), (1,))
    two = replace(fp, weights=((1,), (2,)))
    assert euler_class(two, ("y",)) == LaurentSeries.monomial(("y",), (2,), 2)
    none = replace(fp, weights=())
    assert euler_class(none, ("y",)) == LaurentSeries.const(("y",), 1)
    with pytest.raises(ValidationError):
        euler_class(replace(fp, weights=((0,),)), ("y",))


def reference_euler_class(fp, variables) -> LaurentSeries:
    """The product of series objects that euler_class multiplies out in
    integers: one general product per linear form."""
    e = LaurentSeries.const(variables, 1)
    for w in fp.weights:
        if all(x == 0 for x in w):
            raise ValidationError("zero tangent weight")
        e = e * LaurentSeries.linear_form(variables, w)
    return e


@st.composite
def weight_lists(draw):
    """Rank 1-3 tangent weights with entries in -3..3, mixed ones such as
    (1, -1) included, one-variable ones drawn as often as the rest; now and
    then a zero or wrong-length weight."""
    k = draw(st.integers(1, 3))
    weight = st.tuples(*([st.integers(-3, 3)] * k))
    one_variable = st.builds(
        lambda v, x: tuple(x if u == v else 0 for u in range(k)),
        st.integers(0, k - 1),
        st.integers(-3, 3).filter(bool),
    )
    weights = draw(st.lists(st.one_of(one_variable, weight.filter(any)), max_size=6))
    bad = draw(st.sampled_from([None, None, None, (0,) * k, (1,) * (k + 1)]))
    if bad is not None:
        weights.insert(draw(st.integers(0, len(weights))), bad)
    return k, tuple(weights)


@given(weight_lists())
@settings(max_examples=200, deadline=None)
@example((2, ((1, 0), (1, -1), (0, 2), (1, 1))))  # the yz terms cancel
@example((2, ((2, 0), (0, -1), (1, 1), (1, 0), (0, 3))))
@example((3, ((0, 0, -2), (1, 1, 0), (1, 0, 0), (0, 1, -1), (0, 0, 3))))
@example((3, ((1, 0, 0), (0, 1, 1), (0, 0, 0))))  # zero weight after a mixed one
@example((2, ((0, 1), (1, -1), (1,))))  # short weight after a mixed one
def test_euler_class_matches_series_product(case):
    k, weights = case
    fp = replace(sphere_atlas().fixed_points[0], weights=weights)
    variables = ("y", "z", "w")[:k]
    try:
        expected = reference_euler_class(fp, variables)
    except (ValidationError, VariableMismatchError) as exc:
        with pytest.raises(type(exc)):
            euler_class(fp, variables)
        return
    got = euler_class(fp, variables)
    assert got == expected
    assert got.trunc == (None,) * k
    assert all(type(c) is ComplexRational and c for c in got.terms.values())


def test_phase_covector_by_geometry():
    sph = sphere_atlas()
    assert phase_covector(sph, sph.fixed_points[0]) == (Fraction(1),)
    hk = hk_point_atlas()
    assert phase_covector(hk, hk.fixed_points[0]) == (Fraction(2),)
    rank2 = hk_torus_rank2_atlas()
    assert phase_covector(rank2, rank2.fixed_points[0]) == (Fraction(1), Fraction(2))


def test_sphere_no_phase_cancels_exactly():
    res = localize(sphere_atlas(), restriction_factory(), None)
    assert res.total.is_zero()
    assert res.total.trunc == (None,)
    assert res.contribution("north") == LaurentSeries.monomial(("y",), (-1,))
    assert res.contribution("south") == LaurentSeries.monomial(("y",), (-1,), -1)


def test_sphere_phase_sum_is_two_i_sinc():
    res = localize(sphere_atlas(), phase_factory(), 6)
    total = res.total
    assert not total.has_negative_exponents()
    assert total.coefficient((0,)) == cr(0, 2)
    assert total.coefficient((1,)) == cr(0)
    assert total.coefficient((2,)) == cr(0, Fraction(-1, 3))
    assert total.coefficient((3,)) == cr(0)
    assert total.coefficient((4,)) == cr(0, Fraction(1, 60))
    assert total.coefficient((6,)) == cr(0, Fraction(-1, 2520))
    north = res.contribution("north")
    assert north.coefficient((-1,)) == cr(1)
    assert north.coefficient((0,)) == cr(0, 1)
    assert north.coefficient((1,)) == cr(Fraction(-1, 2))


def test_hk_point_contribution_series():
    res = localize(hk_point_atlas(), phase_factory(), 0)
    c = res.contribution("origin")
    # exp(2iy^2) / y^4, coefficients (2i)^n / n! shifted down by 4
    assert c.coefficient((-4,)) == cr(1)
    assert c.coefficient((-3,)) == cr(0)
    assert c.coefficient((-2,)) == cr(0, 2)
    assert c.coefficient((-1,)) == cr(0)
    assert c.coefficient((0,)) == cr(-2)


def test_rank2_separable_coefficient():
    res = localize(hk_torus_rank2_atlas(), phase_factory(), (-2, -2))
    assert res.total.coefficient((-2, -2)) == cr(1)


def test_weight_scaling_divides_contribution():
    a = hk_point_atlas()
    fp = a.fixed_points[0]
    doubled = replace(a, fixed_points=(replace(fp, weights=((2,), (2,), (2,), (2,))),))
    base = localize(a, phase_factory(), 0).total
    scaled = localize(doubled, phase_factory(), 0).total
    assert scaled == base.scale(Fraction(1, 16))


def test_eta_mode_one_ignores_stored_restriction():
    a = builtin_atlas("mirror_pair", seed=11)
    probe = localize(a, phase_factory(eta_mode="one"), 2)
    stored = localize(a, phase_factory(), 2)
    # seed 11 has at least one nonconstant or nonunit eta, so the two differ
    assert probe.total != stored.total
    with pytest.raises(ValidationError):
        phase_factory(eta_mode="volume")


def test_raw_mode_contribution_is_verbatim():
    series = LaurentSeries(("y",), {(-1,): cr(0, 5), (2,): cr(3)})
    raw_point = FixedPointDatum(
        name="blob",
        moment=(Fraction(1),),
        weights=(),
        eta=LaurentSeries.const(("y",), 1),
        mode="raw",
        raw_contribution=series,
    )
    atlas = replace(sphere_atlas(), fixed_points=(raw_point,))
    validate_atlas(atlas)
    res = localize(atlas, phase_factory(), 2)
    assert res.contribution("blob") == series
    assert res.total == series


def test_mixed_weight_inverse_rejected():
    base = hk_torus_rank2_atlas()
    fp = replace(
        base.fixed_points[0], weights=((1, 1), (1, 0), (0, 1), (1, -1))
    )
    atlas = replace(base, fixed_points=(fp,))
    validate_atlas(atlas)
    with pytest.raises(NonInvertibleError):
        localize(atlas, phase_factory(), 0)


def test_order_vector_must_match_rank():
    with pytest.raises(ValidationError):
        localize(sphere_atlas(), phase_factory(), (1, 2))


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_mirror_pairs_cancel_principal_parts(seed):
    a = builtin_atlas("mirror_pair", seed=seed)
    res = localize(a, phase_factory(), 2)
    assert not res.total.has_negative_exponents()


@given(st.integers(0, 200), st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_localization_is_additive_over_points(s1, s2):
    a = builtin_atlas("mirror_pair", seed=s1)
    b = builtin_atlas("mirror_pair", seed=s2)
    renamed = tuple(replace(fp, name="b_" + fp.name) for fp in b.fixed_points)
    merged = replace(a, fixed_points=a.fixed_points + renamed)
    validate_atlas(merged)
    fa = localize(a, phase_factory(), 3).total
    fb = localize(b, phase_factory(), 3).total
    fm = localize(merged, phase_factory(), 3).total
    assert fm == fa + fb


@pytest.mark.parametrize(
    "atlas",
    [sphere_atlas(), hk_point_atlas(), hk_torus_rank2_atlas()],
    ids=["sphere_S2", "hk_point", "hk_torus_rank2"],
)
def test_work_budget_refuses_before_any_series(atlas, monkeypatch):
    """A refused request builds no series; the order named in the refusal
    fits the budget and the next one does not."""

    def no_series(*args):
        raise AssertionError("series work started")

    # the package binds the name localize to the function, not the module
    module = importlib.import_module("eqloc.localize")
    monkeypatch.setattr(module, "exp_series", no_series)
    monkeypatch.setattr(module, "invert_series", no_series)
    k = atlas.group.rank
    with pytest.raises(ValidationError, match=str(SERIES_WORK_BUDGET)) as exc:
        localize(atlas, phase_factory(), 10**6)
    top = exc.value.context["max_order"]
    assert series_work(atlas, (top,) * k) <= SERIES_WORK_BUDGET < series_work(atlas, (top + 1,) * k)
    with pytest.raises(ValidationError):
        localize(atlas, phase_factory(), top + 1)
