"""Tests for the exact coefficient arithmetic.

The expected values in the example tests were derived by hand before the
implementation existed (Taylor coefficients, partial fractions, residue
reads) and are frozen here as the oracle for the exact layer.  Product
behaviour is additionally checked against an independent naive convolution
written directly in this file.
"""

import copy
import math
import pickle
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqloc.atlas import parse_series_terms
from eqloc.errors import (
    ConstantTermError,
    InsufficientTruncationError,
    NegativeExponentError,
    NonInvertibleError,
    OddExponentError,
    VariableMismatchError,
)
from eqloc.exact import (
    ComplexRational,
    LaurentSeries,
    SymbolicConstant,
    coeff_extract,
    even_projector,
    exp_series,
    invert_series,
    series_mul,
    substitute_sqrt,
)


def cr(re, im=0):
    return ComplexRational.of(re, im)


def univar(terms, trunc=None):
    return LaurentSeries(("y",), {(e,): c for e, c in terms.items()},
                         None if trunc is None else (trunc,))


# -- ComplexRational ------------------------------------------------------


def test_complex_rational_field_ops():
    a = cr(Fraction(1, 2), 3)
    b = cr(-2, Fraction(1, 3))
    assert a + b == cr(Fraction(-3, 2), Fraction(10, 3))
    assert a - b == cr(Fraction(5, 2), Fraction(8, 3))
    # (1/2 + 3i)(-2 + i/3) = -1 + i/6 - 6i + i^2 = -2 - 35i/6
    assert a * b == cr(-2, Fraction(-35, 6))
    assert (a * b) / b == a
    assert -a == cr(Fraction(-1, 2), -3)
    assert a.conjugate() == cr(Fraction(1, 2), -3)
    assert complex(cr(1, -2)) == 1 - 2j
    assert cr(0, 0).is_zero() and not cr(0, 1).is_zero()


def test_complex_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        cr(1) / cr(0)


# Reference arithmetic on (re, im) pairs of Fractions, independent of the
# (p, q, d) representation.  Values mix small fractions (zeros, repeated
# denominators, cancellation) with wide ones.
ref_rationals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**9)),
)
ref_pairs = st.tuples(ref_rationals, ref_rationals)


def normal_form(re: Fraction, im: Fraction) -> tuple:
    """(p, q, d) of (p + iq)/d over the lcm d of the two denominators."""
    d = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)


def assert_value(x: ComplexRational, ref: tuple) -> None:
    assert (x.re, x.im) == ref
    p, q, d = x._v
    assert d > 0 and math.gcd(p, q, d) == 1
    assert x._v == normal_form(*ref)


@given(ref_pairs, ref_pairs)
@settings(max_examples=300)
def test_complex_rational_matches_fraction_pairs(a, b):
    x, y = ComplexRational(*a), ComplexRational(*b)
    (ar, ai), (br, bi) = a, b
    cases = [
        (x, a),
        (x + y, (ar + br, ai + bi)),
        (x - y, (ar - br, ai - bi)),
        (x * y, (ar * br - ai * bi, ar * bi + ai * br)),
        (-x, (-ar, -ai)),
        (x.conjugate(), (ar, -ai)),
    ]
    norm = br * br + bi * bi
    if norm:
        cases.append((x / y, ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, ref in cases:
        assert_value(got, ref)


def test_zero_has_one_representation():
    zeros = [cr(0), ComplexRational.zero(), cr(1, 2) - cr(1, 2), cr(0, 1) * cr(0),
             -cr(0), cr(Fraction(1, 3), Fraction(-5, 7)) * cr(0, 0)]
    for z in zeros:
        assert z._v == (0, 0, 1)
        assert z == ComplexRational.zero() and hash(z) == hash(ComplexRational.zero())
        assert z.is_zero() and not z


@given(ref_pairs, ref_pairs.filter(lambda b: b != (0, 0)), st.integers(1, 10**6))
def test_equal_values_are_equal_and_hash_equal(a, b, k):
    x, y = ComplexRational(*a), ComplexRational(*b)
    for other in (x * y / y, (x + y) - y, (x - y) + y, x * k / k, -(-x),
                  x.conjugate().conjugate(), ComplexRational(x.re, x.im)):
        assert other == x
        assert hash(other) == hash(x)
        assert other._v == x._v


def test_equal_values_from_different_routes():
    half = cr(Fraction(1, 2))
    assert cr(2) / cr(4) == half and hash(cr(2) / cr(4)) == hash(half)
    assert cr(1, 1) * cr(1, -1) == cr(2)
    assert cr(3, 3) / cr(6) == cr(Fraction(1, 2), Fraction(1, 2))
    assert cr(1, 1) / cr(1, 1) == ComplexRational.one()
    assert {cr(2) / cr(4), half, cr(1) - half} == {half}


@given(ref_pairs)
def test_re_im_str_round_trip(a):
    x = ComplexRational(*a)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert ComplexRational(x.re, x.im) == x
    assert str(x) == f"({a[0]},{a[1]})"
    re_text, im_text = str(x)[1:-1].split(",")
    assert ComplexRational(Fraction(re_text), Fraction(im_text)) == x
    assert complex(x) == complex(float(a[0]), float(a[1]))


def test_complex_rational_refuses_floats_and_stays_immutable():
    for bad in (lambda: ComplexRational(0.5, 0), lambda: ComplexRational(0, 1.0),
                lambda: ComplexRational.of(0.25), lambda: cr(1) + 0.5,
                lambda: cr(1) * 2.0):
        with pytest.raises(TypeError):
            bad()
    x = cr(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x._v = (1, 0, 1)
    with pytest.raises(AttributeError):
        del x._v
    assert x == cr(Fraction(1, 2), 3)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x


# -- SymbolicConstant -----------------------------------------------------


def test_symbolic_constant_normalization():
    assert SymbolicConstant(Fraction(1), sqrt2_pow=2) == SymbolicConstant(Fraction(2))
    assert SymbolicConstant(Fraction(3), sqrt2_pow=-1) == SymbolicConstant(
        Fraction(3, 2), sqrt2_pow=1
    )
    assert SymbolicConstant(Fraction(1), i_pow=7) == SymbolicConstant(
        Fraction(1), i_pow=3
    )
    assert SymbolicConstant(Fraction(0), i_pow=2, pi_pow=5) == SymbolicConstant(
        Fraction(0)
    )


def test_symbolic_constant_inverse_folds_i_and_sqrt2():
    # 1/((1/6) i pi sqrt2) = 3 sqrt2 i^3 / pi
    x = SymbolicConstant(Fraction(1, 6), i_pow=1, pi_pow=1, sqrt2_pow=1)
    assert x.inverse() == SymbolicConstant(Fraction(3), i_pow=3, pi_pow=-1, sqrt2_pow=1)
    assert (x * x.inverse()) == SymbolicConstant.one()


def test_symbolic_constant_numeric():
    x = SymbolicConstant(Fraction(-1, 24), i_pow=0, pi_pow=-2, sqrt2_pow=1)
    expect = (-1.0 / 24.0) * math.sqrt(2.0) / math.pi**2
    assert abs(x.numeric_value() - expect) <= 1e-16 * abs(expect)


@given(
    q=st.fractions(min_value=-5, max_value=5, max_denominator=12),
    a=st.integers(min_value=-6, max_value=6),
    b=st.integers(min_value=-3, max_value=3),
    c=st.integers(min_value=-3, max_value=3),
)
def test_symbolic_constant_numeric_matches_direct_float(q, a, b, c):
    x = SymbolicConstant(q, a, b, c)
    direct = float(q) * (1j**a) * (math.pi**b) * (math.sqrt(2.0) ** c)
    if direct == 0:
        assert x.numeric_value() == 0
    else:
        assert abs(x.numeric_value() - direct) <= 1e-14 * abs(direct)


# -- LaurentSeries construction and normalization -------------------------


def test_zero_coefficients_never_stored():
    s = univar({0: cr(1), 1: cr(0)})
    assert (1,) not in s.terms
    assert univar({}).is_zero()
    assert (univar({2: cr(1)}) - univar({2: cr(1)})).is_zero()


def test_terms_beyond_truncation_dropped():
    s = univar({0: cr(1), 5: cr(7)}, trunc=3)
    assert (5,) not in s.terms
    assert s.trunc == (3,)


def test_min_exponent_and_principal():
    s = univar({-3: cr(1), 2: cr(5)})
    assert s.min_exponent() == (-3,)
    assert s.principal_terms() == {(-3,): cr(1)}
    assert univar({}).min_exponent() == (0,)


def test_mismatched_variables_rejected():
    a = univar({0: cr(1)})
    b = LaurentSeries(("z",), {(0,): cr(1)})
    with pytest.raises(VariableMismatchError):
        a + b
    with pytest.raises(VariableMismatchError):
        series_mul(a, b)


# -- products -------------------------------------------------------------


def test_product_with_principal_parts():
    # (1/y + 1)(1/y - 1) = 1/y^2 - 1
    a = univar({-1: cr(1), 0: cr(1)})
    b = univar({-1: cr(1), 0: cr(-1)})
    p = series_mul(a, b)
    assert p.terms == {(-2,): cr(1), (0,): cr(-1)}


def test_product_truncation_shifts_with_monomials():
    # (1 + y trusted through y^1) * y^-1 is trusted only through y^0
    a = univar({0: cr(1), 1: cr(1)}, trunc=1)
    b = univar({-1: cr(1)})
    p = a * b
    assert p.trunc == (0,)
    assert p.terms == {(-1,): cr(1), (0,): cr(1)}
    with pytest.raises(InsufficientTruncationError):
        p.coefficient((1,))


def test_product_truncation_is_min_for_regular_series():
    a = univar({0: cr(1)}, trunc=5)
    b = univar({0: cr(1)}, trunc=3)
    assert (a * b).trunc == (3,)


# -- coefficient extraction ----------------------------------------------


def test_coeff_extract_examples():
    f = univar({-2: cr(3), 0: cr(0, 1), 4: cr(Fraction(1, 5))})
    assert coeff_extract(f, (-2,)) == cr(3)
    assert coeff_extract(f, (0,)) == cr(0, 1)
    assert coeff_extract(f, (1,)) == cr(0)
    # below the minimal exponent nothing is stored and zero is exact
    assert coeff_extract(f, (-7,)) == cr(0)


def test_coeff_extract_beyond_truncation_reports_required_order():
    f = univar({0: cr(1)}, trunc=3)
    with pytest.raises(InsufficientTruncationError) as exc:
        f.coefficient((4,))
    assert exc.value.required == 4
    assert exc.value.variable == "y"


# -- exp ------------------------------------------------------------------


def test_exp_of_iy_through_order_3():
    p = univar({1: cr(0, 1)})
    got = exp_series(p, 3)
    assert got.terms == {
        (0,): cr(1),
        (1,): cr(0, 1),
        (2,): cr(Fraction(-1, 2)),
        (3,): cr(0, Fraction(-1, 6)),
    }
    assert got.trunc == (3,)


def test_exp_of_2i_y_squared_through_order_4():
    p = univar({2: cr(0, 2)})
    got = exp_series(p, 4)
    assert got.terms == {(0,): cr(1), (2,): cr(0, 2), (4,): cr(-2)}


def test_exp_of_zero_is_one():
    assert exp_series(univar({}), 5).terms == {(0,): cr(1)}
    # trusted only below y^0, exp(0) keeps no term at all
    zero = LaurentSeries(("y", "z"), {}, (-1, None))
    assert exp_series(zero, 5) == LaurentSeries.zero(("y", "z"), (-1, 5))


def test_exp_refuses_negative_exponents_and_constants():
    with pytest.raises(NegativeExponentError):
        exp_series(univar({-1: cr(1)}), 3)
    with pytest.raises(ConstantTermError):
        exp_series(univar({0: cr(1), 1: cr(1)}), 3)


def test_exp_multivariate_mixed_terms_are_exact():
    # exp(y + z): the coefficient of y^2 z^2 is 1/(2! 2!) and requires the
    # n = 4 power even though the per-variable order is only 2.
    p = LaurentSeries(("y", "z"), {(1, 0): cr(1), (0, 1): cr(1)})
    got = exp_series(p, 2)
    assert got.coefficient((2, 2)) == cr(Fraction(1, 4))
    assert got.coefficient((1, 2)) == cr(Fraction(1, 2))


# -- even projector and sqrt substitution ---------------------------------


def test_even_projector_polynomial_example():
    f = univar({3: cr(1), 2: cr(1), 1: cr(1), 0: cr(1)})
    assert even_projector(f, "y").terms == {(2,): cr(1), (0,): cr(1)}


def test_even_projector_of_exponential():
    # even part of exp(2icz) = 1 - 2c^2 z^2 + (2/3)c^4 z^4 for c = 3/2
    c = Fraction(3, 2)
    f = exp_series(univar({1: cr(0, 2 * c)}), 4)
    got = even_projector(f, "y")
    assert got.terms == {
        (0,): cr(1),
        (2,): cr(-2 * c * c),
        (4,): cr(Fraction(2, 3) * c**4),
    }


def test_substitute_sqrt_halves_exponents():
    f = univar({-4: cr(1), 2: cr(5)})
    got = substitute_sqrt(f, "y")
    assert got.terms == {(-2,): cr(1), (1,): cr(5)}


def test_substitute_sqrt_rejects_odd_exponents():
    with pytest.raises(OddExponentError):
        substitute_sqrt(univar({1: cr(1)}), "y")


def test_substitute_sqrt_halves_truncation():
    f = univar({0: cr(1)}, trunc=5)
    assert substitute_sqrt(f, "y").trunc == (2,)
    f = univar({0: cr(1)}, trunc=6)
    assert substitute_sqrt(f, "y").trunc == (3,)


# -- residue-style reads used by the engines -----------------------------


def test_residue_reads():
    # exp(iy)/y^3: coefficient of y^-1 is the y^2 Taylor coefficient -1/2
    f = exp_series(univar({1: cr(0, 1)}), 4) * univar({-3: cr(1)})
    assert f.coefficient((-1,)) == cr(Fraction(-1, 2))
    # exp(iy)/y^2: coefficient of y^-1 is i
    g = exp_series(univar({1: cr(0, 1)}), 4) * univar({-2: cr(1)})
    assert g.coefficient((-1,)) == cr(0, 1)
    # exp(2iy^2)/y^4: coefficient of y^-2 is 2i
    h = exp_series(univar({2: cr(0, 2)}), 4) * univar({-4: cr(1)})
    assert h.coefficient((-2,)) == cr(0, 2)


# -- inversion ------------------------------------------------------------


def test_invert_monomial():
    f = univar({2: cr(3)})
    inv = invert_series(f, 0)
    assert inv.terms == {(-2,): cr(Fraction(1, 3))}


def test_invert_unit_series():
    f = univar({0: cr(1), 1: cr(1)})
    inv = invert_series(f, 3)
    assert inv.terms == {(0,): cr(1), (1,): cr(-1), (2,): cr(1), (3,): cr(-1)}
    assert (f * inv).terms == {(0,): cr(1)}


def test_invert_monomial_times_unit():
    # y^2 (2 + y): inverse starts at y^-2 / 2
    f = univar({2: cr(2), 3: cr(1)})
    inv = invert_series(f, 1)
    prod = f * inv
    assert prod.terms == {(0,): cr(1)}
    assert inv.coefficient((-2,)) == cr(Fraction(1, 2))


def test_invert_rejects_mixed_linear_form():
    f = LaurentSeries(("y", "z"), {(1, 0): cr(1), (0, 1): cr(1)})
    with pytest.raises(NonInvertibleError):
        invert_series(f, 3)


def test_invert_rejects_zero():
    with pytest.raises(NonInvertibleError):
        invert_series(univar({}), 2)


# -- canonical text and evaluation ---------------------------------------


def test_canonical_text_sorted_by_exponent():
    f = univar({2: cr(Fraction(1, 2), -3), -1: cr(0, 1)})
    assert f.canonical_text() == "(0,1) y^-1 + (1/2,-3) y^2"
    assert univar({}).canonical_text() == "0"
    two = LaurentSeries(("y", "z"), {(1, -2): cr(5)})
    assert two.canonical_text() == "(5,0) y^1 z^-2"


def test_evaluate_at_point():
    f = univar({-1: cr(2), 1: cr(0, 1)})
    z = 0.5 + 0.25j
    expect = 2.0 / z + 1j * z
    assert abs(f.evaluate({"y": z}) - expect) < 1e-14


def test_json_terms_round_trip():
    f = univar({-2: cr(Fraction(1, 3), -1), 0: cr(2, Fraction(5, 7))})
    doc = f.to_json_terms()
    back = parse_series_terms(doc, ("y",), "series")
    assert back.terms == f.terms


# -- hypothesis: algebraic laws ------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
complex_rationals = st.builds(ComplexRational.of, rationals, rationals)


def exact_series(k=1, min_exp=-4, max_exp=6, max_terms=5):
    names = ("y", "z", "w")[:k]
    exps = st.tuples(*([st.integers(min_value=min_exp, max_value=max_exp)] * k))
    return st.dictionaries(exps, complex_rationals, max_size=max_terms).map(
        lambda d: LaurentSeries(names, d)
    )


def naive_product_terms(a: LaurentSeries, b: LaurentSeries) -> dict:
    """Independent convolution oracle: no truncation, exact dict arithmetic."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, ComplexRational.zero()) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


@given(exact_series(), exact_series())
def test_mul_matches_naive_convolution(a, b):
    assert series_mul(a, b).terms == naive_product_terms(a, b)


@given(exact_series(), exact_series())
def test_mul_commutative(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(exact_series(max_terms=3), exact_series(max_terms=3), exact_series(max_terms=3))
@settings(max_examples=60)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(exact_series(max_terms=3), exact_series(max_terms=3), exact_series(max_terms=3))
@settings(max_examples=60)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(exact_series(k=2, max_terms=4), exact_series(k=2, max_terms=4))
@settings(max_examples=60)
def test_mul_matches_naive_convolution_two_vars(a, b):
    assert series_mul(a, b).terms == naive_product_terms(a, b)


def polynomials_no_const(k=1, max_deg=3):
    names = ("y", "z")[:k]
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_deg)] * k)).filter(
        lambda e: any(x > 0 for x in e)
    )
    return st.dictionaries(exps, complex_rationals, min_size=1, max_size=3).map(
        lambda d: LaurentSeries(names, d)
    )


@given(polynomials_no_const(), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_exp_times_exp_of_negation_is_one(p, order):
    prod = exp_series(p, order) * exp_series(-p, order)
    assert prod.terms == {(0,): cr(1)}


@given(polynomials_no_const(k=2, max_deg=2), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_exp_inverse_identity_two_vars(p, order):
    prod = exp_series(p, order) * exp_series(-p, order)
    assert prod.terms == {(0, 0): cr(1)}


@given(
    exact_series(max_terms=4),
    exact_series(max_terms=4),
    complex_rationals,
    complex_rationals,
    st.integers(min_value=-4, max_value=6),
)
def test_coeff_extraction_is_linear(a, b, alpha, beta, e):
    lhs = coeff_extract(a.scale(alpha) + b.scale(beta), (e,))
    rhs = alpha * coeff_extract(a, (e,)) + beta * coeff_extract(b, (e,))
    assert lhs == rhs


@given(exact_series())
def test_even_projector_idempotent_and_kills_odd(f):
    p = even_projector(f, "y")
    assert even_projector(p, "y") == p
    assert all(e[0] % 2 == 0 for e in p.terms)
    odd = f - p
    assert all(e[0] % 2 == 1 for e in odd.terms)


@given(exact_series(), exact_series(), complex_rationals, complex_rationals)
def test_even_projector_linear(a, b, alpha, beta):
    lhs = even_projector(a.scale(alpha) + b.scale(beta), "y")
    rhs = even_projector(a, "y").scale(alpha) + even_projector(b, "y").scale(beta)
    assert lhs == rhs


def unit_series(max_deg=4):
    exps = st.integers(min_value=1, max_value=max_deg).map(lambda e: (e,))
    body = st.dictionaries(exps, complex_rationals, max_size=3)
    lead = complex_rationals.filter(lambda c: not c.is_zero())
    return st.builds(
        lambda c0, d: LaurentSeries(("y",), {**d, (0,): c0}), lead, body
    )


@given(unit_series(), st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_invert_is_right_inverse(f, order):
    inv = invert_series(f, order)
    assert (f * inv).terms == {(0,): cr(1)}


# -- canonical results from the trusted construction path -----------------

VARS = ("y", "z", "w")


def assert_canonical(r: LaurentSeries) -> None:
    """r is what the validating constructor makes of its own terms, stores
    no zero coefficient and nothing beyond its truncation order."""
    assert r == LaurentSeries(r.vars, dict(r.terms), r.trunc)
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == len(r.vars)
        assert all(type(x) is int for x in e)
        assert type(c) is ComplexRational and not c.is_zero()
        assert all(t is None or x <= t for x, t in zip(e, r.trunc))


@st.composite
def truncated_pairs(draw):
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(-3, 4)] * k))
    truncs = st.tuples(*([st.none() | st.integers(-2, 5)] * k))

    def one():
        return LaurentSeries(
            VARS[:k], draw(st.dictionaries(exps, complex_rationals, max_size=5)), draw(truncs)
        )

    return one(), one()


@st.composite
def positive_polynomials(draw):
    """A rank 1-3 polynomial without constant term and an exp order."""
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * k)).filter(any)
    terms = draw(st.dictionaries(exps, complex_rationals, max_size=3))
    return LaurentSeries(VARS[:k], terms), draw(st.integers(0, 6 - k))


@st.composite
def invertible_series(draw):
    """monomial * unit at rank 1-3, and an inversion order."""
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * k)).filter(any)
    body = draw(st.dictionaries(exps, complex_rationals, max_size=3))
    lead = draw(complex_rationals.filter(bool))
    unit = LaurentSeries(VARS[:k], {**body, (0,) * k: lead})
    shift = draw(st.tuples(*([st.integers(-2, 2)] * k)))
    return unit * LaurentSeries.monomial(VARS[:k], shift), draw(st.integers(-2, 6 - k))


@given(truncated_pairs(), complex_rationals)
@settings(max_examples=150)
def test_products_and_scalings_are_canonical(ab, c):
    a, b = ab
    for r in (a * b, b * a, a.scale(c), -a, a * c):
        assert_canonical(r)


@given(positive_polynomials())
@settings(max_examples=60, deadline=None)
def test_exp_series_is_canonical(case):
    p, order = case
    assert_canonical(exp_series(p, order))
    assert_canonical(exp_series(-p, order))


@given(invertible_series())
@settings(max_examples=60, deadline=None)
def test_invert_series_is_canonical(case):
    f, order = case
    inv = invert_series(f, order)
    assert_canonical(inv)
    assert_canonical(f * inv)


def test_cancelling_product_stores_no_zero():
    # (1 + iy)(1 - iy) = 1 + y^2: the y coefficients cancel
    r = univar({0: cr(1), 1: cr(0, 1)}) * univar({0: cr(1), 1: cr(0, -1)})
    assert r.terms == {(0,): cr(1), (2,): cr(1)}
    assert_canonical(r)
    # the same with z along for the ride, truncated past the y^2 z term
    a = LaurentSeries(("y", "z"), {(0, 0): cr(1), (1, 0): cr(0, 1), (0, 1): cr(2)}, (3, 1))
    b = LaurentSeries(("y", "z"), {(0, 0): cr(1), (1, 0): cr(0, -1)}, (3, 1))
    r = a * b
    assert r.terms == {(0, 0): cr(1), (2, 0): cr(1), (0, 1): cr(2), (1, 1): cr(0, -2)}
    assert_canonical(r)


def test_cancelling_sums_in_exp_and_inverse_store_no_zero():
    # exp(y - y^2/2) = sum_n He_n(1) y^n / n!, and He_2(1) = 0: the y^2
    # contributions of the first and second powers cancel
    r = exp_series(univar({1: cr(1), 2: cr(Fraction(-1, 2))}), 4)
    assert r.terms == {(0,): cr(1), (1,): cr(1), (3,): cr(Fraction(-1, 3)),
                       (4,): cr(Fraction(-1, 12))}
    assert_canonical(r)
    # 1 / (1 + y + y^2) = (1 - y) / (1 - y^3): no y^2 or y^5 term
    r = invert_series(univar({0: cr(1), 1: cr(1), 2: cr(1)}), 6)
    assert r.terms == {(0,): cr(1), (1,): cr(-1), (3,): cr(1), (4,): cr(-1), (6,): cr(1)}
    assert_canonical(r)


# -- deep closed forms ------------------------------------------------------


def test_exp_of_iy_through_order_300():
    got = exp_series(univar({1: cr(0, 1)}), 300)
    i_powers = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    expected = {}
    for n in range(301):
        re, im = i_powers[n % 4]
        expected[(n,)] = cr(Fraction(re, math.factorial(n)), Fraction(im, math.factorial(n)))
    assert got.terms == expected
    assert got.trunc == (300,)


def test_invert_geometric_series_through_order_300():
    # 1 / (1 - a y) = sum_n a^n y^n, a^n from (Fraction, Fraction) pairs
    ar, ai = Fraction(2, 3), Fraction(-5, 7)
    got = invert_series(univar({0: cr(1), 1: -cr(ar, ai)}), 300)
    expected = {}
    re, im = Fraction(1), Fraction(0)
    for n in range(301):
        expected[(n,)] = cr(re, im)
        re, im = re * ar - im * ai, re * ai + im * ar
    assert got.terms == expected
    assert got.trunc == (300,)


# -- reference: the series-object loops exp_series and invert_series replaced


def _min_none(a, b):
    return b if a is None else a if b is None else min(a, b)


def reference_exp_series(p: LaurentSeries, orders: tuple) -> LaurentSeries:
    """sum_n p^n / n! as one series product, scaling and clip per order, for
    orders finite in every variable p involves."""
    tr = tuple(_min_none(o, t) for o, t in zip(orders, p.trunc))
    term = LaurentSeries.const(p.vars, 1, tr)
    acc = term
    n = 0
    while True:
        n += 1
        term = LaurentSeries(p.vars, (term * p).scale(Fraction(1, n)).terms, tr)
        if term.is_zero():
            return acc
        acc = acc + term


def reference_invert_series(f: LaurentSeries, orders: tuple) -> LaurentSeries:
    """1 / f for f = c y^m (1 + rest): the geometric series in -rest as one
    series product and clip per power, then a product with y^-m."""
    m = f.min_exponent()
    u = LaurentSeries(
        f.vars,
        {tuple(x - y for x, y in zip(e, m)): c for e, c in f.terms.items()},
        tuple(None if t is None else t - mm for t, mm in zip(f.trunc, m)),
    )
    c0 = u.constant_term()
    if c0.is_zero():
        raise NonInvertibleError("not a monomial times a unit")
    u_orders = tuple(None if o is None else o + mm for o, mm in zip(orders, m))
    for t, o in zip(u.trunc, u_orders):
        if t is not None and (o is None or o > t):
            raise InsufficientTruncationError("short", variable="y", requested=0, required=0)
    if len(u.terms) == 1:
        exact = all(t is None for t in u.trunc)
        inv_u = LaurentSeries.const(f.vars, cr(1) / c0, None if exact else u_orders)
    else:
        rest = (u - LaurentSeries.const(f.vars, c0, u.trunc)).scale(cr(1) / c0)
        for e in rest.terms:
            if any(x != 0 and o is None for x, o in zip(e, u_orders)):
                raise InsufficientTruncationError(
                    "unbounded", variable="y", requested=0, required=0
                )
        neg_rest = -LaurentSeries(f.vars, rest.terms, u_orders)
        term = LaurentSeries.const(f.vars, 1, u_orders)
        acc = term
        while True:
            term = LaurentSeries(f.vars, (term * neg_rest).terms, u_orders)
            if term.is_zero():
                break
            acc = acc + term
        inv_u = acc.scale(cr(1) / c0)
    out = inv_u * LaurentSeries.monomial(f.vars, tuple(-x for x in m))
    return LaurentSeries(
        f.vars, out.terms, tuple(_min_none(o, t) for o, t in zip(orders, out.trunc))
    )


def _orders(draw, involved):
    """One order per variable, None only where the series does not involve
    the variable."""
    return tuple(
        draw(st.integers(-3, 5) if v else st.none() | st.integers(-3, 5)) for v in involved
    )


@st.composite
def exp_cases(draw):
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * k)).filter(any)
    terms = draw(st.dictionaries(exps, complex_rationals, max_size=3))
    trunc = draw(st.tuples(*([st.none() | st.integers(0, 5)] * k)))
    p = LaurentSeries(VARS[:k], terms, trunc)
    involved = [any(e[v] for e in p.terms) for v in range(k)]
    orders = tuple(None if o is None else abs(o) for o in _orders(draw, involved))
    return p, orders


@st.composite
def invert_cases(draw):
    """monomial * unit at rank 1-3, with mixed signs in the unit, and
    truncations that are sometimes too short."""
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * k)).filter(any)
    body = draw(st.dictionaries(exps, complex_rationals, max_size=3))
    lead = draw(complex_rationals.filter(bool) | st.just(cr(0)))
    shift = draw(st.tuples(*([st.integers(-3, 3)] * k)))
    f = LaurentSeries(VARS[:k], {**body, (0,) * k: lead}) * LaurentSeries.monomial(
        VARS[:k], shift
    )
    trunc = draw(st.tuples(*([st.none() | st.integers(-3, 8)] * k)))
    f = LaurentSeries(f.vars, f.terms, trunc)
    involved = [any(e[v] for e in body) for v in range(k)]
    return f, draw(st.sampled_from([_orders(draw, involved), (None,) * k]))


@given(exp_cases())
@settings(max_examples=200, deadline=None)
def test_exp_series_matches_series_loop(case):
    p, orders = case
    got = exp_series(p, orders)
    expected = reference_exp_series(p, orders)
    assert got.terms == expected.terms
    assert got.trunc == expected.trunc


@given(invert_cases())
@settings(max_examples=300, deadline=None)
def test_invert_series_matches_series_loop(case):
    f, orders = case
    if f.is_zero():
        return
    try:
        expected = reference_invert_series(f, orders)
    except (NonInvertibleError, InsufficientTruncationError) as exc:
        with pytest.raises(type(exc)):
            invert_series(f, orders)
        return
    got = invert_series(f, orders)
    assert got.terms == expected.terms
    assert got.trunc == expected.trunc


# -- exp_series as a product of closed-form factors ------------------------


def power_sum_exp(p: LaurentSeries, tr: tuple) -> dict:
    """The terms of sum_n p^n / n! within tr, each p^n a product of n
    copies of p's polynomial by series_mul; stops at the first power with
    no term within tr, past which every power lies beyond it too."""
    lim = [math.inf if t is None else t for t in tr]
    poly = LaurentSeries(p.vars, p.terms)  # what p knows, as an exact polynomial
    power = LaurentSeries.const(p.vars, 1)
    total = LaurentSeries.zero(p.vars)
    n = 0
    while True:
        kept = {e: c for e, c in power.terms.items() if all(map(le, e, lim))}
        if not kept:
            return total.terms
        total = total + LaurentSeries(p.vars, kept).scale(Fraction(1, math.factorial(n)))
        power = series_mul(power, poly)
        n += 1


@st.composite
def mixed_exp_cases(draw):
    """A rank 1-3 polynomial without constant term, truncated per variable
    at None or an order from -1 up, and a target order that is one int or
    per variable, None only where p's truncation or p's independence of
    the variable leaves a bound."""
    k = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 2)] * k)).filter(any)
    terms = draw(st.dictionaries(exps, complex_rationals, max_size=4))
    trunc = draw(st.tuples(*([st.none() | st.integers(-1, 4)] * k)))
    p = LaurentSeries(VARS[:k], terms, trunc)
    if draw(st.booleans()):
        return p, draw(st.integers(0, 4))
    orders = []
    for v in range(k):
        needs_bound = trunc[v] is None and any(e[v] for e in p.terms)
        orders.append(draw(st.integers(0, 4) if needs_bound else st.none() | st.integers(0, 4)))
    return p, tuple(orders)


@given(mixed_exp_cases())
@settings(max_examples=200, deadline=None)
def test_exp_series_is_the_power_sum(case):
    p, order = case
    orders = (order,) * len(p.vars) if isinstance(order, int) else order
    tr = tuple(_min_none(o, t) for o, t in zip(orders, p.trunc))
    got = exp_series(p, order)
    assert got.trunc == tr
    assert got.terms == power_sum_exp(p, tr)
    assert_canonical(got)


@pytest.mark.parametrize(
    "p, order, error, message",
    [
        (univar({-1: cr(1), 0: cr(1)}), 3, NegativeExponentError, "nonnegative exponents"),
        (univar({1: cr(1)}), -1, NegativeExponentError, "target order must be >= 0"),
        (univar({0: cr(2), 1: cr(1)}), 3, ConstantTermError, "nonzero constant term"),
        (
            LaurentSeries(("y", "z"), {(1, 0): cr(1), (0, 1): cr(1)}),
            (2, None),
            NegativeExponentError,
            "finite truncation order in every involved variable",
        ),
    ],
)
def test_exp_series_refusals(p, order, error, message):
    """Checked before any factor is built, the first that applies: a
    negative exponent beside a constant term is refused as negative."""
    with pytest.raises(error) as err:
        exp_series(p, order)
    assert message in err.value.message
