"""Atlas model: validation invariants, canonical JSON round trips, builtins."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    RootSystemData,
    SubmanifoldRestriction,
    builtin_atlas,
    canonical_dumps,
    hk_point_atlas,
    hk_torus_rank2_atlas,
    mirror_pair_atlas,
    parse_atlas,
    parse_series_terms,
    serialize_atlas,
    sphere_atlas,
    validate_atlas,
    validate_respected,
)
from eqloc.engines import _cr_json
from eqloc.errors import ValidationError, VariableMismatchError
from eqloc.exact import ComplexRational, LaurentSeries, SymbolicConstant
from eqloc.record import replace


def test_sphere_atlas_shape():
    a = sphere_atlas()
    validate_atlas(a)
    assert a.dim_quotient == 0
    assert a.degree_factor() == 1
    assert [fp.name for fp in a.fixed_points] == ["north", "south"]
    assert a.fixed_points[0].moment == (Fraction(1),)
    assert a.fixed_points[1].weights == ((-1,),)


def test_round_trip_identity_sphere():
    a = sphere_atlas()
    text = serialize_atlas(a)
    b = parse_atlas(text)
    assert b == a
    assert serialize_atlas(b) == text


def test_serialized_form_is_sorted_json():
    text = serialize_atlas(sphere_atlas())
    doc = json.loads(text)
    assert list(doc.keys()) == sorted(doc.keys())
    assert doc["dim_M"] == 2
    # rationals appear as [numerator, denominator] pairs
    assert doc["fixed_points"][0]["moment"] == [[1, 1]]


def test_round_trip_preserves_optional_blocks():
    a = hk_torus_rank2_atlas()
    a = replace(a, submanifold=SubmanifoldRestriction(codim=2))
    b = parse_atlas(serialize_atlas(a))
    assert b == a
    assert b.submanifold.codim == 2
    assert b.fixed_points[0].moment_hk == a.fixed_points[0].moment_hk


def test_builtin_names_and_seed_forms():
    assert builtin_atlas("sphere_S2") == sphere_atlas()
    assert builtin_atlas("mirror_pair", seed=7) == mirror_pair_atlas(7)
    assert builtin_atlas("mirror_pair(7)") == mirror_pair_atlas(7)
    with pytest.raises(ValidationError):
        builtin_atlas("sphere_S2", seed=1)
    with pytest.raises(ValidationError):
        builtin_atlas("mirror_pair")
    with pytest.raises(ValidationError):
        builtin_atlas("mirror_pair(x)")
    with pytest.raises(ValidationError):
        builtin_atlas("mirror_pair(3", seed=None)
    with pytest.raises(ValidationError):
        builtin_atlas("mirror_pair(3)", seed=4)
    with pytest.raises(ValidationError) as err:
        builtin_atlas("no_such_atlas")
    assert "sphere_S2" in str(err.value)


def test_mirror_pair_structure():
    a = mirror_pair_atlas(7)
    assert len(a.fixed_points) % 2 == 0
    for j in range(0, len(a.fixed_points), 2):
        plus, minus = a.fixed_points[j], a.fixed_points[j + 1]
        assert plus.moment[0] == -minus.moment[0]
        assert plus.moment[0] >= 1
        assert plus.weights[0][0] == -minus.weights[0][0]
        assert plus.weights[0][0] >= 1
        assert plus.eta == minus.eta
        assert plus.eta.constant_term().re >= 1
        assert plus.eta.constant_term().im == 0


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_mirror_pair_seeds_validate_and_round_trip(seed):
    a = mirror_pair_atlas(seed)
    validate_atlas(a)
    assert mirror_pair_atlas(seed) == a  # deterministic
    assert parse_atlas(serialize_atlas(a)) == a


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_hk_synthetic_seeds_validate_and_round_trip(seed):
    a = builtin_atlas("hk_synthetic", seed=seed)
    assert a.geometry == "hyperkahler"
    assert a.dim_m in (4, 8)
    for fp in a.fixed_points:
        assert fp.hk_norm_sq(0) > 0
    assert parse_atlas(serialize_atlas(a)) == a


def test_hk_point_and_rank2_builtins_validate():
    validate_atlas(hk_point_atlas())
    assert hk_point_atlas().degree_factor() == 5
    a = hk_torus_rank2_atlas()
    validate_atlas(a)
    assert a.group.rank == 2
    assert a.fixed_points[0].hk_norm_sq(0) == 1
    assert a.fixed_points[0].hk_norm_sq(1) == 2


# -- validation failures -------------------------------------------------


def _mutated(**kw):
    return replace(sphere_atlas(), **kw)


def _point(**kw):
    base = sphere_atlas().fixed_points[0]
    return replace(base, **kw)


def test_zero_moment_is_not_regular():
    bad = _point(moment=(Fraction(0),))
    atlas = _mutated(fixed_points=(bad,))
    with pytest.raises(ValidationError) as err:
        validate_atlas(atlas)
    assert "0 is not a regular value" in str(err.value)
    assert "north" in str(err.value)


def test_zero_weight_rejected():
    bad = _point(weights=((0,),))
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(fixed_points=(bad,)))
    assert "zero divisor" in str(err.value)


def test_negative_exponent_eta_rejected():
    bad = _point(eta=LaurentSeries.monomial(("y",), (-1,)))
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(fixed_points=(bad,)))
    assert "polynomial" in str(err.value)


def test_eta_variable_mismatch_rejected():
    bad = _point(eta=LaurentSeries.const(("z",), 1))
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(fixed_points=(bad,)))


def test_duplicate_point_names_rejected():
    fp = sphere_atlas().fixed_points[0]
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(fixed_points=(fp, fp)))
    assert "duplicate" in str(err.value)


def test_dim_bookkeeping_enforced():
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(dim_quotient=2))
    assert "dim_quotient" in str(err.value)
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(dim_m=3, dim_quotient=1))
    with pytest.raises(ValidationError):
        validate_atlas(replace(hk_point_atlas(), dim_m=6, dim_quotient=2))


def test_deg_eta0_range_enforced():
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(deg_eta0=1))
    assert "deg_eta0" in str(err.value)
    with pytest.raises(ValidationError):
        validate_atlas(replace(hk_point_atlas(), deg_eta0=-1))


def test_group_invariants():
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(group=GroupSpec("circle", 2, 2, GroupSpec.circle().vol)))
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(group=GroupSpec("torus", 1, 3, GroupSpec.circle().vol)))
    with pytest.raises(ValidationError):
        validate_atlas(
            _mutated(group=GroupSpec("compact_with_torus", 1, 3, GroupSpec.circle().vol))
        )
    # compact group dimension must be rank + 2 * (number of positive roots)
    roots = RootSystemData(((2,),), 2)
    good = GroupSpec("compact_with_torus", 1, 3, GroupSpec.circle().vol, roots)
    validate_atlas(
        replace(hk_point_atlas(), group=good, dim_m=16, dim_quotient=4)
    )
    with pytest.raises(ValidationError):
        validate_atlas(
            _mutated(group=GroupSpec("compact_with_torus", 1, 4, GroupSpec.circle().vol, roots))
        )
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(group=GroupSpec("upq", 1, 1, GroupSpec.circle().vol)))


def _compact(s, roots=None):
    return GroupSpec("compact_with_torus", 1, s, GroupSpec.circle().vol, roots)


@pytest.mark.parametrize(
    "atlas, context",
    [
        (lambda: _mutated(geometry="kahler"), {"geometry": "kahler"}),
        (lambda: _mutated(group=GroupSpec("upq", 1, 1, GroupSpec.circle().vol)), {"kind": "upq"}),
        (lambda: _mutated(group=GroupSpec.torus(0)), {"rank": 0}),
        (
            lambda: _mutated(group=GroupSpec("circle", 2, 2, GroupSpec.circle().vol)),
            {"rank": 2, "s": 2},
        ),
        (
            lambda: _mutated(group=GroupSpec("torus", 1, 3, GroupSpec.circle().vol)),
            {"s": 3, "rank": 1},
        ),
        (lambda: _mutated(group=_compact(3)), {"kind": "compact_with_torus"}),
        (
            lambda: _mutated(group=_compact(4, RootSystemData(((2,),), 2))),
            {"s": 4, "expected": 3},
        ),
        (lambda: _mutated(group=_compact(3, RootSystemData(((2,),), 0))), {"weyl_order": 0}),
        (
            lambda: _mutated(group=_compact(3, RootSystemData(((2, 1),), 2))),
            {"root": (2, 1), "rank": 1},
        ),
        (lambda: _mutated(group=_compact(3, RootSystemData(((0,),), 2))), {"root": (0,)}),
        (
            lambda: _mutated(
                group=GroupSpec.circle(SymbolicConstant(Fraction(-2), pi_pow=1))
            ),
            {"vol": "-2 * i^0 * pi^1 * sqrt2^0"},
        ),
        (lambda: _mutated(dim_m=3, dim_quotient=1), {"dim_M": 3}),
        (lambda: replace(hk_point_atlas(), dim_m=6, dim_quotient=2), {"dim_M": 6}),
        (lambda: _mutated(dim_quotient=2), {"dim_quotient": 2, "expected": 0}),
        (lambda: _mutated(dim_m=0, dim_quotient=-2), {"dim_quotient": -2}),
        (lambda: _mutated(deg_eta0=1), {"deg_eta0": 1, "dim_quotient": 0}),
        (lambda: _mutated(variable_order=(3,)), {"variable_order": (3,)}),
        (
            lambda: _mutated(variable_order=("y", "z")),
            {"variable_order": ("y", "z"), "rank": 1},
        ),
        (lambda: _mutated(variable_order=("",)), {"variable_order": ("",)}),
        (lambda: _mutated(submanifold=SubmanifoldRestriction(-1)), {"codim_L": -1}),
    ],
)
def test_header_refusals_name_their_values(atlas, context):
    """Every refusal of the header and the variable order passes the values
    its message names as context."""
    with pytest.raises(ValidationError) as err:
        validate_atlas(atlas())
    assert context and err.value.context == context


def test_zero_root_and_bad_weyl_rejected():
    vol = GroupSpec.circle().vol
    bad_root = GroupSpec("compact_with_torus", 1, 3, vol, RootSystemData(((0,),), 2))
    with pytest.raises(ValidationError):
        validate_atlas(replace(hk_point_atlas(), group=bad_root, dim_m=16, dim_quotient=4))
    bad_weyl = GroupSpec("compact_with_torus", 1, 3, vol, RootSystemData(((2,),), 0))
    with pytest.raises(ValidationError):
        validate_atlas(replace(hk_point_atlas(), group=bad_weyl, dim_m=16, dim_quotient=4))


def test_volume_must_be_positive_real():
    imag = SymbolicConstant(Fraction(2), i_pow=1, pi_pow=1)
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(group=GroupSpec("circle", 1, 1, imag)))
    neg = SymbolicConstant(Fraction(-2), pi_pow=1)
    with pytest.raises(ValidationError):
        validate_atlas(_mutated(group=GroupSpec("circle", 1, 1, neg)))


def test_hk_moment_data_required_and_nonzero():
    a = hk_point_atlas()
    missing = replace(a.fixed_points[0], moment_hk=None)
    with pytest.raises(ValidationError):
        validate_atlas(replace(a, fixed_points=(missing,)))
    zero = replace(
        a.fixed_points[0], moment_hk=((Fraction(0), Fraction(0), Fraction(0)),)
    )
    with pytest.raises(ValidationError) as err:
        validate_atlas(replace(a, fixed_points=(zero,)))
    assert "0 is not a regular value" in str(err.value)


def test_raw_mode_needs_contribution():
    bad = _point(mode="raw")
    with pytest.raises(ValidationError) as err:
        validate_atlas(_mutated(fixed_points=(bad,)))
    assert "raw" in str(err.value)
    good = _point(
        mode="raw", raw_contribution=LaurentSeries.monomial(("y",), (-1,))
    )
    validate_atlas(_mutated(fixed_points=(good,)))


def _hk_point(**kw):
    return replace(hk_point_atlas().fixed_points[0], **kw)


#: (atlas, message, context) for every per-point refusal that a document can
#: also reach; eta or raw series over other variables cannot be written as
#: a document of this atlas, so those two refusals are left out
POINT_REFUSALS = [
    (
        _mutated(fixed_points=(sphere_atlas().fixed_points[0],) * 2),
        "duplicate fixed point name 'north'",
        {"point": "north"},
    ),
    (
        _mutated(fixed_points=(_point(mode="odd"),)),
        "fixed point 'north' has unknown mode 'odd'",
        {"point": "north"},
    ),
    (
        _mutated(fixed_points=(_point(moment=(Fraction(1), Fraction(2))),)),
        "fixed point 'north' has a moment vector of length 2, expected 1",
        {"point": "north"},
    ),
    (
        _mutated(fixed_points=(_point(eta=LaurentSeries.monomial(("y",), (-1,))),)),
        "fixed point 'north': eta restriction must be a polynomial",
        {"point": "north"},
    ),
    (
        _mutated(fixed_points=(_point(weights=((1,), (1, 1))),)),
        "fixed point 'north' has weight vector (1, 1) of wrong rank",
        {"point": "north", "weight": (1, 1)},
    ),
    (
        _mutated(fixed_points=(_point(weights=((1,), (0,))),)),
        "e(y) is a zero divisor at 'north': zero tangent weight",
        {"point": "north", "weight": (0,)},
    ),
    (
        _mutated(fixed_points=(_point(mode="raw"),)),
        "raw-mode fixed point 'north' has no contribution series",
        {"point": "north"},
    ),
    (
        _mutated(fixed_points=(_point(moment=(Fraction(0),)),)),
        "0 is not a regular value: fixed point 'north' has moment component 0 equal to 0",
        {"point": "north", "component": 0},
    ),
    (
        replace(hk_point_atlas(), fixed_points=(_hk_point(moment_hk=None),)),
        "hyperkahler fixed point 'origin' needs one three-component moment vector "
        "per circle factor",
        {"point": "origin"},
    ),
    (
        replace(
            hk_point_atlas(),
            fixed_points=(_hk_point(moment_hk=_hk_point().moment_hk * 2),),
        ),
        "hyperkahler fixed point 'origin' needs one three-component moment vector "
        "per circle factor",
        {"point": "origin"},
    ),
    (
        replace(hk_point_atlas(), fixed_points=(_hk_point(moment_hk=((Fraction(0),) * 3,)),)),
        "0 is not a regular value: fixed point 'origin' has vanishing moment vector "
        "in circle factor 0",
        {"point": "origin", "component": 0},
    ),
]


@pytest.mark.parametrize("atlas, message, context", POINT_REFUSALS)
def test_point_refusals_are_the_same_built_or_parsed(atlas, message, context):
    """validate_atlas on the built atlas and parse_atlas on its document
    refuse with one message and one context."""
    with pytest.raises(ValidationError) as built:
        validate_atlas(atlas)
    with pytest.raises(ValidationError) as parsed:
        parse_atlas(serialize_atlas(atlas))
    for err in (built.value, parsed.value):
        assert err.message == message
        assert err.context == context


def test_parse_checks_each_point_once_and_never_revalidates(monkeypatch):
    import eqloc.atlas as atlas_module

    checked = []
    check_point = atlas_module._check_point

    def spy(atlas, fp, seen):
        checked.append(fp.name)
        check_point(atlas, fp, seen)

    def refuse(atlas):
        raise AssertionError("parse_atlas walked the finished atlas again")

    monkeypatch.setattr(atlas_module, "_check_point", spy)
    monkeypatch.setattr(atlas_module, "validate_atlas", refuse)
    for atlas in (sphere_atlas(), hk_point_atlas(), hk_torus_rank2_atlas(), mirror_pair_atlas(3)):
        checked.clear()
        parsed = parse_atlas(serialize_atlas(atlas))
        assert checked == [fp.name for fp in atlas.fixed_points]
        assert parsed == atlas


def test_header_is_checked_before_any_point_is_read():
    doc = _sphere_doc()
    doc["dim_quotient"] = 2
    doc["fixed_points"][0]["moment"] = "not a list"
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message.startswith("dim_quotient must equal 0")


def test_validate_respected_bounds():
    assert validate_respected(sphere_atlas())
    sym = _mutated(submanifold=SubmanifoldRestriction(1))
    assert validate_respected(sym)
    assert not validate_respected(_mutated(submanifold=SubmanifoldRestriction(2)))
    hk = replace(hk_point_atlas(), submanifold=SubmanifoldRestriction(3))
    assert validate_respected(hk)
    assert not validate_respected(
        replace(hk_point_atlas(), submanifold=SubmanifoldRestriction(4))
    )


# -- parser strictness ---------------------------------------------------


def _sphere_doc():
    return json.loads(serialize_atlas(sphere_atlas()))


def test_parse_rejects_unknown_and_missing_keys():
    doc = _sphere_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert "unknown keys" in str(err.value)
    doc = _sphere_doc()
    del doc["dim_M"]
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert "missing keys" in str(err.value)
    doc = _sphere_doc()
    doc["fixed_points"][0]["surprise"] = True
    with pytest.raises(ValidationError):
        parse_atlas(doc)


def test_parse_rejects_bad_rationals():
    doc = _sphere_doc()
    doc["fixed_points"][0]["moment"] = [[1, 0]]
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert "denominator" in str(err.value)
    doc = _sphere_doc()
    doc["fixed_points"][0]["moment"] = [0.5]
    with pytest.raises(ValidationError):
        parse_atlas(doc)


def test_parse_rejects_duplicate_exponents_and_bad_terms():
    doc = _sphere_doc()
    doc["fixed_points"][0]["eta"]["terms"] = [
        {"exp": [0], "re": [1, 1], "im": [0, 1]},
        {"exp": [0], "re": [2, 1], "im": [0, 1]},
    ]
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert "duplicate" in str(err.value)
    doc = _sphere_doc()
    doc["fixed_points"][0]["eta"]["terms"] = [{"exp": [0], "re": [1, 1]}]
    with pytest.raises(ValidationError):
        parse_atlas(doc)


big_ints = st.integers(-(2**200), 2**200)
pairs = st.tuples(st.one_of(st.just(0), big_ints), big_ints.filter(bool)).map(list)
SHAPE = "rational values are [numerator, denominator] integer pairs"
bad_pairs = st.one_of(
    st.tuples(st.tuples(st.booleans(), big_ints).map(list), st.just(SHAPE)),
    st.tuples(st.tuples(big_ints, st.booleans()).map(list), st.just(SHAPE)),
    st.tuples(st.tuples(st.floats(), big_ints).map(list), st.just(SHAPE)),
    st.tuples(st.tuples(big_ints, st.floats()).map(list), st.just(SHAPE)),
    st.tuples(st.lists(big_ints, min_size=1, max_size=1), st.just(SHAPE)),
    st.tuples(st.lists(big_ints, min_size=3, max_size=3), st.just(SHAPE)),
    st.tuples(st.tuples(big_ints, st.just(0)).map(list), st.just("zero denominator")),
)


@given(pairs, pairs)
@settings(max_examples=200)
def test_parsed_pairs_read_as_fractions(re_pair, im_pair):
    """A term parsed from two [n, d] pairs (negative denominators, zero
    numerators, ints up to 2^200) holds the value of the two Fractions, and
    both JSON writers give back their lowest-terms pairs."""
    series = parse_series_terms([{"exp": [1], "re": re_pair, "im": im_pair}], ("y",), "s")
    re, im = Fraction(*re_pair), Fraction(*im_pair)
    c = series.coefficient((1,))
    assert c == ComplexRational(re, im)
    want = {"re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator]}
    assert _cr_json(c) == want
    assert series.to_json_terms() == ([{"exp": [1], **want}] if c else [])


@st.composite
def bad_pair_terms(draw):
    """One term with a malformed re or im pair, and the message it gets."""
    pair, reason = draw(bad_pairs)
    part = draw(st.sampled_from(["re", "im"]))
    term = {"exp": [0], "re": [1, 2], "im": [3, 4], part: pair}
    return [term], f"series: term 0 {part}: {reason}"


GOOD = {"exp": [0], "re": [1, 2], "im": [3, 4]}
NEXT = {**GOOD, "exp": [1]}
KEYS = "series: term 1 must have exactly the keys exp, re, im"
EXPONENTS = "series: term 1 exponent vector must list one integer per variable"
ZERO = {"re": [0, 1], "im": [0, 3]}
#: Malformed second terms after a good first one, and their messages.
BAD_TERMS = [
    ([GOOD, {**NEXT, "exp": [True]}], EXPONENTS),
    ([GOOD, {**NEXT, "exp": [1.0]}], EXPONENTS),
    ([GOOD, {**NEXT, "exp": [1, 2]}], EXPONENTS),
    ([GOOD, {**NEXT, "exp": (1,)}], EXPONENTS),
    ([GOOD, {**NEXT, "re": [1, True]}], f"series: term 1 re: {SHAPE}"),
    ([GOOD, {**NEXT, "im": [False, 1]}], f"series: term 1 im: {SHAPE}"),
    ([GOOD, {**NEXT, "re": [1, 0], "im": [1, 0]}], "series: term 1 re: zero denominator"),
    ([GOOD, {**NEXT, "im": [5, 0]}], "series: term 1 im: zero denominator"),
    ([GOOD, {"exp": [1], "re": [1, 1]}], KEYS),
    ([GOOD, {**NEXT, "extra": 0}], KEYS),
    ([GOOD, [[1], [1, 1], [0, 1]]], KEYS),
    ([GOOD, {**GOOD, **ZERO}], "series: duplicate exponent vector (0,)"),
    ([{**GOOD, **ZERO}, GOOD], "series: duplicate exponent vector (0,)"),
    ({"exp": [0]}, "series: 'terms' must be a list"),
]


@given(st.one_of(bad_pair_terms(), st.sampled_from(BAD_TERMS)))
def test_bad_pairs_keep_their_messages(case):
    """Malformed pairs and terms are refused with the parser's messages; a
    zero coefficient still counts for the duplicate check."""
    terms, message = case
    with pytest.raises(ValidationError) as err:
        parse_series_terms(terms, ("y",), "series")
    assert err.value.message == message


small_ints = st.integers(-6, 6)
#: [n, d] pairs, unreduced and with negative denominators, zero numerators
#: about one time in four
raw_pairs = st.tuples(
    st.one_of(st.just(0), small_ints), small_ints.filter(bool), st.integers(1, 4)
).map(lambda t: [t[0] * t[2], t[1] * t[2]])


@st.composite
def term_lists(draw):
    """Rank 1-3 term lists with distinct exponents, and a truncation vector
    or None."""
    k = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), max_size=8, unique=True))
    terms = [{"exp": list(e), "re": draw(raw_pairs), "im": draw(raw_pairs)} for e in exps]
    trunc = draw(st.one_of(st.none(), st.lists(st.one_of(st.none(), st.integers(-3, 3)), min_size=k, max_size=k)))
    return ("y", "z", "w")[:k], terms, trunc


@given(term_lists())
@settings(max_examples=200)
def test_parsed_series_equals_validating_constructor(case):
    """The parser's wrapped series equals the checking LaurentSeries built
    from the same pairs read as Fractions: zero coefficients and terms past
    the truncation dropped, exponents int tuples, coefficients normal."""
    variables, terms, trunc = case
    got = parse_series_terms(terms, variables, "s", trunc)
    want = LaurentSeries(
        variables,
        {
            tuple(t["exp"]): ComplexRational(Fraction(*t["re"]), Fraction(*t["im"]))
            for t in terms
        },
        trunc,
    )
    assert got == want
    assert got.vars == variables and got.trunc == want.trunc
    for e, c in got.terms.items():
        assert type(e) is tuple and all(type(x) is int for x in e)
        assert type(c) is ComplexRational and c
        assert c._v == ComplexRational(c.re, c.im)._v


@pytest.mark.parametrize("name", [{"a": [1, 2]}, 7, None, ["north"]])
def test_point_names_must_be_strings(name):
    """Not turned into text: 7 beside a point named "7" is no duplicate."""
    doc = _sphere_doc()
    doc["fixed_points"][0]["name"] = "7"
    doc["fixed_points"][1]["name"] = name
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message == "fixed point 1: name must be a string"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("fixed_points", 0, "mode"), ["raw"], "fixed point 0: mode must be a string"),
        (("geometry",), 7, "geometry must be a string"),
        (("group", "kind"), None, "group kind must be a string"),
    ],
)
def test_text_fields_must_be_strings(path, value, message):
    """Refused as they are, not as str(value): ["raw"] is no mode "['raw']"."""
    doc = _sphere_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message == message


@pytest.mark.parametrize(
    "variables, message",
    [
        (["y", "y"], "variable_order has 2 names for rank 1"),
        ([""], "variable names must be distinct and nonempty"),
        ([3], "variable_order must be a list of strings"),
        ("y", "variable_order must be a list of strings"),
        ([], "variable_order has 0 names for rank 1"),
    ],
)
def test_variable_order_is_checked_before_any_series(variables, message):
    doc = _sphere_doc()
    doc["variable_order"] = variables
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message == message


def test_duplicate_variables_of_a_torus_get_the_validator_message():
    doc = json.loads(serialize_atlas(hk_torus_rank2_atlas()))
    doc["variable_order"] = ["y", "y"]
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message == "variable names must be distinct and nonempty"
    with pytest.raises(ValidationError) as err:
        validate_atlas(replace(hk_torus_rank2_atlas(), variable_order=("y", "y")))
    assert err.value.message == "variable names must be distinct and nonempty"


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(ValidationError) as err:
        parse_atlas("{not json")
    assert "JSON" in str(err.value)
    with pytest.raises(ValidationError):
        parse_atlas([1, 2])


def _doc_with(*edits, base=sphere_atlas):
    """base's document with each (path, value) edit made; DROP deletes."""
    doc = json.loads(serialize_atlas(base()))
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


DROP = object()
ROOTS = {"positive": [[2]], "weyl_order": 2}
PAIRS = "rational values are [numerator, denominator] integer pairs"
ETA0 = ("fixed_points", 1, "eta", "terms", 0)

#: (document, message, context) for every refusal of the parser itself
PARSE_REFUSALS = [
    ("{not json", "atlas document is not valid JSON: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)", {"line": 1, "column": 2}),
    ([1, 2], "atlas document must be a JSON object", {"type": "list"}),
    (_doc_with((("geometry",), DROP)), "atlas: missing keys ['geometry']",
     {"missing": ["geometry"]}),
    (_doc_with((("group", "extra"), 1)), "group: unknown keys ['extra']", {"unknown": ["extra"]}),
    (_doc_with((("group",), 7)), "atlas group must be an object", {"key": "group"}),
    (_doc_with((("group", "roots"), 7)), "group roots must be an object", {"key": "roots"}),
    (_doc_with((("group", "roots"), {**ROOTS, "positive": 7})),
     "positive roots must be a list of covectors", {"key": "positive"}),
    (_doc_with((("group", "roots"), {**ROOTS, "positive": [[1.5]]})),
     "each positive root is a list of integers", {"key": "positive", "root": [1.5]}),
    (_doc_with((("group", "roots"), {**ROOTS, "weyl_order": "2"})),
     "weyl_order: expected an integer", {"key": "weyl_order"}),
    (_doc_with((("group", "vol"), 7)), "group vol must be an object", {"key": "vol"}),
    (_doc_with((("group", "vol", "pi_pow"), 65)), "group vol pi_pow: 65 is beyond +-64",
     {"key": "pi_pow", "power": 65, "limit": 64}),
    (_doc_with((("group", "vol", "i_pow"), True)), "group vol i_pow: expected an integer",
     {"key": "i_pow"}),
    (_doc_with((("group", "vol", "q"), [1, 0])), "group vol q: zero denominator", {"key": "q"}),
    (_doc_with((("group", "kind"), 1)), "group kind must be a string", {"key": "kind"}),
    (_doc_with((("group", "rank"), 1.0)), "group rank: expected an integer", {"key": "rank"}),
    (_doc_with((("variable_order",), "y")), "variable_order must be a list of strings",
     {"variable_order": "y"}),
    (_doc_with((("submanifold",), 7)), "submanifold must be an object", {"key": "submanifold"}),
    (_doc_with((("submanifold",), {"codim_L": None})), "codim_L: expected an integer",
     {"key": "codim_L"}),
    (_doc_with((("geometry",), 7)), "geometry must be a string", {"key": "geometry"}),
    (_doc_with((("dim_M",), "2")), "dim_M: expected an integer", {"key": "dim_M"}),
    (_doc_with((("fixed_points",), {})), "fixed_points must be a list", {"key": "fixed_points"}),
    (_doc_with((("fixed_points", 1), 7)), "fixed point 1: must be an object",
     {"point_index": 1, "type": "int"}),
    (_doc_with((("fixed_points", 1, "extra"), 0)), "fixed point 1: unknown keys ['extra']",
     {"point_index": 1, "unknown": ["extra"]}),
    (_doc_with((("fixed_points", 1, "name"), 7)), "fixed point 1: name must be a string",
     {"point_index": 1, "key": "name"}),
    (_doc_with((("fixed_points", 1, "moment"), 7)), "fixed point 1: moment must be a list",
     {"point_index": 1, "key": "moment"}),
    (_doc_with((("fixed_points", 1, "moment"), [[1, 0]])),
     "fixed point 1 moment: zero denominator", {"point_index": 1, "key": "moment"}),
    (_doc_with((("fixed_points", 1, "weights"), 7)), "fixed point 1: weights must be a list",
     {"point_index": 1, "key": "weights"}),
    (_doc_with((("fixed_points", 1, "weights"), [[1.0]])),
     "fixed point 1: each weight is a list of integers", {"point_index": 1, "key": "weights"}),
    (_doc_with((("fixed_points", 0, "moment_hk"), 7), base=hk_point_atlas),
     "fixed point 0: moment_hk must be a list", {"point_index": 0, "key": "moment_hk"}),
    (_doc_with((("fixed_points", 0, "moment_hk"), [[[1, 1]] * 2]), base=hk_point_atlas),
     "fixed point 0: each moment_hk entry is a three-component vector",
     {"point_index": 0, "key": "moment_hk"}),
    (_doc_with((("fixed_points", 0, "moment_hk", 0, 2), 0), base=hk_point_atlas),
     f"fixed point 0 moment_hk: {PAIRS}", {"point_index": 0, "key": "moment_hk"}),
    (_doc_with((("fixed_points", 1, "mode"), 7)), "fixed point 1: mode must be a string",
     {"point_index": 1, "key": "mode"}),
    (_doc_with((("fixed_points", 1, "raw"), [])),
     "fixed point 1 raw: series documents have exactly one key, 'terms'",
     {"point_index": 1, "series": "raw"}),
    (_doc_with((("fixed_points", 1, "eta", "terms"), {})),
     "fixed point 1 eta: 'terms' must be a list",
     {"point_index": 1, "series": "eta", "key": "terms"}),
    (_doc_with((ETA0 + ("im",), DROP)),
     "fixed point 1 eta: term 0 must have exactly the keys exp, re, im",
     {"point_index": 1, "series": "eta", "term": 0}),
    (_doc_with((ETA0 + ("exp",), [0, 0])),
     "fixed point 1 eta: term 0 exponent vector must list one integer per variable",
     {"point_index": 1, "series": "eta", "term": 0, "key": "exp"}),
    (_doc_with((("fixed_points", 1, "eta", "terms"), [{"exp": [0], "re": [1, 1], "im": [0, 1]}] * 2)),
     "fixed point 1 eta: duplicate exponent vector (0,)",
     {"point_index": 1, "series": "eta", "term": 1, "exp": (0,)}),
    (_doc_with((ETA0 + ("re",), [1.5, 1])), f"fixed point 1 eta: term 0 re: {PAIRS}",
     {"point_index": 1, "series": "eta", "term": 0, "key": "re"}),
]


@pytest.mark.parametrize("doc, message, context", PARSE_REFUSALS)
def test_parse_refusals_name_their_subject(doc, message, context):
    """Every refusal of the parser passes the keys its message names, and
    the point's index and term's index where it is inside one."""
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert err.value.message == message
    assert err.value.context == context


def test_series_truncation_refusal_names_its_lengths():
    with pytest.raises(VariableMismatchError) as err:
        parse_series_terms([], ("y",), "s", (1, 2))
    assert err.value.message == "truncation vector length 2 does not match 1 variables"
    assert err.value.context == {"trunc": (1, 2), "variables": ("y",)}


@pytest.mark.parametrize(
    "name, seed, message, context",
    [
        ("sphere_S2", 1, "atlas 'sphere_S2' does not take a seed", {"seed": 1}),
        ("mirror_pair(3", None, "malformed builtin atlas name 'mirror_pair(3'", {}),
        ("mirror_pair(3)", 1, "seed given both inline and as an argument", {"seed": 1}),
        ("mirror_pair(x)", None, "malformed seed in 'mirror_pair(x)'", {}),
        ("mirror_pair", None, "atlas 'mirror_pair' needs a seed", {}),
        (
            "nope",
            None,
            "unknown builtin atlas 'nope'; known: ['hk_point', 'hk_torus_rank2', "
            "'sphere_S2', 'hk_synthetic', 'mirror_pair']",
            {"known": ["hk_point", "hk_torus_rank2", "sphere_S2", "hk_synthetic", "mirror_pair"]},
        ),
    ],
)
def test_builtin_refusals_name_the_builtin(name, seed, message, context):
    with pytest.raises(ValidationError) as err:
        builtin_atlas(name, seed)
    assert err.value.message == message
    assert err.value.context == {"builtin": name, **context}


def test_parse_runs_semantic_validation():
    doc = _sphere_doc()
    doc["fixed_points"][0]["moment"] = [[0, 1]]
    with pytest.raises(ValidationError) as err:
        parse_atlas(doc)
    assert "regular value" in str(err.value)


# -- the canonical writer ------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [Fraction(1, 2), {1, 2}, [{"a": 1, 2: "b"}], {"a": [Fraction(1)]}, object()],
)
def test_writer_refuses_what_json_cannot_write_canonically(doc):
    with pytest.raises(TypeError):
        canonical_dumps(doc)
