"""The exact-value writer against the JSON route.

``serialize_atlas`` and ``ReductionReport.canonical_json`` write series
terms, coefficients, constants and fixed points straight from their ints.
Every document here is also built as plain JSON (for atlases by the
reference below, for reports by ``to_json_dict``) and written by
``canonical_dumps``; the two texts must be the same bytes."""

import json
from fractions import Fraction
from pathlib import Path

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
    hk_synthetic_atlas,
    mirror_pair_atlas,
    parse_atlas,
    serialize_atlas,
)
from eqloc.engines import (
    PROFILES,
    ConventionProfile,
    ExactValue,
    PointEntry,
    ReductionReport,
    reduce_hk_circle,
    reduce_hk_circle_viaP,
    reduce_hk_torus,
    reduce_symplectic_circle,
    reduce_symplectic_torus,
    weyl_wrap,
)
from eqloc.exact import ComplexRational, LaurentSeries, SymbolicConstant
from eqloc.oracle import oracle_comparison
from eqloc.record import replace

GOLDEN_DIR = Path(__file__).parent / "golden"
ATLAS_GOLDENS = ("sphere_s2.json", "mirror_pair_7.json", "hk_point.json", "hk_torus_rank2.json")


def atlas_json_dict(atlas: FixedPointAtlas) -> dict:
    """The atlas document as plain JSON, from the public JSON forms."""

    def pair(x):
        return [x.numerator, x.denominator]

    g = atlas.group
    group = {"kind": g.kind, "rank": g.rank, "s": g.s, "vol": g.vol.to_json_dict()}
    if g.root_system is not None:
        group["roots"] = {
            "positive": [list(a) for a in g.root_system.positive_roots],
            "weyl_order": g.root_system.weyl_order,
        }
    points = []
    for fp in atlas.fixed_points:
        doc = {
            "name": fp.name,
            "mode": fp.mode,
            "moment": [pair(m) for m in fp.moment],
            "weights": [list(w) for w in fp.weights],
            "eta": {"terms": fp.eta.to_json_terms()},
        }
        if fp.moment_hk is not None:
            doc["moment_hk"] = [[pair(c) for c in vec] for vec in fp.moment_hk]
        if fp.raw_contribution is not None:
            doc["raw"] = {"terms": fp.raw_contribution.to_json_terms()}
        points.append(doc)
    doc = {
        "group": group,
        "geometry": atlas.geometry,
        "dim_M": atlas.dim_m,
        "dim_quotient": atlas.dim_quotient,
        "deg_eta0": atlas.deg_eta0,
        "variable_order": list(atlas.variable_order),
        "fixed_points": points,
    }
    if atlas.submanifold is not None:
        doc["submanifold"] = {"codim_L": atlas.submanifold.codim}
    return doc


def assert_atlas_parity(atlas: FixedPointAtlas) -> None:
    text = serialize_atlas(atlas)
    assert text == canonical_dumps(atlas_json_dict(atlas))
    assert text == json.dumps(atlas_json_dict(atlas), sort_keys=True, indent=2) + "\n"


def assert_report_parity(report: ReductionReport) -> None:
    doc = report.to_json_dict(include_path=False)
    assert json.loads(json.dumps(doc)) == doc  # plain JSON: lists, not tuples
    assert report.canonical_json() == canonical_dumps(doc)


def reports(atlas: FixedPointAtlas):
    hk = atlas.geometry == "hyperkahler"
    engines = (reduce_hk_torus,) if hk else (reduce_symplectic_torus,)
    if atlas.group.rank == 1:
        engines += (reduce_hk_circle, reduce_hk_circle_viaP) if hk else (reduce_symplectic_circle,)
    for engine in engines:
        for mode in ("atlas", "one"):
            yield engine(atlas, eta_mode=mode)


def test_builtins_and_their_reports():
    atlases = [builtin_atlas(n) for n in ("sphere_S2", "hk_point", "hk_torus_rank2")]
    atlases += [mirror_pair_atlas(seed) for seed in range(20)]
    atlases += [hk_synthetic_atlas(seed) for seed in range(40)]
    for atlas in atlases:
        assert_atlas_parity(atlas)
        for report in reports(atlas):
            assert_report_parity(report)


def test_goldens_and_their_reports():
    for name in ATLAS_GOLDENS:
        text = (GOLDEN_DIR / name).read_text()
        atlas = parse_atlas(text)
        assert serialize_atlas(atlas) == text
        assert_atlas_parity(atlas)
        for report in reports(atlas):
            assert_report_parity(report)


def test_report_with_oracle_block_and_weyl_insertion():
    report = reduce_symplectic_circle(builtin_atlas("sphere_S2")).with_oracle(
        {"oracle_value": [0.5, -0.0], "ladder": [{"panels": 16, "t": 1.0}], "converged": True}
    )
    assert_report_parity(report)
    roots = RootSystemData(((2,),), 2)
    weyl = GroupSpec("compact_with_torus", 1, 3, GroupSpec.circle().vol, roots)
    lift = replace(builtin_atlas("hk_point"), group=weyl, dim_m=16, dim_quotient=4)
    assert_atlas_parity(lift)
    assert_report_parity(weyl_wrap(lift))
    # real blocks, nested in the report at its indent: the mollified route,
    # the contour route, and a contour block that checks abs_err alone
    sphere, hk = builtin_atlas("sphere_S2"), builtin_atlas("hk_point")
    routes = set()
    for report, atlas in (
        (reduce_symplectic_circle(sphere), sphere),
        (reduce_hk_circle(hk), hk),
        (weyl_wrap(lift), lift),
    ):
        block = oracle_comparison(report, atlas)
        routes.add((block["route"], block.get("checks")))
        assert_report_parity(report.with_oracle(block))
    assert routes == {("mollified", None), ("contour", None), ("contour", "abs_err")}


# -- drawn documents: awkward text, large and negative ints, any rank -------

text = st.text(st.sampled_from('"\\\b\n\x00\x7f aZé\U0001f600'), max_size=4)
big = st.integers(-(2**80), 2**80)
small = st.integers(-3, 3)
fractions = st.builds(Fraction, big, big.filter(bool))
coefficients = st.builds(ComplexRational, fractions, fractions)
constants = st.builds(SymbolicConstant, fractions, small, small, small)


@st.composite
def series(draw, variables):
    k = len(variables)
    exps = st.tuples(*([st.integers(-4, 4)] * k))
    terms = draw(st.dictionaries(exps, coefficients, max_size=4))
    trunc = draw(st.tuples(*([st.none() | st.integers(-4, 4)] * k)))
    return LaurentSeries(variables, terms, trunc)


@st.composite
def drawn_atlases(draw):
    """Atlases as a program might hand them to the writer: not validated,
    so any sizes, names and counts."""
    k = draw(st.integers(1, 3))
    variables = tuple(draw(st.lists(text, min_size=k, max_size=k, unique=True)))
    roots = draw(st.none() | st.builds(
        RootSystemData, st.lists(st.tuples(*([small] * k)), max_size=2).map(tuple), big
    ))
    group = GroupSpec(draw(text), k, draw(big), draw(constants), roots)
    points = []
    for name in draw(st.lists(text, max_size=3)):
        points.append(
            FixedPointDatum(
                name=name,
                moment=tuple(draw(st.lists(fractions, max_size=k))),
                weights=tuple(draw(st.lists(st.tuples(*([big] * k)), max_size=4))),
                eta=draw(series(variables)),
                moment_hk=draw(st.none() | st.lists(
                    st.tuples(fractions, fractions, fractions), max_size=k
                ).map(tuple)),
                mode=draw(text),
                raw_contribution=draw(st.none() | series(variables)),
            )
        )
    return FixedPointAtlas(
        group=group,
        geometry=draw(text),
        dim_m=draw(big),
        dim_quotient=draw(big),
        deg_eta0=draw(big),
        variable_order=variables,
        fixed_points=tuple(points),
        submanifold=draw(st.none() | st.builds(SubmanifoldRestriction, big)),
    )


@given(drawn_atlases())
@settings(max_examples=150, deadline=None)
def test_drawn_atlases(atlas):
    assert_atlas_parity(atlas)


#: values whose float form stays finite, so the report can state them
moderate = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@given(
    st.lists(st.tuples(text, st.booleans(), st.builds(ComplexRational, moderate, moderate)), max_size=4),
    st.builds(ComplexRational, moderate, moderate),
    st.builds(SymbolicConstant, moderate.filter(bool), small, small, small),
    st.lists(text, min_size=1, max_size=3),
    st.none() | text,
    st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_drawn_reports(entries, coeff, unit, variables, inserted, degree):
    profile = ConventionProfile.from_volume(
        "drawn", SymbolicConstant(abs(unit.q), pi_pow=unit.pi_pow, sqrt2_pow=unit.sqrt2_pow)
    )
    report = ReductionReport(
        path="drawn",
        geometry="hyperkahler",
        rank=len(variables),
        profile=profile,
        variable_order=tuple(variables),
        eta_mode="atlas",
        contributions=tuple(PointEntry(*e) for e in entries),
        raw_coefficient=coeff,
        degree_factor=degree,
        prefactor=unit,
        quotient_integral=ExactValue(unit, coeff),
        inserted_polynomial=inserted,
        weyl_divisor=None if inserted is None else degree,
    )
    assert_report_parity(report)
    assert_report_parity(replace(report, profile=PROFILES["unit_volume"]))
