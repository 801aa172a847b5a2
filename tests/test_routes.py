"""The second route behind every report kind.

``reduce --oracle`` checks a symplectic circle report by the mollified
limit (route "mollified") and every other report by the contour read of
the same coefficient (route "contour").  Each case runs the CLI in process
and checks the route, the error and the ``--table`` oracle line; a property
test runs the contour read over random torus atlases of rank 1-3.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eqloc.oracle as oracle_module
from eqloc import cli
from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
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
    reduce_symplectic_torus,
    weyl_wrap,
)
from eqloc.exact import LaurentSeries
from eqloc.record import replace
from eqloc.roots import group_spec
from test_acceptance import _tensor_circle_atlases
from test_engines import product_atlases


def agrees(cmp) -> bool:
    """rel_err <= 1e-9, or abs_err <= 1e-12 where the exact value is 0."""
    if cmp["exact_value"] == [0.0, 0.0]:
        return cmp["abs_err"] <= 1e-12
    return cmp["rel_err"] <= 1e-9


def su2_lift():
    """An SU(2) lift of a one-point hyperkahler circle whose pole order 8
    survives the inserted 16 y^4, so the Weyl report is not 0 and its check
    is a relative one (the lifts of hk_synthetic all read 0)."""
    fp = FixedPointDatum(
        name="origin",
        moment=(Fraction(0),),
        weights=((1,),) * 8,
        eta=LaurentSeries.const(("y",), 1),
        moment_hk=((Fraction(1), Fraction(1, 2), Fraction(0)),),
    )
    atlas = FixedPointAtlas(
        group=group_spec("SU(2)"),
        geometry="hyperkahler",
        dim_m=24,
        dim_quotient=12,
        deg_eta0=0,
        variable_order=("y",),
        fixed_points=(fp,),
    )
    validate_atlas(atlas)
    return atlas


def _file(tmp_path, atlas):
    path = tmp_path / "atlas.json"
    path.write_text(serialize_atlas(atlas))
    return str(path)


CASES = [
    ("builtin:sphere_S2", "symplectic", "mollified"),
    ("builtin:mirror_pair(7)", "symplectic", "mollified"),
    ("S2xS2", "symplectic", "contour"),
    ("builtin:hk_point", "hk", "contour"),
    ("builtin:hk_point", "hk-p", "contour"),
    ("builtin:hk_synthetic(3)", "hk", "contour"),
    ("builtin:hk_synthetic(3)", "hk-p", "contour"),
    ("builtin:hk_torus_rank2", "hk", "contour"),
    ("SU(2) lift", "weyl", "contour"),
]


@pytest.mark.parametrize("spec, mode, route", CASES)
def test_reduce_oracle_names_its_route(capsys, tmp_path, spec, mode, route):
    if spec == "S2xS2":
        spec = _file(tmp_path, _tensor_circle_atlases(sphere_atlas(), sphere_atlas()))
    elif spec == "SU(2) lift":
        spec = _file(tmp_path, su2_lift())
    argv = ["reduce", spec, "--mode", mode, "--oracle"]
    assert cli.run(argv) == 0
    cmp = json.loads(capsys.readouterr().out)["oracle_comparison"]
    assert cmp["route"] == route
    assert cmp["rel_err"] <= 1e-9, cmp
    assert cli.run(argv + ["--table"]) == 0
    table = capsys.readouterr().out
    re_part, im_part = cmp["oracle_value"]
    assert f"oracle:          [{re_part!r}, {im_part!r}] (abs err " in table
    if route == "contour":
        assert re.search(r"oracle contour:  \d+ nodes per variable on radii \[", table)
        assert "oracle panels:" not in table
    else:
        assert "oracle panels:" in table and "oracle contour:" not in table


@given(product_atlases(), st.sampled_from(["atlas", "one"]))
@settings(max_examples=60, deadline=None)
def test_contour_read_over_random_torus_atlases(atlas, eta_mode):
    """Rank 1-3, both geometries, through oracle_comparison.  A rank-1
    symplectic draw is a symplectic circle, which oracle_comparison sends
    to the mollified route; most such draws have a pole at the origin and
    no mollified limit, so its contour read is checked directly."""
    hk = atlas.geometry == "hyperkahler"
    report = (reduce_hk_torus if hk else reduce_symplectic_torus)(atlas, eta_mode=eta_mode)
    if not hk and atlas.group.rank == 1:
        cmp = oracle_module._contour_comparison(report, atlas)
    else:
        cmp = oracle_module.oracle_comparison(report, atlas)
    assert cmp["route"] == "contour"
    assert agrees(cmp), cmp
    assert 32 <= cmp["nodes"] and cmp["nodes"] ** atlas.group.rank <= cmp["max_nodes"]


def test_contour_families_within_1e9():
    """hk_synthetic(0..99) under hk and hk-p, the SU(2) lifts of
    hk_synthetic(0..9), S2 x S2 and mirror-pair products, and the
    non-circle goldens."""
    golden = Path(__file__).parent / "golden"
    cases = []
    for seed in range(100):
        atlas = hk_synthetic_atlas(seed)
        cases += [(reduce_hk_circle(atlas), atlas), (reduce_hk_circle_viaP(atlas), atlas)]
    for seed in range(10):
        base = hk_synthetic_atlas(seed)
        lifted = replace(base, group=group_spec("SU(2)"), dim_m=base.dim_m + 8)
        validate_atlas(lifted)
        product = _tensor_circle_atlases(mirror_pair_atlas(seed), mirror_pair_atlas(seed + 10))
        cases += [(weyl_wrap(lifted), lifted), (reduce_symplectic_torus(product), product)]
    product = _tensor_circle_atlases(sphere_atlas(), sphere_atlas())
    cases.append((reduce_symplectic_torus(product), product))
    for name in ("hk_point.json", "hk_torus_rank2.json"):
        atlas = parse_atlas((golden / name).read_text())
        cases.append((reduce_hk_torus(atlas), atlas))
    for report, atlas in cases:
        cmp = oracle_module.oracle_comparison(report, atlas)
        assert cmp["route"] == "contour"
        assert agrees(cmp), (report.path, cmp)
        assert cmp["nodes"] <= 128
