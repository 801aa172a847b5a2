import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eqloc import cli
from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    parse_atlas,
    serialize_atlas,
    validate_atlas,
)
from eqloc.exact import LaurentSeries
from eqloc.localize import SERIES_WORK_BUDGET
from eqloc.roots import group_spec

GOLDEN_DIR = Path(__file__).parent / "golden"


def su2_weyl_atlas():
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


def run_json(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    return json.loads(out.out)


def run_err(capsys, argv, expect_code=1):
    rc = cli.run(argv)
    out = capsys.readouterr()
    assert rc == expect_code
    return json.loads(out.err.splitlines()[-1])


class TestCheck:
    def test_builtin(self, capsys):
        assert cli.run(["check", "builtin:sphere_S2"]) == 0
        assert (
            capsys.readouterr().out.strip()
            == "valid: 2 fixed points, symplectic, circle"
        )

    def test_file(self, capsys, tmp_path):
        p = tmp_path / "a.json"
        p.write_text((GOLDEN_DIR / "hk_point.json").read_text())
        assert cli.run(["check", str(p)]) == 0
        assert "hyperkahler" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        err = run_err(capsys, ["check", "/no/such/file.json"])
        assert err["error"] == "validation"

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        err = run_err(capsys, ["check", str(p)])
        assert err["error"] == "validation"

    def test_unknown_flag(self, capsys):
        err = run_err(capsys, ["check", "builtin:sphere_S2", "--frobnicate"])
        assert err["error"] == "validation"

    def test_unknown_subcommand(self, capsys):
        err = run_err(capsys, ["transmogrify"])
        assert err["error"] == "validation"

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


class TestLocalize:
    def test_sphere_series_text(self, capsys):
        assert cli.run(["localize", "builtin:sphere_S2", "--depth", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "north: (1,0) y^-1 + (0,1) + (-1/2,0) y^1"
        assert lines[1] == "south: (-1,0) y^-1 + (0,1) + (1/2,0) y^1"
        assert lines[2] == "total: (0,2)"

    def test_negative_depth(self, capsys):
        err = run_err(capsys, ["localize", "builtin:sphere_S2", "--depth", "-1"])
        assert err["error"] == "validation"

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "builtin:hk_point", "--depth", "100000000"],
            ["reduce", "builtin:hk_point", "--mode", "hk-p", "--depth", "100000000"],
        ],
    )
    def test_depth_past_work_budget_is_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        err = run_err(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert err["error"] == "validation"
        assert str(SERIES_WORK_BUDGET) in err["message"]
        assert err["context"]["budget"] == str(SERIES_WORK_BUDGET)


class TestReduce:
    def test_sphere_report(self, capsys):
        doc = run_json(capsys, ["reduce", "builtin:sphere_S2", "--mode", "symplectic"])
        assert doc["path"] == "symplectic_circle"
        num = doc["quotient_integral"]["numeric"]
        assert abs(num[0] - 1 / (4 * math.pi**2)) < 1e-15
        assert num[1] == 0.0

    def test_hk_routes_agree(self, capsys):
        direct = run_json(capsys, ["reduce", "builtin:hk_point", "--mode", "hk"])
        even = run_json(capsys, ["reduce", "builtin:hk_point", "--mode", "hk-p"])
        assert direct["path"] == "hyperkahler_circle"
        assert even["path"] == "hyperkahler_circle_even_part"
        del direct["path"], even["path"]
        assert direct == even

    def test_profile_flag(self, capsys):
        doc = run_json(
            capsys,
            ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--profile", "unit_volume"],
        )
        assert doc["profile"]["name"] == "unit_volume"
        assert doc["prefactor"]["q"] == [1, 2]

    def test_profile_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLOC_PROFILE", "unit_volume")
        doc = run_json(capsys, ["reduce", "builtin:sphere_S2", "--mode", "symplectic"])
        assert doc["profile"]["name"] == "unit_volume"

    def test_profile_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EQLOC_PROFILE", "unit_volume")
        doc = run_json(
            capsys,
            ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--profile", "default"],
        )
        assert doc["profile"]["name"] == "default"

    def test_unknown_profile(self, capsys):
        err = run_err(
            capsys,
            ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--profile", "bogus"],
        )
        assert err["error"] == "validation"

    def test_variable_order_flag(self, capsys):
        doc = run_json(
            capsys,
            ["reduce", "builtin:hk_torus_rank2", "--mode", "hk", "--order", "y2,y1"],
        )
        assert doc["variable_order"] == ["y2", "y1"]

    def test_bad_order_flag(self, capsys):
        err = run_err(
            capsys,
            ["reduce", "builtin:hk_torus_rank2", "--mode", "hk", "--order", "y1,y1"],
        )
        assert err["error"] == "validation"

    def test_oracle_attaches_comparison(self, capsys):
        doc = run_json(
            capsys, ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--oracle"]
        )
        cmp = doc["oracle_comparison"]
        assert cmp["rel_err"] < 1e-8
        assert cmp["max_panels"] == 300_000
        panels = [row["panels"] for row in cmp["ladder"]]
        assert len(panels) == len(cmp["t_ladder"])
        assert all(0 < p <= cmp["max_panels"] for p in panels)

    def test_oracle_table_prints_panels(self, capsys):
        argv = ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--oracle"]
        panels = [row["panels"] for row in run_json(capsys, argv)["oracle_comparison"]["ladder"]]
        assert cli.run(argv + ["--table"]) == 0
        line = ", ".join(map(str, panels))
        assert f"oracle panels:   {line} (of 300000 per rung)" in capsys.readouterr().out

    def test_oracle_on_hk_refused(self, capsys):
        err = run_err(capsys, ["reduce", "builtin:hk_point", "--mode", "hk", "--oracle"])
        assert err["error"] == "validation"

    def test_table_output(self, capsys):
        assert (
            cli.run(["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--table"])
            == 0
        )
        text = capsys.readouterr().out
        assert "geometry:" in text
        assert "raw coefficient:" in text

    def test_weyl_mode(self, capsys, tmp_path):
        p = tmp_path / "su2.json"
        p.write_text(serialize_atlas(su2_weyl_atlas()))
        doc = run_json(capsys, ["reduce", str(p), "--mode", "weyl"])
        assert doc["path"] == "weyl_hyperkahler_torus"
        assert doc["weyl_divisor"] == 2
        assert doc["inserted_polynomial"] == "(16,0) y^4"

    def test_weyl_without_roots(self, capsys):
        err = run_err(capsys, ["reduce", "builtin:hk_point", "--mode", "weyl"])
        assert err["error"] == "validation"


class TestOracleCommand:
    def test_suptsq(self, capsys):
        doc = run_json(capsys, ["oracle", "--suptsq", "1.0", "0", "--t", "1,3,10"])
        assert doc["suptsq"]["decay_ok"] is True
        assert len(doc["suptsq"]["rows"]) == 3

    def test_suptsq_bad_args(self, capsys):
        err = run_err(capsys, ["oracle", "--suptsq", "1.0", "x"])
        assert err["error"] == "validation"

    def test_contour(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(
            json.dumps(
                {
                    "variables": ["y"],
                    "terms": [{"exp": [-1], "re": [1, 1], "im": [0, 1]}],
                }
            )
        )
        doc = run_json(capsys, ["oracle", "--contour", str(p), "1"])
        assert abs(doc["contour"]["value"][0] - 1.0) < 1e-10

    def test_contour_bad_file(self, capsys, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"variables": ["y"]}))
        err = run_err(capsys, ["oracle", "--contour", str(p), "1"])
        assert err["error"] == "validation"

    def test_mollified_table(self, capsys):
        doc = run_json(
            capsys,
            ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--t", "1,10"],
        )
        rows = doc["mollified"]["rows"]
        assert len(rows) == 2
        assert doc["mollified"]["max_panels"] == 300_000
        assert 0 < rows[0]["panels"] < rows[1]["panels"]
        assert abs(rows[0]["value"][1] - math.erf(1.0)) < 1e-10

    def test_shift_table(self, capsys):
        doc = run_json(
            capsys,
            [
                "oracle",
                "builtin:sphere_S2",
                "--mode",
                "symplectic",
                "--shift",
                "0.001,0.01",
                "--t",
                "0.5,1",
            ],
        )
        assert doc["shift"]["linear_ok"] is True

    def test_atlas_needs_mode(self, capsys):
        err = run_err(capsys, ["oracle", "builtin:sphere_S2"])
        assert err["error"] == "validation"

    def test_mode_mismatch(self, capsys):
        err = run_err(capsys, ["oracle", "builtin:hk_point", "--mode", "symplectic"])
        assert err["error"] == "validation"

    def test_pole_data_is_quadrature_error(self, capsys):
        err = run_err(capsys, ["oracle", "builtin:hk_point", "--mode", "hk"])
        assert err["error"] == "quadrature"

    def test_exactly_one_form(self, capsys):
        err = run_err(
            capsys,
            ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--suptsq", "1", "0"],
        )
        assert err["error"] == "validation"


class TestRoots:
    def test_su2_table(self, capsys):
        doc = run_json(capsys, ["roots", "SU(2)"])
        assert doc == {
            "name": "SU(2)",
            "rank": 1,
            "s": 3,
            "positive_roots": [[2]],
            "weyl_order": 2,
        }

    def test_listing(self, capsys):
        doc = run_json(capsys, ["roots"])
        assert doc == {"groups": ["SU(2)", "U(2)"]}

    def test_unknown_group(self, capsys):
        err = run_err(capsys, ["roots", "E8"])
        assert err["error"] == "validation"


class TestExamples:
    def test_bytes_match_goldens(self, capsys, tmp_path):
        assert cli.run(["examples", "--out", str(tmp_path)]) == 0
        for name in cli.EXAMPLE_FILES:
            got = (tmp_path / name).read_bytes()
            want = (GOLDEN_DIR / name).read_bytes()
            assert got == want, name

    def test_atlas_goldens_round_trip(self):
        for name in cli.EXAMPLE_FILES:
            if name == "su2_roots.json":
                continue
            text = (GOLDEN_DIR / name).read_text()
            atlas = parse_atlas(text)
            assert serialize_atlas(atlas) == text, name

    def test_unwritable_directory(self, capsys):
        err = run_err(capsys, ["examples", "--out", "/proc/nope"])
        assert err["error"] == "validation"


def _series_missing_re(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"variables": ["y"], "terms": [{"exp": [-1], "im": [0, 1]}]}))
    return ["oracle", "--contour", str(p), "1"]


def _series_fractional_trunc(tmp_path):
    p = tmp_path / "s.json"
    term = {"exp": [-1], "re": [1, 1], "im": [0, 1]}
    p.write_text(json.dumps({"variables": ["y"], "terms": [term], "trunc": [0.5]}))
    return ["oracle", "--contour", str(p), "1"]


def _contour_term_beyond_double(tmp_path):
    p = tmp_path / "s.json"
    terms = [{"exp": [e], "re": [1, 1], "im": [0, 1]} for e in (-1100, 3)]
    p.write_text(json.dumps({"variables": ["y"], "terms": terms}))
    return ["oracle", "--contour", str(p), "1"]


def _contour_index_beyond_double(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"variables": ["y"], "terms": [{"exp": [-1], "re": [1, 1], "im": [0, 1]}]}))
    return ["oracle", "--contour", str(p), "-2000"]


def _unparsable_shift(tmp_path):
    return ["oracle", "builtin:mirror_pair(5)", "--mode", "symplectic", "--shift", "a,b"]


def _nonfinite_shift(tmp_path):
    return ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--shift", "nan"]


def _nonfinite_ladder(tmp_path):
    return ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--t", "1,inf"]


def _string_volume_power(tmp_path):
    doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
    doc["group"]["vol"]["i_pow"] = "x"
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    return ["check", str(p)]


def _huge_volume_power(tmp_path):
    doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
    doc["group"]["vol"]["sqrt2_pow"] = 10**30
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    return ["check", str(p)]


def _value_beyond_double(tmp_path):
    doc = json.loads((GOLDEN_DIR / "hk_point.json").read_text())
    doc["fixed_points"][0]["eta"]["terms"][0]["im"][0] = 10**400
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    return ["reduce", str(p), "--mode", "hk"]


def _golden_variant(tmp_path, name, edit, argv):
    doc = json.loads((GOLDEN_DIR / name).read_text())
    edit(doc)
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    return [argv[0], str(p), *argv[1:]]


def _set_moment(doc):
    doc["fixed_points"][0]["moment"] = [[10**400, 1]]


def _set_moment_hk(doc):
    doc["fixed_points"][0]["moment_hk"][0][0] = [10**200, 1]


def _set_both_eta(doc):
    for fp in doc["fixed_points"]:
        fp["eta"]["terms"][0]["re"] = [10**400, 1]


def _oracle_moment_beyond_double(tmp_path):
    return _golden_variant(
        tmp_path, "sphere_s2.json", _set_moment, ["oracle", "--mode", "symplectic"]
    )


def _reduce_oracle_moment_beyond_double(tmp_path):
    return _golden_variant(
        tmp_path, "sphere_s2.json", _set_moment, ["reduce", "--mode", "symplectic", "--oracle"]
    )


def _oracle_hk_moment_beyond_double(tmp_path):
    return _golden_variant(tmp_path, "hk_point.json", _set_moment_hk, ["oracle", "--mode", "hk"])


def _oracle_coefficient_beyond_double(tmp_path):
    return _golden_variant(
        tmp_path, "sphere_s2.json", _set_both_eta, ["oracle", "--mode", "symplectic"]
    )


def _set_object_name(doc):
    doc["fixed_points"][0]["name"] = {"a": [1, 2]}


def _point_name_not_a_string(tmp_path):
    return _golden_variant(tmp_path, "sphere_s2.json", _set_object_name, ["check"])


def _set_repeated_variable(doc):
    doc["variable_order"] = ["y", "y"]


def _repeated_variable_order(tmp_path):
    return _golden_variant(
        tmp_path, "hk_point.json", _set_repeated_variable, ["reduce", "--mode", "hk-p"]
    )


def _series_repeated_variable(tmp_path):
    p = tmp_path / "s.json"
    term = {"exp": [-1, 0], "re": [1, 1], "im": [0, 1]}
    p.write_text(json.dumps({"variables": ["y", "y"], "terms": [term]}))
    return ["oracle", "--contour", str(p), "1"]


def _suptsq_infinite_x(tmp_path):
    return ["oracle", "--suptsq", "inf", "2"]


def _suptsq_nan_x(tmp_path):
    return ["oracle", "--suptsq", "nan", "2"]


def _suptsq_x_near_double_max(tmp_path):
    return ["oracle", "--suptsq", "1e308", "2"]


def _suptsq_power_past_double(tmp_path):
    return ["oracle", "--suptsq", "0", "1000"]


@pytest.mark.parametrize(
    "moment, tail",
    [
        (10**308, ["oracle", "--mode", "symplectic"]),
        (10**308, ["reduce", "--mode", "symplectic", "--oracle"]),
        (10**5, ["oracle", "--mode", "symplectic", "--t", "10000,20000"]),
        (10**5, ["reduce", "--mode", "symplectic", "--oracle"]),
    ],
)
def test_oversize_oracle_grid_exits_1(capsys, tmp_path, monkeypatch, moment, tail):
    """A moment whose grid would not fit the panel budget is refused before
    the grid is built (a built grid fails the test instead of allocating)."""
    import numpy

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(numpy, "linspace", refuse)
    doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
    for fp in doc["fixed_points"]:
        fp["moment"] = [[moment if fp["moment"][0][0] > 0 else -moment, 1]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    err = run_err(capsys, [tail[0], str(path)] + tail[1:])
    assert err["error"] == "quadrature"
    assert "panel budget exhausted" in err["message"]


class TestErrorMapping:
    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._COMMANDS, "roots", boom)
        err = run_err(capsys, ["roots"], expect_code=2)
        assert err["error"] == "internal"
        assert "slug" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            _series_missing_re,
            _series_fractional_trunc,
            _contour_term_beyond_double,
            _contour_index_beyond_double,
            _unparsable_shift,
            _nonfinite_shift,
            _nonfinite_ladder,
            _string_volume_power,
            _huge_volume_power,
            _value_beyond_double,
            _oracle_moment_beyond_double,
            _reduce_oracle_moment_beyond_double,
            _oracle_hk_moment_beyond_double,
            _oracle_coefficient_beyond_double,
            _suptsq_infinite_x,
            _suptsq_nan_x,
            _suptsq_x_near_double_max,
            _suptsq_power_past_double,
            _point_name_not_a_string,
            _repeated_variable_order,
            _series_repeated_variable,
        ],
    )
    def test_bad_user_input_is_validation(self, capsys, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr
            rc = cli.run(argv(tmp_path))
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert doc["slug"] == "validation"

    @pytest.mark.parametrize(
        "argv, point",
        [
            (_oracle_moment_beyond_double, "'north'"),
            (_reduce_oracle_moment_beyond_double, "'north'"),
            (_oracle_hk_moment_beyond_double, "'origin'"),
        ],
    )
    def test_value_beyond_double_names_point_and_value(self, capsys, tmp_path, argv, point):
        err = run_err(capsys, argv(tmp_path))
        assert err["context"]["point"] == point
        assert err["context"]["value"].startswith("Fraction(1000")

    def test_mixed_weight_reduce_carries_slug_and_context(self, capsys, tmp_path):
        doc = json.loads((GOLDEN_DIR / "hk_torus_rank2.json").read_text())
        doc["fixed_points"][0]["weights"] = [[1, 1], [1, 0], [0, 1], [1, -1]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["check", str(path)]) == 0
        capsys.readouterr()
        err = run_err(capsys, ["reduce", str(path), "--mode", "hk"])
        assert err["error"] == "series"
        assert err["slug"] == "non-invertible"
        assert err["context"] == {"point": "'product'", "weight": "(1, 1)"}
        assert "'product'" in err["message"]


# -- numpy is loaded only by the oracle ------------------------------------

_BLOCKED_NUMPY_RUNNER = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["numpy"] = None  # any import of numpy now fails
import eqloc.cli
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = eqloc.cli.run(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def _fresh_python(args):
    """Run python in a fresh interpreter on this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestNumpyOnlyForTheOracle:
    def test_exact_only_commands_run_without_numpy(self, capsys, tmp_path):
        commands = [
            ["check", str(GOLDEN_DIR / "sphere_s2.json")],
            ["reduce", str(GOLDEN_DIR / "mirror_pair_7.json"), "--mode", "symplectic"],
            ["reduce", str(GOLDEN_DIR / "hk_point.json"), "--mode", "hk-p"],
            ["localize", str(GOLDEN_DIR / "sphere_s2.json"), "--depth", "2"],
            ["roots", "SU(2)"],
            ["examples", "--out", str(tmp_path)],
        ]
        proc = _fresh_python(["-c", _BLOCKED_NUMPY_RUNNER, json.dumps(commands)])
        assert proc.returncode == 0, proc.stderr
        blocked = json.loads(proc.stdout)
        for argv, (code, out) in zip(commands, blocked):
            assert cli.run(argv) == 0
            assert (code, out) == (0, capsys.readouterr().out), argv

    def test_oracle_module_is_imported_and_loads_numpy_on_use(self, capsys):
        """``import eqloc`` binds eqloc.oracle and the names the benchmark's
        tracer rebinds, without numpy; the oracle then loads it on use."""
        names = ("oracle_comparison", "atlas_integrand", "adaptive_quadrature")
        probe = _fresh_python(
            [
                "-c",
                "import sys, eqloc; oracle = sys.modules['eqloc.oracle']; "
                f"print([callable(getattr(oracle, n)) for n in {names!r}], "
                "'numpy' in sys.modules)",
            ]
        )
        assert probe.stdout == "[True, True, True] False\n", probe.stderr
        argv = ["reduce", "builtin:mirror_pair(7)", "--mode", "symplectic", "--oracle"]
        proc = _fresh_python(["-m", "eqloc.cli", *argv])
        assert proc.returncode == 0, proc.stderr
        doc = run_json(capsys, argv)
        assert doc["oracle_comparison"]["rel_err"] < 1e-6
        assert proc.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- mutated goldens -----------------------------------------------------

GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))
# a wrong type or an out-of-range value for any node; huge ints overflow a
# double, the floats and strings are numbers in the wrong form
_REPLACEMENTS = ("x", "", "1", 2.5, -0.5, 1e308, True, False, None, 10**400, -(10**400), [], {})


def _json_paths(node, path=()):
    """The path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


@st.composite
def golden_mutants(draw):
    """(document text, --mode) for a golden file with one node dropped or
    replaced."""
    doc = json.loads(draw(st.sampled_from(GOLDEN_FILES)).read_text())
    mode = "hk" if doc.get("geometry") == "hyperkahler" else "symplectic"
    *parents, last = draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in parents:
        parent = parent[key]
    mutation = draw(st.sampled_from(("drop",) + _REPLACEMENTS))
    if mutation == "drop":
        del parent[last]
    else:
        parent[last] = mutation
    return json.dumps(doc), mode


class TestGoldenMutations:
    @given(golden_mutants())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_code_is_zero_or_one(self, capsys, tmp_path, case):
        text, mode = case
        path = tmp_path / "mutant.json"
        path.write_text(text)
        for argv in (["check", str(path)], ["reduce", str(path), "--mode", mode]):
            code = cli.run(argv)
            err = capsys.readouterr().err
            assert code in (0, 1), (argv, err)
            assert "Traceback" not in err
