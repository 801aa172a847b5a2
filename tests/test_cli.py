import contextlib
import io
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
    GroupSpec,
    parse_atlas,
    serialize_atlas,
    validate_atlas,
)
from eqloc.errors import ValidationError
from eqloc.exact import LaurentSeries
from eqloc.localize import SERIES_WORK_BUDGET
from eqloc.record import replace
from eqloc.roots import group_spec, root_system, table_json_dict

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

    @pytest.mark.parametrize(
        "name, codim, line",
        [
            ("sphere_s2.json", 1, "submanifold: codim_L 1, bound 1 (s): respected"),
            ("sphere_s2.json", 2, "submanifold: codim_L 2, bound 1 (s): not respected"),
            ("hk_point.json", 3, "submanifold: codim_L 3, bound 3 (3s): respected"),
            ("hk_point.json", 4, "submanifold: codim_L 4, bound 3 (3s): not respected"),
        ],
    )
    def test_submanifold_restriction_is_reported(self, capsys, tmp_path, name, codim, line):
        doc = json.loads((GOLDEN_DIR / name).read_text())
        assert cli.run(["check", str(GOLDEN_DIR / name)]) == 0
        plain = capsys.readouterr().out
        assert len(plain.splitlines()) == 1
        doc["submanifold"] = {"codim_L": codim}
        p = tmp_path / "a.json"
        p.write_text(json.dumps(doc))
        assert cli.run(["check", str(p)]) == 0
        assert capsys.readouterr().out == plain + line + "\n"

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
        """The profile is set by --profile alone: the environment does not
        change a report."""
        argv = ["reduce", "builtin:sphere_S2", "--mode", "symplectic"]
        assert cli.run(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("EQLOC_PROFILE", "unit_volume")
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["profile"]["name"] == "default"

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

    def test_oracle_reports_convergence(self, capsys):
        argv = ["reduce", "builtin:sphere_S2", "--mode", "symplectic", "--oracle"]
        assert run_json(capsys, argv)["oracle_comparison"]["converged"] is True
        assert cli.run(argv + ["--table"]) == 0
        assert "oracle ladder:   converged over its last two rungs" in capsys.readouterr().out
        doc = run_json(capsys, ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--t", "1,2"])
        assert doc["mollified"]["converged"] is False

    def test_oracle_on_hk_reads_the_contour(self, capsys):
        argv = ["reduce", "builtin:hk_point", "--mode", "hk", "--oracle"]
        cmp = run_json(capsys, argv)["oracle_comparison"]
        assert cmp["route"] == "contour"
        assert cmp["rel_err"] <= 1e-9
        assert cmp["max_nodes"] == 2**20 and cmp["nodes"] >= 32

    def test_depth_flag_is_refused(self, capsys):
        """reduce reads one coefficient at one depth, so it has no --depth."""
        err = run_err(capsys, ["reduce", "builtin:hk_point", "--mode", "hk-p", "--depth", "2"])
        assert err["error"] == "validation"
        assert "--depth" in err["message"]

    def test_even_part_route_past_the_series_budget_is_refused_at_once(self, capsys, tmp_path):
        """710 unit weights at one point: the even-part route would make
        501972 coefficient updates, past the budget; the direct read needs
        none of them."""
        fp = FixedPointDatum(
            name="p",
            moment=(Fraction(0),),
            weights=((1,),) * 710,
            eta=LaurentSeries.const(("y",), 1),
            moment_hk=((Fraction(1), Fraction(0), Fraction(0)),),
        )
        atlas = FixedPointAtlas(
            group=GroupSpec.circle(),
            geometry="hyperkahler",
            dim_m=4 * 710,
            dim_quotient=4 * 710 - 4,
            deg_eta0=0,
            variable_order=("y",),
            fixed_points=(fp,),
        )
        p = tmp_path / "wide.json"
        p.write_text(serialize_atlas(atlas))
        start = time.perf_counter()
        err = run_err(capsys, ["reduce", str(p), "--mode", "hk-p"])
        assert time.perf_counter() - start < 1.0
        assert err["error"] == "validation"
        assert str(SERIES_WORK_BUDGET) in err["message"]
        assert err["context"] == {
            "work": "501972", "budget": str(SERIES_WORK_BUDGET), "max_order": "-4"
        }
        assert run_json(capsys, ["reduce", str(p), "--mode", "hk"])["path"] == "hyperkahler_circle"

    def test_even_part_route_at_rank_2_names_the_direct_read(self, capsys):
        err = run_err(capsys, ["reduce", "builtin:hk_torus_rank2", "--mode", "hk-p"])
        assert err["error"] == "validation"
        assert "use --mode hk" in err["message"]
        assert "torus entry point" not in err["message"]
        assert err["context"] == {"rank": "2", "expected": "1"}

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

    @pytest.mark.parametrize("trunc", [None, -2])
    def test_weyl_mode_inserts_into_raw_points(self, capsys, tmp_path, trunc):
        """A raw point's stored series is multiplied by w^4 = 16 y^4 as the
        structured points' eta are: its y^-6 reads 16 / 2 at y^-2, which the
        contour read of the whole sum confirms, and its truncation order is
        kept."""
        base = su2_weyl_atlas()
        (fp,) = base.fixed_points
        raw = FixedPointDatum(
            name="raw",
            moment=fp.moment,
            weights=(),
            eta=LaurentSeries.const(("y",), 1),
            moment_hk=fp.moment_hk,
            mode="raw",
            raw_contribution=LaurentSeries(("y",), {(-6,): 1}, None if trunc is None else (trunc,)),
        )
        atlas = replace(base, fixed_points=(fp, raw))
        validate_atlas(atlas)
        p = tmp_path / "su2_raw.json"
        p.write_text(serialize_atlas(atlas))
        doc = run_json(capsys, ["reduce", str(p), "--mode", "weyl", "--oracle"])
        contributions = {c["name"]: c["coefficient"] for c in doc["contributions"]}
        assert contributions["raw"] == {"re": [8, 1], "im": [0, 1]}
        cmp = doc["oracle_comparison"]
        assert cmp["route"] == "contour" and "checks" not in cmp
        assert cmp["rel_err"] <= 1e-9, cmp

    def test_exact_zero_is_checked_by_its_absolute_error(self, capsys, tmp_path):
        """su2_weyl_atlas reduces to exactly 0: the comparison says that it
        checks abs_err, and the table prints no relative error."""
        p = tmp_path / "su2.json"
        p.write_text(serialize_atlas(su2_weyl_atlas()))
        argv = ["reduce", str(p), "--mode", "weyl", "--oracle"]
        cmp = run_json(capsys, argv)["oracle_comparison"]
        assert cmp["exact_value"] == [0.0, 0.0]
        assert cmp["checks"] == "abs_err" and cmp["abs_err"] <= 1e-12
        assert type(cmp["rel_err"]) is float
        assert cli.run(argv + ["--table"]) == 0
        table = capsys.readouterr().out
        abs_err = f"{cmp['abs_err']:.3e}"
        assert f"(abs err {abs_err}, checked, as the exact value is 0)" in table
        assert "rel err" not in table

    def test_exact_zero_is_written_as_a_positive_zero(self, capsys, tmp_path):
        """The unit of su2_weyl_atlas's report is negative; its exact 0 is
        still +0.0 in both parts in "numeric", on the table's quotient line
        and in the oracle block's exact_value."""
        p = tmp_path / "su2.json"
        p.write_text(serialize_atlas(su2_weyl_atlas()))
        argv = ["reduce", str(p), "--mode", "weyl"]
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        doc = json.loads(out)
        assert doc["quotient_integral"]["unit"]["q"][0] < 0
        assert [math.copysign(1.0, x) for x in doc["quotient_integral"]["numeric"]] == [1.0, 1.0]
        cmp = run_json(capsys, argv + ["--oracle"])["oracle_comparison"]
        assert [math.copysign(1.0, x) for x in cmp["exact_value"]] == [1.0, 1.0]
        assert cli.run(argv + ["--table"]) == 0
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("quotient:")]
        assert line.endswith(" = 0j"), line

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

    def test_contour_past_the_truncation_order_is_refused(self, capsys, tmp_path):
        """y^-1 trusted through y^5: M = -5 reads y^5, which is 0, while
        M = -7 asks for y^7, which the series does not determine."""
        p = tmp_path / "s.json"
        term = {"exp": [-1], "re": [1, 1], "im": [0, 1]}
        p.write_text(json.dumps({"variables": ["y"], "terms": [term], "trunc": [5]}))
        doc = run_json(capsys, ["oracle", "--contour", str(p), "-5"])
        assert abs(complex(*doc["contour"]["value"])) < 1e-12
        err = run_err(capsys, ["oracle", "--contour", str(p), "-7"])
        assert err["slug"] == "insufficient-truncation"
        assert err["context"] == {"variable": "'y'", "requested": "7", "required": "7"}

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

    def test_torus_names_reduce_oracle(self, capsys):
        for extra in ([], ["--shift", "0,0.1"]):
            argv = ["oracle", "builtin:hk_torus_rank2", "--mode", "hk", *extra]
            err = run_err(capsys, argv)
            assert err["error"] == "validation"
            assert "reduce --oracle" in err["message"]
            assert err["context"] == {"rank": "2"}

    def test_pole_data_is_quadrature_error(self, capsys, tmp_path):
        """sphere_S2's north point alone sums to exp(i y) / y, which has no
        mollified limit."""
        argv = _golden_variant(
            tmp_path, "sphere_s2.json", _keep_north, ["oracle", "--mode", "symplectic"]
        )
        err = run_err(capsys, argv)
        assert err["error"] == "quadrature"
        assert "pole at the origin (principal exponents [(-1,)])" in err["message"]
        assert err["context"] == {"exponents": "[(-1,)]"}

    @pytest.mark.parametrize("extra", [[], ["--shift", "0,0.1"]])
    @pytest.mark.parametrize("atlas", ["builtin:hk_point", "builtin:hk_synthetic(0)"])
    def test_hyperkahler_circle_names_reduce_oracle(self, capsys, atlas, extra):
        """The mollified oracle and its shift check read symplectic circles;
        reduce --oracle checks a hyperkahler report by its contour read."""
        err = run_err(capsys, ["oracle", atlas, "--mode", "hk", *extra])
        assert (err["error"], err["slug"]) == ("validation", "validation")
        assert "reduce --oracle" in err["message"]
        assert err["context"] == {"geometry": "'hyperkahler'"}

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
        assert err["message"] == "unknown group 'E8'; known: ['SU(2)', 'U(2)']"
        assert err["context"] == {"group": "'E8'", "known": "['SU(2)', 'U(2)']"}

    @pytest.mark.parametrize("lookup", [root_system, group_spec, table_json_dict])
    def test_unknown_group_context(self, lookup):
        with pytest.raises(ValidationError) as info:
            lookup("U(3)")
        assert info.value.message == "unknown group 'U(3)'; known: ['SU(2)', 'U(2)']"
        assert info.value.context == {"group": "U(3)", "known": ["SU(2)", "U(2)"]}


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


def _oracle_on_a_torus(tmp_path):
    return ["oracle", "builtin:hk_torus_rank2", "--mode", "hk"]


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


def _keep_north(doc):
    doc["fixed_points"] = doc["fixed_points"][:1]


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
    return _golden_variant(
        tmp_path, "hk_point.json", _set_moment_hk, ["reduce", "--mode", "hk", "--oracle"]
    )


def _oracle_coefficient_beyond_double(tmp_path):
    return _golden_variant(
        tmp_path, "sphere_s2.json", _set_both_eta, ["oracle", "--mode", "symplectic"]
    )


def _set_object_name(doc):
    doc["fixed_points"][0]["name"] = {"a": [1, 2]}


def _point_name_not_a_string(tmp_path):
    return _golden_variant(tmp_path, "sphere_s2.json", _set_object_name, ["check"])


def _set_list_mode(doc):
    doc["fixed_points"][0]["mode"] = ["raw"]


def _point_mode_not_a_string(tmp_path):
    return _golden_variant(tmp_path, "sphere_s2.json", _set_list_mode, ["check"])


def _set_int_geometry(doc):
    doc["geometry"] = 7


def _geometry_not_a_string(tmp_path):
    return _golden_variant(tmp_path, "hk_point.json", _set_int_geometry, ["check"])


def _set_null_kind(doc):
    doc["group"]["kind"] = None


def _group_kind_not_a_string(tmp_path):
    return _golden_variant(
        tmp_path, "mirror_pair_7.json", _set_null_kind, ["reduce", "--mode", "symplectic"]
    )


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
        # at 10**5 the default ladder's first rung, t = 1, fits the budget
        (10**6, ["reduce", "--mode", "symplectic", "--oracle"]),
    ],
)
def test_oversize_oracle_grid_exits_1(capsys, tmp_path, monkeypatch, moment, tail):
    """A moment whose grid would not fit the panel budget is refused before
    the grid is built (building the panel centres that every quadrature
    round lays its nodes about fails the test instead of allocating)."""
    import eqloc.oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(eqloc.oracle, "_centers", refuse)
    doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
    for fp in doc["fixed_points"]:
        fp["moment"] = [[moment if fp["moment"][0][0] > 0 else -moment, 1]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    err = run_err(capsys, [tail[0], str(path)] + tail[1:])
    assert err["error"] == "quadrature"
    assert "panel budget exhausted" in err["message"]
    assert err["context"] == {"budget": "300000"}


def test_oversize_top_rung_is_refused_before_any_rung_is_evaluated(capsys, monkeypatch):
    """t = 1e20 needs more panels than the budget; every rung's grid is
    laid out before any panel is evaluated, so t = 1, which fits, is not
    integrated first."""
    import eqloc.oracle

    def refuse(*args, **kwargs):
        raise AssertionError("a panel was evaluated")

    monkeypatch.setattr(eqloc.oracle, "_centers", refuse)
    monkeypatch.setattr(eqloc.oracle._MollifiedPanels, "sums", refuse)
    err = run_err(capsys, ["oracle", "builtin:sphere_S2", "--mode", "symplectic", "--t", "1,1e20"])
    assert err["error"] == "quadrature"
    assert err["message"] == (
        "quadrature panel budget exhausted: more than 300000 panels; lower the top of "
        "the t ladder (--t), or raise MollifierConfig.max_panels when calling the library"
    )
    assert err["context"] == {"budget": "300000"}


def _set_huge_eta(doc):
    doc["fixed_points"][0]["eta"]["terms"][0]["re"] = [10**307, 1]


def _add_deep_eta_term(doc):
    doc["fixed_points"][0]["eta"]["terms"].append({"exp": [1100, 0], "re": [1, 1], "im": [0, 1]})


@pytest.mark.parametrize(
    "golden, edit, message, context",
    [
        # values near 1e307 on the torus: the exact report is finite
        (
            "hk_point.json",
            _set_huge_eta,
            "leave the range of a double",
            {"nodes": "32"},
        ),
        # a y1^1100 term puts the first grid at 2048^2 nodes
        (
            "hk_torus_rank2.json",
            _add_deep_eta_term,
            "past its budget",
            {"nodes": "4194304", "budget": "1048576"},
        ),
    ],
)
def test_contour_read_past_a_double_or_the_budget_exits_1(
    capsys, tmp_path, golden, edit, message, context
):
    """The report itself is fine; only the contour read is refused, with
    exit 1 and no NaN anywhere in the output."""
    argv = _golden_variant(tmp_path, golden, edit, ["reduce", "--mode", "hk"])
    assert cli.run(argv) == 0
    capsys.readouterr()
    rc = cli.run(argv + ["--oracle"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "nan" not in out.err.lower()
    err = json.loads(out.err)
    assert err["error"] == "quadrature"
    assert message in err["message"]
    assert err["context"] == context


CLOSED_PIPE_CALLS = [
    ["roots", "SU(2)"],
    ["reduce", str(GOLDEN_DIR / "mirror_pair_7.json"), "--mode", "symplectic", "--table"],
]


class TestErrorMapping:
    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._COMMANDS, "roots", boom)
        err = run_err(capsys, ["roots"], expect_code=2)
        assert err["error"] == "internal"
        assert "slug" not in err

    @pytest.mark.parametrize("argv", CLOSED_PIPE_CALLS)
    def test_closed_stdout_is_not_an_internal_fault(self, capsys, argv):
        """A reader that closed stdout early is no fault of the program:
        run returns 1 and writes no error object."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with contextlib.redirect_stdout(ClosedPipe()):
            assert cli.run(argv) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", CLOSED_PIPE_CALLS)
    def test_closed_pipe_exits_1_quietly(self, argv):
        """The same through a real pipe whose read end is closed before the
        call starts, so that no flush, at exit included, can reach it."""
        read, write = os.pipe()
        os.close(read)
        src = str(Path(cli.__file__).resolve().parent.parent)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "eqloc.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write)
        assert out.returncode == 1, out.stderr
        for text in ("internal", "Traceback", "Exception ignored"):
            assert text not in out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            _series_missing_re,
            _series_fractional_trunc,
            _contour_term_beyond_double,
            _contour_index_beyond_double,
            _oracle_on_a_torus,
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
            _point_mode_not_a_string,
            _geometry_not_a_string,
            _group_kind_not_a_string,
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

    @pytest.mark.parametrize("command", [["check"], ["reduce", "--mode", "symplectic"]])
    def test_zero_tangent_weight_names_point_and_weight(self, capsys, tmp_path, command):
        doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
        doc["fixed_points"][0]["weights"] = [[1], [0]]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        err = run_err(capsys, [command[0], str(path), *command[1:]])
        assert err["error"] == "validation"
        assert err["slug"] == "validation"
        assert err["message"] == "e(y) is a zero divisor at 'north': zero tangent weight"
        assert err["context"] == {"point": "'north'", "weight": "(0,)"}

    def test_mixed_weight_reduce_carries_slug_and_context(self, capsys, tmp_path):
        doc = json.loads((GOLDEN_DIR / "hk_torus_rank2.json").read_text())
        doc["fixed_points"][0]["weights"] = [[1, 1], [1, 0], [0, 1], [1, -1]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        for argv in (["check", str(path)], ["reduce", str(path), "--mode", "hk"]):
            err = run_err(capsys, argv)
            assert err["error"] == "validation"
            assert err["slug"] == "validation"
            assert err["context"] == {"point": "'product'", "weight": "(1, 1)"}
            assert "'product'" in err["message"]
            assert "mixed weights are not supported yet" in err["message"]

    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["localize"],
            ["oracle", "--mode", "symplectic"],
            ["reduce", "--mode", "symplectic"],
        ],
    )
    def test_atlas_without_fixed_points_is_refused_at_validation(self, capsys, tmp_path, command):
        doc = json.loads((GOLDEN_DIR / "sphere_s2.json").read_text())
        doc["fixed_points"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        err = run_err(capsys, [command[0], str(path), *command[1:]])
        assert err["error"] == "validation"
        assert err["message"] == "atlas has no fixed points; nothing to localize"
        assert err["context"] == {"key": "'fixed_points'"}


def _unreadable_series(tmp_path, monkeypatch):
    return ["oracle", "--contour", str(tmp_path / "none.json"), "1"]


def _series_not_json(tmp_path, monkeypatch):
    p = tmp_path / "s.json"
    p.write_text('{"variables":\n ["y"] ]')
    return ["oracle", "--contour", str(p), "1"]


def _unknown_example(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "EXAMPLE_FILES", ("none.json",))
    return ["examples", "--out", str(tmp_path)]


def _out_under_a_file(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    return ["examples", "--out", str(tmp_path / "file" / "out")]


def _example_named_by_a_directory(tmp_path, monkeypatch):
    (tmp_path / "sphere_s2.json").mkdir()
    return ["examples", "--out", str(tmp_path)]


_MOLLIFIED = ["oracle", "builtin:sphere_S2", "--mode", "symplectic"]


@pytest.mark.parametrize(
    "argv, context",
    [
        (
            lambda tmp_path, _: ["check", str(tmp_path / "none.json")],
            lambda tmp_path: {"path": repr(str(tmp_path / "none.json"))},
        ),
        (
            _unreadable_series,
            lambda tmp_path: {"path": repr(str(tmp_path / "none.json"))},
        ),
        (
            _series_not_json,
            lambda tmp_path: {"path": repr(str(tmp_path / "s.json")), "line": "2", "column": "8"},
        ),
        (
            lambda *_: _MOLLIFIED + ["--shift", "0,x"],
            lambda _: {"what": "'moment shifts'", "text": "'0,x'"},
        ),
        (
            lambda *_: _MOLLIFIED + ["--t", "1,inf"],
            lambda _: {"what": "'t ladder'", "text": "'1,inf'"},
        ),
        (
            lambda *_: ["oracle", "builtin:hk_point", "--mode", "symplectic"],
            lambda _: {"mode": "'symplectic'", "geometry": "'hyperkahler'"},
        ),
        (_out_under_a_file, lambda tmp_path: {"out": repr(str(tmp_path / "file" / "out"))}),
        (_unknown_example, lambda _: {"name": "'none.json'"}),
        (
            _example_named_by_a_directory,
            lambda tmp_path: {"path": repr(str(tmp_path / "sphere_s2.json"))},
        ),
    ],
    ids=[
        "atlas_path", "series_path", "series_json", "numbers_parse", "numbers_finite",
        "oracle_mode", "examples_out", "example_name", "example_path",
    ],
)
def test_cli_refusal_names_its_value(capsys, tmp_path, monkeypatch, argv, context):
    err = run_err(capsys, argv(tmp_path, monkeypatch))
    assert err["error"] == "validation"
    assert err["context"] == context(tmp_path)


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
        """``import eqloc`` registers eqloc.oracle without running it or
        loading numpy; the names the benchmark's tracer rebinds resolve on
        use, which runs the oracle and loads numpy."""
        names = ("oracle_comparison", "atlas_integrand", "adaptive_quadrature")
        probe = _fresh_python(
            [
                "-c",
                "import sys, eqloc; oracle = sys.modules['eqloc.oracle']; "
                f"print({_RAN}, 'numpy' in sys.modules, "
                f"[callable(getattr(oracle, n)) for n in {names!r}], "
                "'numpy' in sys.modules)",
            ]
        )
        assert probe.stdout == "[] False [True, True, True] True\n", probe.stderr
        argv = ["reduce", "builtin:mirror_pair(7)", "--mode", "symplectic", "--oracle"]
        proc = _fresh_python(["-m", "eqloc.cli", *argv])
        assert proc.returncode == 0, proc.stderr
        doc = run_json(capsys, argv)
        assert doc["oracle_comparison"]["rel_err"] < 1e-6
        assert proc.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- a command runs only the modules it uses --------------------------------

_LAZY_MODULES = ("eqloc.engines", "eqloc.localize", "eqloc.oracle")

# Any attribute read of a lazy module runs it, so the runners look at its
# __dict__ past the module's __getattribute__: the dict gains __builtins__
# only when the module's code runs.
_RAN = (
    "[m for m in {lazy!r} "
    "if '__builtins__' in object.__getattribute__(sys.modules[m], '__dict__')]"
).format(lazy=_LAZY_MODULES)

# python -m eqloc.cli ARGV, then the lazy modules that ran, on stderr
_RUN_CLI_AS_MAIN = f"""
import json, runpy, sys
sys.argv = ["eqloc", *json.loads(sys.argv[1])]
try:
    runpy.run_module("eqloc.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps([code, {_RAN}]))
"""

_PACKAGE_SURFACE = f"""
import json, sys, types
import eqloc, eqloc.cli
ran_at_import = {_RAN}
listed = set(eqloc.__all__) <= set(dir(eqloc))
ran_after_dir = {_RAN}
home = {{}}
for name in eqloc.__all__:
    if name == "__version__":
        continue
    obj = getattr(eqloc, name)
    if obj is not getattr(sys.modules[obj.__module__], name):
        home[name] = obj.__module__
print(json.dumps({{
    "ran_at_import": ran_at_import,
    "ran_after_dir": ran_after_dir,
    "all_in_dir": listed,
    "not_from_home": home,
    "localize_is_function": isinstance(eqloc.localize, types.FunctionType),
    "submodules": [getattr(eqloc, m.split(".")[1]) is sys.modules[m]
                   for m in ("eqloc.engines", "eqloc.oracle")],
}}))
"""

_TRACER_ON_A_FRESH_IMPORT = f"""
import json, sys, types
sys.path.insert(0, sys.argv[1])
import eqloc, eqloc.cli
import tracing
ran_before = {_RAN}
atlas = eqloc.builtin_atlas("hk_point")
tracer = tracing.Tracer()
with tracer:
    with tracer.span("op"):
        eqloc.reduce_hk_circle(atlas)
    rebound = len(tracer.rebound())
left = []
for name, mod in list(sys.modules.items()):
    if name == "eqloc" or name.startswith("eqloc."):
        owners = [mod, *(v for v in vars(mod).values() if isinstance(v, type))]
        for owner in owners:
            for attr, value in vars(owner).items():
                if isinstance(value, types.FunctionType) and value.__qualname__.startswith("Tracer."):
                    left.append(name + ":" + getattr(owner, "__name__", "") + "." + attr)
print(json.dumps({{
    "ran_before": ran_before,
    "rebound": rebound,
    "reduce_calls": tracer.counts["engines.reduce.calls"],
    "wrappers_left": sorted(set(left)),
    "package_sees_original": eqloc.reduce_hk_circle is sys.modules["eqloc.engines"].reduce_hk_circle
                             and not hasattr(eqloc.reduce_hk_circle, "__wrapped__"),
}}))
"""


class TestLazyModules:
    @pytest.mark.parametrize(
        "argv, ran",
        [
            (["check", str(GOLDEN_DIR / "sphere_s2.json")], []),
            (["roots", "SU(2)"], []),
            (["roots"], []),
            (["localize", str(GOLDEN_DIR / "sphere_s2.json"), "--depth", "2"], ["eqloc.localize"]),
            (["examples", "--out", "{tmp}"], []),
            (
                ["reduce", str(GOLDEN_DIR / "mirror_pair_7.json"), "--mode", "symplectic"],
                ["eqloc.engines", "eqloc.localize"],
            ),
            (
                ["reduce", str(GOLDEN_DIR / "hk_point.json"), "--mode", "hk-p"],
                ["eqloc.engines", "eqloc.localize"],
            ),
            (
                ["reduce", "builtin:mirror_pair(7)", "--mode", "symplectic", "--oracle"],
                list(_LAZY_MODULES),
            ),
            (["oracle", "--suptsq", "1", "2"], ["eqloc.localize", "eqloc.oracle"]),
        ],
    )
    def test_command_runs_only_the_modules_it_uses(self, capsys, tmp_path, argv, ran):
        """python -m eqloc.cli in a fresh interpreter runs no lazy module the
        command does not use, and prints what the in-process run prints."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = _fresh_python(["-c", _RUN_CLI_AS_MAIN, json.dumps(argv)])
        code, executed = json.loads(proc.stderr.splitlines()[-1])
        assert (code, executed) == (0, ran), proc.stderr
        assert cli.run(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_package_surface(self):
        proc = _fresh_python(["-c", _PACKAGE_SURFACE])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "ran_at_import": [],
            "ran_after_dir": [],
            "all_in_dir": True,
            "not_from_home": {},
            "localize_is_function": True,
            "submodules": [True, True],
        }

    def test_tracer_on_a_fresh_import_restores_every_binding(self):
        """The benchmark's tracer installed when only ``import eqloc,
        eqloc.cli`` has run: it runs the lazy modules itself, counts the
        call, and leaves no wrapper behind in any eqloc module or class."""
        bench = Path(__file__).resolve().parent.parent / "bench"
        proc = _fresh_python(["-c", _TRACER_ON_A_FRESH_IMPORT, str(bench)])
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["ran_before"] == []
        assert got["rebound"] > 0
        assert got["reduce_calls"] == 1
        assert got["wrappers_left"] == []
        assert got["package_sees_original"]


# `import eqloc` (no argv) or python -m eqloc.cli ARGV, then its exit code
# and which of the class-generator modules it loaded, on stderr
_CLASS_GENERATOR_MODULES = f"""
import json, runpy, sys
argv = json.loads(sys.argv[1])
code = 0
if argv:
    sys.argv = ["eqloc", *argv]
    try:
        runpy.run_module("eqloc.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import eqloc
sys.stderr.write(json.dumps([code, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


class TestColdPathStdlib:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["check", str(GOLDEN_DIR / "sphere_s2.json")],
            ["reduce", str(GOLDEN_DIR / "mirror_pair_7.json"), "--mode", "symplectic"],
            ["reduce", str(GOLDEN_DIR / "hk_point.json"), "--mode", "hk"],
            ["reduce", str(GOLDEN_DIR / "hk_point.json"), "--mode", "hk-p"],
            ["localize", str(GOLDEN_DIR / "sphere_s2.json"), "--depth", "2"],
            ["roots", "SU(2)"],
            ["examples", "--out", "{tmp}"],
        ],
    )
    def test_cold_commands_load_no_class_generator(self, tmp_path, argv):
        """The records are slots classes: `import eqloc` and every command
        that does not run the oracle leave dataclasses and inspect unloaded."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = _fresh_python(["-c", _CLASS_GENERATOR_MODULES, json.dumps(argv)])
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, []], proc.stderr


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
