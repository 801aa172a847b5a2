import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from eqloc import cli
from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    parse_atlas,
    serialize_atlas,
    validate_atlas,
)
from eqloc.exact import LaurentSeries
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
        assert doc["oracle_comparison"]["rel_err"] < 1e-8

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
            _unparsable_shift,
            _nonfinite_shift,
            _nonfinite_ladder,
            _string_volume_power,
        ],
    )
    def test_bad_user_input_is_validation(self, capsys, tmp_path, argv):
        rc = cli.run(argv(tmp_path))
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert doc["slug"] == "validation"

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
