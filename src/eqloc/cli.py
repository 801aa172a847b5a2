"""Command line front end.

Subcommands:
  check     parse and validate an atlas file
  localize  print the fixed-point contribution series
  reduce    run a reduction engine and print the report as JSON
  oracle    mollified convergence tables and numeric spot checks
  roots     print bundled root-system tables
  examples  write the bundled example files

Atlas arguments are file paths, or builtin:NAME / builtin:NAME(SEED) for the
bundled generators.  Exit code 0 on success, 1 for invalid input or a
quadrature failure (with an error object on stderr) and for a stdout whose
reader has closed it (without one), 2 for internal faults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .atlas import (
    builtin_atlas,
    canonical_dumps,
    check_variable_order,
    parse_atlas,
    parse_series_terms,
    permute_atlas_variables,
    serialize_atlas,
    submanifold_bound,
    validate_respected,
)
from .errors import EqlocError, InternalError, QuadratureError, SeriesError, ValidationError
from .exact import LaurentSeries
from .roots import known_groups, table_json_dict


class _Parser(argparse.ArgumentParser):
    # argparse calls error() for unknown flags and missing arguments; raise
    # instead of SystemExit so usage mistakes land in the exit-1 class
    def error(self, message):
        raise ValidationError(message)


def _emit(doc) -> None:
    sys.stdout.write(canonical_dumps(doc))


def _load_atlas(spec: str):
    if spec.startswith("builtin:"):
        return builtin_atlas(spec[len("builtin:") :])
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read atlas file {spec!r}: {exc}", path=spec)
    return parse_atlas(text)


def _load_series(path: str) -> LaurentSeries:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read series file {path!r}: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"series file {path!r} is not JSON: {exc}",
            path=path, line=exc.lineno, column=exc.colno,
        )
    if not isinstance(doc, dict) or set(doc) - {"variables", "terms", "trunc"}:
        raise ValidationError(
            "series file must be an object with keys variables, terms and "
            "optionally trunc"
        )
    if "variables" not in doc or "terms" not in doc:
        raise ValidationError("series file needs variables and terms")
    variables = doc["variables"]
    if not isinstance(variables, list) or not variables or not all(
        isinstance(v, str) for v in variables
    ):
        raise ValidationError("series file variables must be a nonempty list of strings")
    variables = tuple(variables)
    check_variable_order(variables, len(variables))
    trunc = doc.get("trunc")
    if trunc is not None and (
        not isinstance(trunc, list)
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in trunc)
    ):
        raise ValidationError("series file trunc must be a list of integers")
    return parse_series_terms(doc["terms"], variables, f"series file {path!r}", trunc)


def _numbers(text: str, what: str) -> tuple:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"cannot parse {what} {text!r}", what=what, text=text)
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(
            f"{what} must be finite numbers, got {text!r}", what=what, text=text
        )
    return values


def _ladder(text):
    if text is None:
        return None
    return _numbers(text, "t ladder")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eqloc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an atlas file")
    p.add_argument("atlas")

    p = sub.add_parser("localize", help="print contribution series")
    p.add_argument("atlas")
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--eta-mode", choices=("atlas", "one"), default="atlas")

    p = sub.add_parser("reduce", help="evaluate the quotient integral")
    p.add_argument("atlas")
    p.add_argument(
        "--mode", required=True, choices=("symplectic", "hk", "hk-p", "weyl")
    )
    p.add_argument("--profile")
    p.add_argument("--eta-mode", choices=("atlas", "one"), default="atlas")
    p.add_argument("--order", help="comma-separated variable order, e.g. y2,y1")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--table", action="store_true", help="human-readable output")

    p = sub.add_parser("oracle", help="numeric cross checks")
    p.add_argument("atlas", nargs="?")
    p.add_argument("--mode", choices=("symplectic", "hk"))
    p.add_argument("--t", dest="t_ladder", help="comma-separated t ladder")
    p.add_argument(
        "--extrapolation", choices=("last_value", "richardson"), default=None
    )
    p.add_argument("--suptsq", nargs=2, metavar=("X", "N"))
    p.add_argument("--contour", nargs=2, metavar=("SERIES", "M"))
    p.add_argument("--shift", help="comma-separated moment shifts")

    p = sub.add_parser("roots", help="bundled root-system tables")
    p.add_argument("name", nargs="?")

    p = sub.add_parser("examples", help="write the bundled example files")
    p.add_argument("--out", default=".")

    return parser


def _cmd_check(args) -> int:
    atlas = _load_atlas(args.atlas)
    n = len(atlas.fixed_points)
    print(f"valid: {n} fixed point{'s' if n != 1 else ''}, {atlas.geometry}, {atlas.group.kind}")
    if atlas.submanifold is not None:
        held = "respected" if validate_respected(atlas) else "not respected"
        label = "3s" if atlas.geometry == "hyperkahler" else "s"
        print(
            f"submanifold: codim_L {atlas.submanifold.codim}, bound "
            f"{submanifold_bound(atlas)} ({label}): {held}"
        )
    return 0


def _cmd_localize(args) -> int:
    from .localize import localize, phase_factory

    atlas = _load_atlas(args.atlas)
    if args.depth < 0:
        raise ValidationError("depth must be nonnegative")
    target = -1 if atlas.geometry == "symplectic" else -2
    order = target + args.depth
    result = localize(atlas, phase_factory(args.eta_mode), (order,) * atlas.group.rank)
    for name, series in result.contributions:
        print(f"{name}: {series.canonical_text()}")
    print(f"total: {result.total.canonical_text()}")
    return 0


def _cmd_reduce(args) -> int:
    from .engines import (
        reduce_hk_circle,
        reduce_hk_circle_viaP,
        reduce_hk_torus,
        reduce_symplectic_circle,
        reduce_symplectic_torus,
        weyl_wrap,
    )

    atlas = _load_atlas(args.atlas)
    if args.order:
        new_order = tuple(v.strip() for v in args.order.split(","))
        atlas = permute_atlas_variables(atlas, new_order)
    rank = atlas.group.rank
    if args.mode == "weyl":
        fn = weyl_wrap
    elif args.mode == "symplectic":
        fn = reduce_symplectic_circle if rank == 1 else reduce_symplectic_torus
    elif args.mode == "hk":
        fn = reduce_hk_circle if rank == 1 else reduce_hk_torus
    else:
        fn = reduce_hk_circle_viaP
    report = fn(atlas, profile=args.profile, eta_mode=args.eta_mode)
    if args.oracle:
        from .oracle import oracle_comparison

        report = report.with_oracle(oracle_comparison(report, atlas))
    if args.table:
        print(report.table_text())
    else:
        _emit(report.to_json_dict(include_path=True))
    return 0


def _oracle_cfg(args) -> MollifierConfig:
    from .oracle import MollifierConfig

    kwargs = {}
    ladder = _ladder(args.t_ladder)
    if ladder is not None:
        kwargs["t_ladder"] = ladder
    if args.extrapolation is not None:
        kwargs["extrapolation"] = args.extrapolation
    return MollifierConfig(**kwargs)


def _cmd_oracle(args) -> int:
    from .oracle import (
        atlas_integrand,
        contour_coeff,
        mollified_oint,
        shift_smoothness_check,
        suptsq_check,
    )

    chosen = [
        bool(args.atlas),
        args.suptsq is not None,
        args.contour is not None,
    ]
    if sum(chosen) != 1:
        raise ValidationError(
            "pass exactly one of: an atlas (with --mode), --suptsq, --contour"
        )

    if args.suptsq is not None:
        x_text, n_text = args.suptsq
        try:
            (x,) = _numbers(x_text, "--suptsq X")
            n = int(n_text)
        except ValueError:
            raise ValidationError("--suptsq expects a float X and an integer N")
        ladder = _ladder(args.t_ladder)
        table = suptsq_check(x, n, ladder) if ladder else suptsq_check(x, n)
        _emit({"suptsq": table.to_json_dict()})
        return 0

    if args.contour is not None:
        path, m_text = args.contour
        try:
            m = int(m_text)
        except ValueError:
            raise ValidationError("--contour expects an integer coefficient index")
        series = _load_series(path)
        value = contour_coeff(series, m, series.vars[0])
        _emit({"contour": {"m": m, "value": [value.real, value.imag]}})
        return 0

    if args.mode is None:
        raise ValidationError("--mode is required when an atlas is given")
    atlas = _load_atlas(args.atlas)
    geometry = "symplectic" if args.mode == "symplectic" else "hyperkahler"
    if atlas.geometry != geometry:
        raise ValidationError(
            f"--mode {args.mode} does not match atlas geometry {atlas.geometry}",
            mode=args.mode,
            geometry=atlas.geometry,
        )
    if args.shift is not None:
        zetas = _numbers(args.shift, "moment shifts")
        table = shift_smoothness_check(atlas, zetas, _oracle_cfg(args))
        _emit({"shift": table.to_json_dict()})
        return 0
    cfg = _oracle_cfg(args)
    res = mollified_oint(atlas_integrand(atlas), atlas.group, cfg)
    _emit({"mollified": res.to_json_dict()})
    return 0


def _cmd_roots(args) -> int:
    if args.name is None:
        _emit({"groups": known_groups()})
        return 0
    _emit(table_json_dict(args.name))
    return 0


EXAMPLE_FILES = (
    "sphere_s2.json",
    "mirror_pair_7.json",
    "hk_point.json",
    "hk_torus_rank2.json",
    "su2_roots.json",
)


def example_file_text(name: str) -> str:
    if name == "sphere_s2.json":
        return serialize_atlas(builtin_atlas("sphere_S2"))
    if name == "mirror_pair_7.json":
        return serialize_atlas(builtin_atlas("mirror_pair", seed=7))
    if name == "hk_point.json":
        return serialize_atlas(builtin_atlas("hk_point"))
    if name == "hk_torus_rank2.json":
        return serialize_atlas(builtin_atlas("hk_torus_rank2"))
    if name == "su2_roots.json":
        return canonical_dumps(table_json_dict("SU(2)"))
    raise ValidationError(f"unknown example {name!r}", name=name)


def _cmd_examples(args) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {args.out!r}: {exc}", out=args.out
        )
    for name in EXAMPLE_FILES:
        path = out / name
        try:
            path.write_text(example_file_text(name))
        except OSError as exc:
            raise ValidationError(f"cannot write {str(path)!r}: {exc}", path=str(path))
        print(path)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "localize": _cmd_localize,
    "reduce": _cmd_reduce,
    "oracle": _cmd_oracle,
    "roots": _cmd_roots,
    "examples": _cmd_examples,
}


def _fail(kind: str, exc: BaseException, code: int) -> int:
    doc = {"error": kind, "message": str(exc)}
    if isinstance(exc, EqlocError):
        detail = exc.to_json_dict()
        doc["slug"] = detail["error"]
        doc["context"] = detail.get("context", {})
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValidationError as exc:
        return _fail("validation", exc, 1)
    except QuadratureError as exc:
        return _fail("quadrature", exc, 1)
    except SeriesError as exc:
        return _fail("series", exc, 1)
    except InternalError as exc:
        return _fail("internal", exc, 2)
    except EqlocError as exc:
        return _fail("internal", exc, 2)
    except BrokenPipeError:  # the reader closed stdout: nothing to report to
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        return _fail("internal", exc, 2)


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
