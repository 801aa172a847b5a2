"""The benchmark workloads: one operation per input, each checked by
an independent route.

An operation is a callable returning ``(ok, output)``: ``ok`` says whether
its check passed and ``output`` is the exact text it produced, which goes
into the run's determinism digest.  Every call into the program goes through
an ``eqloc`` module attribute, so the tracer's rebinding sees it.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

import eqloc
import eqloc.cli

import inputs

Op = Callable[[], Tuple[bool, str]]

#: acceptance criterion 3: oracle and exact values agree to this relative error
ORACLE_REL_TOL = 1e-6
CLI_TIMEOUT_S = 60


@dataclass
class Workload:
    """Operations in plan order; ``traced`` are the in-process operations a
    traced run times (the same as ``ops`` except on cli-cold)."""

    ops: List[Op]
    traced: List[Op] = field(default_factory=list)

    def __post_init__(self):
        if not self.traced:
            self.traced = self.ops


# -- reduce-exact ---------------------------------------------------------


def _hk_op(doc: str) -> Op:
    def op():
        atlas = eqloc.parse_atlas(doc)
        direct = eqloc.reduce_hk_circle(atlas).canonical_json()
        even = eqloc.reduce_hk_circle_viaP(atlas).canonical_json()
        return eqloc.serialize_atlas(atlas) == doc and direct == even, direct

    return op


def _torus_op(case: dict) -> Op:
    def op():
        atlas = eqloc.parse_atlas(case["product"])
        ok = eqloc.serialize_atlas(atlas) == case["product"]
        report = eqloc.reduce_symplectic_torus(atlas)
        out = [report.canonical_json()]
        product = eqloc.ComplexRational.one()
        for circle_doc, torus_doc in zip(case["circles"], case["tori"]):
            circle = eqloc.reduce_symplectic_circle(eqloc.parse_atlas(circle_doc))
            torus = eqloc.reduce_symplectic_torus(eqloc.parse_atlas(torus_doc))
            text = circle.canonical_json()
            ok = ok and text == torus.canonical_json()
            product = product * circle.raw_coefficient
            out.append(text)
        return ok and product == report.raw_coefficient, "".join(out)

    return op


def reduce_exact(seed: int, workdir: Path) -> Workload:
    pool = inputs.reduce_exact_pool(seed)
    return Workload([_hk_op(it["doc"]) if it["kind"] == "hk" else _torus_op(it) for it in pool])


# -- oracle-check ---------------------------------------------------------


def _oracle_op(doc: str) -> Op:
    def op():
        atlas = eqloc.parse_atlas(doc)
        report = eqloc.reduce_symplectic_circle(atlas)
        comparison = eqloc.oracle_comparison(report, atlas)
        return comparison["rel_err"] <= ORACLE_REL_TOL, report.canonical_json()

    return op


def oracle_check(seed: int, workdir: Path) -> Workload:
    return Workload([_oracle_op(doc) for doc in inputs.oracle_pool(seed)])


# -- cli-cold -------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(eqloc.__file__).resolve().parent.parent)
    return env


def _in_process(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = eqloc.cli.run(argv)
    return code, buf.getvalue()


def _report_json(report) -> str:
    """What ``reduce`` prints, built from the library's own report."""
    return json.dumps(report.to_json_dict(include_path=True), sort_keys=True, indent=2) + "\n"


def _expected(argv: List[str]) -> str:
    if argv[0] == "reduce":
        atlas = eqloc.parse_atlas(Path(argv[1]).read_text())
        engine = {
            "symplectic": eqloc.reduce_symplectic_circle,
            "hk-p": eqloc.reduce_hk_circle_viaP,
        }[argv[3]]
        return _report_json(engine(atlas))
    return _in_process(argv)[1]


def _cli_op(argv: List[str], expected: str, env: dict, workdir: Path) -> Op:
    cmd = [sys.executable, "-m", "eqloc.cli", *argv]

    def op():
        proc = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        return proc.returncode == 0 and proc.stdout == expected, proc.stdout

    return op


def _cli_in_process_op(argv: List[str], expected: str) -> Op:
    def op():
        code, out = _in_process(argv)
        return code == 0 and out == expected, out

    return op


def cli_cold(seed: int, workdir: Path) -> Workload:
    env = cli_env()
    ops, traced = [], []
    for n, files in enumerate(inputs.cli_pool(seed)):
        paths = {}
        for key, text in files.items():
            path = workdir / f"{key}{n}.json"
            path.write_text(text)
            paths[key] = str(path)
        for template in inputs.CLI_COMMANDS:
            argv = [arg.format(**paths) for arg in template]
            expected = _expected(argv)
            ops.append(_cli_op(argv, expected, env, workdir))
            traced.append(_cli_in_process_op(argv, expected))
    return Workload(ops, traced)


WORKLOADS = {
    "reduce-exact": reduce_exact,
    "oracle-check": oracle_check,
    "cli-cold": cli_cold,
}
