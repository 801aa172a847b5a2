#!/usr/bin/env python3
"""In-process timings of the atlas and report I/O layers on benchmark passes.

For each workload (reduce-exact and oracle-check by default), builds the
operations of ``bench/workloads.py`` from the documents ``bench/inputs.py``
generates at ``--seed``, and runs one pass over them, recording the argument
of every ``parse_atlas``, ``serialize_atlas`` and
``ReductionReport.canonical_json`` call the pass makes.  It then times each
layer on exactly those arguments, and the whole pass, each the best of
``--repeat`` runs, and prints the microseconds per call and the layer's share
of a pass.  ``json.loads`` of the same documents is shown as the part of
parsing that the standard library does.

Usage:
  python scripts/io_layers.py
  python scripts/io_layers.py --seed 9001 --repeat 9 --workload reduce-exact
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

# one thread, as the benchmark runs: set before numpy is imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import json  # noqa: E402

import eqloc  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("reduce-exact", "oracle-check")


def record_pass(ops) -> dict:
    """{layer: [argument of each call]} over one pass of ops."""
    report_cls = eqloc.engines.ReductionReport
    parse, serialize, write = eqloc.parse_atlas, eqloc.serialize_atlas, report_cls.canonical_json
    calls = {"parse_atlas": [], "serialize_atlas": [], "canonical_json": []}

    def parse_rec(doc):
        calls["parse_atlas"].append(doc)
        return parse(doc)

    def serialize_rec(atlas):
        calls["serialize_atlas"].append(atlas)
        return serialize(atlas)

    def write_rec(report):
        calls["canonical_json"].append(report)
        return write(report)

    eqloc.parse_atlas, eqloc.serialize_atlas = parse_rec, serialize_rec
    report_cls.canonical_json = write_rec
    try:
        for op in ops:
            ok, _ = op()
            if not ok:
                raise SystemExit("an operation failed its check")
    finally:
        eqloc.parse_atlas, eqloc.serialize_atlas = parse, serialize
        report_cls.canonical_json = write
    return calls


def best_of(repeat: int, fn, args) -> float:
    """The shortest of ``repeat`` runs of fn over every argument, in s."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a in args:
            fn(a)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7, help="runs per timing; the best is kept")
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or WORKLOADS:
            ops = workloads.WORKLOADS[name](args.seed, Path(tmp)).ops
            calls = record_pass(ops)
            pass_s = best_of(args.repeat, lambda op: op(), ops)
            layers = [
                ("parse_atlas", eqloc.parse_atlas, calls["parse_atlas"]),
                ("  json.loads", json.loads, calls["parse_atlas"]),
                ("serialize_atlas", eqloc.serialize_atlas, calls["serialize_atlas"]),
                ("canonical_json", eqloc.engines.ReductionReport.canonical_json,
                 calls["canonical_json"]),
            ]
            print(
                f"{name} seed {args.seed}: {len(ops)} operations, pass "
                f"{pass_s * 1e3:.2f} ms (best of {args.repeat})"
            )
            print(f"  {'layer':<17}{'calls':>7}{'us/call':>10}{'ms/pass':>10}{'share':>8}")
            for label, fn, fn_args in layers:
                t = best_of(args.repeat, fn, fn_args) if fn_args else 0.0
                per_call = t / len(fn_args) * 1e6 if fn_args else 0.0
                print(
                    f"  {label:<17}{len(fn_args):>7}{per_call:>10.1f}{t * 1e3:>10.2f}"
                    f"{100 * t / pass_s:>7.1f}%"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
