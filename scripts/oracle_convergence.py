#!/usr/bin/env python3
"""t-ladder convergence study for the mollified oracle.

Reads a symplectic circle atlas, the one kind the mollified oracle checks.
Prints the ladder value, successive difference, quadrature error estimate
and panels spent per t, whether the last two rungs agree (the oracle's
converged verdict), the extrapolated limits under both rules, and the exact
engine value the ladder should approach.  Any other atlas is refused with
the oracle's own error, which names reduce --oracle, and exit code 1.

Usage:
  python scripts/oracle_convergence.py builtin:sphere_S2 --t 1,10,100,1000,10000
  python scripts/oracle_convergence.py builtin:mirror_pair(7)
  python scripts/oracle_convergence.py path/to/atlas.json --t 2,4,8,16
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eqloc.atlas import builtin_atlas, parse_atlas
from eqloc.engines import reduce_symplectic_circle
from eqloc.errors import EqlocError
from eqloc.oracle import MollifierConfig, atlas_integrand, mollified_oint


def load(spec: str):
    if spec.startswith("builtin:"):
        return builtin_atlas(spec[len("builtin:") :])
    return parse_atlas(Path(spec).read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("atlas")
    ap.add_argument("--t", default=None, help="comma-separated ladder")
    args = ap.parse_args()

    atlas = load(args.atlas)
    try:
        cfg = (
            MollifierConfig(t_ladder=tuple(float(x) for x in args.t.split(",")))
            if args.t
            else MollifierConfig()
        )
        res = mollified_oint(atlas_integrand(atlas), atlas.group, cfg)
    except EqlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"atlas: {args.atlas} ({atlas.geometry}, rank {atlas.group.rank})")
    print(f"{'t':>10}  {'value':>44}  {'|delta|':>10}  {'err est':>10}  {'panels':>8}")
    prev = None
    for row in res.rows:
        delta = "" if prev is None else f"{abs(row.value - prev):.3e}"
        val = f"{row.value.real:+.15e} {row.value.imag:+.15e}i"
        print(
            f"{row.t:>10.1f}  {val:>44}  {delta:>10}  {row.err_estimate:>10.2e}  {row.panels:>8}"
        )
        prev = row.value
    print(f"panel budget: {res.max_panels} per rung")
    print(f"converged:   {'yes' if res.converged() else 'no'} (last two rungs)")
    print(f"last value:  {res.estimate.real:+.15e} {res.estimate.imag:+.15e}i")

    rich = res.richardson()
    print(f"richardson:  {rich.real:+.15e} {rich.imag:+.15e}i")

    raw = complex(reduce_symplectic_circle(atlas).raw_coefficient)
    vol = atlas.group.vol.numeric_value().real
    # the mollified limit of the summed series is (2 pi i / vol) * raw
    target = 2j * math.pi * raw / vol
    print(f"exact limit: {target.real:+.15e} {target.imag:+.15e}i")
    print(f"|last - exact| = {abs(res.estimate - target):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
