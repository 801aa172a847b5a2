#!/usr/bin/env python3
"""What a cold ``eqloc`` CLI call imports, beyond a bare interpreter.

For each command of the benchmark's cli-cold workload, runs a fresh
``python -X importtime -m eqloc.cli ...`` on this checkout and prints every
module it loaded that ``python -X importtime -c pass`` does not, in import
order, with its self and cumulative import time in microseconds (the best
of ``--repeat`` runs per module).  The environment is passed on as it is,
so ``PYTHONDONTWRITEBYTECODE=1`` (every module compiled on every call)
and a bytecode cache give different numbers.  The lazy modules
(``localize``, ``engines``, ``oracle``) run on first use, outside the import
statement, so they are not listed; what they import themselves is.

Usage:
  python scripts/cold_imports.py
  python scripts/cold_imports.py --repeat 5
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: the cli-cold workload's commands, on the golden atlases
COMMANDS = (
    ("check", str(GOLDEN / "sphere_s2.json")),
    ("reduce", str(GOLDEN / "sphere_s2.json"), "--mode", "symplectic"),
    ("reduce", str(GOLDEN / "hk_point.json"), "--mode", "hk-p"),
    ("localize", str(GOLDEN / "sphere_s2.json"), "--depth", "2"),
    ("roots", "SU(2)"),
)


def import_times(args) -> dict:
    """{module: (self_us, cumulative_us)} in import order, from one run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} failed:\n{proc.stderr}")
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        times[name.strip()] = (int(self_us), int(cum_us))
    return times


def best_of(args, repeat: int) -> dict:
    runs = [import_times(args) for _ in range(repeat)]
    return {
        name: tuple(min(r[name][i] for r in runs if name in r) for i in (0, 1))
        for name in runs[0]
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per command (best of)")
    args = ap.parse_args()
    bare = set(import_times(["-c", "pass"]))
    for command in COMMANDS:
        times = best_of(["-m", "eqloc.cli", *command], args.repeat)
        extra = [(name, t) for name, t in times.items() if name not in bare]
        print(f"== eqloc {' '.join(command)}")
        print(f"{'self_us':>9} {'cum_us':>9}  module")
        for name, (self_us, cum_us) in extra:
            print(f"{self_us:>9} {cum_us:>9}  {name}")
        total = sum(t[0] for _, t in extra)
        print(f"{total:>9} {'':>9}  total self of {len(extra)} modules\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
