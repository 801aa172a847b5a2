"""Benchmark for eqloc: one workload per run, from a seed, checked.

    python3 bench/run.py --workload reduce-exact --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates its inputs from the seed, then repeats whole
passes over the input pool, one operation at a time, until the next pass
would end past ``--seconds``.  It sets up five times, once before the first
pass and once after each of the next four; the median is ``setup_s``.  Every
operation is checked, and every later pass must reproduce the first pass's
outputs.  The benchmark and the command-line processes it starts run on one
thread each.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics named in BENCHMARK.json.  With ``--trace 1`` untraced and traced
passes alternate and the last line reports the per-layer metrics, counted
per traced pass.  The line before it is the run record: versions, seed,
commit, digest of the exact outputs, tail percentile and sample count.

Workloads, their inputs and the expected effect of each layer are described
in bench/spec.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
SETUP_REPEATS = 5
PROBE_REPEATS = 7
TAIL_BEYOND = 10
MIN_PASSES = SETUP_REPEATS - 1  # one set-up after each of the first passes
#: one caller, one thread: without these, numpy's BLAS keeps a worker thread
#: spinning on the second core through every oracle quadrature
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import eqloc.cli; print(time.perf_counter() - t)"
)


def tail_latency(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ``beyond`` samples
    above it, never below the median: (percentile, value, samples above)."""
    n = len(samples)
    s = sorted(samples)
    rank = max(n - beyond, n // 2 + 1)
    return 100.0 * rank / n, s[rank - 1], n - rank


class Tally:
    """Operations attempted and failed, latencies, and the first pass's
    outputs, which every later pass must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: Optional[List[Optional[str]]] = None
        self.errors_shown = 0

    def run_pass(self, ops, order, tracer=None) -> Tuple[List[float], float]:
        latencies, outputs = [], []
        start = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok, out = ops[i]()
                else:
                    with tracer.span("op"):
                        ok, out = ops[i]()
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                ok, out = False, None
                if self.errors_shown < 3:
                    self.errors_shown += 1
                    traceback.print_exc(file=sys.stderr)
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
            if self.first is not None and out != self.first[len(outputs) - 1]:
                ok = False
            self.attempted += 1
            self.failed += not ok
        elapsed = time.perf_counter() - start
        if self.first is None:
            self.first = outputs
        return latencies, elapsed

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.first or []:
            h.update(b"<failed>" if out is None else out.encode())
            h.update(b"\0")
        return h.hexdigest()


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def _src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def set_up(workload: str, seed: int, workdir: Path, traced: bool):
    """One set-up: import eqloc.cli in a fresh interpreter, generate the
    inputs and run one warm-up operation.  Returns (operations, seconds)."""
    import workloads

    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=workloads.cli_env(), cwd=workdir, check=True, capture_output=True, text=True,
    )
    t = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, workdir)
    ops = wl.traced if traced else wl.ops
    ops[0]()
    return ops, float(probe.stdout) + time.perf_counter() - t


def timed_passes(tally: Tally, ops, order, seconds: float, between=None):
    """Whole passes until the next one would end past ``seconds`` (at
    least MIN_PASSES): [(latencies, elapsed)] per pass.  ``between`` runs
    after each pass, outside the timed passes."""
    passes = []
    while True:
        passes.append(tally.run_pass(ops, order))
        if between is not None:
            between()
        busy = sum(e for _, e in passes)
        if len(passes) >= MIN_PASSES and busy + statistics.median(e for _, e in passes) > seconds:
            return passes


def end_to_end(passes, setup_s: float, tally: Tally, children: bool):
    """Metrics over each pool operation's fastest repetition.  Every pass
    does the same work, and on a shared host identical passes differ by up
    to 2x with CPU time equal to wall time, so a slower repetition measures
    interference from outside the process; the fastest measures the program."""
    best = [min(col) for col in zip(*(lat for lat, _ in passes))]
    pct, tail, beyond = tail_latency(best)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": len(best) / sum(best),
        "latency_p50_ms": 1000 * statistics.median(best),
        "latency_tail_ms": 1000 * tail,
        "success_rate": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    record = {
        "passes": len(passes),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "throughput_all_passes_ops_s": tally.attempted / sum(e for _, e in passes),
    }
    return metrics, record


def traced_run(tally: Tally, ops, order, seconds: float, workload: str, workdir: Path):
    """Alternate untraced and traced passes; per-layer metrics per traced
    pass, overhead from the fastest pass of each kind."""
    import tracing
    import workloads

    probes = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.run_ms": 0.0}
    if workload == "cli-cold":
        env = workloads.cli_env()
        interp = _probe_ms([sys.executable, "-c", "pass"], env, workdir)
        imported = _probe_ms([sys.executable, "-c", "import eqloc.cli"], env, workdir)
        probes["cli.interp_ms"] = interp
        probes["cli.import_ms"] = imported - interp
    tracer = tracing.Tracer()
    plain: List[Tuple[List[float], float]] = []
    traced: List[float] = []
    while True:
        plain.append(tally.run_pass(ops, order))
        with tracer:
            traced.append(tally.run_pass(ops, order, tracer)[1])
        busy = sum(e for _, e in plain) + sum(traced)
        pair = statistics.median(e for _, e in plain) + statistics.median(traced)
        if len(traced) >= MIN_PASSES // 2 and busy + pair > seconds:
            break
    if workload == "cli-cold":
        probes["cli.run_ms"] = 1000 * statistics.median(x for lat, _ in plain for x in lat)
    metrics = dict(layer_metrics(tracer, len(traced)), **probes)
    metrics["trace.overhead_frac"] = min(traced) / min(e for _, e in plain) - 1
    return metrics, {"traced_passes": len(traced), "spans": len(tracer.log)}


def _probe_ms(cmd: List[str], env: dict, cwd: Path) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def _declared(section: str) -> Dict[str, str]:
    doc = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _report(metrics: Dict[str, float], section: str) -> Dict[str, dict]:
    units = _declared(section)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {section} {sorted(units)}"
        )
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def layer_metrics(tracer, passes: int) -> Dict[str, float]:
    """Per-layer metrics per traced pass."""
    counts, self_s = tracer.counts, tracer.self_seconds()
    per_pass = {}
    for name in (
        "exact.mul.calls",
        "exact.mul.term_pairs",
        "exact.exp_series.calls",
        "exact.invert_series.calls",
        "localize.calls",
        "localize.points",
        "engines.reduce.calls",
        "engines.report.bytes",
        "atlas.parse.calls",
        "atlas.parse.bytes",
        "oracle.comparison.calls",
        "oracle.quad.calls",
        "oracle.panels",
    ):
        per_pass[name] = counts.get(name, 0) / passes
    for layer in (
        "exact.mul",
        "exact.exp_series",
        "exact.invert_series",
        "localize",
        "localize.euler_class",
        "engines.reduce",
        "atlas.parse",
        "atlas.serialize",
        "oracle.integrand",
        "oracle.quad",
    ):
        per_pass[layer + ".self_s"] = self_s.get(layer, 0.0) / passes
    per_pass["oracle.panel_budget_frac"] = tracer.panel_budget_frac()
    per_pass["oracle.rel_err_max"] = tracer.rel_err_max
    return per_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "eqloc" / "__init__.py").is_file():
        print(f"no eqloc sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop("EQLOC_PROFILE", None)
    os.environ.update(dict.fromkeys(SINGLE_THREAD, "1"))
    sys.path.insert(0, str(src))
    import eqloc

    if Path(eqloc.__file__).resolve().parent != (src / "eqloc").resolve():
        print(f"eqloc imported from {eqloc.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, first_setup = set_up(args.workload, args.seed, workdir, bool(args.trace))
        setups = [first_setup]
        order = list(range(len(ops)))
        random.Random(f"order/{args.seed}").shuffle(order)
        gc.collect()

        tally = Tally()
        if args.trace:
            metrics, record = traced_run(tally, ops, order, args.seconds, args.workload, workdir)
            section = "per_layer"
        else:
            # the other set-ups are spread over the run, so that their median
            # samples the host at several moments
            def another_setup():
                if len(setups) < SETUP_REPEATS:
                    setups.append(set_up(args.workload, args.seed, workdir, False)[1])

            passes = timed_passes(tally, ops, order, args.seconds, another_setup)
            metrics, record = end_to_end(
                passes, statistics.median(setups), tally, args.workload == "cli-cold"
            )
            section = "end_to_end"
        record.update(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            seconds=args.seconds,
            attempted=tally.attempted,
            failed=tally.failed,
            error_rate=tally.failed / tally.attempted,
            pool_size=len(ops),
            digest=tally.digest(),
            python=sys.version.split()[0],
            numpy=numpy.__version__,
            nproc=len(os.sched_getaffinity(0)),
            commit=_commit(root),
            src_lines=_src_lines(src),
            default_seed=SPEC["default_seed"],
            held_out_seed=SPEC["held_out_seed"],
        )
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": _report(metrics, section),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
