"""Tests for the benchmark itself: input generation, the tail rule, span
arithmetic and the tracer's rebinding.

    PYTHONPATH=src python -m pytest -q bench
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from run import tail_latency  # noqa: E402

POOLS = (inputs.reduce_exact_pool, inputs.oracle_pool, inputs.cli_pool)

_POOL_DIGEST = (
    "import hashlib, json, sys; sys.path.insert(0, {here!r}); import inputs; "
    "print(hashlib.sha256(json.dumps([f(3) for f in (inputs.reduce_exact_pool, "
    "inputs.oracle_pool, inputs.cli_pool)]).encode()).hexdigest())"
)


@pytest.mark.parametrize("pool", POOLS)
def test_generators_are_deterministic_per_seed(pool):
    assert pool(3) == pool(3)
    assert pool(3) != pool(4)


def test_generators_do_not_depend_on_hash_randomization():
    here = json.dumps([f(3) for f in POOLS]).encode()
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", _POOL_DIGEST.format(here=str(HERE))],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == hashlib.sha256(here).hexdigest()


def test_generated_documents_are_canonical():
    import eqloc

    products = [it["product"] for it in inputs.reduce_exact_pool(5) if it["kind"] == "torus"]
    for doc in inputs.oracle_pool(5) + products:
        assert eqloc.serialize_atlas(eqloc.parse_atlas(doc)) == doc


def test_tail_rule_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert tail_latency(samples) == (90.0, 90.0, 10)
    pct, value, beyond = tail_latency(list(range(1, 1001)))
    assert (pct, value, beyond) == (99.0, 990, 10)


def test_tail_rule_never_drops_below_the_median():
    assert tail_latency([5.0, 1.0, 3.0]) == (pytest.approx(200 / 3), 3.0, 1)
    assert tail_latency([2.0]) == (100.0, 2.0, 0)


def test_self_time_subtracts_direct_children_only():
    # op [0, 100) holds a [10, 60), which holds b [20, 30); c [70, 90) is
    # op's second child.  Self: op 100-50-20, a 50-10, b 10, c 20.
    names = ["op", "a", "b", "c"]
    name_id = [0, 1, 2, 3]
    start = [0, 10, 20, 70]
    end = [100, 60, 30, 90]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(names, name_id, start, end, parent) == {
        "op": 30, "a": 40, "b": 10, "c": 20,
    }


def test_self_time_sums_spans_of_one_name():
    names = ["op", "mul"]
    got = tracing.self_times(names, [0, 1, 1], [0, 5, 20], [50, 15, 25], [-1, 0, 0])
    assert got == {"op": 35, "mul": 15}


def test_traced_run_restores_every_binding():
    import eqloc
    import eqloc.engines
    from eqloc.exact import LaurentSeries

    localize_module = sys.modules["eqloc.localize"]
    before = {
        "package": eqloc.localize,
        "engines": eqloc.engines.localize,
        "module": localize_module.localize,
        "mul": LaurentSeries.__dict__["__mul__"],
    }
    doc = inputs.oracle_pool(1)[0]
    tracer = tracing.Tracer()
    with tracer:
        rebound = tracer.rebound()
        assert eqloc.engines.localize is not before["engines"]
        assert localize_module.localize is not before["module"]
        with tracer.span("op"):
            atlas = eqloc.parse_atlas(doc)
            eqloc.oracle_comparison(eqloc.reduce_symplectic_circle(atlas), atlas)
    assert rebound
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, (owner, attr)
    assert eqloc.localize is before["package"]
    assert eqloc.engines.localize is before["engines"]
    assert localize_module.localize is before["module"]
    assert LaurentSeries.__dict__["__mul__"] is before["mul"]
    assert LaurentSeries.__dict__["__rmul__"] is before["mul"]
    counts = tracer.counts
    assert counts["atlas.parse.calls"] == 1
    assert counts["engines.reduce.calls"] == 1
    assert counts["oracle.comparison.calls"] == 1
    assert counts["oracle.panels"] > 0
    assert 0 < tracer.panel_budget_frac() < 1
    self_s = tracer.self_seconds()
    assert set(self_s) >= {"op", "atlas.parse", "engines.reduce", "oracle.quad", "oracle.integrand"}
