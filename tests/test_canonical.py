"""Byte-identity guard: one digest over canonical atlases and reports of
every engine, so a change that moves one byte of the canonical form fails
here without a scratch comparison against an older checkout."""

import hashlib

from eqloc.atlas import hk_synthetic_atlas, mirror_pair_atlas, serialize_atlas
from eqloc.engines import (
    reduce_hk_circle,
    reduce_hk_circle_viaP,
    reduce_hk_torus,
    reduce_symplectic_circle,
    reduce_symplectic_torus,
)

#: SHA-256 of the 800 outputs below, in this order; taken from the
#: json.dumps writer and the series-object Euler class, exp and inverse.
CANONICAL_DIGEST = "5743c0699f0dc0323fe0206abc8d3c20f8697e38a06eab4d88491697a709b5e7"


def canonical_outputs():
    """serialize_atlas and every engine's report in both eta modes, for
    hk_synthetic(0..99) and mirror_pair(0..19): 800 texts in a fixed order."""
    cases = [
        (hk_synthetic_atlas, 100, (reduce_hk_circle, reduce_hk_circle_viaP, reduce_hk_torus)),
        (mirror_pair_atlas, 20, (reduce_symplectic_circle, reduce_symplectic_torus)),
    ]
    for build, seeds, engines in cases:
        for seed in range(seeds):
            atlas = build(seed)
            yield serialize_atlas(atlas)
            for mode in ("atlas", "one"):
                for engine in engines:
                    yield engine(atlas, eta_mode=mode).canonical_json()


def test_atlases_and_reports_are_byte_identical():
    h = hashlib.sha256()
    count = 0
    for text in canonical_outputs():
        h.update(text.encode())
        count += 1
    assert count == 800
    assert h.hexdigest() == CANONICAL_DIGEST
