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

#: SHA-256 of the 1000 outputs below, in this order; taken from the
#: json.dumps writer and the series-object Euler class, exp and inverse (the
#: first 800), and from the even-part route that read the y^-1 coefficient
#: off the whole product ``halved * phase`` (the deeper even-part reports).
#: Retaken when an exact zero stopped being written as a negative zero: the
#: 16 eta_mode="one" reports of hk_synthetic 14, 20, 70 and 87 changed only
#: their "numeric" from [-0.0, 0.0] to [0.0, 0.0].  The even-part route's
#: second run on hk_synthetic once expanded two orders deeper; the digest
#: held when that extra order was removed.
CANONICAL_DIGEST = "00b1e62bfac22ad03c95023576b013812056db58208218133f7539adeea7362b"


def canonical_outputs():
    """serialize_atlas and every engine's report in both eta modes, for
    hk_synthetic(0..99) and mirror_pair(0..19), with the even-part route run
    twice on hk_synthetic: 1000 texts in a fixed order."""
    cases = [
        (
            hk_synthetic_atlas,
            100,
            (reduce_hk_circle, reduce_hk_circle_viaP, reduce_hk_torus, reduce_hk_circle_viaP),
        ),
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
    assert count == 1000
    assert h.hexdigest() == CANONICAL_DIGEST
