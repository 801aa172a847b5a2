"""Byte-identity guard: one digest over canonical atlases and reports of
every engine, so a change that moves one byte of the canonical form fails
here without a scratch comparison against an older checkout."""

import hashlib
from functools import partial

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
CANONICAL_DIGEST = "dd3cc218860116e25f66c0efddd3bc6968bf502a5a6d9cc73616190b704ccf90"


#: The even-part route expanded two orders deeper than it needs.
deep_viaP = partial(reduce_hk_circle_viaP, order=2)


def canonical_outputs():
    """serialize_atlas and every engine's report in both eta modes, for
    hk_synthetic(0..99) and mirror_pair(0..19), and the even-part route at
    extra order 2 on hk_synthetic: 1000 texts in a fixed order."""
    cases = [
        (
            hk_synthetic_atlas,
            100,
            (reduce_hk_circle, reduce_hk_circle_viaP, reduce_hk_torus, deep_viaP),
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
