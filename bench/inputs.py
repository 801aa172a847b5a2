"""Seeded atlas documents for the benchmark workloads.

Every generator returns canonical atlas JSON text (sorted keys, two-space
indent, rationals as reduced [numerator, denominator] pairs), which is the
form ``serialize_atlas`` writes, so a parse/serialize round trip must give the
same bytes back.  The program under test only ever sees these documents.

The properties that set the cost of an operation (weight count, point count,
rank, largest moment) follow a fixed stratified plan that is the same for
every seed; the seed draws the values (weights, moments, restrictions) and
the order.  That keeps the work per pass over a pool nearly constant across
seeds, so a figure measured on one seed is comparable with one measured on
another.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple

Term = Tuple[Tuple[int, ...], Fraction, Fraction]


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _pair(x) -> list:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _series(terms: Sequence[Term]) -> dict:
    """Terms with distinct exponents and nonzero coefficients, sorted."""
    return {"terms": [{"exp": list(e), "re": _pair(re), "im": _pair(im)} for e, re, im in sorted(terms)]}


def _vol(rank: int) -> dict:
    return {"q": _pair(2**rank), "i_pow": 0, "pi_pow": rank, "sqrt2_pow": 0}


def _atlas(kind, rank, geometry, dim_m, dim_q, deg_eta0, variables, points) -> dict:
    return {
        "group": {"kind": kind, "rank": rank, "s": rank, "vol": _vol(rank)},
        "geometry": geometry,
        "dim_M": dim_m,
        "dim_quotient": dim_q,
        "deg_eta0": deg_eta0,
        "variable_order": list(variables),
        "fixed_points": points,
    }


def _point(name, moment, weights, eta_terms, moment_hk=None) -> dict:
    doc = {
        "name": name,
        "mode": "structured",
        "moment": [_pair(m) for m in moment],
        "weights": [list(w) for w in weights],
        "eta": _series(eta_terms),
    }
    if moment_hk is not None:
        doc["moment_hk"] = [[_pair(c) for c in vec] for vec in moment_hk]
    return doc


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 2]))


def _eta_1d(rng: random.Random, n_terms: int) -> List[Term]:
    """A restriction with n_terms nonzero terms of degree 0 .. n_terms - 1;
    the constant term is real and positive."""
    terms = [((0,), Fraction(rng.randint(1, 4)), Fraction(0))]
    for d in range(1, n_terms):
        terms.append(((d,), _nonzero(rng), _nonzero(rng)))
    return terms


def _sign(rng: random.Random) -> int:
    return rng.choice([-1, 1])


def _weights(rng: random.Random, n: int) -> List[Tuple[int]]:
    """n rank-1 tangent weights: magnitudes 1, 2, 3, 1, 2, ... in seeded
    order, each with a seeded sign."""
    mags = [1 + j % 3 for j in range(n)]
    rng.shuffle(mags)
    return [(_sign(rng) * m,) for m in mags]


#: squared-length classes of hyperkahler moment vectors (1, 2, 3, 5, 6, 9);
#: point j uses class j mod 6, with seeded signs and component order.
HK_MOMENTS = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (2, 2, 1))


# -- hyperkahler circle atlases -----------------------------------------

#: (weights per point, fixed points) for one reduce-exact pass, one atlas per
#: cell: 4..32 weights crossed with 1..10 points, the large end kept sparse so
#: that one pass stays short.  Cost grows with weights x points; the grid is
#: fine enough that the costs leave no gap for a percentile to jump across
#: from run to run.
HK_PLAN = tuple(
    [(w, p) for w in range(4, 17, 2) for p in (1, 2, 3, 4, 6, 8, 10)]
    + [(w, p) for w in range(18, 33, 2) for p in (1, 2, 3, 4)]
)


def hk_circle(rng: random.Random, n_weights: int, n_points: int) -> str:
    dim_m = 2 * n_weights
    dim_q = dim_m - 4
    points = []
    for j in range(n_points):
        vec = [_sign(rng) * c for c in HK_MOMENTS[j % len(HK_MOMENTS)]]
        rng.shuffle(vec)
        points.append(
            _point(
                f"fp{j}",
                (0,),
                _weights(rng, n_weights),
                _eta_1d(rng, 3),
                moment_hk=(vec,),
            )
        )
    return canonical(
        _atlas("circle", 1, "hyperkahler", dim_m, dim_q, rng.randint(0, dim_q), ("y",), points)
    )


# -- symplectic circle factors and their torus products ------------------


def symplectic_factor(rng: random.Random, n_points: int, n_weights: int) -> dict:
    """A symplectic circle atlas as a document.  Moment sizes are 1, 3/2,
    2, ... in seeded order; the first point is positive and the second
    negative, so both the selected and skipped branches run."""
    sizes = [Fraction(2 + j % 5, 2) for j in range(n_points)]
    rng.shuffle(sizes)
    points = []
    for j, size in enumerate(sizes):
        sign = 1 if j == 0 else -1 if j == 1 else _sign(rng)
        points.append(
            _point(
                f"p{j}",
                (sign * size,),
                _weights(rng, n_weights),
                _eta_1d(rng, 2),
            )
        )
    return _atlas("circle", 1, "symplectic", 2 * n_weights, 2 * n_weights - 2, 0, ("y",), points)


def as_rank1_torus(factor: dict) -> dict:
    """The same circle atlas declared as a rank-1 torus."""
    return dict(factor, group=dict(factor["group"], kind="torus"))


def torus_product(factors: Sequence[dict]) -> dict:
    """Cartesian product of symplectic circle atlases: a rank-k torus atlas
    whose points pair up factor points, with block weights, the moment
    vector of the factors' moments and the product restriction."""
    k = len(factors)
    variables = tuple(f"y{v + 1}" for v in range(k))
    points = []
    for combo in product(*(f["fixed_points"] for f in factors)):
        weights = []
        eta: List[Term] = [((0,) * k, Fraction(1), Fraction(0))]
        for v, fp in enumerate(combo):
            for (w,) in fp["weights"]:
                vec = [0] * k
                vec[v] = w
                weights.append(tuple(vec))
            nxt = []
            for e, re, im in eta:
                for t in fp["eta"]["terms"]:
                    fre, fim = Fraction(*t["re"]), Fraction(*t["im"])
                    ne = list(e)
                    ne[v] = t["exp"][0]
                    nxt.append((tuple(ne), re * fre - im * fim, re * fim + im * fre))
            eta = nxt
        points.append(
            _point(
                "*".join(fp["name"] for fp in combo),
                tuple(Fraction(*fp["moment"][0]) for fp in combo),
                weights,
                eta,
            )
        )
    dim_m = sum(f["dim_M"] for f in factors)
    return _atlas("torus", k, "symplectic", dim_m, dim_m - 2 * k, 0, variables, points)


#: (rank, points per factor, weights per point) for the torus products of
#: one reduce-exact pass, two per cell.
TORUS_PLAN = 2 * ((2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2))


def torus_case(rng: random.Random, rank: int, n_points: int, n_weights: int) -> dict:
    factors = [symplectic_factor(rng, n_points, n_weights) for _ in range(rank)]
    return {
        "product": canonical(torus_product(factors)),
        "circles": [canonical(f) for f in factors],
        "tori": [canonical(as_rank1_torus(f)) for f in factors],
    }


def reduce_exact_pool(seed: int) -> List[dict]:
    rng = random.Random(f"reduce-exact/{seed}")
    pool = [{"kind": "hk", "doc": hk_circle(rng, w, p)} for w, p in HK_PLAN]
    return pool + [dict(torus_case(rng, *plan), kind="torus") for plan in TORUS_PLAN]


# -- mirror-pair atlases for the oracle ----------------------------------

#: (pairs, largest moment) per atlas of one oracle-check pass.  The largest
#: moment sets the panel count, so it steps in quarters: on a coarser grid the
#: cost classes leave gaps, and a percentile that falls on a gap jumps between
#: them from run to run.
MIRROR_PLAN = tuple((n, Fraction(m, 4)) for n in (1, 2, 3) for m in range(4, 13))


def mirror_pairs(rng: random.Random, n_pairs: int, mu_max: Fraction) -> str:
    """Symplectic circle atlas whose points come in (mu, w) / (-mu, -w)
    pairs with a shared restriction, so the principal part of the summed
    series cancels and the mollified limit exists.  The first pair has the
    largest moment, which sets the oscillation the quadrature resolves."""
    points = []
    for j in range(1, n_pairs + 1):
        mu = mu_max if j == 1 else Fraction(rng.randint(2, int(2 * mu_max)), 2)
        w = rng.randint(1, 3)
        eta = _eta_1d(rng, 3)
        points.append(_point(f"pair{j}+", (mu,), [(w,)], eta))
        points.append(_point(f"pair{j}-", (-mu,), [(-w,)], eta))
    return canonical(_atlas("circle", 1, "symplectic", 2, 0, 0, ("y",), points))


def oracle_pool(seed: int) -> List[str]:
    rng = random.Random(f"oracle-check/{seed}")
    return [mirror_pairs(rng, n, mu) for n, mu in MIRROR_PLAN]


# -- small atlas files for the command line -----------------------------

#: the argv tail of each cli-cold operation; {sym} and {hk} name the
#: atlas files of one round.
CLI_COMMANDS = (
    ("check", "{sym}"),
    ("reduce", "{sym}", "--mode", "symplectic"),
    ("reduce", "{hk}", "--mode", "hk-p"),
    ("localize", "{sym}", "--depth", "2"),
    ("roots", "SU(2)"),
)
CLI_ROUNDS = 2


def cli_pool(seed: int) -> List[Dict[str, str]]:
    """One symplectic and one hyperkahler atlas document per round."""
    rng = random.Random(f"cli-cold/{seed}")
    return [
        {
            "sym": canonical(symplectic_factor(rng, 3, 2)),
            "hk": hk_circle(rng, 8, 2),
        }
        for _ in range(CLI_ROUNDS)
    ]
