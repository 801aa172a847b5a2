"""Fixed-point data model: groups, fixed-point data, atlases, and their
canonical JSON form.

An atlas is the complete input to the residue engines: the acting group (a
circle, a torus, or a compact group presented through its maximal torus), the
list of fixed points with moment values, integer tangent weights and the
restriction of the integrand class, and the dimension bookkeeping of the
quotient.  Everything rational is exact; canonical serialization keeps keys
sorted and writes rationals as [numerator, denominator] pairs so files are
byte stable.

Raw-mode fixed points carry an explicitly expanded contribution series
instead of weights, for data whose fixed locus is not isolated; the engines
add those series verbatim.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from operator import le
from typing import Optional, Sequence, Tuple

from .errors import ValidationError, VariableMismatchError
from .exact import ComplexRational, LaurentSeries, SymbolicConstant, _limits, _normal

GEOMETRIES = ("symplectic", "hyperkahler")
GROUP_KINDS = ("circle", "torus", "compact_with_torus")
POINT_MODES = ("structured", "raw")


@dataclass(frozen=True)
class RootSystemData:
    """Positive roots as integer covectors on the torus, plus the order of
    the Weyl group."""

    positive_roots: Tuple[Tuple[int, ...], ...]
    weyl_order: int


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    rank: int
    s: int  # real dimension of the acting group
    vol: SymbolicConstant
    root_system: Optional[RootSystemData] = None

    @classmethod
    def circle(cls, vol: Optional[SymbolicConstant] = None) -> "GroupSpec":
        if vol is None:
            vol = SymbolicConstant(Fraction(2), pi_pow=1)
        return cls("circle", 1, 1, vol)

    @classmethod
    def torus(cls, rank: int, vol: Optional[SymbolicConstant] = None) -> "GroupSpec":
        if vol is None:
            vol = SymbolicConstant(Fraction(2**rank), pi_pow=rank)
        return cls("torus", rank, rank, vol)


@dataclass(frozen=True)
class FixedPointDatum:
    name: str
    moment: Tuple[Fraction, ...]
    weights: Tuple[Tuple[int, ...], ...]
    eta: LaurentSeries
    moment_hk: Optional[Tuple[Tuple[Fraction, Fraction, Fraction], ...]] = None
    mode: str = "structured"
    raw_contribution: Optional[LaurentSeries] = None

    def hk_norm_sq(self, factor: int) -> Fraction:
        """Exact squared length of the three-component moment value attached
        to one circle factor."""
        if self.moment_hk is None:
            raise ValidationError(
                f"fixed point {self.name!r} carries no three-component moment data"
            )
        # sum n^2 / d^2 over one running denominator, reduced once
        num, den = 0, 1
        for x in self.moment_hk[factor]:
            d2 = x.denominator * x.denominator
            num, den = num * d2 + x.numerator * x.numerator * den, den * d2
        return Fraction(num, den)


@dataclass(frozen=True)
class SubmanifoldRestriction:
    codim: int


@dataclass(frozen=True)
class FixedPointAtlas:
    group: GroupSpec
    geometry: str
    dim_m: int
    dim_quotient: int
    deg_eta0: int
    variable_order: Tuple[str, ...]
    fixed_points: Tuple[FixedPointDatum, ...]
    submanifold: Optional[SubmanifoldRestriction] = None

    def degree_factor(self) -> int:
        """dim of the quotient minus the degree of the integrand class plus
        one; the left-hand side multiplier of the residue identity."""
        return self.dim_quotient - self.deg_eta0 + 1


# -- validation ----------------------------------------------------------


def check_variable_order(variables: Sequence[str], rank: int) -> None:
    """One distinct, nonempty string per variable of a rank-``rank`` group."""
    if not all(isinstance(v, str) for v in variables):
        raise ValidationError("variable_order must be a list of strings")
    if len(variables) != rank:
        raise ValidationError(f"variable_order has {len(variables)} names for rank {rank}")
    if len(set(variables)) != rank or not all(variables):
        raise ValidationError("variable names must be distinct and nonempty")


def validate_atlas(atlas: FixedPointAtlas) -> None:
    g = atlas.group
    if atlas.geometry not in GEOMETRIES:
        raise ValidationError(f"unknown geometry {atlas.geometry!r}")
    if g.kind not in GROUP_KINDS:
        raise ValidationError(f"unknown group kind {g.kind!r}")
    if g.rank < 1:
        raise ValidationError(f"group rank must be >= 1, got {g.rank}")
    if g.kind == "circle" and (g.rank != 1 or g.s != 1):
        raise ValidationError("a circle group has rank 1 and dimension 1")
    if g.kind == "torus" and g.s != g.rank:
        raise ValidationError(
            f"a torus has dimension equal to its rank, got s={g.s}, rank={g.rank}"
        )
    if g.kind == "compact_with_torus":
        if g.root_system is None:
            raise ValidationError(
                "compact_with_torus groups must carry root system data"
            )
        expect = g.rank + 2 * len(g.root_system.positive_roots)
        if g.s != expect:
            raise ValidationError(
                f"group dimension {g.s} does not match rank + 2 * positive roots "
                f"= {expect}"
            )
    if g.root_system is not None:
        if g.root_system.weyl_order < 1:
            raise ValidationError("Weyl group order must be >= 1")
        for alpha in g.root_system.positive_roots:
            if len(alpha) != g.rank:
                raise ValidationError(
                    f"root covector {alpha} does not have rank {g.rank}"
                )
            if all(a == 0 for a in alpha):
                raise ValidationError("zero root covector")
    if g.vol.q <= 0 or g.vol.i_pow != 0:
        raise ValidationError("group volume must be a positive real constant")

    if atlas.dim_m < 0 or atlas.dim_m % 2 != 0:
        raise ValidationError(f"dim_M must be a nonnegative even integer, got {atlas.dim_m}")
    if atlas.geometry == "hyperkahler":
        if atlas.dim_m % 4 != 0:
            raise ValidationError(
                f"hyperkahler dim_M must be a multiple of 4, got {atlas.dim_m}"
            )
        expect_q = atlas.dim_m - 4 * g.s
    else:
        expect_q = atlas.dim_m - 2 * g.s
    if atlas.dim_quotient != expect_q:
        raise ValidationError(
            f"dim_quotient must equal {expect_q} for dim_M={atlas.dim_m} and "
            f"group dimension {g.s}, got {atlas.dim_quotient}"
        )
    if atlas.dim_quotient < 0:
        raise ValidationError(
            f"quotient dimension is negative ({atlas.dim_quotient}); the data "
            "describe an empty reduction"
        )
    if not (0 <= atlas.deg_eta0 <= atlas.dim_quotient):
        raise ValidationError(
            f"deg_eta0 must lie in [0, {atlas.dim_quotient}], got {atlas.deg_eta0}"
        )

    k = g.rank
    check_variable_order(atlas.variable_order, k)

    seen = set()
    for fp in atlas.fixed_points:
        if fp.name in seen:
            raise ValidationError(f"duplicate fixed point name {fp.name!r}")
        seen.add(fp.name)
        if fp.mode not in POINT_MODES:
            raise ValidationError(
                f"fixed point {fp.name!r} has unknown mode {fp.mode!r}"
            )
        if len(fp.moment) != k:
            raise ValidationError(
                f"fixed point {fp.name!r} has a moment vector of length "
                f"{len(fp.moment)}, expected {k}"
            )
        if fp.eta.vars != atlas.variable_order:
            raise ValidationError(
                f"fixed point {fp.name!r}: eta variables {fp.eta.vars} do not "
                f"match the atlas variable order"
            )
        if fp.eta.has_negative_exponents():
            raise ValidationError(
                f"fixed point {fp.name!r}: eta restriction must be a polynomial"
            )
        if fp.mode == "structured":
            for w in fp.weights:
                if len(w) != k:
                    raise ValidationError(
                        f"fixed point {fp.name!r} has weight vector {w} of wrong rank"
                    )
                if not any(w):
                    raise ValidationError(
                        f"e(y) is a zero divisor at {fp.name!r}: zero tangent weight"
                    )
        else:
            if fp.raw_contribution is None:
                raise ValidationError(
                    f"raw-mode fixed point {fp.name!r} has no contribution series"
                )
            if fp.raw_contribution.vars != atlas.variable_order:
                raise ValidationError(
                    f"fixed point {fp.name!r}: raw contribution variables do not "
                    f"match the atlas variable order"
                )
        if atlas.geometry == "symplectic":
            for nu, m in enumerate(fp.moment):
                if m == 0:
                    raise ValidationError(
                        f"0 is not a regular value: fixed point {fp.name!r} has "
                        f"moment component {nu} equal to 0"
                    )
        else:
            if fp.moment_hk is None or len(fp.moment_hk) != k:
                raise ValidationError(
                    f"hyperkahler fixed point {fp.name!r} needs one three-component "
                    f"moment vector per circle factor"
                )
            for nu in range(k):
                if not any(fp.moment_hk[nu]):
                    raise ValidationError(
                        f"0 is not a regular value: fixed point {fp.name!r} has "
                        f"vanishing moment vector in circle factor {nu}"
                    )

    if atlas.submanifold is not None and atlas.submanifold.codim < 0:
        raise ValidationError("submanifold codimension must be >= 0")


def validate_respected(atlas: FixedPointAtlas) -> bool:
    """Whether a declared submanifold restriction keeps the reduction data
    meaningful: its codimension may not exceed the rank of the group-orbit
    directions removed by reduction (3s in the hyperkahler case, s in the
    symplectic one).  Atlases without a declared restriction trivially pass."""
    if atlas.submanifold is None:
        return True
    bound = 3 * atlas.group.s if atlas.geometry == "hyperkahler" else atlas.group.s
    return atlas.submanifold.codim <= bound


# -- canonical JSON ------------------------------------------------------


def _frac_pair(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _parse_pair(doc, *where) -> tuple:
    """The ints (n, d) of a [numerator, denominator] pair, d nonzero.  A
    refusal's message starts with the parts of ``where``, joined only then."""
    if isinstance(doc, (list, tuple)) and len(doc) == 2:
        n, d = doc
        if type(n) is int and type(d) is int:
            if d == 0:
                raise ValidationError(f"{''.join(map(str, where))}: zero denominator")
            return n, d
    raise ValidationError(
        f"{''.join(map(str, where))}: rational values are [numerator, denominator] "
        "integer pairs"
    )


def _parse_frac(doc, *where) -> Fraction:
    return Fraction(*_parse_pair(doc, *where))


def _parse_coeff(re_doc, im_doc, where: str, n: int) -> ComplexRational:
    """a/b + i c/e from the two pairs of term n, as one (p, q, d) triple: the
    signs of the denominators go onto the numerators and one gcd reduces the
    whole."""
    a, b = _parse_pair(re_doc, where, ": term ", n, " re")
    c, e = _parse_pair(im_doc, where, ": term ", n, " im")
    if b < 0:
        a, b = -a, -b
    if e < 0:
        c, e = -c, -e
    return _normal(a * e, c * b, b * e)


def _series_doc(series: LaurentSeries) -> dict:
    return {"terms": series.to_json_terms()}


def _parse_series(doc, variables, where: str) -> LaurentSeries:
    if not isinstance(doc, Mapping) or len(doc) != 1 or "terms" not in doc:
        raise ValidationError(f"{where}: series documents have exactly one key, 'terms'")
    return parse_series_terms(doc["terms"], variables, where)


_TERM_KEYS = frozenset(("exp", "re", "im"))


def parse_series_terms(terms, variables: tuple, where: str, trunc=None) -> LaurentSeries:
    """Strictly parse a list of {exp, re, im} term objects, rationals given
    as [numerator, denominator] integer pairs, into the series over
    ``variables`` trusted through ``trunc`` (exact where None).

    Each term is checked once here and the series is wrapped without a
    second check: zero coefficients and terms beyond ``trunc`` are dropped,
    as the LaurentSeries constructor drops them.  ``variables`` is taken as
    checked (distinct names, see ``check_variable_order``); error text is
    built only when a term is refused.
    """
    if not isinstance(terms, list):
        raise ValidationError(f"{where}: 'terms' must be a list")
    k = len(variables)
    tr = (None,) * k if trunc is None else tuple(trunc)
    if len(tr) != k:
        raise VariableMismatchError(
            f"truncation vector length {len(tr)} does not match {k} variables"
        )
    parsed = {}
    for n, entry in enumerate(terms):
        if not isinstance(entry, Mapping) or entry.keys() != _TERM_KEYS:
            raise ValidationError(
                f"{where}: term {n} must have exactly the keys exp, re, im"
            )
        exps = entry["exp"]
        if not isinstance(exps, list) or len(exps) != k or not all(
            type(x) is int for x in exps
        ):
            raise ValidationError(
                f"{where}: term {n} exponent vector must list one integer per variable"
            )
        key = tuple(exps)
        if key in parsed:
            raise ValidationError(f"{where}: duplicate exponent vector {key}")
        parsed[key] = _parse_coeff(entry["re"], entry["im"], where, n)
    if trunc is not None or not all(parsed.values()):
        lim = _limits(tr)
        parsed = {e: c for e, c in parsed.items() if c and all(map(le, e, lim))}
    return LaurentSeries._canonical(tuple(variables), parsed, tr)


def _require_keys(doc: Mapping, required: set, optional: set, where: str):
    keys = set(doc.keys())
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValidationError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


#: Largest magnitude of the i, pi and sqrt(2) powers of a parsed group volume
#: (a rank-k torus has pi^k).
MAX_VOLUME_POWER = 64


def _parse_int(doc, where: str) -> int:
    if type(doc) is not int:
        raise ValidationError(f"{where}: expected an integer")
    return doc


def canonical_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, written directly.

    The canonical form of every pretty-printed document (atlases, reports,
    CLI output): keys sorted, two-space indent, strings with ASCII escapes
    (json's C ``encode_basestring_ascii``), ints and floats by their
    ``repr`` with NaN and +-Infinity as json writes them, and empty
    containers on one line.  dicts, lists and tuples nest; any other type,
    and any dict key that is not a str, raises TypeError.  With an indent,
    json falls back to its pure-Python encoder, which takes about twice as
    long.
    """
    parts: list = []
    _dump(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _dump(o, parts: list, nl: str) -> None:
    """Append o's canonical text to parts; nl is a newline plus the indent
    of o's own line.  int leaves skip the recursion, as they are most of a
    document."""
    if isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            v = o[key]
            if type(v) is int:
                parts.append(sep + _encode_str(key) + ": " + int.__repr__(v))
            else:
                parts.append(sep + _encode_str(key) + ": ")
                _dump(v, parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            if type(v) is int:
                parts.append(sep + int.__repr__(v))
            else:
                parts.append(sep)
                _dump(v, parts, inner)
            sep = "," + inner
        parts.append(nl + "]")
    elif isinstance(o, str):
        parts.append(_encode_str(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            parts.append("NaN")
        elif o in (math.inf, -math.inf):
            parts.append("Infinity" if o > 0 else "-Infinity")
        else:
            parts.append(float.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def serialize_atlas(atlas: FixedPointAtlas) -> str:
    g = atlas.group
    group_doc = {
        "kind": g.kind,
        "rank": g.rank,
        "s": g.s,
        "vol": g.vol.to_json_dict(),
    }
    if g.root_system is not None:
        group_doc["roots"] = {
            "positive": [list(a) for a in g.root_system.positive_roots],
            "weyl_order": g.root_system.weyl_order,
        }
    points = []
    for fp in atlas.fixed_points:
        doc = {
            "name": fp.name,
            "mode": fp.mode,
            "moment": [_frac_pair(m) for m in fp.moment],
            "weights": [list(w) for w in fp.weights],
            "eta": _series_doc(fp.eta),
        }
        if fp.moment_hk is not None:
            doc["moment_hk"] = [
                [_frac_pair(c) for c in vec] for vec in fp.moment_hk
            ]
        if fp.raw_contribution is not None:
            doc["raw"] = _series_doc(fp.raw_contribution)
        points.append(doc)
    doc = {
        "group": group_doc,
        "geometry": atlas.geometry,
        "dim_M": atlas.dim_m,
        "dim_quotient": atlas.dim_quotient,
        "deg_eta0": atlas.deg_eta0,
        "variable_order": list(atlas.variable_order),
        "fixed_points": points,
    }
    if atlas.submanifold is not None:
        doc["submanifold"] = {"codim_L": atlas.submanifold.codim}
    return canonical_dumps(doc)


def parse_atlas(document) -> FixedPointAtlas:
    """Parse and fully validate an atlas document (JSON text or mapping)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"atlas document is not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ValidationError("atlas document must be a JSON object")
    _require_keys(
        document,
        {
            "group",
            "geometry",
            "dim_M",
            "dim_quotient",
            "deg_eta0",
            "variable_order",
            "fixed_points",
        },
        {"submanifold"},
        "atlas",
    )
    gdoc = document["group"]
    if not isinstance(gdoc, Mapping):
        raise ValidationError("atlas group must be an object")
    _require_keys(gdoc, {"kind", "rank", "s", "vol"}, {"roots"}, "group")
    roots = None
    if "roots" in gdoc:
        rdoc = gdoc["roots"]
        if not isinstance(rdoc, Mapping):
            raise ValidationError("group roots must be an object")
        _require_keys(rdoc, {"positive", "weyl_order"}, set(), "group roots")
        pos = rdoc["positive"]
        if not isinstance(pos, list):
            raise ValidationError("positive roots must be a list of covectors")
        parsed_roots = []
        for a in pos:
            if not isinstance(a, list) or not all(type(x) is int for x in a):
                raise ValidationError("each positive root is a list of integers")
            parsed_roots.append(tuple(a))
        roots = RootSystemData(tuple(parsed_roots), _parse_int(rdoc["weyl_order"], "weyl_order"))
    if not isinstance(gdoc["vol"], Mapping):
        raise ValidationError("group vol must be an object")
    _require_keys(
        gdoc["vol"], {"q"}, {"i_pow", "pi_pow", "sqrt2_pow"}, "group vol"
    )
    vdoc = gdoc["vol"]
    powers = []
    for key in ("i_pow", "pi_pow", "sqrt2_pow"):
        power = _parse_int(vdoc.get(key, 0), f"group vol {key}")
        # SymbolicConstant folds sqrt2^(2m) into q as 2^m
        if abs(power) > MAX_VOLUME_POWER:
            raise ValidationError(
                f"group vol {key}: {power} is beyond +-{MAX_VOLUME_POWER}"
            )
        powers.append(power)
    vol = SymbolicConstant(_parse_frac(vdoc["q"], "group vol q"), *powers)
    group = GroupSpec(
        kind=str(gdoc["kind"]),
        rank=_parse_int(gdoc["rank"], "group rank"),
        s=_parse_int(gdoc["s"], "group s"),
        vol=vol,
        root_system=roots,
    )

    variables = document["variable_order"]
    if not isinstance(variables, list):
        raise ValidationError("variable_order must be a list of strings")
    variables = tuple(variables)
    # before any series is parsed over these variables
    check_variable_order(variables, group.rank)

    fps_doc = document["fixed_points"]
    if not isinstance(fps_doc, list):
        raise ValidationError("fixed_points must be a list")
    points = []
    for n, fdoc in enumerate(fps_doc):
        where = f"fixed point {n}"
        if not isinstance(fdoc, Mapping):
            raise ValidationError(f"{where}: must be an object")
        _require_keys(
            fdoc,
            {"name", "mode", "moment", "weights", "eta"},
            {"moment_hk", "raw"},
            where,
        )
        name = fdoc["name"]
        if not isinstance(name, str):
            raise ValidationError(f"{where}: name must be a string")
        mdoc = fdoc["moment"]
        if not isinstance(mdoc, list):
            raise ValidationError(f"{where}: moment must be a list")
        moment = tuple(_parse_frac(m, where, " moment") for m in mdoc)
        wdoc = fdoc["weights"]
        if not isinstance(wdoc, list):
            raise ValidationError(f"{where}: weights must be a list")
        if not all(isinstance(w, list) for w in wdoc) or not all(
            type(x) is int for w in wdoc for x in w
        ):
            raise ValidationError(f"{where}: each weight is a list of integers")
        moment_hk = None
        if "moment_hk" in fdoc:
            hdoc = fdoc["moment_hk"]
            if not isinstance(hdoc, list):
                raise ValidationError(f"{where}: moment_hk must be a list")
            vecs = []
            for vec in hdoc:
                if not isinstance(vec, list) or len(vec) != 3:
                    raise ValidationError(
                        f"{where}: each moment_hk entry is a three-component vector"
                    )
                vecs.append(tuple(_parse_frac(c, where, " moment_hk") for c in vec))
            moment_hk = tuple(vecs)
        raw = None
        if "raw" in fdoc:
            raw = _parse_series(fdoc["raw"], variables, f"{where} raw")
        points.append(
            FixedPointDatum(
                name=name,
                moment=moment,
                weights=tuple(map(tuple, wdoc)),
                eta=_parse_series(fdoc["eta"], variables, f"{where} eta"),
                moment_hk=moment_hk,
                mode=str(fdoc["mode"]),
                raw_contribution=raw,
            )
        )

    submanifold = None
    if "submanifold" in document:
        sdoc = document["submanifold"]
        if not isinstance(sdoc, Mapping):
            raise ValidationError("submanifold must be an object")
        _require_keys(sdoc, {"codim_L"}, set(), "submanifold")
        submanifold = SubmanifoldRestriction(_parse_int(sdoc["codim_L"], "codim_L"))

    atlas = FixedPointAtlas(
        group=group,
        geometry=str(document["geometry"]),
        dim_m=_parse_int(document["dim_M"], "dim_M"),
        dim_quotient=_parse_int(document["dim_quotient"], "dim_quotient"),
        deg_eta0=_parse_int(document["deg_eta0"], "deg_eta0"),
        variable_order=variables,
        fixed_points=tuple(points),
        submanifold=submanifold,
    )
    validate_atlas(atlas)
    return atlas


# -- built-in atlases ----------------------------------------------------


def _poly(variables, coeffs: Mapping) -> LaurentSeries:
    return LaurentSeries(variables, coeffs)


def sphere_atlas() -> FixedPointAtlas:
    """The standard rotation action on the two-sphere: two fixed points with
    opposite unit moments and opposite unit weights, trivial integrand."""
    variables = ("y",)
    one = LaurentSeries.const(variables, 1)
    north = FixedPointDatum(
        name="north", moment=(Fraction(1),), weights=((1,),), eta=one
    )
    south = FixedPointDatum(
        name="south", moment=(Fraction(-1),), weights=((-1,),), eta=one
    )
    return FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="symplectic",
        dim_m=2,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=(north, south),
    )


def mirror_pair_atlas(seed: int) -> FixedPointAtlas:
    """Seeded random circle atlas whose fixed points come in (mu, w) /
    (-mu, -w) pairs sharing the same eta restriction.

    The pairing makes the principal part of the summed localization series
    cancel exactly, which is what the mollified-integral oracle needs.  Each
    pair keeps a positive rational constant term in eta with mu >= 1, so the
    residue sum stays away from zero and converges fast under the mollifier.
    """
    rng = random.Random(seed)
    variables = ("y",)
    n_pairs = rng.randint(1, 3)
    points = []
    for j in range(1, n_pairs + 1):
        mu = Fraction(rng.randint(2, 6), 2)  # in [1, 3], step 1/2
        w = rng.randint(1, 3)
        coeffs = {(0,): ComplexRational.of(rng.randint(1, 4))}
        for d in range(1, rng.randint(1, 3)):
            c = ComplexRational(
                Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-2, 2), 2)
            )
            if not c.is_zero():
                coeffs[(d,)] = c
        eta = _poly(variables, coeffs)
        points.append(
            FixedPointDatum(
                name=f"pair{j}+", moment=(mu,), weights=((w,),), eta=eta
            )
        )
        points.append(
            FixedPointDatum(
                name=f"pair{j}-", moment=(-mu,), weights=((-w,),), eta=eta
            )
        )
    return FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="symplectic",
        dim_m=2,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=tuple(points),
    )


def hk_synthetic_atlas(seed: int) -> FixedPointAtlas:
    """Seeded random hyperkahler circle atlas: every fixed point has a
    nonvanishing three-component moment vector and tangent weights drawn from
    {+-1, +-2, +-3}."""
    rng = random.Random(seed)
    variables = ("y",)
    n_weights = rng.choice([2, 4])  # per point; dim_M = 2 * n_weights
    dim_m = 2 * n_weights
    dim_quotient = dim_m - 4
    n_points = rng.randint(1, 3)
    points = []
    for j in range(1, n_points + 1):
        weights = tuple(
            (rng.choice([1, 2, 3]) * rng.choice([-1, 1]),) for _ in range(n_weights)
        )
        while True:
            vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            if any(vec):
                break
        coeffs = {}
        for d in range(0, rng.randint(1, 4)):
            c = ComplexRational(
                Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
                Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
            )
            if not c.is_zero():
                coeffs[(d,)] = c
        if not coeffs:
            coeffs[(0,)] = ComplexRational.one()
        points.append(
            FixedPointDatum(
                name=f"fp{j}",
                moment=(Fraction(0),),
                weights=weights,
                eta=_poly(variables, coeffs),
                moment_hk=(vec,),
            )
        )
    return FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="hyperkahler",
        dim_m=dim_m,
        dim_quotient=dim_quotient,
        deg_eta0=rng.randint(0, dim_quotient),
        variable_order=variables,
        fixed_points=tuple(points),
    )


def hk_point_atlas() -> FixedPointAtlas:
    """One hyperkahler fixed point with Euler class y^4 and squared moment
    length 2: the smallest interesting residue example."""
    variables = ("y",)
    fp = FixedPointDatum(
        name="origin",
        moment=(Fraction(0),),
        weights=((1,), (1,), (1,), (1,)),
        eta=LaurentSeries.const(variables, 1),
        moment_hk=((Fraction(1), Fraction(1), Fraction(0)),),
    )
    return FixedPointAtlas(
        group=GroupSpec.circle(),
        geometry="hyperkahler",
        dim_m=8,
        dim_quotient=4,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=(fp,),
    )


def hk_torus_rank2_atlas() -> FixedPointAtlas:
    """A rank-2 separable product: one fixed point whose weights split into a
    pure first-variable block and a pure second-variable block, so the
    iterated coefficient factors into the two rank-1 reads."""
    variables = ("y1", "y2")
    fp = FixedPointDatum(
        name="product",
        moment=(Fraction(0), Fraction(0)),
        weights=((1, 0), (1, 0), (0, 1), (0, 1)),
        eta=LaurentSeries.const(variables, 1),
        moment_hk=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(1)),
        ),
    )
    return FixedPointAtlas(
        group=GroupSpec.torus(2),
        geometry="hyperkahler",
        dim_m=8,
        dim_quotient=0,
        deg_eta0=0,
        variable_order=variables,
        fixed_points=(fp,),
    )


def permute_atlas_variables(
    atlas: FixedPointAtlas, new_order: Sequence[str]
) -> FixedPointAtlas:
    """The same atlas presented with its variables listed in a different
    order.  Moment components, weight components, and exponent vectors are
    permuted consistently, so the geometry is untouched; only the order in
    which iterated coefficient extraction walks the variables changes."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(atlas.variable_order):
        raise ValidationError(
            f"{new_order} is not a permutation of {atlas.variable_order}"
        )
    idx = tuple(atlas.variable_order.index(v) for v in new_order)

    def pick(seq):
        return tuple(seq[j] for j in idx)

    def remap_series(s: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(
            new_order,
            {pick(e): c for e, c in s.terms.items()},
            pick(s.trunc),
        )

    points = []
    for fp in atlas.fixed_points:
        points.append(
            replace(
                fp,
                moment=pick(fp.moment),
                moment_hk=None if fp.moment_hk is None else pick(fp.moment_hk),
                weights=tuple(pick(w) for w in fp.weights),
                eta=remap_series(fp.eta),
                raw_contribution=None
                if fp.raw_contribution is None
                else remap_series(fp.raw_contribution),
            )
        )
    group = atlas.group
    if group.root_system is not None:
        group = replace(
            group,
            root_system=RootSystemData(
                tuple(pick(a) for a in group.root_system.positive_roots),
                group.root_system.weyl_order,
            ),
        )
    return replace(
        atlas, group=group, variable_order=new_order, fixed_points=tuple(points)
    )


_BUILTIN_PLAIN = {
    "sphere_S2": sphere_atlas,
    "hk_point": hk_point_atlas,
    "hk_torus_rank2": hk_torus_rank2_atlas,
}
_BUILTIN_SEEDED = {"mirror_pair": mirror_pair_atlas, "hk_synthetic": hk_synthetic_atlas}


def builtin_atlas(name: str, seed: Optional[int] = None) -> FixedPointAtlas:
    """Look up a built-in atlas.  Seeded families accept either
    builtin_atlas("mirror_pair", seed=7) or the textual "mirror_pair(7)"."""
    name = name.strip()
    if name in _BUILTIN_PLAIN:
        if seed is not None:
            raise ValidationError(f"atlas {name!r} does not take a seed")
        return _BUILTIN_PLAIN[name]()
    base, sep, rest = name.partition("(")
    if sep:
        if not rest.endswith(")"):
            raise ValidationError(f"malformed builtin atlas name {name!r}")
        if seed is not None:
            raise ValidationError("seed given both inline and as an argument")
        try:
            seed = int(rest[:-1])
        except ValueError:
            raise ValidationError(f"malformed seed in {name!r}") from None
        name = base
    if name in _BUILTIN_SEEDED:
        if seed is None:
            raise ValidationError(f"atlas {name!r} needs a seed")
        atlas = _BUILTIN_SEEDED[name](seed)
        validate_atlas(atlas)
        return atlas
    known = sorted(_BUILTIN_PLAIN) + sorted(_BUILTIN_SEEDED)
    raise ValidationError(f"unknown builtin atlas {name!r}; known: {known}")
