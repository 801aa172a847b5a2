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
import random
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from operator import le
from typing import Optional, Sequence, Tuple

from .errors import ValidationError, VariableMismatchError
from .exact import ComplexRational, LaurentSeries, SymbolicConstant, _limits, _normal
from .record import Record, replace

GEOMETRIES = ("symplectic", "hyperkahler")
GROUP_KINDS = ("circle", "torus", "compact_with_torus")
POINT_MODES = ("structured", "raw")


class RootSystemData(Record):
    """Positive roots as integer covectors on the torus, plus the order of
    the Weyl group."""

    __slots__ = ("positive_roots", "weyl_order")

    def __init__(self, positive_roots: Tuple[Tuple[int, ...], ...], weyl_order: int):
        object.__setattr__(self, "positive_roots", positive_roots)
        object.__setattr__(self, "weyl_order", weyl_order)


class GroupSpec(Record):
    __slots__ = ("kind", "rank", "s", "vol", "root_system")

    def __init__(
        self,
        kind: str,
        rank: int,
        s: int,  # real dimension of the acting group
        vol: SymbolicConstant,
        root_system: Optional[RootSystemData] = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "root_system", root_system)

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


class FixedPointDatum(Record):
    __slots__ = (
        "name", "moment", "weights", "eta", "moment_hk", "mode", "raw_contribution"
    )

    def __init__(
        self,
        name: str,
        moment: Tuple[Fraction, ...],
        weights: Tuple[Tuple[int, ...], ...],
        eta: LaurentSeries,
        moment_hk: Optional[Tuple[Tuple[Fraction, Fraction, Fraction], ...]] = None,
        mode: str = "structured",
        raw_contribution: Optional[LaurentSeries] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "moment", moment)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "moment_hk", moment_hk)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "raw_contribution", raw_contribution)

    def hk_norm_sq(self, factor: int) -> Fraction:
        """Exact squared length of the three-component moment value attached
        to one circle factor."""
        if self.moment_hk is None:
            raise ValidationError(
                f"fixed point {self.name!r} carries no three-component moment data",
                point=self.name,
            )
        # sum n^2 / d^2 over one running denominator, reduced once
        num, den = 0, 1
        for x in self.moment_hk[factor]:
            d2 = x.denominator * x.denominator
            num, den = num * d2 + x.numerator * x.numerator * den, den * d2
        return Fraction(num, den)


class SubmanifoldRestriction(Record):
    __slots__ = ("codim",)

    def __init__(self, codim: int):
        object.__setattr__(self, "codim", codim)


class FixedPointAtlas(Record):
    __slots__ = (
        "group",
        "geometry",
        "dim_m",
        "dim_quotient",
        "deg_eta0",
        "variable_order",
        "fixed_points",
        "submanifold",
    )

    def __init__(
        self,
        group: GroupSpec,
        geometry: str,
        dim_m: int,
        dim_quotient: int,
        deg_eta0: int,
        variable_order: Tuple[str, ...],
        fixed_points: Tuple[FixedPointDatum, ...],
        submanifold: Optional[SubmanifoldRestriction] = None,
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "dim_m", dim_m)
        object.__setattr__(self, "dim_quotient", dim_quotient)
        object.__setattr__(self, "deg_eta0", deg_eta0)
        object.__setattr__(self, "variable_order", variable_order)
        object.__setattr__(self, "fixed_points", fixed_points)
        object.__setattr__(self, "submanifold", submanifold)

    def degree_factor(self) -> int:
        """dim of the quotient minus the degree of the integrand class plus
        one; the left-hand side multiplier of the residue identity."""
        return self.dim_quotient - self.deg_eta0 + 1


# -- validation ----------------------------------------------------------


def check_variable_order(variables: Sequence[str], rank: int) -> None:
    """One distinct, nonempty string per variable of a rank-``rank`` group."""
    if not all(isinstance(v, str) for v in variables):
        raise ValidationError(
            "variable_order must be a list of strings", variable_order=variables
        )
    if len(variables) != rank:
        raise ValidationError(
            f"variable_order has {len(variables)} names for rank {rank}",
            variable_order=variables,
            rank=rank,
        )
    if len(set(variables)) != rank or not all(variables):
        raise ValidationError(
            "variable names must be distinct and nonempty", variable_order=variables
        )


def validate_atlas(atlas: FixedPointAtlas) -> None:
    """Check a built atlas: its header, that it has fixed points, then each
    fixed point in turn."""
    _check_header(atlas)
    _check_point_count(len(atlas.fixed_points))
    seen: set = set()
    for fp in atlas.fixed_points:
        _check_point(atlas, fp, seen)


def _check_header(atlas: FixedPointAtlas) -> None:
    """Group, dimensions, variables and submanifold: all but the points.  A
    refusal's context holds the values its message names."""
    g = atlas.group
    if atlas.geometry not in GEOMETRIES:
        raise ValidationError(
            f"unknown geometry {atlas.geometry!r}", geometry=atlas.geometry
        )
    if g.kind not in GROUP_KINDS:
        raise ValidationError(f"unknown group kind {g.kind!r}", kind=g.kind)
    if g.rank < 1:
        raise ValidationError(f"group rank must be >= 1, got {g.rank}", rank=g.rank)
    if g.kind == "circle" and (g.rank != 1 or g.s != 1):
        raise ValidationError(
            "a circle group has rank 1 and dimension 1", rank=g.rank, s=g.s
        )
    if g.kind == "torus" and g.s != g.rank:
        raise ValidationError(
            f"a torus has dimension equal to its rank, got s={g.s}, rank={g.rank}",
            s=g.s,
            rank=g.rank,
        )
    if g.kind == "compact_with_torus":
        if g.root_system is None:
            raise ValidationError(
                "compact_with_torus groups must carry root system data", kind=g.kind
            )
        expect = g.rank + 2 * len(g.root_system.positive_roots)
        if g.s != expect:
            raise ValidationError(
                f"group dimension {g.s} does not match rank + 2 * positive roots "
                f"= {expect}",
                s=g.s,
                expected=expect,
            )
    if g.root_system is not None:
        if g.root_system.weyl_order < 1:
            raise ValidationError(
                "Weyl group order must be >= 1", weyl_order=g.root_system.weyl_order
            )
        for alpha in g.root_system.positive_roots:
            if len(alpha) != g.rank:
                raise ValidationError(
                    f"root covector {alpha} does not have rank {g.rank}",
                    root=alpha,
                    rank=g.rank,
                )
            if all(a == 0 for a in alpha):
                raise ValidationError("zero root covector", root=alpha)
    if g.vol.q <= 0 or g.vol.i_pow != 0:
        raise ValidationError(
            "group volume must be a positive real constant", vol=g.vol.text()
        )

    if atlas.dim_m < 0 or atlas.dim_m % 2 != 0:
        raise ValidationError(
            f"dim_M must be a nonnegative even integer, got {atlas.dim_m}",
            dim_M=atlas.dim_m,
        )
    if atlas.geometry == "hyperkahler":
        if atlas.dim_m % 4 != 0:
            raise ValidationError(
                f"hyperkahler dim_M must be a multiple of 4, got {atlas.dim_m}",
                dim_M=atlas.dim_m,
            )
        expect_q = atlas.dim_m - 4 * g.s
    else:
        expect_q = atlas.dim_m - 2 * g.s
    if atlas.dim_quotient != expect_q:
        raise ValidationError(
            f"dim_quotient must equal {expect_q} for dim_M={atlas.dim_m} and "
            f"group dimension {g.s}, got {atlas.dim_quotient}",
            dim_quotient=atlas.dim_quotient,
            expected=expect_q,
        )
    if atlas.dim_quotient < 0:
        raise ValidationError(
            f"quotient dimension is negative ({atlas.dim_quotient}); the data "
            "describe an empty reduction",
            dim_quotient=atlas.dim_quotient,
        )
    if not (0 <= atlas.deg_eta0 <= atlas.dim_quotient):
        raise ValidationError(
            f"deg_eta0 must lie in [0, {atlas.dim_quotient}], got {atlas.deg_eta0}",
            deg_eta0=atlas.deg_eta0,
            dim_quotient=atlas.dim_quotient,
        )
    check_variable_order(atlas.variable_order, g.rank)
    if atlas.submanifold is not None and atlas.submanifold.codim < 0:
        raise ValidationError(
            "submanifold codimension must be >= 0", codim_L=atlas.submanifold.codim
        )


def _check_point_count(n: int) -> None:
    """An atlas with no fixed points localizes to 0 and has nothing to
    reduce."""
    if n == 0:
        raise ValidationError(
            "atlas has no fixed points; nothing to localize", key="fixed_points"
        )


def _check_point(atlas: FixedPointAtlas, fp: FixedPointDatum, seen: set) -> None:
    """One fixed point against a checked header and the names ``seen``
    before it.  A refusal's context names the point, and the weight or
    moment component its message names."""
    name, k = fp.name, atlas.group.rank

    def refuse(message: str, **context) -> ValidationError:
        return ValidationError(message, point=name, **context)

    if name in seen:
        raise refuse(f"duplicate fixed point name {name!r}")
    seen.add(name)
    if fp.mode not in POINT_MODES:
        raise refuse(f"fixed point {name!r} has unknown mode {fp.mode!r}")
    if len(fp.moment) != k:
        raise refuse(
            f"fixed point {name!r} has a moment vector of length {len(fp.moment)}, "
            f"expected {k}"
        )
    if fp.eta.vars != atlas.variable_order:
        raise refuse(
            f"fixed point {name!r}: eta variables {fp.eta.vars} do not match the "
            "atlas variable order"
        )
    if fp.eta.has_negative_exponents():
        raise refuse(f"fixed point {name!r}: eta restriction must be a polynomial")
    if fp.mode == "structured":
        for w in fp.weights:
            if len(w) != k:
                raise refuse(
                    f"fixed point {name!r} has weight vector {w} of wrong rank", weight=w
                )
            if not any(w):
                raise refuse(
                    f"e(y) is a zero divisor at {name!r}: zero tangent weight", weight=w
                )
            if k > 1 and len(w) - w.count(0) > 1:
                raise refuse(
                    f"tangent weight {w} at {name!r} involves more than one variable; "
                    "mixed weights are not supported yet", weight=w
                )
    elif fp.raw_contribution is None:
        raise refuse(f"raw-mode fixed point {name!r} has no contribution series")
    elif fp.raw_contribution.vars != atlas.variable_order:
        raise refuse(
            f"fixed point {name!r}: raw contribution variables do not match the "
            "atlas variable order"
        )
    if atlas.geometry == "symplectic":
        for nu, m in enumerate(fp.moment):
            if m == 0:
                raise refuse(
                    f"0 is not a regular value: fixed point {name!r} has moment "
                    f"component {nu} equal to 0",
                    component=nu,
                )
    elif fp.moment_hk is None or len(fp.moment_hk) != k:
        raise refuse(
            f"hyperkahler fixed point {name!r} needs one three-component moment "
            "vector per circle factor"
        )
    else:
        for nu, vec in enumerate(fp.moment_hk):
            if not any(vec):
                raise refuse(
                    f"0 is not a regular value: fixed point {name!r} has vanishing "
                    f"moment vector in circle factor {nu}",
                    component=nu,
                )


def submanifold_bound(atlas: FixedPointAtlas) -> int:
    """The largest codimension a submanifold restriction may have: the rank
    of the group-orbit directions removed by reduction (3s in the
    hyperkahler case, s in the symplectic one)."""
    return 3 * atlas.group.s if atlas.geometry == "hyperkahler" else atlas.group.s


def validate_respected(atlas: FixedPointAtlas) -> bool:
    """Whether a declared submanifold restriction keeps the reduction data
    meaningful: its codimension may not exceed ``submanifold_bound``.
    Atlases without a declared restriction trivially pass."""
    return atlas.submanifold is None or atlas.submanifold.codim <= submanifold_bound(atlas)


# -- canonical JSON ------------------------------------------------------


def _parse_pair(doc, where: str, key: str, term=None) -> tuple:
    """The ints (n, d) of a [numerator, denominator] pair, d nonzero.  A
    refusal names ``key`` of the object at ``where``, or of its term
    ``term``; its text and context are built only then."""
    if isinstance(doc, (list, tuple)) and len(doc) == 2:
        n, d = doc
        if type(n) is int and type(d) is int:
            if d != 0:
                return n, d
            raise _pair_refusal(where, key, term, "zero denominator")
    raise _pair_refusal(
        where, key, term, "rational values are [numerator, denominator] integer pairs"
    )


def _pair_refusal(where: str, key: str, term, reason: str) -> ValidationError:
    if term is None:
        return ValidationError(f"{where} {key}: {reason}", key=key)
    return ValidationError(f"{where}: term {term} {key}: {reason}", term=term, key=key)


def _parse_frac(doc, where: str, key: str) -> Fraction:
    return Fraction(*_parse_pair(doc, where, key))


def _parse_coeff(re_doc, im_doc, where: str, n: int) -> ComplexRational:
    """a/b + i c/e from the two pairs of term n, as one (p, q, d) triple: the
    signs of the denominators go onto the numerators and one gcd reduces the
    whole."""
    a, b = _parse_pair(re_doc, where, "re", n)
    c, e = _parse_pair(im_doc, where, "im", n)
    if b < 0:
        a, b = -a, -b
    if e < 0:
        c, e = -c, -e
    return _normal(a * e, c * b, b * e)


def _parse_series(doc, variables, where: str, key: str) -> LaurentSeries:
    """The series under ``key`` of the point at ``where``.  A refusal names
    the key as ``series``, here or on its way out of the term parser."""
    where = f"{where} {key}"
    is_map = type(doc) is dict or isinstance(doc, Mapping)
    if not is_map or len(doc) != 1 or "terms" not in doc:
        raise ValidationError(
            f"{where}: series documents have exactly one key, 'terms'", series=key
        )
    try:
        return parse_series_terms(doc["terms"], variables, where)
    except ValidationError as exc:
        exc.context["series"] = key
        raise


_TERM_KEYS = frozenset(("exp", "re", "im"))


def parse_series_terms(terms, variables: tuple, where: str, trunc=None) -> LaurentSeries:
    """Strictly parse a list of {exp, re, im} term objects, rationals given
    as [numerator, denominator] integer pairs, into the series over
    ``variables`` trusted through ``trunc`` (exact where None).

    Each term is checked once here and the series is wrapped without a
    second check: zero coefficients and terms beyond ``trunc`` are dropped,
    as the LaurentSeries constructor drops them.  ``variables`` is taken as
    checked (distinct names, see ``check_variable_order``); error text and
    context (the term index, and the key or exponents the message names) are
    built only when a term is refused.
    """
    if not isinstance(terms, list):
        raise ValidationError(f"{where}: 'terms' must be a list", key="terms")
    k = len(variables)
    tr = (None,) * k if trunc is None else tuple(trunc)
    if len(tr) != k:
        raise VariableMismatchError(
            f"truncation vector length {len(tr)} does not match {k} variables",
            trunc=tr,
            variables=variables,
        )
    parsed = {}
    for n, entry in enumerate(terms):
        is_map = type(entry) is dict or isinstance(entry, Mapping)
        if not is_map or entry.keys() != _TERM_KEYS:
            raise ValidationError(
                f"{where}: term {n} must have exactly the keys exp, re, im", term=n
            )
        exps = entry["exp"]
        ok = isinstance(exps, list) and len(exps) == k
        for x in exps if ok else ():
            if type(x) is not int:
                ok = False
                break
        if not ok:
            raise ValidationError(
                f"{where}: term {n} exponent vector must list one integer per variable",
                term=n,
                key="exp",
            )
        key = tuple(exps)
        if key in parsed:
            raise ValidationError(
                f"{where}: duplicate exponent vector {key}", term=n, exp=key
            )
        parsed[key] = _parse_coeff(entry["re"], entry["im"], where, n)
    if trunc is not None or not all(parsed.values()):
        lim = _limits(tr)
        parsed = {e: c for e, c in parsed.items() if c and all(map(le, e, lim))}
    return LaurentSeries._canonical(tuple(variables), parsed, tr)


def _keys(required: str, optional: str = "") -> tuple:
    """(required, allowed) key sets, from space-separated key names."""
    return frozenset(required.split()), frozenset(f"{required} {optional}".split())


_ATLAS_KEYS = _keys(
    "group geometry dim_M dim_quotient deg_eta0 variable_order fixed_points", "submanifold"
)
_GROUP_KEYS = _keys("kind rank s vol", "roots")
_ROOTS_KEYS = _keys("positive weyl_order")
_VOL_KEYS = _keys("q", "i_pow pi_pow sqrt2_pow")
_SUBMANIFOLD_KEYS = _keys("codim_L")
_POINT_KEYS = _keys("name mode moment weights eta", "moment_hk raw")


def _require_keys(doc: Mapping, keys: tuple, where: str) -> None:
    """Refuse a document whose keys miss one of the required ``keys[0]``
    (named first) or fall outside the allowed ``keys[1]``; the refusal's
    sets are built only then."""
    required, allowed = keys
    if required <= doc.keys() <= allowed:
        return
    keys = set(doc.keys())
    missing = required - keys
    unknown = keys - allowed
    if missing:
        missing = sorted(missing)
        raise ValidationError(f"{where}: missing keys {missing}", missing=missing)
    if unknown:
        unknown = sorted(unknown)
        raise ValidationError(f"{where}: unknown keys {unknown}", unknown=unknown)


#: Largest magnitude of the i, pi and sqrt(2) powers of a parsed group volume
#: (a rank-k torus has pi^k).
MAX_VOLUME_POWER = 64


def _parse_int(doc, key: str, where: str = "") -> int:
    """An int (not a bool); a refusal names ``key``, after ``where``."""
    if type(doc) is not int:
        raise ValidationError(f"{where}{key}: expected an integer", key=key)
    return doc


def _parse_str(doc, key: str, where: str = "") -> str:
    if not isinstance(doc, str):
        raise ValidationError(f"{where}{key} must be a string", key=key)
    return doc


def canonical_dumps(doc) -> str:
    """The canonical form of every plain-JSON document (CLI output, the
    oracle block): ``json.dumps`` with keys sorted and a two-space indent.
    Atlases and reports are written in this form by their own templates
    (``serialize_atlas``, ``ReductionReport.canonical_json``)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _list(items, nl: str) -> str:
    """A list of nonempty item texts written at indent nl + two spaces."""
    i = nl + "  "
    body = f",{i}".join(items)
    return f"[{i}{body}{nl}]" if body else "[]"


def _pairs(values, nl: str):
    """Rationals as [numerator, denominator] item texts at indent nl."""
    i = nl + "  "
    return (f"[{i}{x.numerator},{i}{x.denominator}{nl}]" for x in values)


def _im_re(c: ComplexRational, nl: str) -> str:
    """The "im" and "re" members of c's object at indent nl, in lowest terms."""
    (a, b), (p, q) = c.json_pairs()
    i = nl + "  "
    return f'"im": [{i}{p},{i}{q}{nl}],{nl}"re": [{i}{a},{i}{b}{nl}]'


def _coeff_text(c: ComplexRational, nl: str) -> str:
    return f"{{{nl}  {_im_re(c, nl + '  ')}{nl}}}"


def _constant_text(c: SymbolicConstant, nl: str) -> str:
    i = nl + "  "
    q = _list(map(str, (c.q.numerator, c.q.denominator)), i)
    return (
        f'{{{i}"i_pow": {c.i_pow},{i}"pi_pow": {c.pi_pow},{i}"q": {q},'
        f'{i}"sqrt2_pow": {c.sqrt2_pow}{nl}}}'
    )


def _series_text(s: LaurentSeries, nl: str) -> str:
    """{"terms": [...]}, each term {"exp", "im", "re"}, sorted by exponents."""
    i, j, k = nl + "  ", nl + "    ", nl + "      "
    m = k + "  "
    comma = "," + m
    terms = [
        f'{{{k}"exp": {f"[{m}{comma.join(map(str, e))}{k}]" if e else "[]"},'
        f'{k}{_im_re(s.terms[e], k)}{j}}}'
        for e in sorted(s.terms)
    ]
    return f'{{{i}"terms": {_list(terms, i)}{nl}}}'


def _point_text(fp: FixedPointDatum, nl: str) -> str:
    i, j = nl + "  ", nl + "    "
    text = (
        f'{{{i}"eta": {_series_text(fp.eta, i)},{i}"mode": {_encode_str(fp.mode)},'
        f'{i}"moment": {_list(_pairs(fp.moment, j), i)}'
    )
    if fp.moment_hk is not None:
        vecs = (_list(_pairs(vec, j + "  "), j) for vec in fp.moment_hk)
        text += f',{i}"moment_hk": {_list(vecs, i)}'
    text += f',{i}"name": {_encode_str(fp.name)}'
    if fp.raw_contribution is not None:
        text += f',{i}"raw": {_series_text(fp.raw_contribution, i)}'
    # one join over the weights, each weight's ints joined inside its brackets
    k = j + "  "
    comma = "," + k
    weights = f",{j}".join(
        [f"[{k}{comma.join(map(int.__repr__, w))}{j}]" if w else "[]" for w in fp.weights]
    )
    weights = f"[{j}{weights}{i}]" if weights else "[]"
    return f'{text},{i}"weights": {weights}{nl}}}'


def serialize_atlas(atlas: FixedPointAtlas) -> str:
    """The atlas's canonical JSON text, written from its fields."""
    g = atlas.group
    i, j, k = "\n  ", "\n    ", "\n      "
    group = f'{{{j}"kind": {_encode_str(g.kind)},{j}"rank": {g.rank},'
    if g.root_system is not None:
        roots = (_list(map(int.__repr__, a), k + "  ") for a in g.root_system.positive_roots)
        group += (
            f'{j}"roots": {{{k}"positive": {_list(roots, k)},'
            f'{k}"weyl_order": {g.root_system.weyl_order}{j}}},'
        )
    group += f'{j}"s": {g.s},{j}"vol": {_constant_text(g.vol, j)}{i}}}'
    sub = ""
    if atlas.submanifold is not None:
        sub = f'{i}"submanifold": {{{j}"codim_L": {atlas.submanifold.codim}{i}}},'
    points = _list([_point_text(fp, j) for fp in atlas.fixed_points], i)
    return (
        f'{{{i}"deg_eta0": {atlas.deg_eta0},{i}"dim_M": {atlas.dim_m},'
        f'{i}"dim_quotient": {atlas.dim_quotient},{i}"fixed_points": {points},'
        f'{i}"geometry": {_encode_str(atlas.geometry)},{i}"group": {group},{sub}'
        f'{i}"variable_order": {_list(map(_encode_str, atlas.variable_order), i)}\n}}\n'
    )


def parse_atlas(document) -> FixedPointAtlas:
    """Parse and fully validate an atlas document (JSON text or mapping):
    the header first, then each fixed point as it is built, by the check
    ``validate_atlas`` runs per point, so the atlas is walked once.  A
    refusal's context holds the keys its message names, and the index of
    the fixed point being parsed."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"atlas document is not valid JSON: {exc}", line=exc.lineno, column=exc.colno
            ) from exc
    if type(document) is not dict and not isinstance(document, Mapping):
        raise ValidationError(
            "atlas document must be a JSON object", type=type(document).__name__
        )
    _require_keys(document, _ATLAS_KEYS, "atlas")
    gdoc = document["group"]
    if type(gdoc) is not dict and not isinstance(gdoc, Mapping):
        raise ValidationError("atlas group must be an object", key="group")
    _require_keys(gdoc, _GROUP_KEYS, "group")
    roots = None
    if "roots" in gdoc:
        rdoc = gdoc["roots"]
        if not isinstance(rdoc, Mapping):
            raise ValidationError("group roots must be an object", key="roots")
        _require_keys(rdoc, _ROOTS_KEYS, "group roots")
        pos = rdoc["positive"]
        if not isinstance(pos, list):
            raise ValidationError(
                "positive roots must be a list of covectors", key="positive"
            )
        parsed_roots = []
        for a in pos:
            if not isinstance(a, list) or not all(type(x) is int for x in a):
                raise ValidationError(
                    "each positive root is a list of integers", key="positive", root=a
                )
            parsed_roots.append(tuple(a))
        roots = RootSystemData(tuple(parsed_roots), _parse_int(rdoc["weyl_order"], "weyl_order"))
    vdoc = gdoc["vol"]
    if type(vdoc) is not dict and not isinstance(vdoc, Mapping):
        raise ValidationError("group vol must be an object", key="vol")
    _require_keys(vdoc, _VOL_KEYS, "group vol")
    powers = []
    for key in ("i_pow", "pi_pow", "sqrt2_pow"):
        power = _parse_int(vdoc.get(key, 0), key, "group vol ")
        # SymbolicConstant folds sqrt2^(2m) into q as 2^m
        if abs(power) > MAX_VOLUME_POWER:
            raise ValidationError(
                f"group vol {key}: {power} is beyond +-{MAX_VOLUME_POWER}",
                key=key,
                power=power,
                limit=MAX_VOLUME_POWER,
            )
        powers.append(power)
    vol = SymbolicConstant(_parse_frac(vdoc["q"], "group vol", "q"), *powers)
    group = GroupSpec(
        kind=_parse_str(gdoc["kind"], "kind", "group "),
        rank=_parse_int(gdoc["rank"], "rank", "group "),
        s=_parse_int(gdoc["s"], "s", "group "),
        vol=vol,
        root_system=roots,
    )

    variables = document["variable_order"]
    if not isinstance(variables, list):
        raise ValidationError(
            "variable_order must be a list of strings", variable_order=variables
        )
    variables = tuple(variables)
    submanifold = None
    if "submanifold" in document:
        sdoc = document["submanifold"]
        if not isinstance(sdoc, Mapping):
            raise ValidationError("submanifold must be an object", key="submanifold")
        _require_keys(sdoc, _SUBMANIFOLD_KEYS, "submanifold")
        submanifold = SubmanifoldRestriction(_parse_int(sdoc["codim_L"], "codim_L"))
    header = FixedPointAtlas(
        group=group,
        geometry=_parse_str(document["geometry"], "geometry"),
        dim_m=_parse_int(document["dim_M"], "dim_M"),
        dim_quotient=_parse_int(document["dim_quotient"], "dim_quotient"),
        deg_eta0=_parse_int(document["deg_eta0"], "deg_eta0"),
        variable_order=variables,
        fixed_points=(),
        submanifold=submanifold,
    )
    # before any series is parsed over these variables
    _check_header(header)

    fps_doc = document["fixed_points"]
    if not isinstance(fps_doc, list):
        raise ValidationError("fixed_points must be a list", key="fixed_points")
    _check_point_count(len(fps_doc))
    points = []
    seen: set = set()
    for n, fdoc in enumerate(fps_doc):
        try:
            fp = _parse_point(fdoc, variables, f"fixed point {n}")
        except ValidationError as exc:
            exc.context["point_index"] = n
            raise
        _check_point(header, fp, seen)
        points.append(fp)
    return replace(header, fixed_points=tuple(points))


def _parse_point(fdoc, variables: tuple, where: str) -> FixedPointDatum:
    """One fixed point's document, its checks against the header left to
    ``_check_point``.  A refusal's context names the key its message names;
    ``parse_atlas`` adds the point's index."""
    if type(fdoc) is not dict and not isinstance(fdoc, Mapping):
        raise ValidationError(f"{where}: must be an object", type=type(fdoc).__name__)
    _require_keys(fdoc, _POINT_KEYS, where)
    name = fdoc["name"]
    if not isinstance(name, str):
        raise ValidationError(f"{where}: name must be a string", key="name")
    mdoc = fdoc["moment"]
    if not isinstance(mdoc, list):
        raise ValidationError(f"{where}: moment must be a list", key="moment")
    moment = tuple(_parse_frac(m, where, "moment") for m in mdoc)
    wdoc = fdoc["weights"]
    if not isinstance(wdoc, list):
        raise ValidationError(f"{where}: weights must be a list", key="weights")
    weights = []
    for w in wdoc:
        ok = isinstance(w, list)
        for x in w if ok else ():
            if type(x) is not int:
                ok = False
                break
        if not ok:
            raise ValidationError(f"{where}: each weight is a list of integers", key="weights")
        weights.append(tuple(w))
    moment_hk = None
    if "moment_hk" in fdoc:
        hdoc = fdoc["moment_hk"]
        if not isinstance(hdoc, list):
            raise ValidationError(f"{where}: moment_hk must be a list", key="moment_hk")
        vecs = []
        for vec in hdoc:
            if not isinstance(vec, list) or len(vec) != 3:
                raise ValidationError(
                    f"{where}: each moment_hk entry is a three-component vector",
                    key="moment_hk",
                )
            vecs.append(tuple(_parse_frac(c, where, "moment_hk") for c in vec))
        moment_hk = tuple(vecs)
    raw = None
    if "raw" in fdoc:
        raw = _parse_series(fdoc["raw"], variables, where, "raw")
    return FixedPointDatum(
        name=name,
        moment=moment,
        weights=tuple(weights),
        eta=_parse_series(fdoc["eta"], variables, where, "eta"),
        moment_hk=moment_hk,
        mode=_parse_str(fdoc["mode"], "mode", f"{where}: "),
        raw_contribution=raw,
    )


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
            f"{new_order} is not a permutation of {atlas.variable_order}",
            variable_order=new_order,
            expected=atlas.variable_order,
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
            raise ValidationError(
                f"atlas {name!r} does not take a seed", builtin=name, seed=seed
            )
        return _BUILTIN_PLAIN[name]()
    base, sep, rest = name.partition("(")
    if sep:
        if not rest.endswith(")"):
            raise ValidationError(f"malformed builtin atlas name {name!r}", builtin=name)
        if seed is not None:
            raise ValidationError(
                "seed given both inline and as an argument", builtin=name, seed=seed
            )
        try:
            seed = int(rest[:-1])
        except ValueError:
            raise ValidationError(f"malformed seed in {name!r}", builtin=name) from None
        name = base
    if name in _BUILTIN_SEEDED:
        if seed is None:
            raise ValidationError(f"atlas {name!r} needs a seed", builtin=name)
        atlas = _BUILTIN_SEEDED[name](seed)
        validate_atlas(atlas)
        return atlas
    known = sorted(_BUILTIN_PLAIN) + sorted(_BUILTIN_SEEDED)
    raise ValidationError(
        f"unknown builtin atlas {name!r}; known: {known}", builtin=name, known=known
    )
