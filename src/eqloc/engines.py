"""Quotient-integration engines: residue reads of the localization sum.

Four formulas share one core.  Symplectic engines read the coefficient at
y^-1 (per variable) of the phase-weighted localization sum over the fixed
points whose moment components are all positive.  HyperKahler engines read
the coefficient at y^-2 over ALL fixed points (their frequencies are squared
moment lengths, positive by regularity) and divide once by the degree factor
dim_quotient - deg_eta0 + 1.  A circle is the rank-1 torus; the two entry
points produce byte-identical canonical reports.

A product of linear forms has a Laurent inverse with finite principal part
only if it is a monomial, so the Euler class of every structured point the
engines accept is c * y^n: each tangent weight involves one variable.
``localize.monomial_euler_class`` reads (c, n) for every route, at every
structured point whether selected or not, and refuses a weight of the wrong
length (VariableMismatchError), a zero weight (ValidationError) or one
involving two variables (NonInvertibleError), each naming the point and
the weight.  A point's coefficient is then a finite sum
over its eta terms, which the engines read in closed form without building
a series.  Raw points are read from their stored series.

The alternative hyperKahler route builds each point's series in the original
variable with the exact Laurent arithmetic, keeps its even part, substitutes
the square of the variable, and reads the coefficient at y^-1 of its product
with the phase instead, forming that one coefficient only: it inverts the
monomial c * y^n with ``invert_series``.  It is the independent reference
for the closed-form read, the two routes agree exactly and the report does
not distinguish them.  It is held to the series work budget of ``localize``.
``localize`` (and the ``localize`` command) also keeps the series path.  The
closed-form read itself, ``point_coeff``, lives in ``localize`` beside
``monomial_euler_class``: the oracle's pole gate reads the principal part of
a circle sum with it too.

Every report can be checked numerically by ``eqloc.oracle.oracle_comparison``
(``reduce --oracle``), which shares no code with these reads: a symplectic
circle report by the mollified limit, every other report (torus, hyperkahler,
Weyl, any rank) by a contour read of the same coefficient.  The comparison
block names its route.

All convention-sensitive constants (2 pi powers, group volume, the hk
structural constant) live in a ConventionProfile and are applied outside the
exact coefficient, which the report always exposes raw.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .atlas import FixedPointAtlas, FixedPointDatum, RootSystemData
from .atlas import _coeff_text, _constant_text, _encode_str, _list
from .errors import (
    InternalError,
    OddExponentError,
    ValidationError,
)
from .exact import (
    ComplexRational,
    LaurentSeries,
    SymbolicConstant,
    _make,
    even_projector,
    exp_series,
    invert_series,
    substitute_sqrt,
)
# The engines no longer call localize; it stays importable from this module
# because the benchmark's tracer test reaches it as eqloc.engines.localize.
from .localize import (  # noqa: F401
    check_eta_mode,
    check_series_budget,
    euler_class,
    localize,
    monomial_euler_class,
    point_coeff,
)
from .record import Record, replace


class ConventionProfile(Record):
    """The one place normalization constants live.

    vol_circle is the volume assigned to one circle factor (a rank-k torus
    gets vol_circle^k).  The circle prefactors are the per-rank base: torus
    engines raise them to the rank.
    """

    __slots__ = (
        "name", "vol_circle", "prefactor_symplectic_circle", "prefactor_hk_circle"
    )

    def __init__(
        self,
        name: str,
        vol_circle: SymbolicConstant,
        prefactor_symplectic_circle: SymbolicConstant,
        prefactor_hk_circle: SymbolicConstant,
    ):
        if vol_circle.q <= 0 or vol_circle.i_pow != 0:
            raise ValidationError("profile volume must be a positive real constant")
        for c in (prefactor_symplectic_circle, prefactor_hk_circle):
            if c.q == 0:
                raise ValidationError("profile prefactors must be nonzero")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vol_circle", vol_circle)
        object.__setattr__(self, "prefactor_symplectic_circle", prefactor_symplectic_circle)
        object.__setattr__(self, "prefactor_hk_circle", prefactor_hk_circle)

    @classmethod
    def from_volume(cls, name: str, vol_circle: SymbolicConstant) -> "ConventionProfile":
        two_pi = SymbolicConstant(Fraction(2), pi_pow=1)
        sympl = (two_pi * vol_circle).inverse()
        hk_base = SymbolicConstant(Fraction(6), pi_pow=1, sqrt2_pow=1)
        hk = -((hk_base * vol_circle).inverse())
        return cls(name, vol_circle, sympl, hk)

    def prefactor(self, geometry: str, rank: int) -> SymbolicConstant:
        if geometry == "hyperkahler":
            return self.prefactor_hk_circle ** rank
        return self.prefactor_symplectic_circle ** rank

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "vol_circle": self.vol_circle.to_json_dict(),
            "prefactor_symplectic_circle": self.prefactor_symplectic_circle.to_json_dict(),
            "prefactor_hk_circle": self.prefactor_hk_circle.to_json_dict(),
        }


PROFILES: Dict[str, ConventionProfile] = {
    "default": ConventionProfile.from_volume(
        "default", SymbolicConstant(Fraction(2), pi_pow=1)
    ),
    "unit_volume": ConventionProfile.from_volume(
        "unit_volume", SymbolicConstant(Fraction(1))
    ),
}


def resolve_profile(profile=None) -> ConventionProfile:
    if profile is None:
        return PROFILES["default"]
    if isinstance(profile, ConventionProfile):
        return profile
    if isinstance(profile, str):
        try:
            return PROFILES[profile]
        except KeyError:
            raise ValidationError(
                f"unknown convention profile {profile!r}; known: {sorted(PROFILES)}",
                profile=profile,
            ) from None
    raise ValidationError(
        f"cannot interpret {profile!r} as a convention profile", profile=profile
    )


def _cr_json(c: ComplexRational) -> dict:
    re, im = c.json_pairs()
    return {"re": re, "im": im}


class ExactValue(Record):
    """unit * coeff with the transcendental part kept symbolic."""

    __slots__ = ("unit", "coeff")

    def __init__(self, unit: SymbolicConstant, coeff: ComplexRational):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "coeff", coeff)

    def numeric(self) -> complex:
        if not self.coeff:
            # 0j, not 0j times the unit: a negative unit would sign the zero
            return 0j
        try:
            value = complex(self.coeff) * self.unit.numeric_value()
            if cmath.isfinite(value):
                return value
        except OverflowError:
            pass
        raise ValidationError(
            "the exact value is beyond the range of a double, so the report "
            "cannot state it numerically; rescale the atlas data"
        )

    def to_json_dict(self) -> dict:
        n = self.numeric()
        return {
            "coeff": _cr_json(self.coeff),
            "unit": self.unit.to_json_dict(),
            "numeric": [n.real, n.imag],
        }


class PointEntry(Record):
    __slots__ = ("name", "selected", "coefficient")

    def __init__(self, name: str, selected: bool, coefficient: ComplexRational):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "coefficient", coefficient)


class ReductionReport(Record):
    __slots__ = (
        "path",  # which entry point computed this; not part of the canonical form
        "geometry",
        "rank",
        "profile",
        "variable_order",
        "eta_mode",
        "contributions",
        "raw_coefficient",
        "degree_factor",
        "prefactor",
        "quotient_integral",
        "inserted_polynomial",
        "weyl_divisor",
        "oracle_comparison",
    )

    def __init__(
        self,
        path: str,
        geometry: str,
        rank: int,
        profile: ConventionProfile,
        variable_order: Tuple[str, ...],
        eta_mode: str,
        contributions: Tuple[PointEntry, ...],
        raw_coefficient: ComplexRational,
        degree_factor: int,
        prefactor: SymbolicConstant,
        quotient_integral: ExactValue,
        inserted_polynomial: Optional[str] = None,
        weyl_divisor: Optional[int] = None,
        oracle_comparison: Optional[dict] = None,
    ):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "variable_order", variable_order)
        object.__setattr__(self, "eta_mode", eta_mode)
        object.__setattr__(self, "contributions", contributions)
        object.__setattr__(self, "raw_coefficient", raw_coefficient)
        object.__setattr__(self, "degree_factor", degree_factor)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "quotient_integral", quotient_integral)
        object.__setattr__(self, "inserted_polynomial", inserted_polynomial)
        object.__setattr__(self, "weyl_divisor", weyl_divisor)
        object.__setattr__(self, "oracle_comparison", oracle_comparison)

    def to_json_dict(self, include_path: bool = True) -> dict:
        doc = {
            "geometry": self.geometry,
            "rank": self.rank,
            "profile": self.profile.to_json_dict(),
            "variable_order": list(self.variable_order),
            "eta_mode": self.eta_mode,
            "contributions": [
                {"name": p.name, "selected": p.selected, "coefficient": _cr_json(p.coefficient)}
                for p in self.contributions
            ],
            "raw_coefficient": _cr_json(self.raw_coefficient),
            "degree_factor": self.degree_factor,
            "prefactor": self.prefactor.to_json_dict(),
            "quotient_integral": self.quotient_integral.to_json_dict(),
        }
        if self.inserted_polynomial is not None:
            doc["inserted_polynomial"] = self.inserted_polynomial
            doc["weyl_divisor"] = self.weyl_divisor
        if self.oracle_comparison is not None:
            doc["oracle_comparison"] = self.oracle_comparison
        if include_path:
            doc["path"] = self.path
        return doc

    def canonical_json(self) -> str:
        """``canonical_dumps(self.to_json_dict(include_path=False))``,
        written from the fields.  The computing path is excluded so that
        different routes to the same numbers serialize identically."""
        i, j, k = "\n  ", "\n    ", "\n      "
        profile, value = self.profile, self.quotient_integral
        n = value.numeric()  # finite: it raises otherwise
        entries = [
            f'{{{k}"coefficient": {_coeff_text(p.coefficient, k)},'
            f'{k}"name": {_encode_str(p.name)},'
            f'{k}"selected": {"true" if p.selected else "false"}{j}}}'
            for p in self.contributions
        ]
        text = (
            f'{{{i}"contributions": {_list(entries, i)},{i}"degree_factor": {self.degree_factor},'
            f'{i}"eta_mode": {_encode_str(self.eta_mode)},'
            f'{i}"geometry": {_encode_str(self.geometry)},'
        )
        if self.inserted_polynomial is not None:
            text += f'{i}"inserted_polynomial": {_encode_str(self.inserted_polynomial)},'
        if self.oracle_comparison is not None:
            block = json.dumps(self.oracle_comparison, sort_keys=True, indent=2).replace("\n", i)
            text += f'{i}"oracle_comparison": {block},'
        text += (
            f'{i}"prefactor": {_constant_text(self.prefactor, i)},'
            f'{i}"profile": {{{j}"name": {_encode_str(profile.name)},'
            f'{j}"prefactor_hk_circle": {_constant_text(profile.prefactor_hk_circle, j)},'
            f'{j}"prefactor_symplectic_circle": '
            f"{_constant_text(profile.prefactor_symplectic_circle, j)},"
            f'{j}"vol_circle": {_constant_text(profile.vol_circle, j)}{i}}},'
            f'{i}"quotient_integral": {{{j}"coeff": {_coeff_text(value.coeff, j)},'
            f'{j}"numeric": [{k}{n.real!r},{k}{n.imag!r}{j}],'
            f'{j}"unit": {_constant_text(value.unit, j)}{i}}},'
            f'{i}"rank": {self.rank},{i}"raw_coefficient": {_coeff_text(self.raw_coefficient, i)},'
            f'{i}"variable_order": {_list(map(_encode_str, self.variable_order), i)}'
        )
        if self.inserted_polynomial is not None:
            text += f',{i}"weyl_divisor": {self.weyl_divisor}'
        return text + "\n}\n"

    def with_oracle(self, comparison: dict) -> "ReductionReport":
        return replace(self, oracle_comparison=comparison)

    def table_text(self) -> str:
        lines = [
            f"geometry:        {self.geometry} (rank {self.rank})",
            f"profile:         {self.profile.name}",
            f"variables:       {', '.join(self.variable_order)}",
            f"raw coefficient: {self.raw_coefficient}",
            f"degree factor:   {self.degree_factor}",
            f"prefactor:       {self.prefactor.text()}",
            f"quotient:        {self.quotient_integral.unit.text()} * "
            f"{self.quotient_integral.coeff} = {self.quotient_integral.numeric()}",
        ]
        if self.inserted_polynomial is not None:
            lines.append(f"inserted:        {self.inserted_polynomial} (divided by {self.weyl_divisor})")
        lines.append("contributions:")
        for p in self.contributions:
            tag = "  " if p.selected else " (skipped)"
            lines.append(f"  {p.name}: {p.coefficient}{tag}")
        if self.oracle_comparison is not None:
            oc = self.oracle_comparison
            if oc.get("checks") == "abs_err":
                err = "checked, as the exact value is 0"
            else:
                err = f"rel err {oc['rel_err']:.3e}"
            lines.append(
                f"oracle:          {oc['oracle_value']} (abs err {oc['abs_err']:.3e}, {err})"
            )
            if oc["route"] == "contour":
                lines.append(
                    f"oracle contour:  {oc['nodes']} nodes per variable on radii "
                    f"{oc['radii']} (of {oc['max_nodes']} nodes per grid)"
                )
            else:
                panels = ", ".join(str(r["panels"]) for r in oc["ladder"])
                lines.append(f"oracle panels:   {panels} (of {oc['max_panels']} per rung)")
                verdict = "converged" if oc["converged"] else "not converged"
                lines.append(f"oracle ladder:   {verdict} over its last two rungs")
        return "\n".join(lines) + "\n"


def _run(
    atlas: FixedPointAtlas,
    profile,
    *,
    geometry: str,
    eta_mode: str,
    path: str,
    require_rank: Optional[int] = None,
    via_p: bool = False,
) -> ReductionReport:
    profile = resolve_profile(profile)
    check_eta_mode(eta_mode)
    if atlas.geometry != geometry:
        raise ValidationError(
            f"engine expects {geometry} geometry, atlas declares {atlas.geometry!r}",
            geometry=atlas.geometry,
            expected=geometry,
        )
    k = atlas.group.rank
    if require_rank is not None and k != require_rank:
        # the even-part route has no torus form; the direct read covers rank k
        fix = "use --mode hk, the direct y^-2 read" if via_p else "use the torus entry point"
        raise ValidationError(
            f"this entry point handles rank {require_rank}, atlas has rank {k}; {fix}",
            rank=k,
            expected=require_rank,
        )
    if not atlas.fixed_points:
        raise ValidationError("atlas has no fixed points; nothing to localize")

    if geometry == "symplectic":
        mask = [all(m > 0 for m in fp.moment) for fp in atlas.fixed_points]
    else:
        mask = [True] * len(atlas.fixed_points)

    target = (-2 if geometry == "hyperkahler" else -1,) * k
    if via_p:
        # the series route is held to localize's budget at the same read
        check_series_budget(atlas, target)

    entries = []
    raw = ComplexRational.zero()
    for fp, keep in zip(atlas.fixed_points, mask):
        if not keep:
            if fp.mode == "structured":
                # read, though unselected, so every reader refuses the same weights
                monomial_euler_class(fp, k)
            c = ComplexRational.zero()
        elif via_p:
            c = _point_coeff_via_even_part(atlas, fp, eta_mode)
        else:
            c = point_coeff(atlas, fp, eta_mode, target)
        entries.append(PointEntry(fp.name, keep, c))
        raw = raw + c

    degree_factor = atlas.degree_factor() if geometry == "hyperkahler" else 1
    if degree_factor < 1:
        raise InternalError(
            f"degree factor {degree_factor} escaped validation", degree_factor=degree_factor
        )
    prefactor = profile.prefactor(geometry, k)
    quotient = ExactValue(prefactor, raw * Fraction(1, degree_factor))
    return ReductionReport(
        path=path,
        geometry=geometry,
        rank=k,
        profile=profile,
        variable_order=atlas.variable_order,
        eta_mode=eta_mode,
        contributions=tuple(entries),
        raw_coefficient=raw,
        degree_factor=degree_factor,
        prefactor=prefactor,
        quotient_integral=quotient,
    )


def _point_coeff_via_even_part(
    atlas: FixedPointAtlas, fp: FixedPointDatum, eta_mode: str
) -> ComplexRational:
    """Coefficient read through the even-part route.

    Keep the even part of the point's series in the original variable, halve
    its exponents, multiply by exp(i * |moment vector|^2 * y) (now linear in
    the halved variable), and read the coefficient at y^-1.  Agrees exactly
    with the direct y^-2 read because the phase is even.  Only that one
    coefficient of the product is formed: the sum over the halved series'
    terms c y^e of c times the phase's coefficient at y^(-1 - e).
    """
    variables = atlas.variable_order
    var = variables[0]
    z_order = -2  # the y^-2 read, y^-1 once the exponents are halved
    if fp.mode == "raw":
        series_z = fp.raw_contribution
    else:
        e = euler_class(fp, variables)
        num_order = z_order + e.min_exponent()[0]
        eta_terms = {(0,): ComplexRational.one()} if eta_mode == "one" else fp.eta.terms
        # the numerator, clipped to the order the inverse needs
        numerator = LaurentSeries._canonical(
            variables,
            {j: c for j, c in eta_terms.items() if j[0] <= num_order},
            (num_order,),
        )
        series_z = numerator * invert_series(e, (z_order,))
    even = even_projector(series_z, var)
    try:
        halved = substitute_sqrt(even, var)
    except OddExponentError as exc:  # pragma: no cover - parity guard
        raise InternalError(
            f"odd exponent survived the even projector at {fp.name!r}", point=fp.name
        ) from exc
    if fp.mode == "raw":
        # raw data already carries its phase factors
        return halved.coefficient((-1,))
    lam = fp.hk_norm_sq(0)  # nonzero: the moment vector is validated nonzero
    min_exp = halved.min_exponent()[0]
    exp_order = max(0, -1 - min_exp)
    phase = exp_series(
        LaurentSeries._canonical(
            variables, {(1,): _make((0, lam.numerator, lam.denominator))}, (None,)
        ),
        (exp_order,),
    )
    total = ComplexRational.zero()
    for (x,), c in halved.terms.items():
        total = total + c * phase.coefficient((-1 - x,))
    return total


def reduce_symplectic_circle(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas"
) -> ReductionReport:
    """Quotient integral of a symplectic circle atlas.

    Only fixed points with positive moment contribute; the raw coefficient is
    the y^-1 read of the phase-weighted localization sum and the quotient
    value is prefactor * raw.
    """
    return _run(
        atlas,
        profile,
        geometry="symplectic",
        eta_mode=eta_mode,
        path="symplectic_circle",
        require_rank=1,
    )


def reduce_symplectic_torus(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas"
) -> ReductionReport:
    """Rank-k version: keeps fixed points whose moment components are all
    positive and reads the iterated y_1^-1 ... y_k^-1 coefficient."""
    return _run(
        atlas,
        profile,
        geometry="symplectic",
        eta_mode=eta_mode,
        path="symplectic_torus",
    )


def reduce_hk_circle(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas"
) -> ReductionReport:
    """HyperKahler circle reduction: y^-2 read over all fixed points, then
    prefactor and one division by the degree factor."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        path="hyperkahler_circle",
        require_rank=1,
    )


def reduce_hk_circle_viaP(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas"
) -> ReductionReport:
    """Same value as reduce_hk_circle through the even-part route; the
    canonical report is byte-identical."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        path="hyperkahler_circle_even_part",
        require_rank=1,
        via_p=True,
    )


def reduce_hk_torus(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas"
) -> ReductionReport:
    """Rank-k hyperKahler reduction: iterated y_nu^-2 reads, prefactor raised
    to the rank, degree factor divided once."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        path="hyperkahler_torus",
    )


def weyl_product(variables: Sequence[str], roots: RootSystemData) -> LaurentSeries:
    """Product of the positive-root linear forms."""
    w = LaurentSeries.const(variables, 1)
    for alpha in roots.positive_roots:
        if len(alpha) != len(variables):
            raise ValidationError(
                f"root covector {alpha} does not match rank {len(variables)}",
                root=alpha,
                rank=len(variables),
            )
        if all(a == 0 for a in alpha):
            raise ValidationError("zero root covector", root=alpha)
        w = w * LaurentSeries.linear_form(variables, alpha)
    return w


def weyl_wrap(
    atlas: FixedPointAtlas,
    roots: Optional[RootSystemData] = None,
    profile=None,
    *,
    eta_mode: str = "atlas",
) -> ReductionReport:
    """Nonabelian reduction through the maximal torus: multiply every
    restriction, and every raw point's stored series, by w^4 / |W|, w the
    positive-root product and |W| the Weyl group order, and run the torus
    engine.  The report names w^4 and |W|.

    With no positive roots and trivial Weyl group this is literally the torus
    engine.  The nontrivial insertion is specific to hyperKahler data.
    """
    profile = resolve_profile(profile)  # refused first, as in every engine
    if roots is None:
        roots = atlas.group.root_system
    if roots is None:
        raise ValidationError(
            "weyl_wrap needs root system data (on the atlas group or passed explicitly)"
        )
    if roots.weyl_order < 1:
        raise ValidationError("Weyl group order must be >= 1", weyl_order=roots.weyl_order)
    if not roots.positive_roots and roots.weyl_order == 1:
        if atlas.geometry == "hyperkahler":
            return reduce_hk_torus(atlas, profile, eta_mode=eta_mode)
        return reduce_symplectic_torus(atlas, profile, eta_mode=eta_mode)
    if atlas.geometry != "hyperkahler":
        raise ValidationError(
            "the fourth-power root insertion applies to hyperkahler data only",
            geometry=atlas.geometry,
        )
    variables = atlas.variable_order
    w = weyl_product(variables, roots)
    w4 = w * w * w * w
    inserted = w4 * Fraction(1, roots.weyl_order)
    points = []
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            # w^4 has no negative exponents, so the stored series' trust
            # through its truncation order carries over to the product
            raw = fp.raw_contribution
            product = LaurentSeries(variables, (raw * inserted).terms, raw.trunc)
            points.append(replace(fp, raw_contribution=product))
        else:
            base = LaurentSeries.const(variables, 1) if eta_mode == "one" else fp.eta
            points.append(replace(fp, eta=base * inserted))
    wrapped = replace(atlas, fixed_points=tuple(points))
    rep = _run(
        wrapped,
        profile,
        geometry="hyperkahler",
        eta_mode="atlas",
        path="weyl_hyperkahler_torus",
    )
    return replace(
        rep,
        eta_mode=eta_mode,
        inserted_polynomial=w4.canonical_text(),
        weyl_divisor=roots.weyl_order,
    )
