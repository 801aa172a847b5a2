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
engines accept is c * y^n: each tangent weight involves one variable.  Such a
point's coefficient is then a finite sum over its eta terms, which the
engines read in closed form without building a series.  A weight involving
two variables is rejected with NonInvertibleError naming the point and the
weight.  Raw points are read from their stored series.

The alternative hyperKahler route builds each point's series in the original
variable with the exact Laurent arithmetic, keeps its even part, substitutes
the square of the variable, and reads the coefficient at y^-1 of its product
with the phase instead, forming that one coefficient only; it is
the independent reference for the closed-form read, the two routes agree
exactly and the report does not distinguish them.  Its extra expansion
order is held to the series work budget of ``localize`` at the same depth.
``localize`` (and the ``localize`` command) also keeps the series path.  The
closed-form read itself, ``point_coeff``, lives in ``localize`` beside
``euler_class``: the oracle's pole gate reads the principal part of the sum
with it too.

All convention-sensitive constants (2 pi powers, group volume, the hk
structural constant) live in a ConventionProfile and are applied outside the
exact coefficient, which the report always exposes raw.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .atlas import FixedPointAtlas, FixedPointDatum, RootSystemData, canonical_dumps
from .errors import (
    InternalError,
    OddExponentError,
    ValidationError,
)
from .exact import (
    ComplexRational,
    LaurentSeries,
    SymbolicConstant,
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
    point_coeff,
)


@dataclass(frozen=True)
class ConventionProfile:
    """The one place normalization constants live.

    vol_circle is the volume assigned to one circle factor (a rank-k torus
    gets vol_circle^k).  The circle prefactors are the per-rank base: torus
    engines raise them to the rank.
    """

    name: str
    vol_circle: SymbolicConstant
    prefactor_symplectic_circle: SymbolicConstant
    prefactor_hk_circle: SymbolicConstant

    def __post_init__(self):
        if self.vol_circle.q <= 0 or self.vol_circle.i_pow != 0:
            raise ValidationError("profile volume must be a positive real constant")
        for c in (self.prefactor_symplectic_circle, self.prefactor_hk_circle):
            if c.q == 0:
                raise ValidationError("profile prefactors must be nonzero")

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

    def volume(self, rank: int) -> SymbolicConstant:
        return self.vol_circle ** rank

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
                f"unknown convention profile {profile!r}; known: {sorted(PROFILES)}"
            ) from None
    raise ValidationError(f"cannot interpret {profile!r} as a convention profile")


def _cr_json(c: ComplexRational) -> dict:
    re, im = c.json_pairs()
    return {"re": re, "im": im}


@dataclass(frozen=True)
class ExactValue:
    """unit * coeff with the transcendental part kept symbolic."""

    unit: SymbolicConstant
    coeff: ComplexRational

    def numeric(self) -> complex:
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


@dataclass(frozen=True)
class PointEntry:
    name: str
    selected: bool
    coefficient: ComplexRational

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "selected": self.selected,
            "coefficient": _cr_json(self.coefficient),
        }


@dataclass(frozen=True)
class ReductionReport:
    path: str  # which entry point computed this; not part of the canonical form
    geometry: str
    rank: int
    profile: ConventionProfile
    variable_order: Tuple[str, ...]
    eta_mode: str
    contributions: Tuple[PointEntry, ...]
    raw_coefficient: ComplexRational
    degree_factor: int
    prefactor: SymbolicConstant
    quotient_integral: ExactValue
    inserted_polynomial: Optional[str] = None
    weyl_divisor: Optional[int] = None
    oracle_comparison: Optional[dict] = None

    def to_json_dict(self, include_path: bool = True) -> dict:
        doc = {
            "geometry": self.geometry,
            "rank": self.rank,
            "profile": self.profile.to_json_dict(),
            "variable_order": list(self.variable_order),
            "eta_mode": self.eta_mode,
            "contributions": [p.to_json_dict() for p in self.contributions],
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
        """Deterministic serialized form.  The computing path is excluded so
        that different routes to the same numbers serialize identically."""
        return canonical_dumps(self.to_json_dict(include_path=False))

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
            lines.append(
                f"oracle:          {oc['oracle_value']} "
                f"(abs err {oc['abs_err']:.3e}, rel err {oc['rel_err']:.3e})"
            )
            panels = ", ".join(str(r["panels"]) for r in oc["ladder"])
            lines.append(f"oracle panels:   {panels} (of {oc['max_panels']} per rung)")
        return "\n".join(lines) + "\n"


def _check_order(order: int) -> int:
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValidationError(f"extra expansion order must be a nonnegative integer, got {order!r}")
    return order


def _run(
    atlas: FixedPointAtlas,
    profile,
    *,
    geometry: str,
    eta_mode: str,
    order: int,
    path: str,
    require_rank: Optional[int] = None,
    via_p: bool = False,
) -> ReductionReport:
    profile = resolve_profile(profile)
    _check_order(order)
    check_eta_mode(eta_mode)
    if atlas.geometry != geometry:
        raise ValidationError(
            f"engine expects {geometry} geometry, atlas declares {atlas.geometry!r}"
        )
    k = atlas.group.rank
    if require_rank is not None and k != require_rank:
        raise ValidationError(
            f"this entry point handles rank {require_rank}, atlas has rank {k}; "
            "use the torus entry point"
        )
    if not atlas.fixed_points:
        raise ValidationError("atlas has no fixed points; nothing to localize")

    if geometry == "symplectic":
        mask = [all(m > 0 for m in fp.moment) for fp in atlas.fixed_points]
    else:
        mask = [True] * len(atlas.fixed_points)

    if via_p and k != 1:
        raise ValidationError("the even-part route is a rank-1 computation")
    target = (-2 if geometry == "hyperkahler" else -1,) * k
    if via_p:
        # the series route is held to localize's budget at the same depth
        check_series_budget(atlas, tuple(t + order for t in target))

    entries = []
    raw = ComplexRational.zero()
    for fp, keep in zip(atlas.fixed_points, mask):
        if not keep:
            c = ComplexRational.zero()
        elif via_p:
            c = _point_coeff_via_even_part(atlas, fp, eta_mode, order)
        else:
            c = point_coeff(atlas, fp, eta_mode, target)
        entries.append(PointEntry(fp.name, keep, c))
        raw = raw + c

    degree_factor = atlas.degree_factor() if geometry == "hyperkahler" else 1
    if degree_factor < 1:
        raise InternalError(f"degree factor {degree_factor} escaped validation")
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
    atlas: FixedPointAtlas, fp: FixedPointDatum, eta_mode: str, order: int
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
    z_order = -2 + 2 * order
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
            f"odd exponent survived the even projector at {fp.name!r}"
        ) from exc
    if fp.mode == "raw":
        # raw data already carries its phase factors
        return halved.coefficient((-1,))
    lam = fp.hk_norm_sq(0)
    min_exp = halved.min_exponent()[0]
    exp_order = max(0, (-1 + order) - min_exp)
    phase = exp_series(
        LaurentSeries.linear_form(variables, (lam,), scale=ComplexRational.i()),
        (exp_order,),
    )
    total = ComplexRational.zero()
    for (x,), c in halved.terms.items():
        total = total + c * phase.coefficient((-1 - x,))
    return total


def reduce_symplectic_circle(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas", order: int = 0
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
        order=order,
        path="symplectic_circle",
        require_rank=1,
    )


def reduce_symplectic_torus(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas", order: int = 0
) -> ReductionReport:
    """Rank-k version: keeps fixed points whose moment components are all
    positive and reads the iterated y_1^-1 ... y_k^-1 coefficient."""
    return _run(
        atlas,
        profile,
        geometry="symplectic",
        eta_mode=eta_mode,
        order=order,
        path="symplectic_torus",
    )


def reduce_hk_circle(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas", order: int = 0
) -> ReductionReport:
    """HyperKahler circle reduction: y^-2 read over all fixed points, then
    prefactor and one division by the degree factor."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        order=order,
        path="hyperkahler_circle",
        require_rank=1,
    )


def reduce_hk_circle_viaP(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas", order: int = 0
) -> ReductionReport:
    """Same value as reduce_hk_circle through the even-part route; the
    canonical report is byte-identical."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        order=order,
        path="hyperkahler_circle_even_part",
        require_rank=1,
        via_p=True,
    )


def reduce_hk_torus(
    atlas: FixedPointAtlas, profile=None, *, eta_mode: str = "atlas", order: int = 0
) -> ReductionReport:
    """Rank-k hyperKahler reduction: iterated y_nu^-2 reads, prefactor raised
    to the rank, degree factor divided once."""
    return _run(
        atlas,
        profile,
        geometry="hyperkahler",
        eta_mode=eta_mode,
        order=order,
        path="hyperkahler_torus",
    )


def weyl_product(variables: Sequence[str], roots: RootSystemData) -> LaurentSeries:
    """Product of the positive-root linear forms."""
    w = LaurentSeries.const(variables, 1)
    for alpha in roots.positive_roots:
        if len(alpha) != len(variables):
            raise ValidationError(
                f"root covector {alpha} does not match rank {len(variables)}"
            )
        if all(a == 0 for a in alpha):
            raise ValidationError("zero root covector")
        w = w * LaurentSeries.linear_form(variables, alpha)
    return w


def weyl_wrap(
    atlas: FixedPointAtlas,
    roots: Optional[RootSystemData] = None,
    profile=None,
    *,
    eta_mode: str = "atlas",
    order: int = 0,
) -> ReductionReport:
    """Nonabelian reduction through the maximal torus: multiply every
    restriction by the fourth power of the positive-root product, run the
    torus engine, divide by the Weyl group order.

    With no positive roots and trivial Weyl group this is literally the torus
    engine.  The nontrivial insertion is specific to hyperKahler data.
    """
    if roots is None:
        roots = atlas.group.root_system
    if roots is None:
        raise ValidationError(
            "weyl_wrap needs root system data (on the atlas group or passed explicitly)"
        )
    if roots.weyl_order < 1:
        raise ValidationError("Weyl group order must be >= 1")
    if not roots.positive_roots and roots.weyl_order == 1:
        if atlas.geometry == "hyperkahler":
            return reduce_hk_torus(atlas, profile, eta_mode=eta_mode, order=order)
        return reduce_symplectic_torus(atlas, profile, eta_mode=eta_mode, order=order)
    if atlas.geometry != "hyperkahler":
        raise ValidationError(
            "the fourth-power root insertion applies to hyperkahler data only"
        )
    variables = atlas.variable_order
    w = weyl_product(variables, roots)
    w4 = w * w * w * w
    points = []
    for fp in atlas.fixed_points:
        base = (
            LaurentSeries.const(variables, 1) if eta_mode == "one" else fp.eta
        )
        points.append(replace(fp, eta=base * w4))
    wrapped = replace(atlas, fixed_points=tuple(points))
    rep = _run(
        wrapped,
        profile,
        geometry="hyperkahler",
        eta_mode="atlas",
        order=order,
        path="weyl_hyperkahler_torus",
    )
    inv_w = Fraction(1, roots.weyl_order)
    return replace(
        rep,
        eta_mode=eta_mode,
        contributions=tuple(
            replace(p, coefficient=p.coefficient * inv_w)
            for p in rep.contributions
        ),
        raw_coefficient=rep.raw_coefficient * inv_w,
        quotient_integral=ExactValue(
            rep.quotient_integral.unit,
            rep.quotient_integral.coeff * inv_w,
        ),
        inserted_polynomial=w4.canonical_text(),
        weyl_divisor=roots.weyl_order,
    )
