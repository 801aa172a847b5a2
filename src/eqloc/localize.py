"""Fixed-point localization: turn an atlas into an exact Laurent series.

Each structured fixed point contributes numerator(y) / e(y), where e is the
product of its tangent weight forms and the numerator is produced by an
integrand factory (the restriction of the class alone, or the restriction
times an oscillatory phase attached to the moment values).  Raw-mode points
contribute their stored series verbatim.  All arithmetic is exact; the
factory is told how many orders of trust the caller needs so that every
coefficient the engines later read is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .atlas import FixedPointAtlas, FixedPointDatum
from .errors import ValidationError
from .exact import ComplexRational, LaurentSeries, exp_series, invert_series

Orders = Tuple[Optional[int], ...]
IntegrandFactory = Callable[[FixedPointAtlas, FixedPointDatum, Orders], LaurentSeries]


def euler_class(fp: FixedPointDatum, variables: Sequence[str]) -> LaurentSeries:
    """Product of the tangent weight forms at a fixed point.

    Exact polynomial; the empty weight list gives 1 (a zero-dimensional
    tangent space).  Zero weight vectors are rejected because they make the
    product a zero divisor.
    """
    variables = tuple(variables)
    e = LaurentSeries.const(variables, 1)
    for w in fp.weights:
        if all(x == 0 for x in w):
            raise ValidationError(
                f"e(y) is a zero divisor at {fp.name!r}: zero tangent weight"
            )
        e = e * LaurentSeries.linear_form(variables, w)
    return e


def phase_covector(atlas: FixedPointAtlas, fp: FixedPointDatum) -> Tuple[Fraction, ...]:
    """The frequency covector of a fixed point: the moment value itself in
    the symplectic case, the squared length of each circle factor's
    three-component moment vector in the hyperkahler one."""
    if atlas.geometry == "hyperkahler":
        return tuple(fp.hk_norm_sq(nu) for nu in range(atlas.group.rank))
    return fp.moment


def restriction_factory(eta_mode: str = "atlas") -> IntegrandFactory:
    """Numerator = the restriction of the class alone (no phase).

    eta_mode "atlas" uses each point's stored restriction, "one" replaces it
    by the constant 1 (the volume normalization probe).
    """
    check_eta_mode(eta_mode)

    def factory(atlas, fp, orders):
        if eta_mode == "one":
            return LaurentSeries.const(atlas.variable_order, 1, orders)
        return LaurentSeries(atlas.variable_order, fp.eta.terms, orders)

    return factory


def phase_factory(eta_mode: str = "atlas") -> IntegrandFactory:
    """Numerator = restriction times the oscillatory phase of the point.

    The exponent is i * <moment, y> for symplectic data and
    i * sum_nu |moment vector_nu|^2 * y_nu^2 for hyperkahler data (the
    squared-moment frequencies couple to the squares of the variables).
    """
    check_eta_mode(eta_mode)
    base = restriction_factory(eta_mode)

    def factory(atlas, fp, orders):
        cov = phase_covector(atlas, fp)
        variables = atlas.variable_order
        if atlas.geometry == "hyperkahler":
            i = ComplexRational.i()
            terms = {}
            for nu, c in enumerate(cov):
                if c == 0:
                    continue
                e = [0] * len(variables)
                e[nu] = 2
                terms[tuple(e)] = i * ComplexRational.of(c)
            p = LaurentSeries(variables, terms)
        else:
            p = LaurentSeries.linear_form(
                variables, cov, scale=ComplexRational.i()
            )
        # The phase has no negative exponents, so trust below order 0 is
        # vacuous; clamp so deep-pole numerators stay requestable.
        exp_orders = tuple(None if o is None else max(o, 0) for o in orders)
        phase = exp_series(p, exp_orders)
        return base(atlas, fp, orders) * phase

    return factory


def check_eta_mode(eta_mode: str) -> None:
    if eta_mode not in ("atlas", "one"):
        raise ValidationError(f"unknown eta mode {eta_mode!r}")


@dataclass(frozen=True)
class LocalizationResult:
    total: LaurentSeries
    contributions: Tuple[Tuple[str, LaurentSeries], ...]

    def contribution(self, name: str) -> LaurentSeries:
        for n, c in self.contributions:
            if n == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> Dict[str, LaurentSeries]:
        return dict(self.contributions)


def localize(
    atlas: FixedPointAtlas, factory: IntegrandFactory, order
) -> LocalizationResult:
    """Sum numerator / e over the fixed points, trusted through ``order``.

    ``order`` is the absolute exponent through which the result must be
    exact, as one integer for every variable or a per-variable sequence
    (None meaning fully exact, only possible for phase-free factories).  The
    numerator for each point is requested deep enough past that point's pole
    order that no certified coefficient is lost to truncation.
    """
    k = len(atlas.variable_order)
    if isinstance(order, int) or order is None:
        orders: Orders = (order,) * k
    else:
        orders = tuple(order)
        if len(orders) != k:
            raise ValidationError(
                f"order vector length {len(orders)} does not match rank {k}"
            )
    contributions = []
    total = LaurentSeries.zero(atlas.variable_order)
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            contrib = fp.raw_contribution
        else:
            e = euler_class(fp, atlas.variable_order)
            pole = e.min_exponent()
            num_orders = tuple(
                None if o is None else o + p for o, p in zip(orders, pole)
            )
            numerator = factory(atlas, fp, num_orders)
            contrib = numerator * invert_series(e, orders)
        contributions.append((fp.name, contrib))
        total = total + contrib
    return LocalizationResult(total=total, contributions=tuple(contributions))
