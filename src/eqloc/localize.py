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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .atlas import FixedPointAtlas, FixedPointDatum
from .errors import NonInvertibleError, ValidationError, VariableMismatchError
from .exact import (
    ComplexRational,
    LaurentSeries,
    RationalLike,
    _make,
    _normal,
    exp_series,
    invert_series,
)

Orders = Tuple[Optional[int], ...]
IntegrandFactory = Callable[[FixedPointAtlas, FixedPointDatum, Orders], LaurentSeries]

#: Work budget of the exact series path, in coefficient updates.  A
#: structured point with pole order n_v, trusted through order o_v, expands
#: its numerator through w_v = o_v + n_v in each variable v: a box of
#: prod_v (w_v + 1) coefficients, updated once per order, sum_v w_v times.
#: Summed over the points, that estimate may not exceed this; at the limit
#: a whole ``eqloc localize`` call on a builtin atlas takes 0.24-0.47 s on a
#: 2-core Xeon VM, about 0.2 s of it interpreter start-up.
SERIES_WORK_BUDGET = 500_000


def series_work(atlas: FixedPointAtlas, orders: Orders) -> int:
    """The work estimate that SERIES_WORK_BUDGET caps, from weight counts
    alone; a variable with order None is not expanded."""
    work = 0
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            continue
        widths = []
        for v, o in enumerate(orders):
            n_v = sum(1 for w in fp.weights if w[v] != 0)
            widths.append(0 if o is None else max(0, o + n_v))
        work += math.prod(w + 1 for w in widths) * sum(widths)
    return work


def check_series_budget(atlas: FixedPointAtlas, orders: Orders) -> None:
    """Refuse, before any series is built, a request whose work estimate
    exceeds SERIES_WORK_BUDGET; the message names the highest order, the
    same in every variable, that fits."""
    work = series_work(atlas, orders)
    if work <= SERIES_WORK_BUDGET:
        return
    # bisect for the largest uniform order that fits: none of the work is
    # left at minus the largest weight count, and the top requested order
    # does not fit
    top = max(o for o in orders if o is not None)
    lo = -max(len(fp.weights) for fp in atlas.fixed_points)
    hi = top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if series_work(atlas, (mid,) * len(orders)) <= SERIES_WORK_BUDGET:
            lo = mid
        else:
            hi = mid
    raise ValidationError(
        f"expanding through order {top} needs about {work} coefficient "
        f"updates, over the exact series budget of {SERIES_WORK_BUDGET}; "
        f"orders up to {lo} fit this atlas",
        work=work,
        budget=SERIES_WORK_BUDGET,
        max_order=lo,
    )


def euler_class(fp: FixedPointDatum, variables: Sequence[str]) -> LaurentSeries:
    """Product of the tangent weight forms at a fixed point.

    Exact polynomial with integer coefficients; any rank and mixed weights
    such as (1, -1) are allowed.  A weight with one nonzero component w_v is
    the monomial w_v y_v, so it scales one int and shifts one exponent; only
    weights in two or more variables are multiplied out, in a plain
    {exponents: int} dictionary, and the result is wrapped as a series once.
    The empty weight list gives 1 (a zero-dimensional tangent space).  Zero
    weight vectors are rejected because they make the product a zero
    divisor, and a weight whose length is not the number of variables is
    rejected as LaurentSeries.linear_form rejects it.
    """
    variables = tuple(variables)
    k = len(variables)
    c = 1
    n = [0] * k
    forms = []  # the weights in two or more variables
    for w in fp.weights:
        if not any(w):
            raise ValidationError(
                f"e(y) is a zero divisor at {fp.name!r}: zero tangent weight"
            )
        if len(w) != k:
            raise VariableMismatchError(
                f"covector length {len(w)} does not match variables {variables}"
            )
        nonzero = [v for v, x in enumerate(w) if x]
        if len(nonzero) == 1:
            v = nonzero[0]
            c *= w[v]
            n[v] += 1
        else:
            forms.append(w)
    e: dict = {tuple(n): c}
    for w in forms:
        # multiply by sum_v w_v y_v
        out: dict = {}
        for v, w_v in enumerate(w):
            if w_v == 0:
                continue
            for exps, a in e.items():
                exps = exps[:v] + (exps[v] + 1,) + exps[v + 1 :]
                out[exps] = out.get(exps, 0) + a * w_v
        e = out
    # sums over two-variable forms can cancel; a monomial product cannot
    terms = {exps: _make((a, 0, 1)) for exps, a in e.items() if a}
    return LaurentSeries._canonical(variables, terms, (None,) * k)


def phase_covector(atlas: FixedPointAtlas, fp: FixedPointDatum) -> Tuple[RationalLike, ...]:
    """The frequency covector of a fixed point: the moment value itself in
    the symplectic case, the squared length of each circle factor's
    three-component moment vector in the hyperkahler one."""
    if atlas.geometry == "hyperkahler":
        return tuple(fp.hk_norm_sq(nu) for nu in range(atlas.group.rank))
    return fp.moment


def monomial_euler_class(fp: FixedPointDatum, k: int) -> Tuple[int, Tuple[int, ...]]:
    """(c, n) with e(y) = c * y^n at a structured fixed point.

    Each tangent weight must involve exactly one variable.  A weight such as
    (1, -1) makes e(y) a non-monomial product of linear forms, whose inverse
    has no finite principal part.
    """
    c = 1
    n = [0] * k
    for w in fp.weights:
        nonzero = [v for v, x in enumerate(w) if x != 0]
        if not nonzero:
            raise ValidationError(
                f"e(y) is a zero divisor at {fp.name!r}: zero tangent weight"
            )
        if len(nonzero) > 1:
            raise NonInvertibleError(
                f"e(y) at {fp.name!r} is not a monomial: tangent weight {w} "
                "involves more than one variable, so 1/e(y) has no finite "
                "principal part",
                point=fp.name,
                weight=w,
            )
        v = nonzero[0]
        c *= w[v]
        n[v] += 1
    return c, tuple(n)


def point_coeff(
    atlas: FixedPointAtlas,
    fp: FixedPointDatum,
    eta_mode: str,
    target: Tuple[int, ...],
) -> ComplexRational:
    """One fixed point's exact coefficient at y^target in its phase-weighted
    contribution, read in closed form.

    Raw points are read from their stored series.  A structured point
    contributes eta(y) exp(i sum_v f_v y_v^s) / (c y^n), with s = 1
    (symplectic) or 2 (hyperkahler) and f the phase covector, so its
    coefficient is a finite sum over the eta terms eta_j y^j: each term
    needs y_v^d_v from the phase, d_v = n_v + target_v - j_v, which is
    (i f_v)^m / m! with s * m = d_v, and nothing when d_v is negative or not
    a multiple of s.  The sum is exact and in ints: each eta term's (p, q, d)
    triple times f^m / m! as an int numerator and denominator, turned by
    i^m, added over a running common denominator; the Euler constant c and
    its sign go into one final normal form.  It equals the coefficient that
    ``localize`` with ``phase_factory(eta_mode)`` produces.
    """
    if fp.mode == "raw":
        return fp.raw_contribution.coefficient(target)
    c, n = monomial_euler_class(fp, len(target))
    freqs = [(f.numerator, f.denominator) for f in phase_covector(atlas, fp)]
    if eta_mode == "one":
        eta_terms = {(0,) * len(target): ComplexRational.one()}
    else:
        eta_terms = fp.eta.terms
    s = 2 if atlas.geometry == "hyperkahler" else 1
    re, im, den = 0, 0, 1  # the sum so far is (re + i im) / den
    for j, eta_j in eta_terms.items():
        num = term_den = 1
        i_pow = 0
        for n_v, e_v, j_v, (f_num, f_den) in zip(n, target, j, freqs):
            d = n_v + e_v - j_v
            if d < 0 or d % s:
                break
            m = d // s
            num *= f_num**m
            term_den *= f_den**m * math.factorial(m)
            i_pow += m
        else:
            # eta_j * num / term_den * i^i_pow
            p, q, eta_den = eta_j._v
            a, b = p * num, q * num
            for _ in range(i_pow % 4):
                a, b = -b, a
            term_den *= eta_den
            lcm = math.lcm(den, term_den)
            re = re * (lcm // den) + a * (lcm // term_den)
            im = im * (lcm // den) + b * (lcm // term_den)
            den = lcm
    if c < 0:
        re, im, c = -re, -im, -c
    return _normal(re, im, den * c)


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


def localize(
    atlas: FixedPointAtlas, factory: IntegrandFactory, order
) -> LocalizationResult:
    """Sum numerator / e over the fixed points, trusted through ``order``.

    ``order`` is the absolute exponent through which the result must be
    exact, as one integer for every variable or a per-variable sequence
    (None meaning fully exact, only possible for phase-free factories).  The
    numerator for each point is requested deep enough past that point's pole
    order that no certified coefficient is lost to truncation.  Requests
    past SERIES_WORK_BUDGET raise ValidationError before any work starts.
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
    check_series_budget(atlas, orders)
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
