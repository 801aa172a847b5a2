"""Floating-point cross-checks for the exact engines.

Three independent instruments:
  - mollified_oint: the Gaussian-mollified limit integral (1/vol G) *
    lim_{t->inf} integral exp(-y^2/4t) f(y) dy over one variable, evaluated
    by a composite midpoint rule on a uniform grid over a truncated window
    and a ladder of t values with optional Richardson extrapolation.  A
    rung's grid is three numbers (mid, h, n): n panels of 15 nodes h apart
    about mid.  The rungs share their quadrature rounds: one round builds
    the node arrays of every rung still open, each row with its own t.
  - torus_mean: the tensor trapezoid rule on a torus |z_v| = r_v, reading
    one Laurent coefficient of a function of k variables; contour_coeff is
    its one-variable case on a stored series.
  - suptsq_check / shift_smoothness_check: the decay and smoothness
    diagnostics that justify trusting the mollified limits.

oracle_comparison checks a reduction report by one of two routes.  A
symplectic circle report is checked by the mollified limit of the full
summed series, which a contour shift identifies with 2 pi i times the
residue sum (route "mollified").  Every other report, at any rank, has its
target coefficient read by torus_mean from the points the report selected
(route "contour").

Everything here is double precision on purpose: agreement with the exact
side is only meaningful if the two routes share no code.  Both routes
evaluate numeric closures built directly from atlas data, never the exact
Laurent arithmetic; the exact closed-form read only gates circle
integrands, refusing data whose summed series has a pole at the origin.
Each exact coefficient (p + i q) / d becomes doubles straight from its
ints, as the int quotients p / d and q / d, which Python rounds correctly:
the doubles float(Fraction) would give, with no Fraction built.

An atlas integrand is a sum of per-point terms amp(y) * exp(i phase(y)),
amp a Laurent polynomial.  On a circle the mollified quadrature sums each
rung's panels with one real matrix product: the Gaussian times the powers
of y at every node form the basis, and on a panel's nodes c + k h a linear
phase separates as exp(i f c) * exp(i f k h), so the second factor joins
the rule weights and the terms' coefficients in one small matrix per rung,
every panel of a rung having the same spacing h.  A round builds the basis
and the phases of all its rungs together; only the products are per rung.

This module imports numpy.  ``import eqloc`` registers it as a lazy module
that runs on the first read of one of its attributes, so numpy loads only
when the oracle is used: ``eqloc oracle``, ``reduce --oracle`` or a library
call.  The exact-only CLI commands never load it.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .atlas import FixedPointAtlas, FixedPointDatum
from .errors import InsufficientTruncationError, QuadratureError, ValidationError
from .exact import ComplexRational, LaurentSeries
from .localize import check_eta_mode, monomial_euler_class, phase_covector, point_coeff
from .record import Record, replace

# a panel's 15 nodes c + k h, k = -7..7, in units of the spacing h
PANEL_NODES = np.arange(-7.0, 8.0)
# node values @ RULES, times h: a panel's 15-node midpoint sum, and the
# 5-node midpoint sum over cells three times as wide, whose midpoints are
# nodes 1, 4, 7, 10 and 13
RULES = np.zeros((15, 2))
RULES[:, 0] = 1.0
RULES[1::3, 1] = 3.0


class _Budget:
    """An allowance of total panels for each grid of one quadrature call.
    left is what the grids have left between them, so it falls by every
    panel that any of them spends."""

    __slots__ = ("total", "spent")

    def __init__(self, total: int, grids: int):
        self.total = total
        self.spent = [0] * grids

    @property
    def left(self) -> int:
        return self.total * len(self.spent) - sum(self.spent)

    def spend(self, grid: int, n: int):
        self.spent[grid] += n
        if self.spent[grid] > self.total:
            raise QuadratureError(
                f"quadrature panel budget exhausted: more than {self.total} panels; "
                "lower the top of the t ladder (--t), or raise "
                "MollifierConfig.max_panels when calling the library",
                budget=self.total,
            )


#: exp(-y^2/4t) has the Fourier transform sqrt(4 pi t) exp(-t w^2), below
#: exp(-_MARGIN) of its peak past the frequency sqrt(_MARGIN / t)
_MARGIN = 60.0

#: the mollified limit's per-panel tolerance, and its window |y| <=
#: _SIGMAS sqrt(2t), past which the Gaussian's tail is below 1e-30
_TOLERANCE = 1e-10
_SIGMAS = 12.0

#: panel width times the band limit: 15 nodes h = 2 pi / (3 freq) apart
_PANEL_PHASE = 10 * math.pi

#: significant bits of a node spacing; see _spacing
_SPACING_BITS = 28


def _spread(t: float) -> float:
    """The Gaussian's frequency spread sqrt(_MARGIN / t)."""
    return math.sqrt(_MARGIN / t)


def _spacing(h: float) -> float:
    """h rounded down to _SPACING_BITS significant bits.  Every node of a
    symmetric grid of n panels, (15 (2j + 1 - n) + 2k) h / 2, is then exact
    in a double while 15 n < 2^25, so no node carries a rounding of its
    position: on the top rungs of a ladder such roundings, times the slope
    of amplitudes that grow with |y|, cost digits."""
    m, e = math.frexp(h)
    return math.ldexp(math.floor(math.ldexp(m, _SPACING_BITS)), e - _SPACING_BITS)


def _panel_grid(
    window: float, freq: float, max_panels: int = sys.maxsize
) -> Tuple[float, float, int]:
    """The grid (mid, h, n) covering [-window, window] for an integrand of
    band limit freq: n panels about mid = 0, n even so that 0 is a panel
    edge, each holding 15 midpoint nodes h = 2 pi / (3 freq) apart (see
    _spacing), so no node is ever at 0, where integrands with a removable
    singularity are not sampled.

    The midpoint rule of spacing s on an integrand whose Fourier transform
    is F has the error sum_(j != 0) F(2 pi j / s).  The 5-node rule nested
    in each panel has spacing 3h = 2 pi / freq, so where freq is the phase
    bound plus the Gaussian's spread it misses by about exp(-_MARGIN), and
    the 15-node rule by far less.

    The panels are counted, and more than max_panels, or a width too small
    for window / width to be finite, is refused as an exhausted budget;
    no array is built here."""
    h = _spacing(2 * math.pi / (3 * freq))
    width = 15 * h
    count = window / width if width > 0 else math.inf
    m = max(1, math.ceil(count)) if count < math.inf else math.inf
    _Budget(max_panels, 1).spend(0, 2 * m)
    return 0.0, h, 2 * m


#: one rung of a quadrature round: (grid index, panel centres, spacing h)
_Rung = Tuple[int, np.ndarray, float]


def _round(rungs: Sequence[_Rung]) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """A round's panel counts per rung, and its panel centres and spacings
    row by row, rung after rung."""
    counts = [len(c) for _, c, _ in rungs]
    centers = np.concatenate([c for _, c, _ in rungs])
    return counts, centers, np.repeat([h for _, _, h in rungs], counts)


def _eval_panels(fn, rungs: Sequence[_Rung]) -> np.ndarray:
    """Each panel's integral by the 15-node and by the nested 5-node rule,
    for every rung of a round in one evaluation: a (panels, 2) array, rung
    after rung.  A function of nodes is called once on all of them, and
    its values take one product with RULES per rung."""
    if isinstance(fn, _MollifiedPanels):
        return fn.sums(rungs)
    counts, centers, hs = _round(rungs)
    x = (centers[:, None] + hs[:, None] * PANEL_NODES).ravel()
    values = np.asarray(fn(x), dtype=complex).reshape(-1, 15)
    sums = np.empty((len(values), 2), dtype=complex)
    start = 0
    for n in counts:
        sums[start : start + n] = values[start : start + n] @ RULES
        start += n
    return sums * hs[:, None]


def _fsums(values: np.ndarray, counts: Sequence[int]) -> List[List[complex]]:
    """math.fsum of each part of each column of a 2-d complex array, over
    consecutive runs of counts rows: per run, its columns' sums.  They are
    correctly rounded, so independent of the order of the values."""
    re, im = values.real.T.tolist(), values.imag.T.tolist()
    sums, start = [], 0
    for n in counts:
        end = start + n
        sums.append(
            [complex(math.fsum(r[start:end]), math.fsum(i[start:end])) for r, i in zip(re, im)]
        )
        start = end
    return sums


def _fsum(values: np.ndarray):
    """math.fsum of each part of complex values along the first axis.  A
    2-d array gives a list of its columns' sums."""
    values = np.asarray(values, dtype=complex)
    (sums,) = _fsums(np.atleast_2d(values.T).T, [len(values)])
    return sums if values.ndim > 1 else sums[0]


def _centers(mid: float, h: float, n: int) -> np.ndarray:
    """The n panel centres of a grid of spacing h about mid."""
    return mid + np.arange(15 * (1 - n), 15 * n, 30) * (h / 2)


def adaptive_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    grids: Sequence[Tuple[float, float, int]],
    tol_panel: float,
    budget: _Budget,
) -> List[Tuple[complex, float]]:
    """Composite midpoint integration over uniform grids (mid, h, n), each
    n panels of 15 nodes h apart, centred on mid.

    fn is a function of an array of nodes, or a _MollifiedPanels whose
    ladder has one t per grid.  A round evaluates the panels of every grid
    still open in one _eval_panels call, and each grid then has its own
    totals, test and refinement: every panel summed by the 15-node rule and
    by the 5-node rule nested in it, each total the correctly rounded sum
    of the grid's panel values (see _fsums).  When the two totals differ by
    more than tol_panel times the panel count, or 1e-14 of the summed panel
    magnitudes where that is larger, every panel of that grid is cut in
    three and the grid goes on to the next round, the old nodes (up to the
    rounding of the spacing) being the new coarse ones; otherwise it is
    closed.  A composite midpoint rule's per-panel errors cancel only in
    the total, so a whole grid is refined, never single panels.  Each
    grid's panels are spent from its own allowance in budget before the
    round evaluates any.  Returns, per grid, the 15-node total and
    |15-node total - 5-node total|.
    """
    grids = list(grids)
    results = [None] * len(grids)
    open_ = list(range(len(grids)))
    while open_:
        for i in open_:
            budget.spend(i, grids[i][2])
        rungs = [(i, _centers(*grids[i]), grids[i][1]) for i in open_]
        values = _eval_panels(fn, rungs)
        sizes = np.abs(values[:, 0])
        refined, start = [], 0
        for i, (fine, coarse) in zip(open_, _fsums(values, [grids[i][2] for i in open_])):
            mid, h, n = grids[i]
            err = abs(fine - coarse)
            if err <= max(tol_panel * n, 1e-14 * float(sizes[start : start + n].sum())):
                results[i] = (fine, err)
            else:
                grids[i] = (mid, _spacing(h / 3), 3 * n)
                refined.append(i)
            start += n
        open_ = refined
    return results


def fixed_quadrature(
    fn: Callable[[np.ndarray], np.ndarray], grid: Tuple[float, float, int]
) -> complex:
    """Single 15-node midpoint pass over a uniform grid (mid, h, n), not
    refined.  Used when two integrands must be compared on the identical
    nodes."""
    return _fsum(_eval_panels(fn, [(0, _centers(*grid), grid[1])])[:, 0])


# -- mollified limit integrals ------------------------------------------


def _check_ladder(t_ladder: Sequence[float], min_len: int) -> Tuple[float, ...]:
    """The t ladder as floats, refused unless it has min_len (1 or 2)
    entries and is finite, positive and strictly increasing, in that order."""
    ladder = tuple(float(t) for t in t_ladder)
    if min_len > 1 and len(ladder) < min_len:
        raise ValidationError("t ladder needs at least two entries", t_ladder=ladder)
    # written so that NaN fails every test
    if not ladder or not all(0 < t < math.inf for t in ladder) or any(
        a >= b for a, b in zip(ladder, ladder[1:])
    ):
        raise ValidationError(
            "t ladder must be finite, positive and strictly increasing", t_ladder=ladder
        )
    return ladder


class MollifierConfig(Record):
    __slots__ = ("t_ladder", "extrapolation", "max_panels")

    def __init__(
        self,
        t_ladder: Tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0, 10000.0),
        extrapolation: str = "last_value",
        max_panels: int = 300_000,
    ):
        t_ladder = _check_ladder(t_ladder, 2)
        if extrapolation not in ("last_value", "richardson"):
            raise ValidationError(
                f"unknown extrapolation rule {extrapolation!r}", extrapolation=extrapolation
            )
        # NaN or inf would switch the panel budget off
        if not isinstance(max_panels, int) or isinstance(max_panels, bool) or max_panels < 16:
            raise ValidationError(
                f"max_panels must be an integer of at least 16, got {max_panels!r}",
                max_panels=max_panels,
            )
        object.__setattr__(self, "t_ladder", t_ladder)
        object.__setattr__(self, "extrapolation", extrapolation)
        object.__setattr__(self, "max_panels", max_panels)


class OracleIntegrand(Record):
    """Numeric closure plus the metadata quadrature needs to pace itself.

    fn maps a list holding one array, the nodes, to a complex array of the
    same shape.  freq_linear bounds |d phase / d y| from oscillatory factors
    exp(i mu y).

    The grid is spaced for this bound and trusts it, and a plain function
    counts as band-limited to frequency 1: a faster phase aliases
    unflagged.  exp(5 i y) declared as frequency 1 gives -1.6e-4 at t = 100,
    where the integral is about 0, with an error estimate of 2e-16.
    """

    __slots__ = ("fn", "freq_linear")

    def __init__(self, fn: Callable[[List[np.ndarray]], np.ndarray], freq_linear: float = 1.0):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "freq_linear", freq_linear)


class LadderRow(Record):
    """One rung of the t ladder; panels counts the panels it evaluated,
    against the rung's budget of MollifierConfig.max_panels.  The rungs
    share their quadrature rounds, but a rung's panels, value and error
    estimate are its own: they do not depend on the rest of the ladder."""

    __slots__ = ("t", "value", "err_estimate", "panels")

    def __init__(self, t: float, value: complex, err_estimate: float, panels: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err_estimate", err_estimate)
        object.__setattr__(self, "panels", panels)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "value": [self.value.real, self.value.imag],
            "err_estimate": self.err_estimate,
            "panels": self.panels,
        }


class OracleResult(Record):
    __slots__ = ("rows", "estimate", "extrapolation", "max_panels")

    def __init__(
        self,
        rows: Tuple[LadderRow, ...],
        estimate: complex,
        extrapolation: str,
        max_panels: int,
    ):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "estimate", estimate)
        object.__setattr__(self, "extrapolation", extrapolation)
        object.__setattr__(self, "max_panels", max_panels)

    def deltas(self) -> List[float]:
        return [
            abs(b.value - a.value) for a, b in zip(self.rows, self.rows[1:])
        ]

    def ladder_monotone(self) -> bool:
        """Whether the rung deltas never grow.  Once a ladder has converged
        its deltas are rounding, so this is then decided by rounding."""
        d = self.deltas()
        return all(b <= a for a, b in zip(d, d[1:]))

    def richardson(self) -> complex:
        """(t2 v2 - t1 v1) / (t2 - t1) over the last two rungs: the limit of
        v(t) = v + c / t through both."""
        a, b = self.rows[-2], self.rows[-1]
        return (b.t * b.value - a.t * a.value) / (b.t - a.t)

    def converged(self) -> bool:
        """Whether the last two rungs agree: |v_n - v_(n-1)| is at most
        1e-9 of the larger of them plus both rungs' error estimates."""
        a, b = self.rows[-2], self.rows[-1]
        size = max(abs(a.value), abs(b.value))
        return abs(b.value - a.value) <= 1e-9 * size + a.err_estimate + b.err_estimate

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "estimate": [self.estimate.real, self.estimate.imag],
            "extrapolation": self.extrapolation,
            "ladder_monotone": self.ladder_monotone(),
            "converged": self.converged(),
            "max_panels": self.max_panels,
        }


def _one_variable(rank: int, what: str) -> None:
    """Refuse a rank >= 2 group from a one-variable instrument, naming the
    route that reads such data."""
    if rank != 1:
        raise ValidationError(
            f"{what} is a one-variable integral and the group has rank {rank}; "
            "reduce --oracle checks a torus report by its contour read",
            rank=rank,
        )


def mollified_oint(
    f, group, cfg: Optional[MollifierConfig] = None
) -> OracleResult:
    """(1/vol G) lim_{t->inf} integral exp(-y^2/4t) f(y) dy over a circle
    group; a torus is refused (see _one_variable).

    f is an OracleIntegrand or a plain function of one array.  The limit is
    estimated over cfg.t_ladder; the tail outside |y| <= _SIGMAS sqrt(2t)
    is dropped (bounded below 1e-30).  The grid trusts f's freq_linear, and
    a plain function counts as band-limited to frequency 1; a faster phase,
    such as exp(5 i y) at t = 100, can alias unflagged (see OracleIntegrand).
    """
    _one_variable(group.rank, "the mollified limit")
    g = f if isinstance(f, OracleIntegrand) else OracleIntegrand(fn=lambda ys: f(ys[0]))
    cfg = cfg or MollifierConfig()
    vol = group.vol.numeric_value()
    if abs(vol.imag) > 1e-15 or vol.real <= 0:
        raise ValidationError("group volume must be a positive real")
    vol = vol.real
    ladder = cfg.t_ladder
    # every rung's grid is counted against its budget before any is built
    grids = [
        _panel_grid(_SIGMAS * math.sqrt(2.0 * t), g.freq_linear + _spread(t), cfg.max_panels)
        for t in ladder
    ]
    budget = _Budget(cfg.max_panels, len(ladder))
    results = adaptive_quadrature(_MollifiedPanels(g.fn, ladder), grids, _TOLERANCE, budget)
    rows = tuple(
        LadderRow(t=t, value=val / vol, err_estimate=err / vol, panels=panels)
        for t, (val, err), panels in zip(ladder, results, budget.spent)
    )
    res = OracleResult(
        rows=rows,
        estimate=rows[-1].value,
        extrapolation=cfg.extrapolation,
        max_panels=cfg.max_panels,
    )
    if cfg.extrapolation == "richardson":
        res = replace(res, estimate=res.richardson())
    return res


# -- atlas integrands ----------------------------------------------------


#: a point's amplitude coefficients as doubles, keyed by exponent
_Coeffs = Dict[Tuple[int, ...], complex]


class _Term(NamedTuple):
    """One fixed point's term amp(y) * exp(i sum_v freqs_v y_v^s) in double
    precision, s = 2 for hyperkahler data and 1 otherwise, laid out for
    evaluation node by node.

    amp is the Laurent polynomial y^lo * (re(y) + i im(y)); re and im hold
    real coefficients, one axis per variable, highest power first, for
    Horner's rule.  im is None when every imaginary coefficient is 0.
    """

    lo: Tuple[int, ...]
    re: np.ndarray
    im: Optional[np.ndarray]
    freqs: Tuple[float, ...]


def _term(coeffs: _Coeffs, freqs) -> _Term:
    """The _Term of the amplitude sum_e coeffs[e] y^e, coeffs a nonempty
    dict of doubles, with phase frequencies freqs."""
    exps = list(coeffs)
    lo = tuple(map(min, zip(*exps)))
    hi = tuple(map(max, zip(*exps)))
    re = np.zeros(tuple(h - l + 1 for h, l in zip(hi, lo)))
    im = np.zeros_like(re)
    for e, c in coeffs.items():
        idx = tuple(h - x for h, x in zip(hi, e))
        re[idx] = c.real
        im[idx] = c.imag
    return _Term(lo, re, im if im.any() else None, tuple(freqs))


def _horner(coeffs: np.ndarray, ys: Sequence[np.ndarray]):
    """sum_j coeffs[j] y^j over the first variable, highest power first,
    each coefficient itself a polynomial in the remaining variables."""
    acc = None
    for c in coeffs:
        if len(ys) > 1:
            c = _horner(c, ys[1:])
        acc = c if acc is None else acc * ys[0] + c
    return acc


def _powers(x: np.ndarray, first, e: int, out=None):
    """first * x^e by |e| multiplies with x or 1/x, each step first * x^(+-j)
    written to out[..., j] when out is given.  numpy's x**e calls libm pow
    per element for an integer e outside {-1, 0, 1, 2}, ~90 times slower."""
    if e:
        step = x if e > 0 else 1.0 / x
        for j in range(1, abs(e) + 1):
            first = np.multiply(first, step, out=None if out is None else out[..., j])
    return first


class _PointSum:
    """The summed localization series of an atlas as a numeric function of
    a list of k arrays, one per variable, that broadcast together: the sum
    over the points of amp(y) * exp(i phase(y)).

    points holds each point's (coefficients, frequencies), the amplitude's
    coefficients a dict of doubles keyed by exponent (see _point_coeffs);
    points without coefficients are dropped.  The mollified oracle reads
    only the rank-1 coefficient matrix.  The contour read and the
    moment-shift check call the sum on arrays of nodes, which evaluates
    per-point _Terms.  Both are built on first use and kept."""

    def __init__(self, points: Sequence[Tuple[_Coeffs, Tuple[float, ...]]], quadratic: bool):
        self.points = [(coeffs, freqs) for coeffs, freqs in points if coeffs]
        self.quadratic = quadratic

    @cached_property
    def terms(self) -> Tuple[_Term, ...]:
        return tuple(_term(coeffs, freqs) for coeffs, freqs in self.points)

    @cached_property
    def matrix(self) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """What _MollifiedPanels integrates on every rung of a rank-1
        ladder; see _coefficient_matrix."""
        return _coefficient_matrix(self.points)

    def __call__(self, ys: List[np.ndarray]) -> np.ndarray:
        acc = np.zeros_like(ys[0], dtype=complex)
        power = 2 if self.quadratic else 1
        for term in self.terms:
            scale = 1.0
            for y, e in zip(ys, term.lo):
                scale = _powers(y, scale, e)
            v = _horner(term.re, ys) * scale
            if term.im is not None:
                v = v + 1j * (_horner(term.im, ys) * scale)
            if any(term.freqs):
                v = v * np.exp(1j * sum(f * y**power for f, y in zip(term.freqs, ys)))
            acc = acc + v
        return acc


def _coefficient_matrix(points) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """(lo, hi, freqs, C) of rank-1 points: C[e - lo, j] sums, in point
    order, the coefficients of y^e of the points of frequency freqs[j]."""
    exps = [0] + [e for coeffs, _ in points for (e,) in coeffs]
    lo, hi = min(exps), max(exps)
    freqs = sorted({f for _, (f,) in points})
    column = {f: j for j, f in enumerate(freqs)}
    matrix = np.zeros((hi - lo + 1, len(freqs)), dtype=complex)
    for coeffs, (f,) in points:
        col = matrix[:, column[f]]
        for (e,), c in coeffs.items():
            col[e - lo] += c
    return lo, hi, np.array(freqs), matrix


def _unit(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta, with cos and sin written straight into
    the parts of the result: the values of np.exp(1j * theta) without the
    complex exponential's work."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


#: panels per basis and matrix product in _MollifiedPanels.sums; a round's
#: arrays would otherwise grow with its panel count (15 nodes times the
#: exponent range per panel for the basis alone)
_PANEL_BLOCK = 1024


class _MollifiedPanels:
    """exp(-y^2/4t) times fn over a ladder of t values, integrated a round
    of panels at a time, every rung of the round in one pass: each panel
    row carries its own rung's t and spacing h.

    fn is a rank-1 _PointSum of linear phases, as atlas_integrand builds,
    or a plain function of a list holding one array of nodes, which is
    evaluated at every node of the round.  A _PointSum's terms, gathered
    by frequency f, are the columns of a coefficient matrix C[e, f] over
    the exponents lo..hi, which it builds once for every rung.  On a panel
    x = c + k h a linear phase separates, with g the Gaussian:

        sum_k w_k g x^e exp(i f x) = exp(i f c) sum_k [w_k exp(i f k h)] [g x^e]

    Every panel of a rung has the same spacing h, so a rung is one real
    basis B[p, (k, e)] = g x^e, one product with its own V[(k, e), (f, r)] =
    RULES[k, r] exp(i f k h) C[e, f], and a centre phase exp(i f c) per
    panel and frequency.  The basis, the phases and their contraction are
    built for the round's rows together; only the products are per rung.
    Every phase is taken by _unit from its real angle.
    """

    def __init__(self, fn, ts: Sequence[float]):
        self.fn = fn
        self.ts = ts
        if isinstance(fn, _PointSum):
            self.lo, self.hi, self.freqs, self.coeffs = fn.matrix

    def _basis(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """g(x) x^e for e = lo..hi, on a last axis; t broadcasts with x."""
        basis = np.empty(x.shape + (self.hi - self.lo + 1,))
        gauss = basis[..., -self.lo]
        np.exp(-(x * x) / (4.0 * t), out=gauss)
        _powers(x, gauss, self.hi, basis[..., -self.lo :])
        _powers(x, gauss, self.lo, basis[..., -self.lo :: -1])
        return basis

    def sums(self, rungs: Sequence[_Rung]) -> np.ndarray:
        """Each panel's RULES sums of exp(-x^2/4t) fn(x) over its nodes
        c + k h, times h, t and h its rung's: a (panels, 2) array, rung
        after rung.  B is real, so every product takes the complex
        right-hand side viewed as pairs of reals.  Each rung's products run
        on its own blocks, gathered into runs of at most _PANEL_BLOCK rows
        (see _runs), so no array grows with the round."""
        counts, centers, hs = _round(rungs)
        ts = np.repeat([self.ts[i] for i, _, _ in rungs], counts)
        if not isinstance(self.fn, _PointSum):
            t = np.repeat(ts, 15)
            return _eval_panels(lambda y: np.exp(-(y * y) / (4.0 * t)) * self.fn([y]), rungs)
        steps = np.array([h for _, _, h in rungs])
        node = _unit(steps[:, None, None] * np.multiply.outer(PANEL_NODES, self.freqs))
        v = RULES[:, None, None] * node[:, :, None, :, None] * self.coeffs[:, :, None]
        v = v.reshape(len(rungs), 15 * len(self.coeffs), -1).view(float)
        sums = np.empty((len(centers), 2), dtype=complex)
        for run in _runs(counts):
            a, b = run[0][1], run[-1][2]
            basis = self._basis(centers[a:b, None] + hs[a:b, None] * PANEL_NODES, ts[a:b, None])
            out = np.empty((b - a, v.shape[2]))
            for r, s, e in run:
                out[s - a : e - a] = basis[s - a : e - a].reshape(e - s, -1) @ v[r]
            out = out.view(complex).reshape(b - a, -1, 2)
            phase = _unit(np.multiply.outer(centers[a:b], self.freqs))
            sums[a:b] = np.einsum("pf,pfr->pr", phase, out)
        return sums * hs[:, None]


def _runs(counts: Sequence[int]) -> List[List[Tuple[int, int, int]]]:
    """A round's rows, counts[r] of them for rung r, rung after rung, as
    runs of at most _PANEL_BLOCK rows, each a list of blocks (r, start,
    end).  Each rung is cut into the fewest near-equal blocks of at most
    _PANEL_BLOCK rows.  So no block of a longer rung is a single panel,
    which BLAS would multiply by another kernel (gemv, not gemm), and a
    panel's sums do not depend on the round it is in."""
    runs: List[List[Tuple[int, int, int]]] = []
    start = 0
    for r, n in enumerate(counts):
        k = -(-n // _PANEL_BLOCK)
        bounds = [start + n * i // k for i in range(k + 1)]
        for s, e in zip(bounds, bounds[1:]):
            if runs and e - runs[-1][0][1] <= _PANEL_BLOCK:
                runs[-1].append((r, s, e))
            else:
                runs.append([(r, s, e)])
        start += n
    return runs


def _principal_part(
    atlas: FixedPointAtlas, eta_mode: str
) -> Dict[Tuple[int, ...], ComplexRational]:
    """The terms with a negative exponent of the summed localization series
    of a circle atlas, trusted through y^-1, read in closed form.

    A structured point's series has no exponent below -n, n its pole order,
    so its part lies in -n <= e <= -1.  Raw points add their stored terms.
    As in the sum ``localize`` forms, a term is kept only where every
    contribution is trusted: through -1 when there is a structured point,
    and through each raw series' own truncation order.
    """
    check_eta_mode(eta_mode)
    top: Optional[int] = None  # None: trusted through every exponent
    for fp in atlas.fixed_points:
        (b,) = fp.raw_contribution.trunc if fp.mode == "raw" else (-1,)
        top = b if top is None else top if b is None else min(top, b)
    total: Dict[Tuple[int, ...], ComplexRational] = {}
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            part = fp.raw_contribution.terms
        else:
            _, (n,) = monomial_euler_class(fp, 1)
            part = {(e,): point_coeff(atlas, fp, eta_mode, (e,)) for e in range(-n, top + 1)}
        for (e,), c in part.items():
            if e < 0 and (top is None or e <= top):
                total[(e,)] = total.get((e,), ComplexRational.zero()) + c
    return {e: c for e, c in total.items() if not c.is_zero()}


def _phase(atlas: FixedPointAtlas, fp: FixedPointDatum) -> Tuple[float, ...]:
    """A point's phase frequencies as doubles, refused beyond double range;
    0 for a raw point, whose stored series carries its phase."""
    if fp.mode == "raw":
        return (0.0,) * atlas.group.rank
    what = "squared moment length" if atlas.geometry == "hyperkahler" else "moment"
    return tuple(_double(*f.as_integer_ratio(), fp, what) for f in phase_covector(atlas, fp))


def _point_coeffs(atlas: FixedPointAtlas, eta_mode: str, fp: FixedPointDatum) -> _Coeffs:
    """A point's amplitude coefficients as doubles: eta_j / c at y^(j - n)
    for a structured point, e(y) = c y^n its monomial Euler class (read, and
    a malformed weight refused, by ``monomial_euler_class``, as the exact
    side does), and the stored series of a raw point.  Each part of an exact (p + i q) / d
    becomes the int quotient p / (d c), which Python rounds correctly, so
    it is the double float(Fraction) gives, without building one."""
    if fp.mode == "raw":
        terms, c, n = fp.raw_contribution.terms, 1, None
    else:
        c, n = monomial_euler_class(fp, atlas.group.rank)
        terms = {(0,) * len(n): ComplexRational.one()} if eta_mode == "one" else fp.eta.terms
    # the sign goes onto the numerators, so that a zero part is +0.0
    sign, c = (-1, -c) if c < 0 else (1, c)
    out = {}
    for j, v in terms.items():
        p, q, d = v._v
        p, q, d = sign * p, sign * q, d * c
        try:
            value = complex(p / d, q / d)
        except OverflowError:
            what = "series coefficient"
            value = complex(_double(p, d, fp, what), _double(q, d, fp, what))
        out[j if n is None else tuple(map(operator.sub, j, n))] = value
    return out


def atlas_integrand(atlas: FixedPointAtlas, *, eta_mode: str = "atlas") -> OracleIntegrand:
    """Numeric evaluator for the summed localization series of a symplectic
    circle atlas, for the mollified oracle.

    Built directly from the fixed-point data with double-precision
    arithmetic (see _point_coeffs).  The exact closed-form read is used only
    as a gate, to refuse data whose summed series has a genuine pole at the
    origin and therefore no mollified limit.  A raw point truncated below
    y^-1 could hide such a pole, and is refused with
    InsufficientTruncationError.  A torus or a hyperkahler atlas is refused:
    reduce --oracle checks its reports by the contour read.
    """
    _one_variable(atlas.group.rank, "the mollified oracle")
    if atlas.geometry != "symplectic":
        raise ValidationError(
            f"the mollified oracle reads symplectic circles, not {atlas.geometry} "
            "data; reduce --oracle checks such a report by its contour read",
            geometry=atlas.geometry,
        )

    # refuse, before any exact work, a raw series cut below y^-1 (it would
    # hide poles from the gate) and a phase frequency without a double
    point_freqs = []
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            (t,) = fp.raw_contribution.trunc
            if t is not None and t < -1:
                var = atlas.variable_order[0]
                raise InsufficientTruncationError(
                    f"raw point {fp.name!r} is trusted only through {var}^{t}; "
                    f"the pole gate needs its series through {var}^-1, so store "
                    "it with truncation order at least -1",
                    variable=var,
                    requested=-1,
                    required=-1,
                    point=fp.name,
                )
        point_freqs.append(_phase(atlas, fp))
    principal = _principal_part(atlas, eta_mode)
    if principal:
        exponents = sorted(principal)
        raise QuadratureError(
            f"localized sum has a pole at the origin (principal exponents {exponents}); "
            "the mollified integral does not exist for this data",
            exponents=exponents,
        )

    structured = [f for fp, (f,) in zip(atlas.fixed_points, point_freqs) if fp.mode != "raw"]
    lin = max([abs(f) for f in structured], default=0.0)
    points = [
        (_point_coeffs(atlas, eta_mode, fp), f) for fp, f in zip(atlas.fixed_points, point_freqs)
    ]
    return OracleIntegrand(fn=_PointSum(points, False), freq_linear=lin)


def moment_gap(atlas: FixedPointAtlas) -> float:
    """Smallest absolute moment component over the fixed points."""
    gap = math.inf
    for fp in atlas.fixed_points:
        for m in fp.moment:
            gap = min(gap, abs(_double(*m.as_integer_ratio(), fp, "moment")))
    return gap


def _double(n: int, d: int, fp: FixedPointDatum, what: str) -> float:
    """n / d, d > 0, for an atlas value of fixed point fp: Python's int true
    division, the correctly rounded double.  A value beyond double range is
    refused with ValidationError naming the point and the value."""
    try:
        return n / d
    except OverflowError:
        raise ValidationError(
            f"{what} at {fp.name!r} is beyond the range of a double, so the "
            "oracle cannot evaluate it; rescale the atlas data",
            point=fp.name,
            value=Fraction(n, d),
        ) from None


# -- contour reads of Laurent coefficients -------------------------------


#: nodes of one torus grid, N^k, at most
_TORUS_NODES = 1 << 20

#: nodes per variable of a torus read's first grid, at least
_TORUS_START = 32


def torus_mean(
    fn: Callable[[List[np.ndarray]], np.ndarray],
    radii: Sequence[float],
    a: Sequence[int],
    reach: int = 0,
) -> Tuple[complex, int]:
    """The coefficient at z^a of fn, a function of k variables analytic
    near the torus |z_v| = r_v, by the tensor trapezoid rule: the mean of
    fn(z) z^-a over the grid z_v = r_v exp(2 pi i j_v / N), j_v = 0..N-1,
    summed by _fsum.

    fn takes k arrays that broadcast to the grid, one per variable.  The
    mean adds to the coefficient at a those at a + N m, m != 0, times
    r^(N m), which converges exponentially in N (Trefethen & Weideman, SIAM
    Review 56, 2014) where fn's Laurent coefficients decay, as they do in
    its entire phase factors.  A Laurent polynomial factor does not decay,
    so reach, the largest |e_v - a_v| over its exponents e, sets the first
    N: the smallest power of two past reach, and at least _TORUS_START, so
    that no term of it aliases onto z^a.  N then doubles until two
    successive reads agree to 1e-12 of the mean of |fn(z) z^-a| over the
    finer grid.  Returns the last read and its N.

    A grid of more than _TORUS_NODES nodes is refused before it is built,
    and so is a read whose values leave double range, each with
    QuadratureError."""
    k = len(radii)
    n = _TORUS_START
    while n <= reach:
        n *= 2
    last = None
    while True:
        if n**k > _TORUS_NODES:
            raise QuadratureError(
                f"the contour read needs a grid of {n}^{k} = {n**k} nodes, past "
                f"its budget of {_TORUS_NODES}",
                nodes=n**k,
                budget=_TORUS_NODES,
            )
        unit = _unit(2.0 * math.pi / n * np.arange(n))
        zs = [
            (r * unit).reshape([n if w == v else 1 for w in range(k)])
            for v, r in enumerate(radii)
        ]
        with np.errstate(all="ignore"):
            values = fn(zs)
            for z, e in zip(zs, a):
                values = _powers(z, values, -e)
            values = np.broadcast_to(values, (n,) * k).ravel()
            size = float(np.abs(values).sum()) / n**k
        # a finite size also keeps math.fsum clear of intermediate overflow
        if not math.isfinite(size):
            raise QuadratureError(
                "the contour values leave the range of a double; rescale the input",
                nodes=n**k,
            )
        value = _fsum(values) / n**k
        if last is not None and abs(value - last) <= 1e-12 * size:
            return value, n
        last, n = value, 2 * n


def _contour_size(e: int, c, what: str = "series term") -> complex:
    """complex(c), refused with ValidationError naming the exponent when c
    or the size |c| 2^-e of c y^e on the contour |y| = 1/2 is beyond double
    range (ldexp raises where it overflows)."""
    try:
        value = complex(c)
        math.ldexp(abs(value), -e)
        return value
    except OverflowError:
        raise ValidationError(
            f"{what} y^{e} is beyond the range of a double on |y| = 1/2, "
            "so the contour average cannot evaluate it",
            exponent=e,
        ) from None


def contour_coeff(f: LaurentSeries, m: int, var: str) -> complex:
    """Numeric estimate of the coefficient at var^-m of a one-variable
    series: torus_mean of f(z) z^m on the circle |z| = 1/2.  Its reach is
    the exponent span of f(z) z^m, so the first read is exact up to
    rounding and the second confirms it.  A coefficient past f's
    truncation order is refused with InsufficientTruncationError, as
    ``LaurentSeries.coefficient`` refuses it."""
    if len(f.vars) != 1:
        raise ValidationError("contour extraction works on one-variable series")
    if f.vars[0] != var:
        raise ValidationError(
            f"series has variable {f.vars[0]!r}, not {var!r}", variable=f.vars[0], expected=var
        )
    (t,) = f.trunc
    if t is not None and -m > t:
        raise InsufficientTruncationError(
            f"coefficient at {var}^{-m} requested but series is only trusted "
            f"through order {t}; recompute with truncation order at least {-m}",
            variable=var,
            requested=-m,
            required=-m,
        )
    terms = {
        (e,): _contour_size(e, c) for (e,), c in sorted(f.terms.items(), reverse=True)
    }
    if not terms:
        return 0j
    # f(z) z^m is summed as is: its lowest term must be a double too
    lowest = min(e for (e,) in terms)
    _contour_size(lowest + m, 1, f"with M = {m}, the integrand term")
    reach = max(abs(e + m) for (e,) in terms)
    value, _ = torus_mean(_PointSum([(terms, (0.0,))], False), (0.5,), (-m,), reach)
    return value


# -- decay and smoothness diagnostics ------------------------------------


class DecayRow(Record):
    __slots__ = ("t", "value", "bound")

    def __init__(self, t: float, value: complex, bound: Optional[float]):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bound", bound)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "value": [self.value.real, self.value.imag],
            "bound": self.bound,
        }


class DecayTable(Record):
    __slots__ = ("x", "n", "rows", "constant", "decay_ok")

    def __init__(
        self,
        x: float,
        n: int,
        rows: Tuple[DecayRow, ...],
        constant: Optional[float],
        decay_ok: Optional[bool],
    ):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "decay_ok", decay_ok)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "n": self.n,
            "rows": [r.to_json_dict() for r in self.rows],
            "constant": self.constant,
            "decay_ok": self.decay_ok,
        }


#: panel budget of each ladder rung of suptsq_check, and its per-panel
#: tolerance in units of S(t)
SUPTSQ_MAX_PANELS = 300_000
_SUPTSQ_TOLERANCE = 1e-13


def _max_finite_power(base: float) -> Optional[int]:
    """The largest p with base**p finite in double precision, or None when
    base <= 1 and no power overflows."""
    if base <= 1:
        return None

    def fits(p: int) -> bool:
        try:
            base**p  # float ** int raises instead of returning inf
        except OverflowError:
            return False
        return True

    p = int(math.log(sys.float_info.max) / math.log(base))
    # the logarithms are rounded; step to the exact boundary
    while not fits(p):
        p -= 1
    while fits(p + 1):
        p += 1
    return p


def _log_hermite(m: int, u: float) -> Tuple[float, float]:
    """(sign, log |H_m(u)|) for the physicists' Hermite polynomial, by the
    recurrence H_(k+1) = 2u H_k - 2k H_(k-1), rescaled by 2^-512 whenever a
    value passes 2^512, so that no step overflows; sign is 0 at a zero."""
    a, b, scale = 0.0, 1.0, 0
    for k in range(m):
        a, b = b, 2.0 * u * b - 2.0 * k * a
        if abs(b) > 2.0**512:
            a, b, scale = a * 2.0**-512, b * 2.0**-512, scale + 512
    if b == 0:
        return 0.0, -math.inf
    return math.copysign(1.0, b), math.log(abs(b)) + scale * math.log(2.0)


def _suptsq_closed_form(x: float, m: int, t: float) -> complex:
    """I(t) = sqrt(4 pi t) (i sqrt t)^m H_m(x sqrt t) exp(-t x^2), taken in
    logarithms, since H_m and the exponential can each leave double range
    where their product does not."""
    sign, log_h = _log_hermite(m, x * math.sqrt(t))
    if not sign:
        return 0j
    log_size = 0.5 * math.log(4.0 * math.pi * t) + 0.5 * m * math.log(t) + log_h - t * x * x
    return sign * math.exp(log_size) * (1, 1j, -1, -1j)[m % 4]


def _suptsq_size(m: int, t: float) -> float:
    """S(t) = integral |y|^m exp(-y^2/4t) dy = Gamma((m+1)/2) (4t)^((m+1)/2),
    the size against which I(t) and its quadrature are measured; refused
    when it is beyond double range."""
    try:
        return math.exp(math.lgamma((m + 1) / 2) + (m + 1) / 2 * math.log(4.0 * t))
    except OverflowError:
        raise ValidationError(
            f"the integrand's size Gamma((m+1)/2) (4t)^((m+1)/2) for m = {m} is "
            f"beyond the range of a double at t = {t:g}; lower n or the t ladder",
            m=m,
            t=t,
        ) from None


def _suptsq_grid(x: float, m: int, t: float) -> Tuple[float, float]:
    """(window, band limit) of suptsq_check's rung t for y^m."""
    window = math.sqrt(2.0 * t * m) + _SIGMAS * math.sqrt(2.0 * t)
    return window, abs(x) + (math.sqrt(_MARGIN) + math.sqrt(2.0 * m + 1.0)) / math.sqrt(t)


def suptsq_check(
    x: float,
    n: int,
    t_ladder: Sequence[float] = (1.0, 3.0, 10.0, 30.0),
) -> DecayTable:
    """I(t) = integral exp(-y^2/4t + i x y) y^m dy, m = n/2, per ladder point.

    I(t) has the closed form sqrt(4 pi t) (i sqrt t)^m H_m(x sqrt t)
    exp(-t x^2), H_m the physicists' Hermite polynomial, and its size is
    measured against S(t) = Gamma((m+1)/2) (4t)^((m+1)/2), the integral of
    |y|^m exp(-y^2/4t).  The per-panel tolerance is 1e-13 S(t).
    For x != 0 each row's bound is 2 |I(t)| + 1e-9 S(t), and decay_ok says
    that every row's |value| is inside its bound.  While |I(t)| is above
    1e-9 S(t) this follows the closed form's exp(-t x^2) decay; on rungs
    where the closed form has fallen below 1e-9 S(t), which grows with t,
    the bound holds every row near the closed form's size rather than
    asserting decay.  constant is the largest |value - I(t)| / S(t) over
    the rows.  For x = 0 the integral grows like t^((m+1)/2) and no decay
    claim is made.

    Rung t integrates over |y| <= sqrt(2tm) + _SIGMAS sqrt(2t), the peak
    sqrt(2tm) of y^m exp(-y^2/4t) plus the mollified limit's window, on the
    grid of band limit |x| + (sqrt(_MARGIN) + sqrt(2m + 1)) / sqrt(t): past
    the Gaussian's spread, the Fourier transform of y^m exp(-y^2/4t) reaches
    out about sqrt((2m + 1) / t).  The widest window is at the top of the ladder.  An
    x whose panels there exceed the panel budget, an n whose y^m overflows a
    double at that window's edge, or an S(t) beyond double range is
    refused, the first two naming the largest value that fits.
    """
    if n < 0 or n % 2 != 0:
        raise ValidationError("n must be an even nonnegative integer", n=n)
    power = n // 2
    ladder = _check_ladder(t_ladder, 1)
    if not math.isfinite(x):
        raise ValidationError(f"x must be a finite number, got {x!r}", x=x)
    top = ladder[-1]
    # the widest grid lays 2 ceil(window (|x| + spread) / _PANEL_PHASE)
    # panels, so refuse before building it
    window, spread = _suptsq_grid(0.0, power, top)
    x_max = SUPTSQ_MAX_PANELS // 2 * _PANEL_PHASE / window - spread
    if abs(x) > x_max:
        largest = f"|x| up to {x_max:g} fits" if x_max >= 0 else f"no x fits with n = {n}"
        raise ValidationError(
            f"|x| = {abs(x):g} needs more than the {SUPTSQ_MAX_PANELS} panels "
            f"of the budget at t = {top:g}; {largest}",
            max_abs_x=x_max,
        )

    def edge(m: int) -> float:
        _, h, panels = _panel_grid(*_suptsq_grid(x, m, top))
        return panels // 2 * (15 * h)

    def fits(m: int) -> bool:
        limit = _max_finite_power(edge(m))
        return limit is None or m <= limit

    if not fits(power):
        # the window widens with m: bisect for the largest m that fits
        lo, hi = 0, power
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        raise ValidationError(
            f"y^{power} overflows a double at the window edge |y| = {edge(power):g} "
            f"of t = {top:g}; n up to {2 * lo} stays finite at its own window's edge",
            max_n=2 * lo,
        )
    sizes = [_suptsq_size(power, t) for t in ladder]

    values = []
    for t, size in zip(ladder, sizes):
        grid = _panel_grid(*_suptsq_grid(x, power, t))
        budget = _Budget(SUPTSQ_MAX_PANELS, 1)

        def fn(y: np.ndarray, t=t) -> np.ndarray:
            base = np.exp(-(y * y) / (4.0 * t) + 1j * x * y)
            return base * y**power if power else base

        [(val, _)] = adaptive_quadrature(fn, [grid], _SUPTSQ_TOLERANCE * size, budget)
        values.append(val)

    if x == 0:
        rows = tuple(DecayRow(t, v, None) for t, v in zip(ladder, values))
        return DecayTable(x=x, n=n, rows=rows, constant=None, decay_ok=None)

    rows = []
    constant = 0.0
    for t, v, size in zip(ladder, values, sizes):
        exact = _suptsq_closed_form(x, power, t)
        rows.append(DecayRow(t, v, 2.0 * abs(exact) + 1e-9 * size))
        constant = max(constant, abs(v - exact) / size)
    ok = all(abs(r.value) <= r.bound for r in rows)
    return DecayTable(x=x, n=n, rows=tuple(rows), constant=constant, decay_ok=ok)


class ShiftRow(Record):
    __slots__ = ("zeta", "difference", "asserted")

    def __init__(self, zeta: float, difference: float, asserted: bool):
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "difference", difference)
        object.__setattr__(self, "asserted", asserted)

    def to_json_dict(self) -> dict:
        return {"zeta": self.zeta, "difference": self.difference, "asserted": self.asserted}


class ShiftTable(Record):
    __slots__ = ("t", "gap", "base_value", "rows", "linear_ok")

    def __init__(
        self,
        t: float,
        gap: float,
        base_value: complex,
        rows: Tuple[ShiftRow, ...],
        linear_ok: bool,
    ):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "base_value", base_value)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "linear_ok", linear_ok)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "gap": self.gap,
            "base_value": [self.base_value.real, self.base_value.imag],
            "rows": [r.to_json_dict() for r in self.rows],
            "linear_ok": self.linear_ok,
        }


def shift_smoothness_check(
    atlas: FixedPointAtlas,
    zeta_list: Sequence[float],
    cfg: Optional[MollifierConfig] = None,
) -> ShiftTable:
    """|F(zeta) - F(0)| at the top of the t ladder, where F is the mollified
    value with every moment shifted by -zeta.

    Both integrands are evaluated on one shared fixed grid and differenced
    analytically (the shift is a global phase factor), so F(0) - F(0) is
    exactly zero and the zeta scaling is smooth down to the rounding floor.
    Rows with |zeta| below half the moment gap are asserted against a
    monotone near-linear profile, except that a pair of rows both below the
    noise floor 1e-13 max(1, |F(0)|) is skipped; larger shifts are reported
    unasserted.
    """
    cfg = cfg or MollifierConfig()
    g0 = atlas_integrand(atlas)
    t = cfg.t_ladder[-1]
    vol = atlas.group.vol.numeric_value().real
    gap = moment_gap(atlas)
    zmax = max((abs(z) for z in zeta_list), default=0.0)
    window = _SIGMAS * math.sqrt(2.0 * t)
    grid = _panel_grid(window, g0.freq_linear + zmax + _spread(t), cfg.max_panels)

    def base_fn(y: np.ndarray) -> np.ndarray:
        return np.exp(-(y * y) / (4.0 * t)) * g0.fn([y])

    base = fixed_quadrature(base_fn, grid) / vol

    rows = []
    diffs = {}
    for zeta in zeta_list:
        if zeta == 0:
            rows.append(ShiftRow(0.0, 0.0, True))
            diffs[0.0] = 0.0
            continue

        def diff_fn(y: np.ndarray, zeta=zeta) -> np.ndarray:
            # exp(-i z y) - 1 without cancellation
            return base_fn(y) * (-2j * np.sin(zeta * y / 2) * np.exp(-1j * zeta * y / 2))

        d = abs(fixed_quadrature(diff_fn, grid)) / vol
        asserted = abs(zeta) < gap / 2
        rows.append(ShiftRow(float(zeta), d, asserted))
        if asserted:
            diffs[abs(float(zeta))] = d

    floor = 1e-13 * max(1.0, abs(base))
    linear_ok = True
    ordered = sorted(diffs.items())
    for (z1, d1), (z2, d2) in zip(ordered, ordered[1:]):
        # two rows in the noise carry no scaling information
        if z1 == 0 or max(d1, d2) <= floor:
            continue
        # within factor 10 of linear scaling, above the noise floor
        if max(d1, floor) > 10.0 * (z1 / z2) * max(d2, floor):
            linear_ok = False
    return ShiftTable(t=t, gap=gap, base_value=base, rows=tuple(rows), linear_ok=linear_ok)


# -- exact-vs-oracle comparison -----------------------------------------


def oracle_comparison(
    report, atlas: FixedPointAtlas, cfg: Optional[MollifierConfig] = None
) -> dict:
    """Compare a reduction report with a numeric value of the same
    quotient integral from the atlas it was reduced from.

    A symplectic circle report is checked by the mollified limit (route
    "mollified", configured by cfg); every other report by the contour read
    (route "contour", which takes no configuration).  The block names the
    route that ran.
    """
    if (report.geometry, report.rank) != (atlas.geometry, atlas.group.rank):
        raise ValidationError(
            f"the report is a rank-{report.rank} {report.geometry} reduction, the "
            f"atlas a rank-{atlas.group.rank} {atlas.geometry} one",
            geometry=atlas.geometry,
            rank=atlas.group.rank,
        )
    if atlas.geometry == "symplectic" and atlas.group.rank == 1:
        return _mollified_comparison(report, atlas, cfg)
    return _contour_comparison(report, atlas)


def _errors(oracle_value: complex, report) -> dict:
    """The values and their errors.  rel_err is abs_err / |exact|, with
    1e-30 for |exact| where the exact value is 0; it means nothing there,
    so such a block says that it checks abs_err instead."""
    exact_value = report.quotient_integral.numeric()
    abs_err = abs(oracle_value - exact_value)
    rel_err = abs_err / max(abs(exact_value), 1e-30)
    block = {
        "oracle_value": [oracle_value.real, oracle_value.imag],
        "exact_value": [exact_value.real, exact_value.imag],
        "abs_err": abs_err,
        "rel_err": rel_err,
    }
    if not report.quotient_integral.coeff:
        block["checks"] = "abs_err"
    return block


def _mollified_comparison(report, atlas: FixedPointAtlas, cfg) -> dict:
    """The exact raw coefficient is the residue sum over positive-moment
    points; a contour shift identifies the mollified limit of the full sum
    with 2 pi i times that residue sum.  The oracle-side quotient therefore
    is prefactor * vol * oint / (2 pi i), with vol and prefactor taken from
    the report's own profile so the convention cancels structurally.
    """
    cfg = cfg or MollifierConfig()
    res = mollified_oint(
        atlas_integrand(atlas, eta_mode=report.eta_mode), atlas.group, cfg
    )
    vol = atlas.group.vol.numeric_value().real
    pref = report.prefactor.numeric_value()
    oracle_value = pref * vol * res.estimate / (2j * math.pi)
    return {
        "route": "mollified",
        **_errors(oracle_value, report),
        "t_ladder": list(cfg.t_ladder),
        "extrapolation": cfg.extrapolation,
        "max_panels": cfg.max_panels,
        "ladder": [r.to_json_dict() for r in res.rows],
        "converged": res.converged(),
    }


def _contour_comparison(report, atlas: FixedPointAtlas) -> dict:
    """The raw coefficient read by torus_mean from the summed series of the
    points the report marks selected: at y^(-1, ..., -1) for symplectic
    data, at y^(-2, ..., -2) for hyperkahler data, where the oracle-side
    quotient divides by the atlas's degree factor.  A Weyl report's series
    is multiplied node by node by prod_alpha <alpha, y>^4 / |W| from the
    atlas's root data.  The prefactor is the report's own.

    Each radius keeps the point phases at most 1 in size on the torus:
    r_v = 1 / max(1, |mu_v|) over the summed points for symplectic data and
    1 / sqrt(max(1, lambda_v)) for hyperkahler data, lambda_v = |mu_v|^2.
    """
    hk = atlas.geometry == "hyperkahler"
    k = atlas.group.rank
    selected = {p.name for p in report.contributions if p.selected}
    points = [fp for fp in atlas.fixed_points if fp.name in selected]
    freqs = [_phase(atlas, fp) for fp in points]
    point_sum = _PointSum(
        [(_point_coeffs(atlas, report.eta_mode, fp), f) for fp, f in zip(points, freqs)], hk
    )
    phases = [f for fp, f in zip(points, freqs) if fp.mode != "raw"]
    tops = [max([1.0] + [abs(f[v]) for f in phases]) for v in range(k)]
    radii = [1.0 / (math.sqrt(top) if hk else top) for top in tops]
    target = (-2 if hk else -1,) * k
    fn, extra = point_sum, 0
    if report.inserted_polynomial is not None:
        roots = atlas.group.root_system
        if roots is None:
            raise ValidationError("a Weyl report's contour read needs the atlas's root data")
        extra = 4 * len(roots.positive_roots)

        def fn(zs: List[np.ndarray]) -> np.ndarray:
            values = point_sum(zs) / roots.weyl_order
            for alpha in roots.positive_roots:
                form = sum(c * z for c, z in zip(alpha, zs))
                form = form * form
                values = values * (form * form)
            return values

    reach = 0
    for coeffs, _ in point_sum.points:
        for e in coeffs:
            for e_v, a in zip(e, target):
                reach = max(reach, abs(e_v - a), abs(e_v + extra - a))
    raw, n = torus_mean(fn, radii, target, reach)
    pref = report.prefactor.numeric_value()
    oracle_value = pref * raw / (atlas.degree_factor() if hk else 1)
    return {
        "route": "contour",
        **_errors(oracle_value, report),
        "radii": radii,
        "nodes": n,
        "max_nodes": _TORUS_NODES,
    }
