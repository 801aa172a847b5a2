"""Floating-point cross-checks for the exact engines.

Three independent instruments:
  - mollified_oint: the Gaussian-mollified limit integral (1/vol G) *
    lim_{t->inf} integral exp(-|y|^2/4t) f(y) dy, evaluated by adaptive
    composite Gauss-Kronrod quadrature over a truncated window and a ladder
    of t values with optional Richardson extrapolation.
  - contour_coeff: trapezoid contour integration recovering a Laurent
    coefficient numerically, for checking exact coefficient extraction.
  - suptsq_check / shift_smoothness_check: the decay and smoothness
    diagnostics that justify trusting the mollified limits.

Everything here is double precision on purpose: agreement with the exact
side is only meaningful if the two routes share no code.  The quadrature
evaluates numeric closures built directly from atlas data, never the exact
Laurent arithmetic; the exact closed-form read only gates atlas integrands,
refusing data whose summed series has a pole at the origin.

An atlas integrand is a sum of per-point terms amp(y) * exp(i phase(y)),
amp a Laurent polynomial.  On a circle the mollified quadrature sums each
adaptive round of Kronrod panels with one real matrix product: the
Gaussian times the powers of y at every node form the basis, and on a
panel c + h * xi_k a linear phase separates as exp(i f c) * exp(i f h xi_k),
so the second factor joins the rule weights and the terms' coefficients in
one small matrix per half-width.  A hyperkahler phase exp(i f y^2) does not
separate and is taken per node.

numpy is imported when a numeric routine here first uses it, not when this
module is imported: ``import eqloc`` and the exact-only CLI commands never
load it.  The Kronrod rule arrays (KRONROD_NODES and friends) are built at
that moment too, and reading one of them from outside loads numpy.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .atlas import FixedPointAtlas, FixedPointDatum
from .errors import InsufficientTruncationError, QuadratureError, ValidationError
from .exact import ComplexRational, LaurentSeries
from .localize import check_eta_mode, monomial_euler_class, phase_covector, point_coeff

# 7-point Gauss / 15-point Kronrod pair on [-1, 1].  Positive abscissae and
# weights; the grid is mirrored.  Exactness (degree 13 for the Gauss rule,
# 22 for the Kronrod extension) is asserted by the test suite, so a typo
# here cannot survive.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_RULE_ARRAYS = ("KRONROD_NODES", "KRONROD_WEIGHTS", "GAUSS_INDEX", "GAUSS_WEIGHTS", "RULES")


def _load_numpy():
    """Import numpy and build the rule arrays, binding both as module
    globals, so that later reads are plain global lookups."""
    global np, KRONROD_NODES, KRONROD_WEIGHTS, GAUSS_INDEX, GAUSS_WEIGHTS, RULES
    import numpy as np

    # full 15-node layout, ascending
    KRONROD_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
    KRONROD_WEIGHTS = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(reversed(_WGK[:-1])))
    # the embedded Gauss rule lives on nodes 1, 3, 5, ... of the Kronrod grid
    GAUSS_INDEX = np.arange(1, 15, 2)
    GAUSS_WEIGHTS = np.array(list(_WG[:-1]) + [_WG[-1]] + list(reversed(_WG[:-1])))
    # node values @ RULES: a panel's Kronrod and Gauss sums
    RULES = np.zeros((15, 2))
    RULES[:, 0] = KRONROD_WEIGHTS
    RULES[GAUSS_INDEX, 1] = GAUSS_WEIGHTS
    return np


class _DeferredNumpy:
    """Stands in for ``np`` until the first attribute read, which loads
    numpy and rebinds ``np`` to it."""

    def __getattr__(self, name):
        return getattr(np if np is not self else _load_numpy(), name)


np = _DeferredNumpy()


def __getattr__(name):
    if name in _RULE_ARRAYS:
        _load_numpy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, n: int):
        self.left -= n
        if self.left < 0:
            raise QuadratureError(
                "quadrature panel budget exhausted; reduce the top of the "
                "t ladder or raise max_panels"
            )


def _panel_edges(window: float, max_freq: float, max_panels: int = sys.maxsize) -> np.ndarray:
    """Symmetric uniform edges covering [-window, window]: an even number of
    panels with 0 always an edge (so integrands with a removable singularity
    at the origin are never sampled there), sized to resolve oscillation.

    The panels are counted before any array is built, and more than
    max_panels, or a width that is not positive (4 max_freq overflows near
    1e308), is refused as an exhausted budget."""
    h = window / 8
    if max_freq > 0:
        h = min(h, math.pi / (4 * max_freq))
    m = max(4, math.ceil(window / h)) if h > 0 and window / h < math.inf else math.inf
    _Budget(max_panels).spend(2 * m)
    return np.linspace(-m * h, m * h, 2 * m + 1)


def _eval_panels(fn, a: np.ndarray, b: np.ndarray):
    half = (b - a) / 2
    centers = (a + b) / 2
    if isinstance(fn, _MollifiedPanels):
        sums = fn.sums(centers, half)
    else:
        x = centers[:, None] + half[:, None] * KRONROD_NODES[None, :]
        sums = np.asarray(fn(x.ravel()), dtype=complex).reshape(len(a), 15) @ RULES
    i15 = sums[:, 0] * half
    return i15, np.abs(i15 - sums[:, 1] * half)


# The exact sum is a superaccumulator (Neal, "Fast exact summation using
# small and large superaccumulators", 2015) held in numpy.  frexp writes a
# finite double as v = m 2^e with 1/2 <= |m| < 1 and e >= -1073; with
# k = e + 1073, L = k // 16 and s = k % 16,
#
#     v = x 2^(16 (L + 2) - 1126),   x = m 2^(21 + s),   |x| < 2^36,
#
# and x, a multiple of 2^-32, is a = floor(x) plus f = x - a in [0, 1).  So
# v puts the integer 2^32 f on limb L and the integer a on limb L + 2, limb
# j counting multiples of 2^(16 j - 1126).  One chunk's limb sums are sums
# of integers of magnitude at most 2^36, exact in doubles for up to 2^17 of
# them.
_LIMBS = 134  # per part; limb 133 holds the top piece of any finite double
_CHUNK = 1 << 17
_LIMB0 = 1 << 1126  # limb 0 counts multiples of 1 / _LIMB0


def _limb_sums(parts: np.ndarray) -> np.ndarray:
    """The exact per-limb sums of at most _CHUNK rows of finite (real,
    imag) parts: int64, shape (2, _LIMBS)."""
    m, k = np.frexp(parts)
    k += 1073
    k[:, 1] += 16 * _LIMBS
    np.ldexp(m, (k & 15) + 21, out=m)
    limb = np.right_shift(k, 4, out=np.empty(k.shape, dtype=np.intp)).ravel()
    a = np.floor(m)
    m -= a
    sums = (np.bincount(limb, m.ravel(), minlength=2 * _LIMBS) * 2.0**32).astype(np.int64)
    sums[2:] += np.bincount(limb, a.ravel(), minlength=2 * _LIMBS)[:-2].astype(np.int64)
    return sums.reshape(2, _LIMBS)


def _carry(limbs: np.ndarray) -> int:
    """sum_j limbs[j] 2^(16 j) as one Python int."""
    nz = np.flatnonzero(limbs)
    if not len(nz):
        return 0
    total = 0
    for limb in limbs[nz[0] : nz[-1] + 1][::-1].tolist():
        total = (total << 16) + limb
    return total << (16 * int(nz[0]))


def _fsum(values: np.ndarray) -> complex:
    """Correctly rounded sum of complex values, so independent of their
    order: the same double, part by part, as math.fsum.

    The limbs of the superaccumulator above carry into one Python int N per
    part, and the part is N / 2^1126, which CPython's int division rounds
    once, half to even, as fsum does.  Values with a NaN or infinite part,
    or a part large enough that a partial sum could overflow, are left to
    math.fsum whole, and so is a part whose exact sum is zero (fsum chooses
    the sign of that zero).
    """
    parts = np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2)
    n = len(parts)
    # written so that NaN fails the test
    if not np.abs(parts).max(initial=0.0) < 2.0 ** (1020 - n.bit_length()):
        return complex(*(math.fsum(p.tolist()) for p in parts.T))
    totals = [0, 0]
    for start in range(0, n, _CHUNK):
        for c, limbs in enumerate(_limb_sums(parts[start : start + _CHUNK])):
            totals[c] += _carry(limbs)
    return complex(
        *(t / _LIMB0 if t else math.fsum(p.tolist()) for t, p in zip(totals, parts.T))
    )


def adaptive_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol_panel: float,
    budget: _Budget,
) -> Tuple[complex, float]:
    """Composite adaptive Gauss-Kronrod integration over fixed outer edges.

    fn is a function of an array of nodes, or a _MollifiedPanels evaluated a
    panel at a time.  Panels whose Kronrod-minus-Gauss estimate exceeds
    tol_panel are halved, all of them, each round.  Accepted panels are
    summed by _fsum, which rounds their exact sum once, to the double
    math.fsum gives, so the result does not depend on the splitting
    history.
    """
    # through np first, so that the rule arrays _eval_panels reads are bound
    edges = np.asarray(edges, dtype=float)
    work_a = edges[:-1]
    work_b = edges[1:]
    accepted: List[np.ndarray] = []
    err_total = 0.0
    while len(work_a):
        budget.spend(len(work_a))
        i15, err = _eval_panels(fn, work_a, work_b)
        ok = err <= tol_panel
        accepted.append(i15[ok])
        err_total += float(err[ok].sum())
        bad = np.nonzero(~ok)[0]
        if len(bad) == 0:
            break
        a, b = work_a[bad], work_b[bad]
        mid = (a + b) / 2
        work_a = np.concatenate([a, mid])
        work_b = np.concatenate([mid, b])
    return _fsum(np.concatenate(accepted)), err_total


def fixed_quadrature(
    fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray
) -> complex:
    """Single non-adaptive composite Kronrod pass over the given edges.
    Used when two integrands must be compared on the identical grid."""
    edges = np.asarray(edges, dtype=float)
    i15, _ = _eval_panels(fn, edges[:-1], edges[1:])
    return _fsum(i15)


# -- mollified limit integrals ------------------------------------------


@dataclass(frozen=True)
class MollifierConfig:
    t_ladder: Tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    quad_tolerance: float = 1e-10
    window_sigmas: float = 12.0
    extrapolation: str = "last_value"
    max_panels: int = 300_000

    def __post_init__(self):
        ladder = tuple(float(t) for t in self.t_ladder)
        object.__setattr__(self, "t_ladder", ladder)
        if len(ladder) < 2:
            raise ValidationError("t ladder needs at least two entries")
        # written so that NaN fails every test
        if not all(0 < t < math.inf for t in ladder) or any(
            a >= b for a, b in zip(ladder, ladder[1:])
        ):
            raise ValidationError(
                "t ladder must be finite, positive and strictly increasing"
            )
        if not (
            0 < self.quad_tolerance < math.inf and 0 < self.window_sigmas < math.inf
        ):
            raise ValidationError("tolerance and window size must be finite and positive")
        if self.extrapolation not in ("last_value", "richardson"):
            raise ValidationError(
                f"unknown extrapolation rule {self.extrapolation!r}"
            )
        # NaN or inf would switch the panel budget off
        panels = self.max_panels
        if not isinstance(panels, int) or isinstance(panels, bool) or panels < 16:
            raise ValidationError(
                f"max_panels must be an integer of at least 16, got {panels!r}"
            )


@dataclass(frozen=True)
class OracleIntegrand:
    """Numeric closure plus the metadata quadrature needs to pace itself.

    fn maps a list of k equal-shape arrays (one per variable) to a complex
    array.  freq_linear bounds |d phase / d y| from oscillatory factors
    exp(i mu y); freq_quadratic bounds the lambda of exp(i lambda y^2)
    factors, whose local frequency grows with the window.
    """

    fn: Callable[[List[np.ndarray]], np.ndarray]
    k: int = 1
    freq_linear: float = 1.0
    freq_quadratic: float = 0.0

    def max_frequency(self, window: float) -> float:
        return self.freq_linear + 2.0 * self.freq_quadratic * window


@dataclass(frozen=True)
class LadderRow:
    """One rung of the t ladder; panels counts the panels it evaluated,
    against the rung's budget of MollifierConfig.max_panels."""

    t: float
    value: complex
    err_estimate: float
    panels: int

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "value": [self.value.real, self.value.imag],
            "err_estimate": self.err_estimate,
            "panels": self.panels,
        }


@dataclass(frozen=True)
class OracleResult:
    rows: Tuple[LadderRow, ...]
    estimate: complex
    extrapolation: str
    max_panels: int

    def deltas(self) -> List[float]:
        return [
            abs(b.value - a.value) for a, b in zip(self.rows, self.rows[1:])
        ]

    def ladder_monotone(self) -> bool:
        d = self.deltas()
        return all(b <= a for a, b in zip(d, d[1:]))

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "estimate": [self.estimate.real, self.estimate.imag],
            "extrapolation": self.extrapolation,
            "ladder_monotone": self.ladder_monotone(),
            "max_panels": self.max_panels,
        }


def _as_integrand(f) -> OracleIntegrand:
    if isinstance(f, OracleIntegrand):
        return f
    return OracleIntegrand(fn=lambda ys, _f=f: _f(ys[0]), k=1)


def _mollified_single_t(
    g: OracleIntegrand, t: float, cfg: MollifierConfig, budget: _Budget
) -> Tuple[complex, float]:
    window = cfg.window_sigmas * math.sqrt(2.0 * t)
    edges = _panel_edges(window, g.max_frequency(window), budget.left)

    if g.k == 1:
        if isinstance(g.fn, _PointSum):
            fn = _MollifiedPanels(g.fn, t)
        else:

            def fn(y: np.ndarray) -> np.ndarray:
                return np.exp(-(y * y) / (4.0 * t)) * g.fn([y])

        return adaptive_quadrature(fn, edges, cfg.quad_tolerance, budget)

    if g.k > 3:
        raise ValidationError(
            "mollified integrals support at most three variables"
        )

    # nested integration: outermost variable adaptive, inner recursion
    err_box = [0.0]

    def outer(y_outer: np.ndarray) -> np.ndarray:
        out = np.empty(len(y_outer), dtype=complex)
        for j, y0 in enumerate(y_outer):
            inner = OracleIntegrand(
                fn=lambda ys, y0=y0: g.fn([np.full_like(ys[0], y0)] + list(ys)),
                k=g.k - 1,
                freq_linear=g.freq_linear,
                freq_quadratic=g.freq_quadratic,
            )
            v, e = _mollified_single_t(inner, t, cfg, budget)
            err_box[0] += e
            out[j] = v * math.exp(-(y0 * y0) / (4.0 * t))
        return out

    val, err = adaptive_quadrature(outer, edges, cfg.quad_tolerance * 10, budget)
    return val, err + err_box[0]


def mollified_oint(
    f, group, cfg: Optional[MollifierConfig] = None
) -> OracleResult:
    """(1/vol G) lim_{t->inf} integral exp(-|y|^2/4t) f(y) d^k y.

    f is an OracleIntegrand or a plain function of one array.  The limit is
    estimated over cfg.t_ladder; the tail outside |y_v| <= window_sigmas *
    sqrt(2t) is dropped (bounded below 1e-30 at the default 12 sigmas).
    """
    g = _as_integrand(f)
    cfg = cfg or MollifierConfig()
    vol = group.vol.numeric_value()
    if abs(vol.imag) > 1e-15 or vol.real <= 0:
        raise ValidationError("group volume must be a positive real")
    vol = vol.real
    rows = []
    for t in cfg.t_ladder:
        budget = _Budget(cfg.max_panels)
        val, err = _mollified_single_t(g, t, cfg, budget)
        panels = cfg.max_panels - budget.left
        rows.append(LadderRow(t=t, value=val / vol, err_estimate=err / vol, panels=panels))
    if cfg.extrapolation == "richardson":
        t1, t2 = cfg.t_ladder[-2], cfg.t_ladder[-1]
        v1, v2 = rows[-2].value, rows[-1].value
        estimate = (t2 * v2 - t1 * v1) / (t2 - t1)
    else:
        estimate = rows[-1].value
    return OracleResult(
        rows=tuple(rows),
        estimate=estimate,
        extrapolation=cfg.extrapolation,
        max_panels=cfg.max_panels,
    )


# -- atlas integrands ----------------------------------------------------


class _Term(NamedTuple):
    """One fixed point's term amp(y) * exp(i sum_v freqs_v y_v^s) in double
    precision, s = 2 for hyperkahler data and 1 otherwise.

    amp is the Laurent polynomial y^lo * (re(y) + i im(y)); re and im hold
    real coefficients, one axis per variable, highest power first, for
    Horner's rule.  im is None when every imaginary coefficient is 0.
    """

    lo: Tuple[int, ...]
    re: np.ndarray
    im: Optional[np.ndarray]
    freqs: Tuple[float, ...]


def _term(
    fp: FixedPointDatum, coeffs: Dict[Tuple[int, ...], ComplexRational], freqs
) -> Optional[_Term]:
    if not coeffs:
        return None
    exps = list(coeffs)
    lo = tuple(map(min, zip(*exps)))
    hi = tuple(map(max, zip(*exps)))
    re = np.zeros(tuple(h - l + 1 for h, l in zip(hi, lo)))
    im = np.zeros_like(re)
    for e, c in coeffs.items():
        idx = tuple(h - x for h, x in zip(hi, e))
        re[idx] = _double(c.re, fp, "series coefficient")
        im[idx] = _double(c.im, fp, "series coefficient")
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
    k arrays: sum over the terms of amp(y) * exp(i phase(y))."""

    def __init__(self, terms: Sequence[_Term], quadratic: bool):
        self.terms = tuple(terms)
        self.quadratic = quadratic

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


def _unit(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta, with cos and sin written straight into
    the parts of the result: the values of np.exp(1j * theta) without the
    complex exponential's work."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


class _MollifiedPanels:
    """exp(-y^2/4t) times a rank-1 _PointSum, integrated a round of panels
    at a time.  Its terms, gathered by frequency f, are the columns of a
    coefficient matrix C[e, f] over the exponents lo..hi.  On a panel
    x = c + h xi_k a linear phase separates, with g the Gaussian:

        sum_k w_k g x^e exp(i f x) = exp(i f c) sum_k [w_k exp(i f h xi_k)] [g x^e]

    so a round is one real basis B[p, (k, e)] = g x^e, one product with
    V[(k, e), (f, r)] = RULES[k, r] exp(i f h xi_k) C[e, f] per run of equal
    half-widths (the panels are sorted by h, whose few values on a grid
    differ in the last bits), and a centre phase exp(i f c) per panel and
    frequency.  A hyperkahler phase exp(i f x^2) does not separate: it
    multiplies the amplitudes B C per node, and RULES contracts the nodes.
    Every phase is taken by _unit from its real angle.
    """

    def __init__(self, point_sum: _PointSum, t: float):
        terms = point_sum.terms
        self.quadratic, self.t = point_sum.quadratic, t
        self.lo = min([0] + [term.lo[0] for term in terms])
        self.hi = max([0] + [term.lo[0] + len(term.re) - 1 for term in terms])
        freqs = sorted({term.freqs[0] for term in terms})
        self.freqs = np.array(freqs)
        self.coeffs = np.zeros((self.hi - self.lo + 1, len(freqs)), dtype=complex)
        for term in terms:
            start = term.lo[0] - self.lo
            col = self.coeffs[start : start + len(term.re), freqs.index(term.freqs[0])]
            col += term.re[::-1] if term.im is None else term.re[::-1] + 1j * term.im[::-1]

    def _basis(self, x: np.ndarray) -> np.ndarray:
        """g(x) x^e for e = lo..hi, on a last axis."""
        basis = np.empty(x.shape + (self.hi - self.lo + 1,))
        gauss = basis[..., -self.lo]
        np.exp(-(x * x) / (4.0 * self.t), out=gauss)
        _powers(x, gauss, self.hi, basis[..., -self.lo :])
        _powers(x, gauss, self.lo, basis[..., -self.lo :: -1])
        return basis

    def sums(self, centers: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Each panel's Kronrod and Gauss sums of exp(-x^2/4t) fn(x) over its
        nodes: a (panels, 2) array.  B is real, so every product takes the
        complex right-hand side viewed as pairs of reals."""
        if self.quadratic:
            x = centers[:, None] + half[:, None] * KRONROD_NODES
            basis = self._basis(x).reshape(x.size, -1)
            amp = (basis @ self.coeffs.view(float)).view(complex).reshape(*x.shape, -1)
            return (amp * _unit((x * x)[..., None] * self.freqs)).sum(axis=-1) @ RULES
        order = np.argsort(half, kind="stable")
        c, h = centers[order], half[order]
        basis = self._basis(c[:, None] + h[:, None] * KRONROD_NODES).reshape(len(c), -1)
        out = np.empty((len(c), len(self.freqs), 2), dtype=complex)
        cuts = [0, *(np.flatnonzero(h[1:] != h[:-1]) + 1), len(c)]
        for s, e in zip(cuts, cuts[1:]):
            node = _unit(h[s] * np.multiply.outer(KRONROD_NODES, self.freqs))
            v = RULES[:, None, None] * node[:, None, :, None] * self.coeffs[:, :, None]
            v = v.reshape(basis.shape[1], -1).view(float)
            np.matmul(basis[s:e], v, out=out[s:e].reshape(e - s, -1).view(float))
        sums = np.empty((len(c), 2), dtype=complex)
        sums[order] = np.einsum("pf,pfr->pr", _unit(np.multiply.outer(c, self.freqs)), out)
        return sums


def _principal_part(
    atlas: FixedPointAtlas, eta_mode: str
) -> Dict[Tuple[int, ...], ComplexRational]:
    """The terms with a negative exponent of the summed localization series
    trusted through y^-1 in every variable, read in closed form.

    A structured point's series has no exponent below -n_v in variable v, so
    its part lies in the box -n_v <= e_v <= -1.  Raw points add their stored
    terms.  As in the sum ``localize`` forms, a term is kept only where
    every contribution is trusted: through -1 when there is a structured
    point, and through each raw series' own truncation order.
    """
    check_eta_mode(eta_mode)
    k = atlas.group.rank
    # None: trusted through every exponent
    top: List[Optional[int]] = [None] * k
    for fp in atlas.fixed_points:
        bounds = fp.raw_contribution.trunc if fp.mode == "raw" else (-1,) * k
        top = [t if b is None else b if t is None else min(t, b) for t, b in zip(top, bounds)]
    total: Dict[Tuple[int, ...], ComplexRational] = {}
    for fp in atlas.fixed_points:
        if fp.mode == "raw":
            part = fp.raw_contribution.terms
        else:
            _, n = monomial_euler_class(fp, k)
            box = itertools.product(*(range(-n_v, t + 1) for n_v, t in zip(n, top)))
            part = {e: point_coeff(atlas, fp, eta_mode, e) for e in box}
        for e, c in part.items():
            if any(x < 0 for x in e) and all(t is None or x <= t for x, t in zip(e, top)):
                total[e] = total.get(e, ComplexRational.zero()) + c
    return {e: c for e, c in total.items() if not c.is_zero()}


def atlas_integrand(
    atlas: FixedPointAtlas, *, eta_mode: str = "atlas", zeta: float = 0.0
) -> OracleIntegrand:
    """Numeric evaluator for the summed localization series of an atlas.

    Built directly from the fixed-point data with double-precision
    arithmetic: each structured point is eta(y) / (c y^n) times its phase,
    with e(y) = c y^n its monomial Euler class, and each raw point is its
    stored series.  The exact closed-form read is used only as a gate, to
    refuse data whose summed series has a genuine pole at the origin and
    therefore no mollified limit.  A raw point truncated below y^-1 in some
    variable could hide such a pole, and is refused with
    InsufficientTruncationError.

    zeta shifts every symplectic moment by -zeta (rank 1 only): the phase
    picks up a global factor exp(-i zeta y).
    """
    k = atlas.group.rank
    if zeta and (k != 1 or atlas.geometry != "symplectic"):
        raise ValidationError("moment shifts are a symplectic circle diagnostic")

    # refuse, before any exact work, a raw series cut below y^-1 (it would
    # hide poles from the gate) and a phase frequency without a double
    hk = atlas.geometry == "hyperkahler"
    point_freqs = []
    for fp in atlas.fixed_points:
        if fp.mode != "raw":
            what = "squared moment length" if hk else "moment"
            point_freqs.append(
                tuple(_double(f, fp, what) for f in phase_covector(atlas, fp))
            )
            continue
        for var, t in zip(atlas.variable_order, fp.raw_contribution.trunc):
            if t is not None and t < -1:
                raise InsufficientTruncationError(
                    f"raw point {fp.name!r} is trusted only through {var}^{t}; "
                    f"the pole gate needs its series through {var}^-1, so store "
                    "it with truncation order at least -1",
                    variable=var,
                    requested=-1,
                    required=-1,
                    point=fp.name,
                )
        point_freqs.append((0.0,) * k)
    principal = _principal_part(atlas, eta_mode)
    if principal:
        raise QuadratureError(
            "localized sum has a pole at the origin (principal exponents "
            f"{sorted(principal)}); the mollified integral does not exist for this data"
        )

    terms = []
    lin = abs(zeta)
    quad = 0.0
    for fp, freqs in zip(atlas.fixed_points, point_freqs):
        if fp.mode == "raw":
            coeffs = fp.raw_contribution.terms
        else:
            c, n = monomial_euler_class(fp, k)
            eta = {(0,) * k: ComplexRational.one()} if eta_mode == "one" else fp.eta.terms
            coeffs = {
                tuple(x - y for x, y in zip(j, n)): eta_j / c
                for j, eta_j in eta.items()
            }
            if hk:
                quad = max(quad, max(freqs))
            else:
                lin = max(lin, sum(abs(f) for f in freqs))
        if zeta:
            freqs = (freqs[0] - zeta,)
        term = _term(fp, coeffs, freqs)
        if term is not None:
            terms.append(term)
    return OracleIntegrand(
        fn=_PointSum(terms, hk), k=k, freq_linear=lin, freq_quadratic=quad
    )


def moment_gap(atlas: FixedPointAtlas) -> float:
    """Smallest absolute moment component over the fixed points."""
    gap = math.inf
    for fp in atlas.fixed_points:
        for m in fp.moment:
            gap = min(gap, abs(_double(m, fp, "moment")))
    return gap


def _double(x: Fraction, fp: FixedPointDatum, what: str) -> float:
    """float(x) for an atlas value of fixed point fp; a value beyond double
    range is refused with ValidationError naming the point and the value."""
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(
            f"{what} at {fp.name!r} is beyond the range of a double, so the "
            "oracle cannot evaluate it; rescale the atlas data",
            point=fp.name,
            value=x,
        ) from None


# -- numeric residue vs exact coefficient -------------------------------


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
    """Numeric estimate of the coefficient at var^-m by a contour average:
    (1/2pi) integral_0^2pi f(z) z^m d theta over z = r e^(i theta) at
    r = 1/2, trapezoid rule with 4096 nodes.

    f is evaluated at every node at once by Horner's rule over its
    exponents, highest first.  At node z_j = r w^j, w = exp(2 pi i / n),
    a power z_j^g is r^g w^(g j mod n), read from one table of the n-th
    roots of unity, so no angle grows with g."""
    if len(f.vars) != 1:
        raise ValidationError("contour extraction works on one-variable series")
    if f.vars[0] != var:
        raise ValidationError(f"series has variable {f.vars[0]!r}, not {var!r}")
    r = 0.5
    n = 4096
    terms = sorted(
        ((e, _contour_size(e, c)) for (e,), c in f.terms.items()), reverse=True
    )
    if not terms:
        return 0j
    # the last Horner step multiplies by y^(lowest + m), a double too
    _contour_size(terms[-1][0] + m, 1, f"with M = {m}, the integrand term")
    j = np.arange(n)
    roots = _unit(2.0 * math.pi / n * j)

    def power(g: int) -> np.ndarray:
        return r**g * roots[g % n * j % n]

    acc = np.full(n, terms[0][1])
    for (above, _), (e, c) in zip(terms, terms[1:]):
        acc = acc * power(above - e) + c
    return _fsum(acc * power(terms[-1][0] + m)) / n


# -- decay and smoothness diagnostics ------------------------------------


@dataclass(frozen=True)
class DecayRow:
    t: float
    value: complex
    bound: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "value": [self.value.real, self.value.imag],
            "bound": self.bound,
        }


@dataclass(frozen=True)
class DecayTable:
    x: float
    n: int
    rows: Tuple[DecayRow, ...]
    constant: Optional[float]
    decay_ok: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "n": self.n,
            "rows": [r.to_json_dict() for r in self.rows],
            "constant": self.constant,
            "decay_ok": self.decay_ok,
        }


#: panel budget of each ladder rung of suptsq_check
SUPTSQ_MAX_PANELS = 300_000


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


def suptsq_check(
    x: float,
    n: int,
    t_ladder: Sequence[float] = (1.0, 3.0, 10.0, 30.0),
    quad_tolerance: float = 1e-13,
    window_sigmas: float = 12.0,
) -> DecayTable:
    """I(t) = integral exp(-y^2/4t + i x y) y^(n/2) dy per ladder point.

    For x != 0 the values must die at the rate t^((n+2)/4) exp(-t x^2); the
    constant is calibrated on the first ladder point and the remaining rows
    are checked against it (with slack for the quadrature noise floor).  For
    x = 0 the integral grows like sqrt(t) and no decay claim is made.

    The widest window is at the top of the ladder.  An x whose panels there
    exceed the panel budget, or an n whose y^(n/2) overflows a double at
    that window's edge, is refused, naming the largest value that fits.
    """
    if n < 0 or n % 2 != 0:
        raise ValidationError("n must be an even nonnegative integer")
    power = n // 2
    ladder = tuple(float(t) for t in t_ladder)
    # written so that NaN fails every test
    if len(ladder) < 1 or not all(0 < t < math.inf for t in ladder) or any(
        a >= b for a, b in zip(ladder, ladder[1:])
    ):
        raise ValidationError("t ladder must be finite, positive and strictly increasing")
    if not math.isfinite(x):
        raise ValidationError(f"x must be a finite number, got {x!r}")
    top = window_sigmas * math.sqrt(2.0 * ladder[-1])
    # _panel_edges lays about 8 |x| top / pi panels over the widest window
    # (and divides by 0 once 4 |x| overflows), so refuse before building it
    x_max = SUPTSQ_MAX_PANELS / 8 * math.pi / top
    if abs(x) > x_max:
        raise ValidationError(
            f"|x| = {abs(x):g} needs more than the {SUPTSQ_MAX_PANELS} panels "
            f"of the budget at t = {ladder[-1]:g}; |x| up to {x_max:g} fits",
            max_abs_x=x_max,
        )
    edge = float(_panel_edges(top, abs(x))[-1])
    max_power = _max_finite_power(edge)
    if max_power is not None and power > max_power:
        raise ValidationError(
            f"y^{power} overflows a double at the window edge |y| = {edge:g} "
            f"of t = {ladder[-1]:g}; it stays finite there for n up to {2 * max_power}",
            max_n=2 * max_power,
        )

    values = []
    for t in ladder:
        window = window_sigmas * math.sqrt(2.0 * t)
        edges = _panel_edges(window, abs(x))
        budget = _Budget(SUPTSQ_MAX_PANELS)

        def fn(y: np.ndarray, t=t) -> np.ndarray:
            base = np.exp(-(y * y) / (4.0 * t) + 1j * x * y)
            return base * y**power if power else base

        val, _ = adaptive_quadrature(fn, edges, quad_tolerance, budget)
        values.append(val)

    def shape(t: float) -> float:
        return t ** ((n + 2) / 4.0) * math.exp(-t * x * x)

    if x == 0:
        rows = tuple(DecayRow(t, v, None) for t, v in zip(ladder, values))
        return DecayTable(x=x, n=n, rows=rows, constant=None, decay_ok=None)

    constant = abs(values[0]) / shape(ladder[0]) if shape(ladder[0]) > 0 else 0.0
    noise_floor = 1e-12
    rows = []
    ok = True
    for t, v in zip(ladder, values):
        bound = 2.0 * constant * shape(t) + noise_floor
        rows.append(DecayRow(t, v, bound))
        if abs(v) > bound:
            ok = False
    return DecayTable(x=x, n=n, rows=tuple(rows), constant=constant, decay_ok=ok)


@dataclass(frozen=True)
class ShiftRow:
    zeta: float
    difference: float
    asserted: bool

    def to_json_dict(self) -> dict:
        return {
            "zeta": self.zeta,
            "difference": self.difference,
            "asserted": self.asserted,
        }


@dataclass(frozen=True)
class ShiftTable:
    t: float
    gap: float
    base_value: complex
    rows: Tuple[ShiftRow, ...]
    linear_ok: bool

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
    monotone near-linear profile; larger shifts are reported unasserted.
    """
    if atlas.geometry != "symplectic" or atlas.group.rank != 1:
        raise ValidationError("shift smoothness is a symplectic circle diagnostic")
    cfg = cfg or MollifierConfig()
    g0 = atlas_integrand(atlas)
    t = cfg.t_ladder[-1]
    vol = atlas.group.vol.numeric_value().real
    gap = moment_gap(atlas)
    zmax = max((abs(z) for z in zeta_list), default=0.0)
    window = cfg.window_sigmas * math.sqrt(2.0 * t)
    edges = _panel_edges(window, g0.max_frequency(window) + zmax, cfg.max_panels)

    def base_fn(y: np.ndarray) -> np.ndarray:
        return np.exp(-(y * y) / (4.0 * t)) * g0.fn([y])

    base = fixed_quadrature(base_fn, edges) / vol

    rows = []
    diffs = {}
    for zeta in zeta_list:
        if zeta == 0:
            rows.append(ShiftRow(0.0, 0.0, True))
            diffs[0.0] = 0.0
            continue

        def diff_fn(y: np.ndarray, zeta=zeta) -> np.ndarray:
            # exp(-i z y) - 1 without cancellation
            shift = -2j * np.sin(zeta * y / 2) * np.exp(-1j * zeta * y / 2)
            return np.exp(-(y * y) / (4.0 * t)) * g0.fn([y]) * shift

        d = abs(fixed_quadrature(diff_fn, edges)) / vol
        asserted = abs(zeta) < gap / 2
        rows.append(ShiftRow(float(zeta), d, asserted))
        if asserted:
            diffs[abs(float(zeta))] = d

    floor = 1e-13 * max(1.0, abs(base))
    linear_ok = True
    ordered = sorted(diffs.items())
    for (z1, d1), (z2, d2) in zip(ordered, ordered[1:]):
        if z1 == 0:
            continue
        # within factor 10 of linear scaling, above the noise floor
        if max(d1, floor) > 10.0 * (z1 / z2) * max(d2, floor):
            linear_ok = False
    return ShiftTable(t=t, gap=gap, base_value=base, rows=tuple(rows), linear_ok=linear_ok)


# -- exact-vs-oracle comparison -----------------------------------------


def oracle_comparison(
    report, atlas: FixedPointAtlas, cfg: Optional[MollifierConfig] = None
) -> dict:
    """Compare a symplectic circle reduction report against the mollified
    limit of the same summed series.

    The exact raw coefficient is the residue sum over positive-moment
    points; a contour shift identifies the mollified limit of the full sum
    with 2 pi i times that residue sum.  The oracle-side quotient therefore
    is prefactor * vol * oint / (2 pi i), with vol and prefactor taken from
    the report's own profile so the convention cancels structurally.
    """
    if atlas.geometry != "symplectic" or atlas.group.rank != 1:
        raise ValidationError(
            "oracle comparison is defined for symplectic circle reductions"
        )
    cfg = cfg or MollifierConfig()
    res = mollified_oint(
        atlas_integrand(atlas, eta_mode=report.eta_mode), atlas.group, cfg
    )
    vol = atlas.group.vol.numeric_value().real
    pref = report.prefactor.numeric_value()
    oracle_value = pref * vol * res.estimate / (2j * math.pi)
    exact_value = report.quotient_integral.numeric()
    abs_err = abs(oracle_value - exact_value)
    rel_err = abs_err / max(abs(exact_value), 1e-30)
    return {
        "oracle_value": [oracle_value.real, oracle_value.imag],
        "exact_value": [exact_value.real, exact_value.imag],
        "abs_err": abs_err,
        "rel_err": rel_err,
        "t_ladder": list(cfg.t_ladder),
        "extrapolation": cfg.extrapolation,
        "max_panels": cfg.max_panels,
        "ladder": [r.to_json_dict() for r in res.rows],
    }
