"""Exact coefficient arithmetic: complex rationals, symbolic constants, and
multivariate Laurent series with explicit truncation accounting.

Everything in this module is exact.  Floating point appears only in the
``numeric_value``/``evaluate`` casts used by reports and by the numeric
oracle.  The series type stores finitely many negative-exponent terms plus a
regular part that is trusted only up to a per-variable truncation order, and
every operation propagates that trust honestly: no result ever claims
accuracy beyond what its inputs support.

Truncation bookkeeping for products uses the shifted rule
``T_prod = min(min_exp(a) + T_b, min_exp(b) + T_a)`` per variable, which is
what makes coefficient extraction downstream exact rather than approximately
truncated: a caller who needs the coefficient at exponent -m of N(y)/y^p
expands N to degree p - m, and multiplication by the monomial y^{-p} then
records that the result is trusted exactly through y^{-m}.

A ComplexRational stores its value (p + i q) / d as three ints (p, q, d)
with d > 0 and gcd(p, q, d) = 1, one denominator per coefficient.  On the
reduce path a coefficient stays such a triple end to end: the atlas parser
builds it from the [numerator, denominator] pairs of the text, the closed
form read sums in ints, and ``json_pairs`` writes the pairs back with one
gcd per part.  Fractions remain where values are not series coefficients
(moment values and the ``q`` of a SymbolicConstant) and in the public
``re`` and ``im``, which hand out Fractions.

Series arithmetic builds its results from terms that are already canonical
and wraps them without validating them again (``LaurentSeries._canonical``),
as do the atlas parser and the Euler class, which check their input once
where it enters; the public constructor keeps every check for data from
outside.  One term product, ``_mul_terms``, serves the series product and
the power loops of ``exp_series`` and ``invert_series``, which work on term
dictionaries and sum their powers into one dictionary, so their cost grows
linearly with the number of powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    ConstantTermError,
    InsufficientTruncationError,
    NegativeExponentError,
    NonInvertibleError,
    OddExponentError,
    VariableMismatchError,
)

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    The value (p + i q) / d is stored as one tuple of three ints in normal
    form: d > 0 and gcd(p, q, d) = 1, so zero is (0, 0, 1) and equal values
    have equal representations.  ``re`` and ``im`` are read-only and return
    Fractions.  Each arithmetic result costs a few integer products and one
    gcd.
    """

    __slots__ = ("_v",)

    def __init__(self, re: RationalLike, im: RationalLike):
        re, im = _frac(re), _frac(im)
        a, b = re.denominator, im.denominator
        g = math.gcd(a, b)
        # over the lcm of two reduced denominators, gcd(p, q, d) is already 1
        _set_v(self, (re.numerator * (b // g), im.numerator * (a // g), a // g * b))

    def __setattr__(self, name, value):
        raise AttributeError(f"ComplexRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ComplexRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (ComplexRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        p, _, d = self._v
        return Fraction(p, d)

    @property
    def im(self) -> Fraction:
        _, q, d = self._v
        return Fraction(q, d)

    def json_pairs(self) -> tuple:
        """([re numerator, re denominator], [im numerator, im denominator]),
        each in lowest terms as ``re`` and ``im`` give them, read from the
        triple with one gcd per part and no Fraction."""
        p, q, d = self._v
        g = math.gcd(p, d)
        h = math.gcd(q, d)
        return [p // g, d // g], [q // h, d // h]

    @classmethod
    def zero(cls) -> "ComplexRational":
        return _ZERO

    @classmethod
    def one(cls) -> "ComplexRational":
        return _ONE

    @classmethod
    def i(cls) -> "ComplexRational":
        return _I

    @classmethod
    def of(cls, re: RationalLike, im: RationalLike = 0) -> "ComplexRational":
        return cls(re, im)

    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        v = self._v
        return v[0] != 0 or v[1] != 0

    def __eq__(self, other) -> bool:
        if type(other) is not ComplexRational:
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = _coerce_cr(other)
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        if d1 == d2:
            return _normal(p1 + p2, q1 + q2, d1)
        return _normal(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return self + -_coerce_cr(other)

    def __neg__(self) -> "ComplexRational":
        p, q, d = self._v
        return _make((-p, -q, d))

    def __mul__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = _coerce_cr(other)
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        return _normal(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            other = _coerce_cr(other)
        p1, q1, d1 = self._v
        p2, q2, d2 = other._v
        norm = p2 * p2 + q2 * q2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (p1 + i q1)/d1 * d2 (p2 - i q2) / (p2^2 + q2^2)
        return _normal(
            (p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * norm
        )

    def conjugate(self) -> "ComplexRational":
        p, q, d = self._v
        return _make((p, -q, d))

    def __complex__(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        p, q, d = self._v
        return complex(p / d, q / d)

    def __str__(self) -> str:
        return f"({self.re},{self.im})"

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"


_set_v = ComplexRational._v.__set__
_new_object = object.__new__


def _make(v: tuple) -> ComplexRational:
    """A ComplexRational from a (p, q, d) tuple already in normal form."""
    out = _new_object(ComplexRational)
    _set_v(out, v)
    return out


def _normal(p: int, q: int, d: int) -> ComplexRational:
    """(p + i q) / d for d > 0, reduced to normal form; gcd(0, 0, d) = d
    sends every zero to (0, 0, 1)."""
    g = math.gcd(p, q, d)
    if g != 1:
        return _make((p // g, q // g, d // g))
    return _make((p, q, d))


_ZERO = _make((0, 0, 1))
_ONE = _make((1, 0, 1))
_I = _make((0, 1, 1))


def _coerce_cr(x) -> ComplexRational:
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _make((int(x.numerator), 0, x.denominator))
    raise TypeError(f"cannot interpret {type(x).__name__} as ComplexRational")


@dataclass(frozen=True)
class SymbolicConstant:
    """An exact constant of the form q * i^a * pi^b * sqrt(2)^c.

    q is rational, a is kept in {0,1,2,3} (i^4 = 1, so wrapping the exponent
    changes nothing, and in particular never the sign of q), and even powers
    of sqrt(2) are folded into q so that c is 0 or 1.  That normalization
    makes structural equality canonical.
    """

    q: Fraction
    i_pow: int = 0
    pi_pow: int = 0
    sqrt2_pow: int = 0

    def __post_init__(self):
        q = _frac(self.q)
        i_pow, pi_pow, sqrt2_pow = self.i_pow, self.pi_pow, self.sqrt2_pow
        if q == 0:
            i_pow = pi_pow = sqrt2_pow = 0
        else:
            i_pow %= 4
            # sqrt(2)^(2m + r) = 2^m * sqrt(2)^r with r in {0, 1}
            r = sqrt2_pow % 2
            m = (sqrt2_pow - r) // 2
            if m:
                q *= Fraction(2) ** m
            sqrt2_pow = r
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "i_pow", i_pow)
        object.__setattr__(self, "pi_pow", pi_pow)
        object.__setattr__(self, "sqrt2_pow", sqrt2_pow)

    @classmethod
    def one(cls) -> "SymbolicConstant":
        return cls(Fraction(1))

    @classmethod
    def rational(cls, q: RationalLike) -> "SymbolicConstant":
        return cls(_frac(q))

    def is_zero(self) -> bool:
        return self.q == 0

    def __mul__(self, other: "SymbolicConstant") -> "SymbolicConstant":
        if not isinstance(other, SymbolicConstant):
            return NotImplemented
        return SymbolicConstant(
            self.q * other.q,
            self.i_pow + other.i_pow,
            self.pi_pow + other.pi_pow,
            self.sqrt2_pow + other.sqrt2_pow,
        )

    def inverse(self) -> "SymbolicConstant":
        if self.q == 0:
            raise ZeroDivisionError("inverse of zero SymbolicConstant")
        # 1/i = i^3, 1/sqrt2 = sqrt2 / 2
        return SymbolicConstant(
            Fraction(1, 1) / (self.q * (2 if self.sqrt2_pow else 1)),
            (-self.i_pow) % 4,
            -self.pi_pow,
            self.sqrt2_pow,
        )

    def __pow__(self, n: int) -> "SymbolicConstant":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = SymbolicConstant.one()
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self) -> "SymbolicConstant":
        return SymbolicConstant(-self.q, self.i_pow, self.pi_pow, self.sqrt2_pow)

    def numeric_value(self) -> complex:
        return (
            float(self.q)
            * (1j ** self.i_pow)
            * (math.pi ** self.pi_pow)
            * (math.sqrt(2.0) ** self.sqrt2_pow)
        )

    def text(self) -> str:
        return f"{self.q} * i^{self.i_pow} * pi^{self.pi_pow} * sqrt2^{self.sqrt2_pow}"

    def to_json_dict(self) -> dict:
        return {
            "q": [self.q.numerator, self.q.denominator],
            "i_pow": self.i_pow,
            "pi_pow": self.pi_pow,
            "sqrt2_pow": self.sqrt2_pow,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SymbolicConstant":
        num, den = doc["q"]
        return cls(
            Fraction(num, den),
            int(doc.get("i_pow", 0)),
            int(doc.get("pi_pow", 0)),
            int(doc.get("sqrt2_pow", 0)),
        )


Exponents = tuple  # tuple[int, ...], keyed per variable
Trunc = tuple  # tuple[Optional[int], ...]


def _min_none(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_none(a: Optional[int], b: int) -> Optional[int]:
    return None if a is None else a + b


def _limits(trunc: Trunc) -> tuple:
    """Per-variable upper bound on a kept exponent: the truncation order,
    or infinity where the series is exact."""
    return tuple(math.inf if t is None else t for t in trunc)


def _mul_terms(a_terms: Mapping, b_terms: Mapping, lim: tuple) -> dict:
    """The nonzero terms of the product of two term dictionaries whose
    exponents stay within lim in every variable."""
    terms: dict = {}
    b_items = b_terms.items()
    for ea, ca in a_terms.items():
        for eb, cb in b_items:
            e = tuple(map(add, ea, eb))
            if not all(map(le, e, lim)):
                continue
            prev = terms.get(e)
            terms[e] = ca * cb if prev is None else prev + ca * cb
    # sums can cancel; a product of nonzero coefficients cannot
    return {e: c for e, c in terms.items() if c}


def _accumulate(acc: dict, terms: Mapping) -> None:
    """acc += terms, coefficient by coefficient, in place."""
    for e, c in terms.items():
        prev = acc.get(e)
        if prev is None:
            acc[e] = c
        else:
            c = prev + c
            if c:
                acc[e] = c
            else:
                del acc[e]


class LaurentSeries:
    """Multivariate Laurent series: finitely many terms, each a ComplexRational
    coefficient attached to an integer exponent vector, with a per-variable
    truncation order.

    ``trunc[v] = T`` means the series is trusted through exponent T in
    variable v and says nothing about higher exponents; ``trunc[v] = None``
    means the series is exact in that variable (a Laurent polynomial).  Zero
    coefficients are never stored and terms beyond a truncation order are
    dropped on construction, so structural equality is canonical.
    """

    __slots__ = ("vars", "terms", "trunc")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Optional[Mapping[Exponents, ComplexRational]] = None,
        trunc: Optional[Sequence[Optional[int]]] = None,
    ):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise VariableMismatchError(f"duplicate variable names in {vs}")
        tr = tuple(trunc) if trunc is not None else (None,) * len(vs)
        if len(tr) != len(vs):
            raise VariableMismatchError(
                f"truncation vector length {len(tr)} does not match {len(vs)} variables"
            )
        clean: dict = {}
        repeated = False
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(vs):
                    raise VariableMismatchError(
                        f"exponent vector {exps} does not match variables {vs}"
                    )
                if not isinstance(coeff, ComplexRational):
                    coeff = _coerce_cr(coeff)
                if coeff.is_zero():
                    continue
                if any(t is not None and e > t for e, t in zip(exps, tr)):
                    continue  # beyond declared accuracy: not representable
                if exps in clean:  # two keys that name the same exponents
                    coeff = clean[exps] + coeff
                    repeated = True
                clean[exps] = coeff
        if repeated:
            clean = {e: c for e, c in clean.items() if c}
        self.vars = vs
        self.terms = clean
        self.trunc = tr

    @classmethod
    def _canonical(cls, variables: tuple, terms: dict, trunc: tuple) -> "LaurentSeries":
        """Wrap terms that are already canonical (int-tuple exponents of the
        right length, nonzero ComplexRational coefficients, nothing beyond
        trunc) without checking them again."""
        out = object.__new__(cls)
        out.vars = variables
        out.terms = terms
        out.trunc = trunc
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], trunc=None) -> "LaurentSeries":
        return cls(variables, {}, trunc)

    @classmethod
    def const(cls, variables: Sequence[str], value, trunc=None) -> "LaurentSeries":
        value = _coerce_cr(value)
        k = len(tuple(variables))
        return cls(variables, {(0,) * k: value}, trunc)

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exps: Sequence[int], coeff=1, trunc=None
    ) -> "LaurentSeries":
        return cls(variables, {tuple(exps): _coerce_cr(coeff)}, trunc)

    @classmethod
    def linear_form(
        cls, variables: Sequence[str], covector: Sequence[RationalLike], scale=1
    ) -> "LaurentSeries":
        """sum_a covector[a] * variables[a], optionally scaled."""
        vs = tuple(variables)
        if len(covector) != len(vs):
            raise VariableMismatchError(
                f"covector length {len(covector)} does not match variables {vs}"
            )
        scale = _coerce_cr(scale)
        terms = {}
        for a, w in enumerate(covector):
            c = scale * _coerce_cr(w)
            if c.is_zero():
                continue
            e = [0] * len(vs)
            e[a] = 1
            terms[tuple(e)] = c
        return cls(vs, terms)

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> Exponents:
        """Per-variable minimum exponent present (0 for the empty series)."""
        if not self.terms:
            return (0,) * len(self.vars)
        return tuple(map(min, zip(*self.terms)))

    def has_negative_exponents(self) -> bool:
        return any(any(x < 0 for x in e) for e in self.terms)

    def principal_terms(self) -> dict:
        """Terms with at least one negative exponent."""
        return {e: c for e, c in self.terms.items() if any(x < 0 for x in e)}

    def constant_term(self) -> ComplexRational:
        return self.terms.get((0,) * len(self.vars), ComplexRational.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.terms == other.terms
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items()), self.trunc))

    def _check_same_vars(self, other: "LaurentSeries"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_same_vars(other)
        tr = tuple(_min_none(a, b) for a, b in zip(self.trunc, other.trunc))
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ComplexRational.zero()) + c
        return LaurentSeries(self.vars, terms, tr)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries._canonical(
            self.vars, {e: -c for e, c in self.terms.items()}, self.trunc
        )

    def scale(self, c) -> "LaurentSeries":
        c = _coerce_cr(c)
        if c.is_zero():
            return LaurentSeries.zero(self.vars, self.trunc)
        # a product of nonzero coefficients is nonzero
        return LaurentSeries._canonical(
            self.vars, {e: c * v for e, v in self.terms.items()}, self.trunc
        )

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        self._check_same_vars(other)
        # Trusted order of the product, per variable: an unknown term of one
        # factor (first unknown exponent T+1) multiplies the known minimal
        # exponent of the other.
        ma, mb = self.min_exponent(), other.min_exponent()
        tr = tuple(
            _min_none(_add_none(tb, a_min), _add_none(ta, b_min))
            for ta, tb, a_min, b_min in zip(self.trunc, other.trunc, ma, mb)
        )
        return LaurentSeries._canonical(
            self.vars, _mul_terms(self.terms, other.terms, _limits(tr)), tr
        )

    __rmul__ = __mul__

    # -- coefficient access ---------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> ComplexRational:
        """Exact coefficient at the given exponent vector.

        Reading beyond a variable's truncation order raises
        InsufficientTruncationError naming the order that would be needed.
        Reading below the minimal exponent returns an exact zero (the
        principal part is always complete).
        """
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.vars):
            raise VariableMismatchError(
                f"exponent vector {exps} does not match variables {self.vars}"
            )
        for v, (e, t) in enumerate(zip(exps, self.trunc)):
            if t is not None and e > t:
                raise InsufficientTruncationError(
                    f"coefficient at {self.vars[v]}^{e} requested but series is "
                    f"only trusted through order {t}; recompute with truncation "
                    f"order at least {e}",
                    variable=self.vars[v],
                    requested=e,
                    required=e,
                )
        return self.terms.get(exps, ComplexRational.zero())

    # -- structure maps --------------------------------------------------

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VariableMismatchError(
                f"variable {var!r} not among {self.vars}"
            ) from None

    def even_part(self, var: str) -> "LaurentSeries":
        """Average of the series with its image under var -> -var: keeps the
        terms of even exponent in var, kills the odd ones."""
        v = self._var_index(var)
        terms = {e: c for e, c in self.terms.items() if e[v] % 2 == 0}
        return LaurentSeries._canonical(self.vars, terms, self.trunc)

    def substitute_sqrt(self, var: str, new_name: Optional[str] = None) -> "LaurentSeries":
        """Replace var^2 by a fresh variable: exponents of var are halved.

        Requires every exponent of var to be even (apply even_part first).
        Exact on its domain; the truncation order in the substituted variable
        becomes floor(T/2) because the first untrusted even exponent T' > T
        maps to exponent T'/2.
        """
        v = self._var_index(var)
        for e in self.terms:
            if e[v] % 2 != 0:
                raise OddExponentError(
                    f"substitute_sqrt needs even exponents in {var!r}, found {e[v]}"
                )
        t = self.trunc[v]
        new_tr = self.trunc[:v] + (None if t is None else t // 2,) + self.trunc[v + 1 :]
        terms = {e[:v] + (e[v] // 2,) + e[v + 1 :]: c for e, c in self.terms.items()}
        if new_name is None:
            # halving even exponents keeps them distinct and within the
            # halved order, so the terms are still canonical
            return LaurentSeries._canonical(self.vars, terms, new_tr)
        new_vars = list(self.vars)
        new_vars[v] = new_name
        return LaurentSeries(new_vars, terms, new_tr)

    # -- rendering and numeric evaluation -------------------------------

    def canonical_text(self) -> str:
        """Canonical rendering: "(re,im) y^e z^f" terms joined by " + ",
        sorted lexicographically by exponent vector.  Zero renders as "0"."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            factors = [str(coeff)]
            for v, e in zip(self.vars, exps):
                if e != 0:
                    factors.append(f"{v}^{e}")
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        """Floating evaluation at a point with every variable assigned."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise VariableMismatchError(f"no value supplied for {missing}")
        total = 0j
        for exps in sorted(self.terms):
            term = complex(self.terms[exps])
            for v, e in zip(self.vars, exps):
                if e != 0:
                    term *= point[v] ** e
            total += term
        return total

    def to_json_terms(self) -> list:
        out = []
        for exps in sorted(self.terms):
            re, im = self.terms[exps].json_pairs()
            out.append({"exp": list(exps), "re": re, "im": im})
        return out

    def __repr__(self) -> str:
        return f"LaurentSeries({self.vars}, {self.canonical_text()!r}, trunc={self.trunc})"


# -- module-level operations ---------------------------------------------


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Exact product, truncated to the trust supported by both factors."""
    return a * b


def coeff_extract(f: LaurentSeries, exps: Sequence[int]) -> ComplexRational:
    """Exact coefficient at an exponent vector; see LaurentSeries.coefficient."""
    return f.coefficient(exps)


def even_projector(f: LaurentSeries, var: str) -> LaurentSeries:
    """(1/2)(f(var) + f(-var)): the even part in one variable.

    Idempotent, linear, and the output contains no odd powers of var."""
    return f.even_part(var)


def substitute_sqrt(
    f: LaurentSeries, var: str, new_name: Optional[str] = None
) -> LaurentSeries:
    return f.substitute_sqrt(var, new_name)


def _order_tuple(order, k: int) -> Trunc:
    if isinstance(order, int):
        return (order,) * k
    order = tuple(order)
    if len(order) != k:
        raise VariableMismatchError(
            f"order vector length {len(order)} does not match {k} variables"
        )
    return order


def exp_series(p: LaurentSeries, order) -> LaurentSeries:
    """exp of a polynomial with zero constant term, expanded so that every
    retained monomial coefficient is exact.

    ``order`` is the target truncation order, an integer applied to every
    variable or a per-variable sequence.  Negative exponents are refused, and
    a nonzero constant term is refused because exp of a nonzero rational is
    not a rational (callers split constants off first).  The partial sums
    sum_n p^n / n! are accumulated until p^n can no longer contribute below
    the truncation order, so for a single variable this is exactly the sum
    through n = order.  Each power is built from the last as term
    dictionaries, in one pass that multiplies by p / n and keeps only the
    exponents within the target orders; no series object is made per power.
    """
    k = len(p.vars)
    orders = _order_tuple(order, k)
    for o in orders:
        if o is not None and o < 0:
            raise NegativeExponentError(f"exp target order must be >= 0, got {o}")
    if p.has_negative_exponents():
        raise NegativeExponentError(
            "exp is only defined for series with nonnegative exponents"
        )
    if not p.constant_term().is_zero():
        raise ConstantTermError(
            "exp of a series with nonzero constant term is not rational; "
            "split the constant factor off before exponentiating"
        )
    tr = tuple(_min_none(o, t) for o, t in zip(orders, p.trunc))
    if any(t is None for t in tr):
        # exp of a nonzero polynomial has infinitely many terms in any
        # variable it involves; exactness (None) survives only where p has
        # no dependence at all.
        involved = [False] * k
        for e in p.terms:
            for v, x in enumerate(e):
                if x != 0:
                    involved[v] = True
        tr = tuple(
            t if (t is not None or not involved[v]) else orders[v]
            for v, t in enumerate(tr)
        )
        if any(t is None and involved[v] for v, t in enumerate(tr)):
            raise NegativeExponentError(
                "exp needs a finite truncation order in every involved variable"
            )
    # p^n / n! = (p^(n-1) / (n-1)!) * (p / n), clipped to the target orders:
    # the product rule can report more trust than asked for, which would
    # keep dead high-degree terms alive
    lim = _limits(tr)
    p_items = p.terms.items()
    zero = (0,) * k
    term = {zero: _ONE} if all(map(le, zero, lim)) else {}
    acc = dict(term)
    n = 0
    while term:
        n += 1
        inv_n = _make((1, 0, n))
        term = _mul_terms(term, {e: c * inv_n for e, c in p_items}, lim)
        _accumulate(acc, term)
    return LaurentSeries._canonical(p.vars, acc, tr)


def invert_series(f: LaurentSeries, order) -> LaurentSeries:
    """Laurent inverse of a series of the form monomial * unit.

    The minimal monomial (per-variable minimum exponent) is factored out; the
    remaining part must have a nonzero constant term, otherwise no inverse
    with finitely many negative exponents exists and NonInvertibleError is
    raised.  The unit is inverted by the geometric series to exactly the
    order needed so that the result is trusted through ``order`` in each
    variable.
    """
    if f.is_zero():
        raise NonInvertibleError("cannot invert the zero series")
    k = len(f.vars)
    orders = _order_tuple(order, k)
    m = f.min_exponent()
    u_terms = {tuple(map(sub, e, m)): c for e, c in f.terms.items()}
    u_trunc = tuple(_add_none(t, -mm) for t, mm in zip(f.trunc, m))
    zero = (0,) * k
    c0 = u_terms.pop(zero, None)
    if c0 is None:
        raise NonInvertibleError(
            "series is not a monomial times a unit; its inverse has "
            "unbounded negative exponents and cannot be represented",
            leading_exponents=m,
        )
    # Orders needed for 1/u so that (1/u) * monomial^{-1} is trusted through
    # the requested orders.
    u_orders = tuple(
        None if o is None else o + mm for o, mm in zip(orders, m)
    )
    for v, (t, o) in enumerate(zip(u_trunc, u_orders)):
        if t is not None and (o is None or o > t):
            need = "unbounded" if o is None else str(o)
            raise InsufficientTruncationError(
                f"inverse requested through order {need} in {f.vars[v]} but the "
                f"input only supports {t}",
                variable=f.vars[v],
                requested=-1 if o is None else o,
                required=-1 if o is None else o,
            )
    for e in u_terms:
        for v, x in enumerate(e):
            if x != 0 and u_orders[v] is None:
                raise InsufficientTruncationError(
                    f"inverting a non-monomial series needs a finite order in "
                    f"{f.vars[v]}",
                    variable=f.vars[v],
                    requested=-1,
                    required=-1,
                )
    # 1/u = sum_n (-rest)^n with rest = u/c0 - 1, whose exponents are
    # nonnegative and not all zero, so the geometric series terminates under
    # truncation; a monomial f has no rest and takes no step.
    inv_c0 = _ONE / c0
    neg_rest = {e: -(c * inv_c0) for e, c in u_terms.items()}
    lim = _limits(u_orders)
    term = {zero: _ONE}
    acc = dict(term)
    while term:
        term = _mul_terms(term, neg_rest, lim)
        _accumulate(acc, term)
    # divide by c0 y^m: scale and shift, keeping what the requested orders
    # trust
    lim = _limits(orders)
    terms = {}
    for e, c in acc.items():
        e = tuple(map(sub, e, m))
        if all(map(le, e, lim)):
            terms[e] = c * inv_c0
    return LaurentSeries._canonical(f.vars, terms, orders)
