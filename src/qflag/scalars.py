"""Exact scalars: the field Q(s) of rational functions in a formal variable s.

The deformation parameter is q = s**L for a positive integer L fixed by the
Lie type (see :func:`qflag.cartan.lattice_denominator`), so that every needed
power q**(a/L) is an integer power of s.  A :class:`Scalar` is a reduced
fraction of integer-coefficient polynomials in s (see ``qflag._poly_py`` for
the canonical form); two scalars are equal iff their representations are.

:class:`QContext` bundles L with an arithmetic mode: symbolic (values are
Scalars) or specialized at an exact rational point s0 (values are Fractions).
Downstream code is written against the shared field interface (+, -, *, /,
truthiness as a zero test), so both modes run through identical code paths.

The four binary operations of :class:`Scalar` go through one bounded LRU
memo each (:data:`MEMO_SIZE` entries), keyed by the kernel's canonical
operand pairs.  The canonical form is unique and the kernel operations are
pure, so a hit returns exactly what the kernel would; an exception (division
by zero) is never stored and is raised again on every call.  Each memo calls
the kernel through ``qflag._kernel`` at call time, so a wrapper bound there
sees every operation the kernel performs and no memo hit.

:meth:`Scalar.mod_image` goes through a fifth memo of the same size, keyed
by the canonical fraction, the prime and the point: a module build and the
block checks of :class:`qflag.linalg.BlockInverse` ask for the images of a
few hundred distinct scalars tens of thousands of times.  The image is a
pure function of its key, and a pole's ``None`` is a value like any other,
so it is stored too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import _kernel as K
from .errors import DomainError, SpecializationError

# Entries per operation memo, chosen by memory: at 2048 the peak RSS of
# perfbench's default6 rose from 27.1 to 30.7 MB for 5% less wall time
# (pure kernel, 2-vCPU host; BENCH_18.json).
MEMO_SIZE = 512


@lru_cache(maxsize=MEMO_SIZE)
def _fadd(x, y):
    return K.fadd(x, y)


@lru_cache(maxsize=MEMO_SIZE)
def _fsub(x, y):
    return K.fsub(x, y)


@lru_cache(maxsize=MEMO_SIZE)
def _fmul(x, y):
    return K.fmul(x, y)


@lru_cache(maxsize=MEMO_SIZE)
def _fdiv(x, y):
    return K.fdiv(x, y)


@lru_cache(maxsize=MEMO_SIZE)
def _mod_image(f, p, s0):
    den = _poly_mod(f[1], p, s0)
    if not den:
        return None
    return _poly_mod(f[0], p, s0) * pow(den, -1, p) % p


class Scalar:
    """An element of Q(s), immutable and canonically reduced."""

    __slots__ = ("_f",)

    def __init__(self, frac):
        self._f = frac

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar((K.pconst(n), K.P_ONE))

    @staticmethod
    def from_fraction(x) -> "Scalar":
        x = Fraction(x)
        return Scalar(K.fmake(K.pconst(x.numerator), K.pconst(x.denominator)))

    @staticmethod
    def s_power(e: int) -> "Scalar":
        """The monomial s**e (e may be negative)."""
        if e >= 0:
            return Scalar((K.pmono(1, e), K.P_ONE))
        return Scalar((K.P_ONE, K.pmono(1, -e)))

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        if isinstance(x, Fraction):
            return Scalar.from_fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- structure ----------------------------------------------------------

    @property
    def numerator(self):
        return self._f[0]

    @property
    def denominator(self):
        return self._f[1]

    def is_zero(self) -> bool:
        return K.fis_zero(self._f)

    def is_one(self) -> bool:
        return self._f == K.F_ONE

    def complexity(self) -> int:
        """Term-count proxy; :func:`qflag.linalg.eliminate` orders rows by
        its sum over their entries, cheapest first."""
        return len(self._f[0][2]) + len(self._f[1][2])

    def __bool__(self):
        return not K.fis_zero(self._f)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._f == other._f
        if isinstance(other, (int, Fraction)):
            return self._f == Scalar.coerce(other)._f
        return NotImplemented

    def __hash__(self):
        return hash(self._f)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Scalar):
            return Scalar(_fadd(self._f, other._f))
        if isinstance(other, (int, Fraction)):
            return Scalar(_fadd(self._f, Scalar.coerce(other)._f))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Scalar(K.fneg(self._f))

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return Scalar(_fsub(self._f, other._f))
        if isinstance(other, (int, Fraction)):
            return Scalar(_fsub(self._f, Scalar.coerce(other)._f))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(_fsub(Scalar.coerce(other)._f, self._f))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(_fmul(self._f, other._f))
        if isinstance(other, (int, Fraction)):
            return Scalar(_fmul(self._f, Scalar.coerce(other)._f))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return Scalar(_fdiv(self._f, other._f))
        if isinstance(other, (int, Fraction)):
            return Scalar(_fdiv(self._f, Scalar.coerce(other)._f))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(_fdiv(Scalar.coerce(other)._f, self._f))
        return NotImplemented

    # -- evaluation and io --------------------------------------------------

    def eval(self, s0: Fraction) -> Fraction:
        """Exact value at s = s0; raises SpecializationError on a pole."""
        num = _poly_eval(self._f[0], s0)
        den = _poly_eval(self._f[1], s0)
        if den == 0:
            raise SpecializationError(f"denominator vanishes at s = {s0}")
        return num / den

    def mod_image(self, p: int, s0: int):
        """Image in Z/p at s = s0, or None when the denominator vanishes."""
        return _mod_image(self._f, p, s0)

    def __str__(self):
        num, den = self._f
        if den == K.P_ONE:
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"

    def __repr__(self):
        return f"Scalar({self})"


_ZERO = Scalar(K.F_ZERO)
_ONE = Scalar(K.F_ONE)


def _poly_eval(p, s0: Fraction) -> Fraction:
    off, step, coeffs = p
    if not coeffs:
        return Fraction(0)
    acc = Fraction(0)
    t = s0 ** step
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc * s0 ** off


def _poly_mod(poly, p: int, s0: int) -> int:
    off, step, coeffs = poly
    acc = 0
    t = pow(s0, step, p)
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc * pow(s0, off, p) % p


def _poly_str(p) -> str:
    off, step, coeffs = p
    if not coeffs:
        return "0"
    parts = []
    for t in range(len(coeffs) - 1, -1, -1):
        c = coeffs[t]
        if not c:
            continue
        e = off + t * step
        if e == 0:
            term = str(abs(c))
        else:
            base = "s" if e == 1 else f"s^{e}"
            term = base if abs(c) == 1 else f"{abs(c)}*{base}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


# -- quantum integers -------------------------------------------------------


def qint(m: int, L: int = 1) -> Scalar:
    """The quantum integer [m] = q^(1-m) + q^(3-m) + ... + q^(m-1), q = s**L."""
    if m == 0:
        return _ZERO
    n = abs(m)
    p = ((1 - n) * L, 2 * L, (1,) * n) if n > 1 else (0, 1, (1,))
    x = Scalar(K.fmake(p, K.P_ONE))
    return x if m > 0 else -x


def qfact(n: int, L: int = 1) -> Scalar:
    """The quantum factorial [n]! with [0]! = 1."""
    if n < 0:
        raise DomainError("quantum factorial of a negative integer")
    acc = _ONE
    for m in range(2, n + 1):
        acc = acc * qint(m, L)
    return acc


def qbinom(n: int, k: int, L: int = 1) -> Scalar:
    """Gaussian binomial [n choose k]."""
    if k < 0 or k > n:
        return _ZERO
    return qfact(n, L) / (qfact(k, L) * qfact(n - k, L))


def _iroot(a: int, n: int) -> int:
    """Floor of the n-th root of an integer a >= 0, in integers only."""
    if n == 2:
        return isqrt(a)
    if a < 2:
        return a
    # Newton iteration from above: 2**ceil(bits/n) >= a**(1/n)
    r = 1 << -(-a.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + a // r ** (n - 1)) // n
        if nxt >= r:
            return r
        r = nxt


def exact_root(x: Fraction, n: int) -> Fraction:
    """Exact n-th root of a rational, or raise SpecializationError."""
    x = Fraction(x)
    if n <= 0:
        raise DomainError("root order must be positive")
    if n == 1:
        return x
    if x < 0 and n % 2 == 0:
        raise SpecializationError(f"{x} has no rational {n}-th root")

    def iroot(a: int) -> int:
        r = _iroot(a, n)
        if r ** n != a:
            raise SpecializationError(f"{a} is not an exact {n}-th power")
        return r

    sign = -1 if x < 0 else 1
    return Fraction(sign * iroot(abs(x.numerator)), iroot(x.denominator))


def eval_at(x: Scalar, q0: Fraction | None = None, s0: Fraction | None = None,
            L: int = 1) -> Fraction:
    """Exact rational value of x at q = q0 (equivalently s = s0 = q0**(1/L)).

    One of q0, s0 must be given; q0 must admit an exact rational L-th root
    unless s0 is supplied directly.
    """
    if s0 is None:
        if q0 is None:
            raise DomainError("supply q0 or s0")
        s0 = exact_root(Fraction(q0), L)
    s0 = Fraction(s0)
    q0 = s0 ** L
    if q0 in (-1, 0, 1):
        raise DomainError("q must avoid -1, 0, 1")
    return x.eval(s0)


class QContext:
    """Arithmetic context: q = s**L, symbolic or specialized at s = s0."""

    __slots__ = ("L", "s0", "zero", "one", "_qpow")

    def __init__(self, L: int, s0: Fraction | None = None):
        if L < 1:
            raise DomainError("L must be a positive integer")
        self.L = L
        self.s0 = Fraction(s0) if s0 is not None else None
        if self.s0 is not None:
            q0 = self.s0 ** L
            if q0 in (-1, 0, 1) or self.s0 == 0:
                raise DomainError("specialization point must avoid q in {-1,0,1}")
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = _ZERO
            self.one = _ONE
        self._qpow = {}

    @property
    def symbolic(self) -> bool:
        return self.s0 is None

    def describe(self) -> dict:
        mode = "symbolic" if self.symbolic else f"s0={self.s0}"
        return {"L": self.L, "mode": mode}

    def s_power(self, e: int):
        if self.s0 is not None:
            return self.s0 ** e
        v = self._qpow.get(e)
        if v is None:
            v = Scalar.s_power(e)
            self._qpow[e] = v
        return v

    def q_power(self, e):
        """q**e for an integer or Fraction exponent e with L*e integral."""
        se = e * self.L
        if isinstance(se, Fraction):
            if se.denominator != 1:
                raise DomainError(f"exponent {e} not in (1/{self.L})Z")
            se = se.numerator
        return self.s_power(se)

    def qint(self, m: int, d: int = 1):
        x = qint(m, self.L * d)
        return x.eval(self.s0) if self.s0 is not None else x

    def qfact(self, n: int, d: int = 1):
        x = qfact(n, self.L * d)
        return x.eval(self.s0) if self.s0 is not None else x

    def qbinom(self, n: int, k: int, d: int = 1):
        x = qbinom(n, k, self.L * d)
        return x.eval(self.s0) if self.s0 is not None else x

    def from_fraction(self, x):
        x = Fraction(x)
        return x if self.s0 is not None else Scalar.from_fraction(x)
