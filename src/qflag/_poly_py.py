"""Pure-Python kernel for arithmetic in Z[s] and canonical fractions over it.

A polynomial is a triple ``(off, step, coeffs)`` of ints/int-tuples encoding

    sum(coeffs[t] * s**(off + t*step) for t in range(len(coeffs)))

with the canonical invariants: ``coeffs`` empty only for the zero polynomial
(stored as ``(0, 1, ())``); otherwise ``coeffs[0] != 0``, ``coeffs[-1] != 0``,
``step >= 1``, ``step == 1`` when there is a single term, and ``step`` maximal
(the gcd of the exponent gaps).  The stride keeps arithmetic compact when all
exponents share a lattice, which is the common case here: most values live in
Z[q] = Z[s**L] inside Q(s).

A fraction is a pair ``(num, den)`` of polynomials with: den nonzero, num zero
only as ``(P_ZERO, P_ONE)``, no common s-power (min valuation 0), primitive
gcd 1, integer contents coprime, and den leading coefficient positive.  This
makes equality of fractions a tuple comparison.

Sums, products and quotients of canonical fractions never take a gcd of a
product of two operands; they reduce by gcds of the factors instead
(Henrici, "A subroutine for computations with rational numbers", JACM 1956;
Knuth, TAOCP vol. 2, 4.5.1).  Since a/b and c/d are coprime pairs,

    (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)),  g1 = (a, d), g2 = (c, b),

and with g = (b, d) and t = a(d/g) + c(b/g), gcd(t, bd/g) = gcd(t, g), so

    a/b + c/d = (t/g2) / ((b/g)(d/g2)),  g2 = (t, g),

which needs no polynomial gcd at all when g = 1.  What is left is the
common integer content and the sign of the denominator.

The compiled twin ``qflag._poly_cy`` implements the same surface but still
reduces the full product by one gcd, since its ``.c`` can only be
regenerated from the ``.pyx`` with Cython.  The canonical form is unique, so
both return the same fraction; ``tests/test_kernel_parity.py`` cross-checks
them on operands with shared factors.  See ``qflag._kernel`` for backend
selection.
"""

from math import gcd

KERNEL = "python"

P_ZERO = (0, 1, ())
P_ONE = (0, 1, (1,))
F_ZERO = (P_ZERO, P_ONE)
F_ONE = (P_ONE, P_ONE)


def pcanon(off, step, coeffs):
    """Canonicalize a raw (off, step, coeff-list) triple."""
    first = -1
    last = -1
    for t, c in enumerate(coeffs):
        if c:
            if first < 0:
                first = t
            last = t
    if first < 0:
        return P_ZERO
    if first == last:
        return (off + first * step, 1, (coeffs[first],))
    g = 0
    for t in range(first, last + 1):
        if coeffs[t]:
            g = gcd(g, t - first)
    if g == 1:
        return (off + first * step, step, tuple(coeffs[first:last + 1]))
    return (off + first * step, step * g,
            tuple(coeffs[first + t * g] for t in range((last - first) // g + 1)))


def pis_zero(p):
    return not p[2]


def pdeg(p):
    """Largest exponent, -1 for zero."""
    if not p[2]:
        return -1
    return p[0] + (len(p[2]) - 1) * p[1]


def pval(p):
    """Smallest exponent (valuation), 0 for zero."""
    return p[0]


def pconst(c):
    if c == 0:
        return P_ZERO
    return (0, 1, (c,))


def pmono(c, e):
    if c == 0:
        return P_ZERO
    return (e, 1, (c,))


def pneg(p):
    if not p[2]:
        return p
    return (p[0], p[1], tuple(-c for c in p[2]))


def pscale(p, c):
    if c == 0 or not p[2]:
        return P_ZERO
    if c == 1:
        return p
    return (p[0], p[1], tuple(c * a for a in p[2]))


def _estep(p):
    # effective step: 0 for monomials, else the stored step
    return p[1] if len(p[2]) > 1 else 0


def padd(a, b):
    if not a[2]:
        return b
    if not b[2]:
        return a
    oa, sa, ca = a
    ob, sb, cb = b
    if oa == ob and sa == sb:
        n = max(len(ca), len(cb))
        out = list(ca) + [0] * (n - len(ca))
        for t, c in enumerate(cb):
            out[t] += c
        return pcanon(oa, sa, out)
    g = gcd(gcd(_estep(a), _estep(b)), oa - ob)
    base = min(oa, ob)
    if g == 0:
        # both monomials at the same exponent
        return pcanon(base, 1, [ca[0] + cb[0]])
    top = max(pdeg(a), pdeg(b))
    out = [0] * ((top - base) // g + 1)
    ka = (oa - base) // g
    ra = sa // g if len(ca) > 1 else 0
    for t, c in enumerate(ca):
        out[ka + t * ra] += c
    kb = (ob - base) // g
    rb = sb // g if len(cb) > 1 else 0
    for t, c in enumerate(cb):
        out[kb + t * rb] += c
    return pcanon(base, g, out)


def psub(a, b):
    return padd(a, pneg(b))


def _expand(coeffs, ratio):
    if ratio <= 1:
        return list(coeffs)
    out = [0] * ((len(coeffs) - 1) * ratio + 1)
    for t, c in enumerate(coeffs):
        out[t * ratio] = c
    return out


def pmul(a, b):
    if not a[2] or not b[2]:
        return P_ZERO
    oa, sa, ca = a
    ob, sb, cb = b
    if len(ca) == 1:
        c = ca[0]
        return (oa + ob, sb, tuple(c * x for x in cb)) if len(cb) > 1 else \
            (oa + ob, 1, (c * cb[0],))
    if len(cb) == 1:
        c = cb[0]
        return (oa + ob, sa, tuple(c * x for x in ca))
    if sa == sb:
        g = sa
        la, lb = list(ca), list(cb)
    else:
        g = gcd(sa, sb)
        la = _expand(ca, sa // g)
        lb = _expand(cb, sb // g)
    if len(la) < len(lb):
        la, lb = lb, la
    out = [0] * (len(la) + len(lb) - 1)
    for j, bj in enumerate(lb):
        if bj:
            for i, ai in enumerate(la):
                if ai:
                    out[i + j] += ai * bj
    return pcanon(oa + ob, g, out)


def pcontent(p):
    c = 0
    for a in p[2]:
        c = gcd(c, a)
        if c == 1:
            return 1
    return c


def _dprim(A):
    c = 0
    for a in A:
        c = gcd(c, a)
        if c == 1:
            return list(A)
    if c <= 1:
        return list(A)
    return [a // c for a in A]


def _dprem(A, B):
    """Pseudo-remainder lc(B)**(degA-degB+1) * A mod B on dense int lists."""
    dB = len(B) - 1
    d = B[-1]
    R = list(A)
    e = len(A) - len(B) + 1
    while R and len(R) - 1 >= dB:
        lt = R[-1]
        R = [d * c for c in R[:-1]]
        off = len(R) - dB
        for k in range(dB):
            R[off + k] -= lt * B[k]
        while R and R[-1] == 0:
            R.pop()
        e -= 1
    if e > 0 and R:
        f = d ** e
        R = [c * f for c in R]
    return R


def _dgcd(A, B):
    """Primitive gcd of dense int lists via the subresultant PRS."""
    A = _dprim(A)
    B = _dprim(B)
    if len(A) < len(B):
        A, B = B, A
    g = 1
    h = 1
    while True:
        d = len(A) - len(B)
        R = _dprem(A, B)
        if not R:
            break
        if len(R) == 1:
            B = [1]
            break
        A, B = B, [c // (g * h ** d) for c in R]
        g = A[-1]
        if d == 1:
            h = g
        elif d > 1:
            h = g ** d // h ** (d - 1)
    B = _dprim(B)
    if B[-1] < 0:
        B = [-c for c in B]
    return B


def pgcd(a, b):
    """Primitive gcd in Z[s], positive leading coefficient; pgcd(0, b) ~ b."""
    if not a[2]:
        if not b[2]:
            return P_ZERO
        c = pcontent(b)
        p = b if c == 1 else (b[0], b[1], tuple(x // c for x in b[2]))
        return pneg(p) if p[2][-1] < 0 else p
    if not b[2]:
        return pgcd(b, a)
    v = min(a[0], b[0])
    ea, eb = _estep(a), _estep(b)
    if ea == 0 and eb == 0:
        return (v, 1, (1,))
    if ea == 0 or eb == 0:
        # one factor is a monomial: gcd is a plain power of s
        return (v, 1, (1,))
    g = gcd(ea, eb)
    la = _expand(a[2], ea // g)
    lb = _expand(b[2], eb // g)
    return pcanon(v, g, _dgcd(la, lb))


def _ddivexact(A, B):
    dB = len(B) - 1
    b = B[-1]
    R = list(A)
    n = len(A) - len(B) + 1
    Q = [0] * n
    for i in range(n - 1, -1, -1):
        c = R[i + dB]
        if c:
            q, rem = divmod(c, b)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            Q[i] = q
            for k in range(dB + 1):
                R[i + k] -= q * B[k]
    if any(R):
        raise ArithmeticError("inexact polynomial division")
    return Q


def pdivexact(a, b):
    """Exact quotient a/b in Z[s] (raises ArithmeticError if not exact)."""
    if not b[2]:
        raise ZeroDivisionError("polynomial division by zero")
    if not a[2]:
        return P_ZERO
    off = a[0] - b[0]
    if off < 0:
        raise ArithmeticError("inexact polynomial division")
    if len(b[2]) == 1:
        d = b[2][0]
        out = []
        for c in a[2]:
            q, rem = divmod(c, d)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            out.append(q)
        return (off, a[1], tuple(out))
    ea, eb = _estep(a), _estep(b)
    if ea == 0:
        raise ArithmeticError("inexact polynomial division")
    g = gcd(ea, eb)
    la = _expand(a[2], ea // g)
    lb = _expand(b[2], eb // g)
    return pcanon(off, g, _ddivexact(la, lb))


def _pquo(p, g):
    """p/g for a divisor g from pgcd: a power of s is a shift."""
    if g == P_ONE:
        return p
    if len(g[2]) == 1:
        return (p[0] - g[0], p[1], p[2])
    return pdivexact(p, g)


def _fnormal(num, den):
    """Finish a fraction whose parts are coprime in Z[s] up to content."""
    c = gcd(pcontent(num), pcontent(den))
    if c > 1:
        num = (num[0], num[1], tuple(x // c for x in num[2]))
        den = (den[0], den[1], tuple(x // c for x in den[2]))
    if den[2][-1] < 0:
        num = pneg(num)
        den = pneg(den)
    return (num, den)


def fmake(num, den):
    """Canonical fraction from a numerator/denominator pair."""
    if not den[2]:
        raise ZeroDivisionError("zero denominator")
    if not num[2]:
        return F_ZERO
    v = min(num[0], den[0])
    if v:
        num = (num[0] - v, num[1], num[2])
        den = (den[0] - v, den[1], den[2])
    g = pgcd(num, den)
    return _fnormal(_pquo(num, g), _pquo(den, g))


def fis_zero(f):
    return not f[0][2]


def fneg(f):
    return (pneg(f[0]), f[1])


def _fmul_parts(a, b, c, d):
    """(a/b)(c/d) for coprime pairs (a, b) and (c, d), c and d nonzero."""
    g1 = pgcd(a, d)
    g2 = pgcd(c, b)
    return _fnormal(pmul(_pquo(a, g1), _pquo(c, g2)),
                    pmul(_pquo(b, g2), _pquo(d, g1)))


def fadd(x, y):
    nx, dx = x
    ny, dy = y
    if not nx[2]:
        return y
    if not ny[2]:
        return x
    if dx == dy:
        return fmake(padd(nx, ny), dx)
    # t != 0, since x = -y would have dy == dx; gcd(t, bd/g) = gcd(t, g),
    # which pgcd returns at once when g = 1
    g = pgcd(dx, dy)
    bx = _pquo(dx, g)
    t = padd(pmul(nx, _pquo(dy, g)), pmul(ny, bx))
    g2 = pgcd(t, g)
    return _fnormal(_pquo(t, g2), pmul(bx, _pquo(dy, g2)))


def fsub(x, y):
    return fadd(x, fneg(y))


def fmul(x, y):
    nx, dx = x
    ny, dy = y
    if not nx[2] or not ny[2]:
        return F_ZERO
    return _fmul_parts(nx, dx, ny, dy)


def fdiv(x, y):
    ny, dy = y
    if not ny[2]:
        raise ZeroDivisionError("division by zero scalar")
    nx, dx = x
    if not nx[2]:
        return F_ZERO
    return _fmul_parts(nx, dx, dy, ny)
