"""The compiled kernel and the pure fallback must agree bit for bit.

The pure kernel reduces sums, products and quotients by gcds of cofactors,
the compiled one by one gcd of the full product; both must return the
canonical fraction of :mod:`oracles`, which reduces the full product.
"""

import random

import pytest

import oracles
from qflag import _poly_py as P

try:
    from qflag import _poly_cy as C
except ImportError:           # pragma: no cover - extension not built
    C = None

needs_ext = pytest.mark.skipif(C is None, reason="compiled kernel not built")


def rnd_poly(rng, maxlen=6):
    off = rng.randint(0, 5)
    step = rng.choice([1, 2, 3, 4])
    return P.pcanon(off, step,
                    [rng.randint(-7, 7) for _ in range(rng.randint(1, maxlen))])


def rnd_nonzero(rng, maxlen=4):
    while True:
        p = rnd_poly(rng, maxlen)
        if not P.pis_zero(p):
            return p


def shared_factor_pairs(rng, n):
    """Pairs x = af/(bgh), y = cg/(dfh), with f, g, h shared across the
    operands, and (x + y, -y), whose sum cancels a factor of the shared
    denominator part."""
    pairs = []
    while len(pairs) < n:
        f, g, h, b, d = (rnd_nonzero(rng, 3) for _ in range(5))
        a, c = rnd_poly(rng, 4), rnd_poly(rng, 4)
        k = P.pconst(rng.choice([1, 1, 2, 3, 6, -4]))
        x = oracles.fmake(P.pmul(a, f), P.pmul(P.pmul(b, g), h))
        y = oracles.fmake(P.pmul(P.pmul(c, g), k), P.pmul(P.pmul(d, f), h))
        pairs += [(x, y), (oracles.fadd(x, y), P.fneg(y))]
    return pairs


def assert_ops_match_oracle(x, y):
    assert P.fadd(x, y) == oracles.fadd(x, y)
    assert P.fsub(x, y) == oracles.fadd(x, P.fneg(y))
    assert P.fmul(x, y) == oracles.fmul(x, y)
    if P.fis_zero(y):
        with pytest.raises(ZeroDivisionError):
            P.fdiv(x, y)
    else:
        assert P.fdiv(x, y) == oracles.fdiv(x, y)


def q_int(n):
    """[n] = (s^(2n) - 1)/(s^(n-1) (s^2 - 1)) as numerator and denominator."""
    return P.pcanon(0, 2, [1] * n), P.pmono(1, n - 1)


S = P.pmono(1, 1)


def poly(*coeffs):
    return P.pcanon(0, 1, list(coeffs))


def frac(num, den):
    return oracles.fmake(num, den)


def test_fraction_ops_on_cases_where_each_step_matters():
    q2, q3, q5 = (frac(*q_int(n)) for n in (2, 3, 5))
    cases = [
        # equal denominators, and a sum whose numerator shares a factor
        # with them: (s + 1)/(s^2 - 1) -> 1/(s - 1)
        (frac(S, poly(-1, 0, 1)), frac(P.P_ONE, poly(-1, 0, 1))),
        # coprime denominators
        (frac(P.P_ONE, poly(1, 1)), frac(P.P_ONE, poly(2, 1))),
        # denominators sharing the q-integer [2]: [2][3] against [2][5]
        (oracles.fdiv(P.F_ONE, oracles.fmul(q2, q3)),
         oracles.fdiv(P.F_ONE, oracles.fmul(q2, q5))),
        (oracles.fdiv(frac(S, P.P_ONE), oracles.fmul(q2, q3)),
         oracles.fdiv(frac(poly(0, 0, 3), P.P_ONE), oracles.fmul(q2, q5))),
        # the shared factor s + 1 divides the sum's numerator too:
        # 1/((s+1)(s+2)) - 2/((s+1)(s+3)) = -1/((s+2)(s+3))
        (frac(P.P_ONE, poly(2, 3, 1)), frac(P.pconst(-2), poly(3, 4, 1))),
        # monomial denominators c s^k
        (frac(P.pconst(3), P.pmono(2, 2)), frac(P.pconst(5), P.pmono(4, 3))),
        (frac(poly(1, 1), P.pmono(6, 1)), frac(poly(1, -1), P.pmono(4, 1))),
        # integer contents: (2s+2)/4 * 6/(3s) = (s+1)/s
        (frac(poly(2, 2), P.pconst(4)), frac(P.pconst(6), P.pmono(3, 1))),
        (frac(P.P_ONE, P.pconst(2)), frac(P.P_ONE, P.pmono(2, 1))),
        # a negative leading coefficient left after a cofactor division
        (frac(P.P_ONE, S), frac(poly(1, -1), poly(2, 1))),
        (frac(poly(3, -2), poly(1, 1)), frac(poly(1, 0, -1), poly(0, 2))),
        # s-powers that cancel across operands
        (frac(P.pmono(1, 3), poly(1, 1)), frac(poly(2, 1), P.pmono(1, 5))),
        (frac(P.pmono(2, 4), poly(1, 0, 1)), frac(poly(1, 0, 1), P.pmono(3, 2))),
    ]
    for x, y in cases:
        assert_ops_match_oracle(x, y)
        assert_ops_match_oracle(y, x)
    assert P.fmul(*cases[7]) == frac(poly(1, 1), S)
    assert P.fadd(*cases[4]) == frac(P.pconst(-1), poly(6, 5, 1))
    assert P.fdiv(*cases[9]) == frac(poly(2, 1), poly(0, 1, -1))
    # sums that cancel to zero, and division by zero
    for x, _ in cases:
        assert P.fadd(x, P.fneg(x)) == P.F_ZERO
        assert P.fsub(x, x) == P.F_ZERO
        assert_ops_match_oracle(x, P.F_ZERO)
        assert_ops_match_oracle(P.F_ZERO, x)
        with pytest.raises(ZeroDivisionError):
            oracles.fdiv(x, P.F_ZERO)
    with pytest.raises(ZeroDivisionError):
        P.fdiv(P.F_ZERO, P.F_ZERO)


def test_fraction_ops_with_shared_factors_match_oracle():
    for x, y in shared_factor_pairs(random.Random(45), 600):
        assert_ops_match_oracle(x, y)


@needs_ext
def test_poly_ops_parity():
    rng = random.Random(42)
    for _ in range(1500):
        a, b = rnd_poly(rng), rnd_poly(rng)
        assert P.padd(a, b) == C.padd(a, b)
        assert P.psub(a, b) == C.psub(a, b)
        assert P.pmul(a, b) == C.pmul(a, b)
        assert P.pgcd(a, b) == C.pgcd(a, b)
        m = P.pmul(a, b)
        if not P.pis_zero(b):
            assert P.pdivexact(m, b) == C.pdivexact(m, b)


@needs_ext
def test_fraction_ops_parity():
    rng = random.Random(43)
    for _ in range(800):
        a, b, c, d = (rnd_poly(rng) for _ in range(4))
        if P.pis_zero(b) or P.pis_zero(d):
            continue
        x = P.fmake(a, b)
        y = P.fmake(c, d)
        assert x == C.fmake(a, b)
        assert P.fadd(x, y) == C.fadd(x, y)
        assert P.fmul(x, y) == C.fmul(x, y)
        if not P.fis_zero(y):
            assert P.fdiv(x, y) == C.fdiv(x, y)


@needs_ext
def test_fraction_ops_parity_with_shared_factors():
    # the pure kernel's cofactor reduction against the compiled kernel's
    # full-product reduction, where the two take different paths
    for x, y in shared_factor_pairs(random.Random(46), 600):
        assert P.fadd(x, y) == C.fadd(x, y)
        assert P.fsub(x, y) == C.fsub(x, y)
        assert P.fmul(x, y) == C.fmul(x, y)
        if not P.fis_zero(y):
            assert P.fdiv(x, y) == C.fdiv(x, y)


def test_canonical_invariants_pure():
    rng = random.Random(44)
    for _ in range(500):
        a, b = rnd_poly(rng), rnd_poly(rng)
        if P.pis_zero(b):
            continue
        num, den = P.fmake(a, b)
        assert (num, den) == oracles.fmake(a, b)
        if P.pis_zero(num):
            assert (num, den) == P.F_ZERO
            continue
        # coprime, no shared s-power, positive denominator lead, maximal step
        assert min(num[0], den[0]) == 0
        assert den[2][-1] > 0
        g = P.pgcd(num, den)
        assert g == (0, 1, (1,))
        from math import gcd
        assert gcd(P.pcontent(num), P.pcontent(den)) == 1
        for p in (num, den):
            if len(p[2]) > 1:
                assert p[2][0] != 0 and p[2][-1] != 0
