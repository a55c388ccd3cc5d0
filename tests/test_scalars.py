import operator
import random
from fractions import Fraction

import pytest

from oracles import scalar_from_str
from qflag import _kernel, _poly_py, scalars
from qflag.cartan import FlagSpec
from qflag.errors import DomainError, SpecializationError
from qflag.scalars import (QContext, Scalar, eval_at, exact_root, qbinom,
                           qfact, qint)
from qflag.verify import verify_suite

try:
    from qflag import _poly_cy
except ImportError:           # pragma: no cover - extension not built
    _poly_cy = None

MEMOS = {"fadd": scalars._fadd, "fsub": scalars._fsub,
         "fmul": scalars._fmul, "fdiv": scalars._fdiv}


def test_qint_values():
    # [2] = q^-1 + q, as a reduced fraction over s with L = 1
    assert qint(2) == Scalar.s_power(1) + Scalar.s_power(-1)
    assert str(qint(2)) == "(s^2 + 1)/(s)"
    assert qint(0).is_zero()
    assert qint(1).is_one()


def test_qint_negative_and_symmetry():
    for m in range(-6, 7):
        assert qint(-m) == -qint(m)
    for m in range(1, 6):
        for n in range(1, 6):
            assert qint(m) * qint(n) == qint(n) * qint(m)


def test_qint_eval_oracle():
    # direct arithmetic oracle: [3] at q = 2 is 2^-2 + 1 + 2^2 = 21/4
    assert eval_at(qint(3), q0=Fraction(2)) == Fraction(21, 4)
    # [2] at s0 = 2 (L = 1): 2 + 1/2
    assert eval_at(qint(2), s0=Fraction(2)) == Fraction(5, 2)


def test_qfact():
    assert qfact(0).is_one()
    assert qfact(1).is_one()
    # product oracle from qint
    assert qfact(3) == qint(2) * qint(3)
    assert qfact(5) == qint(2) * qint(3) * qint(4) * qint(5)
    with pytest.raises(DomainError):
        qfact(-1)


def test_qbinom():
    # Gaussian binomial [4 2] = [4]![2]!^-1[2]!^-1 = (q^2+1)(q^-2+1+q^2)... check
    b = qbinom(4, 2)
    assert b == qfact(4) / (qfact(2) * qfact(2))
    assert qbinom(3, 0).is_one() and qbinom(3, 3).is_one()
    assert qbinom(3, 5).is_zero()


def test_eval_errors():
    x = Scalar.one() / (Scalar.s_power(1) - 2)
    with pytest.raises(SpecializationError):
        eval_at(x, s0=Fraction(2))  # pole at an admissible point
    with pytest.raises(DomainError):
        eval_at(Scalar.one() / (Scalar.s_power(1) - 1), q0=Fraction(1))
    with pytest.raises(SpecializationError):
        eval_at(Scalar.one(), q0=Fraction(2), L=2)  # no rational sqrt(2)
    # constants evaluate to themselves at any admissible point
    assert eval_at(Scalar.one(), q0=Fraction(7, 3)) == 1


def test_field_axioms_random():
    rng = random.Random(0)

    def rnd():
        num = Scalar.from_int(rng.randint(-3, 3)) + \
            Scalar.s_power(rng.randint(-2, 2)) * rng.randint(-2, 2)
        den = Scalar.s_power(rng.randint(0, 2)) + rng.randint(1, 2)
        return num / den

    for _ in range(60):
        a, b, c = rnd(), rnd(), rnd()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + (b + c) == (a + b) + c
        if a:
            assert a * (1 / a) == Scalar.one()
            assert (1 / a) * a == 1


def test_canonical_reduction_two_paths():
    # the same value reached along different arithmetic routes has the same
    # canonical representation (tuple equality, not just mathematical ==)
    s = Scalar.s_power
    a = (s(4) - 1) / (s(2) - 1)
    b = s(2) + 1
    assert a._f == b._f
    c = (s(3) + s(1)) / (s(5) + s(3))
    d = 1 / s(2)
    assert c._f == d._f


def test_string_roundtrip():
    rng = random.Random(3)
    samples = [qint(5), qfact(4), Scalar.zero(), Scalar.one(),
               Scalar.from_fraction(Fraction(-7, 3)),
               qint(3, 4) / qint(2, 4), -qint(2) / 3]
    for _ in range(40):
        num = Scalar.from_int(rng.randint(-9, 9)) + \
            Scalar.s_power(rng.randint(-5, 5)) * rng.randint(-5, 5)
        den = Scalar.s_power(rng.randint(0, 4)) * rng.randint(1, 4) + 1
        samples.append(num / den)
    for x in samples:
        assert scalar_from_str(str(x)) == x


def test_context_symbolic_vs_specialized():
    ctx = QContext(3)
    assert ctx.symbolic
    assert ctx.q_power(Fraction(2, 3)) == Scalar.s_power(2)
    with pytest.raises(DomainError):
        ctx.q_power(Fraction(1, 2))
    spec = QContext(2, s0=Fraction(3, 2))
    assert not spec.symbolic
    assert spec.qint(2) == Fraction(9, 4) + Fraction(4, 9)
    assert spec.q_power(1) == Fraction(9, 4)
    hit = QContext(2, s0=Fraction(3, 2))
    for m in range(-4, 5):
        assert hit.qint(m) == eval_at(qint(m, 2), s0=Fraction(3, 2))
    with pytest.raises(DomainError):
        QContext(2, s0=Fraction(1))   # q = 1 excluded
    with pytest.raises(DomainError):
        QContext(1, s0=Fraction(-1))  # q = -1 excluded


def test_mixed_coercion():
    x = qint(2)
    assert x + 0 == x and 0 + x == x
    assert 2 * x == x + x
    assert x - Fraction(1, 2) == x - Scalar.from_fraction(Fraction(1, 2))
    assert (1 / Scalar.from_int(2)) == Scalar.from_fraction(Fraction(1, 2))


def test_exact_root_large_integers():
    # far beyond float range, and exact powers that float roots round away
    assert exact_root(Fraction(10 ** 400), 2) == 10 ** 200
    assert exact_root(Fraction(3 ** 300), 3) == 3 ** 100
    assert exact_root(Fraction(-(7 ** 155), 2 ** 155), 5) == \
        Fraction(-(7 ** 31), 2 ** 31)
    assert exact_root(Fraction(81, 16), 4) == Fraction(3, 2)
    with pytest.raises(SpecializationError):
        exact_root(Fraction(10 ** 401), 2)
    with pytest.raises(SpecializationError):
        exact_root(Fraction(3 ** 300 + 1), 3)


def test_mod_image_is_evaluation_mod_p():
    p, s0 = 1000003, 7
    x = (qint(3) + Scalar.s_power(-2) * 5) / (Scalar.s_power(1) - 2)
    val = eval_at(x, s0=Fraction(s0))
    want = val.numerator * pow(val.denominator, -1, p) % p
    assert x.mod_image(p, s0) == want
    # a pole at the point has no image
    assert (Scalar.one() / (Scalar.s_power(1) - s0)).mod_image(p, s0) is None


def test_mod_image_memo_equals_direct_evaluation():
    # the memoized image against Horner's rule in exact rationals, reduced
    # mod p at the end, at two points; a pole's None is stored and returned
    # on every call, and the memo keeps at most MEMO_SIZE images
    p = 1000003
    memo = scalars._mod_image
    memo.cache_clear()
    rng = random.Random(5)

    def poly():
        return _kernel.pcanon(rng.randint(0, 4), rng.choice([1, 2, 3]), [
            rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])

    def image(v):
        return v.numerator * pow(v.denominator, -1, p) % p

    def direct(x, s0):
        values = []
        for off, step, coeffs in (x.numerator, x.denominator):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * Fraction(s0) ** step + c
            values.append(acc * Fraction(s0) ** off)
        den = image(values[1])
        return image(values[0]) * pow(den, -1, p) % p if den else None

    pool = []
    while len(pool) < 16:
        den = poly()
        if den[2]:
            pool.append(Scalar(_kernel.fmake(poly(), den)))
    # [m] has positive coefficients, so no root at s0 cancels the pole
    poles = {qint(m) / (Scalar.s_power(1) - s0): s0
             for m in (2, 3) for s0 in (7, 8)}
    pool += poles
    for _ in range(400):
        x, s0 = rng.choice(pool), rng.choice([7, 8])
        assert x.mod_image(p, s0) == direct(x, s0)
    assert memo.cache_info().hits
    for x, s0 in poles.items():
        for _ in range(3):
            assert x.mod_image(p, s0) is None
    for k in range(scalars.MEMO_SIZE + 50):
        assert Scalar.from_int(k).mod_image(p, 7) == k
    assert memo.cache_info().currsize == scalars.MEMO_SIZE
    assert all(x.mod_image(p, 7) == direct(x, 7) for x in pool)
    memo.cache_clear()


# -- the per-operation memo ------------------------------------------------


@pytest.fixture
def empty_memos():
    for memo in MEMOS.values():
        memo.cache_clear()
    yield MEMOS
    for memo in MEMOS.values():
        memo.cache_clear()


def hits():
    return {name: memo.cache_info().hits for name, memo in MEMOS.items()}


@pytest.mark.parametrize("backend", [
    _poly_py,
    pytest.param(_poly_cy, marks=pytest.mark.skipif(
        _poly_cy is None, reason="compiled kernel not built"))],
    ids=["pure", "compiled"])
def test_memoized_ops_equal_direct_kernel_calls(backend, monkeypatch,
                                                empty_memos):
    # Scalar reads the kernel through qflag._kernel at call time, so
    # rebinding it there runs the memo on either backend
    for name in MEMOS:
        monkeypatch.setattr(_kernel, name, getattr(backend, name))
    rng = random.Random(7)

    def poly():
        return backend.pcanon(rng.randint(0, 4), rng.choice([1, 2, 3]), [
            rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])

    pool = []
    while len(pool) < 12:
        den = poly()
        if den[2]:
            pool.append(backend.fmake(poly(), den))
    ops = {"fadd": operator.add, "fsub": operator.sub,
           "fmul": operator.mul, "fdiv": operator.truediv}
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        for name, op in ops.items():
            if name == "fdiv" and backend.fis_zero(y):
                continue
            assert op(Scalar(x), Scalar(y))._f == getattr(backend, name)(x, y)
    # a pool of 12 operands repeats pairs, so every memo was read
    assert all(hits().values()), hits()


def test_division_by_zero_raises_every_time(empty_memos):
    x = qint(3)
    for _ in range(3):
        with pytest.raises(ZeroDivisionError):
            x / Scalar.zero()
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Scalar.zero()
    assert MEMOS["fdiv"].cache_info().currsize == 0


def test_int_and_fraction_operands_hit_the_memo(empty_memos):
    x = qint(2) / qint(3)
    half = Fraction(1, 2)
    cases = {"fadd": (lambda: x + 2, lambda: half + x),
             "fsub": (lambda: x - half, lambda: 3 - x),
             "fmul": (lambda: x * 2, lambda: half * x),
             "fdiv": (lambda: x / half, lambda: 3 / x)}
    for name, calls in cases.items():
        for call in calls:
            before = MEMOS[name].cache_info().hits
            first = call()
            assert MEMOS[name].cache_info().hits == before
            assert call() == first
            assert MEMOS[name].cache_info().hits == before + 1, name


def test_memos_stay_bounded_over_a_verify_run(empty_memos):
    scalars._mod_image.cache_clear()
    rep = verify_suite(FlagSpec.parse("A3/2"),
                       ["liouville", "borel-weil", "gamma"])
    assert rep["ok"]
    infos = {name: memo.cache_info() for name, memo in MEMOS.items()}
    assert all(i.maxsize == scalars.MEMO_SIZE for i in infos.values())
    assert all(i.currsize <= i.maxsize for i in infos.values()), infos
    # the run evicts, so the bound was reached, not merely respected
    assert infos["fmul"].currsize == scalars.MEMO_SIZE, infos
    # the mod-p images of the build and block checks share one bound, and
    # most of them are asked for again
    images = scalars._mod_image.cache_info()
    assert images.maxsize == scalars.MEMO_SIZE
    assert images.currsize <= images.maxsize, images
    assert images.hits > images.misses, images
