"""The sparse elimination engine against the dense reference of oracles.py."""

import random
from fractions import Fraction

import pytest

from oracles import dense_nullspace, dense_rref, dense_solve
from qflag import linalg
from qflag.cartan import LieType
from qflag.errors import ConventionError
from qflag.linalg import (MOD_POINT, column_rank_profile, eliminate,
                          invert_dense, mod_row_profile, nullspace,
                          solve_unique)
from qflag.reps import context_for

CTX = context_for(LieType.parse("A1"))


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def scalar_entry(rng):
    acc = CTX.zero
    for _ in range(rng.randint(1, 2)):
        acc = acc + CTX.s_power(rng.randint(-2, 2)) * rng.randint(-3, 3)
    return acc / (CTX.s_power(rng.randint(0, 1)) + rng.randint(1, 2))


FIELDS = [(Fraction(1), fraction_entry), (CTX.one, scalar_entry)]


def random_dense(rng, nrows, ncols, entry, zero, density=0.35):
    return [[entry(rng) if rng.random() < density else zero
             for _ in range(ncols)] for _ in range(nrows)]


def sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def to_dense(vec, ncols, zero):
    return tuple(vec.get(c, zero) for c in range(ncols))


def with_dependent_rows(rng, dense, extra):
    """Append random combinations of the rows (rank stays the same)."""
    out = [list(r) for r in dense]
    for _ in range(extra):
        a, b = rng.randrange(len(dense)), rng.randrange(len(dense))
        f = rng.randint(-2, 2)
        out.insert(rng.randint(0, len(out)),
                   [x + f * y for x, y in zip(dense[a], dense[b])])
    return out


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_engine_matches_dense_reference(one, entry):
    zero = one - one
    rng = random.Random(7)
    for trial in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        dense = random_dense(rng, nrows, ncols, entry, zero)
        if trial % 3 == 0:
            dense = with_dependent_rows(rng, dense, 2)
        want_piv, want_red = dense_rref(dense, ncols)
        pivots, red = eliminate(sparse(dense), ncols)
        assert pivots == want_piv
        assert [to_dense(r, ncols, zero) for r in red[:len(pivots)]] == \
            [tuple(r) for r in want_red[:len(want_piv)]]
        assert all(not r for r in red[len(pivots):])
        assert column_rank_profile(sparse(dense), ncols) == want_piv
        assert [to_dense(v, ncols, zero)
                for v in nullspace(sparse(dense), ncols, one)] == \
            dense_nullspace(dense, ncols, one)
        # the transpose's row profile mod p is the column profile here
        cols = [{r: row[c] for r, row in enumerate(dense) if row[c]}
                for c in range(ncols)]
        assert mod_row_profile(cols) == want_piv


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_solve_unique_matches_dense_reference(one, entry):
    zero = one - one
    rng = random.Random(11)
    solved = 0
    for _ in range(40):
        ncols = rng.randint(1, 5)
        dense = random_dense(rng, rng.randint(ncols, 3 * ncols), ncols,
                             entry, zero, density=0.5)
        dense = with_dependent_rows(rng, dense, 2)
        x = [entry(rng) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), zero) for row in dense]
        want = dense_solve(dense, rhs, ncols)
        if want is None:
            with pytest.raises(ConventionError, match="solution space"):
                solve_unique(sparse(dense), rhs, ncols, one)
            continue
        assert want == x
        assert solve_unique(sparse(dense), rhs, ncols, one) == x
        solved += 1
    assert solved > 10


def test_invert_dense_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        dense = random_dense(rng, n, n, scalar_entry, CTX.zero, density=0.8)
        aug = [row + [CTX.one if i == j else CTX.zero for j in range(n)]
               for i, row in enumerate(dense)]
        pivots, red = dense_rref(aug, n)
        if len(pivots) < n:
            with pytest.raises(ConventionError, match="singular"):
                invert_dense(sparse(dense), CTX.one)
            continue
        got = invert_dense(sparse(dense), CTX.one)
        assert [to_dense(r, n, CTX.zero) for r in got] == \
            [tuple(r[n:]) for r in red]


def tall_system():
    s = CTX.s_power
    one, zero = CTX.one, CTX.zero
    dense = [[s(1), one, zero], [zero, s(-1), one], [one, zero, s(2)],
             [s(1) + one, s(-1) + one, one], [zero, zero, s(3)]]
    x = [s(2) - one, one / (s(1) + one), s(-1)]
    rhs = [sum((a * b for a, b in zip(row, x)), zero) for row in dense]
    return dense, rhs, x


def test_vanishing_denominator_takes_the_exact_fallback(monkeypatch):
    dense, rhs, x = tall_system()
    pole = CTX.one / (CTX.s_power(1) - MOD_POINT)
    assert linalg.mod_image(pole) is None
    dense[0] = [v * pole for v in dense[0]]
    rhs[0] = rhs[0] * pole
    seen = []

    def record(rows, limit=None):
        seen.append(mod_row_profile(rows, limit))
        return seen[-1]

    monkeypatch.setattr(linalg, "mod_row_profile", record)
    assert solve_unique(sparse(dense), rhs, 3, CTX.one) == x
    assert seen == [None]
    assert dense_solve(dense, rhs, 3) == x


@pytest.mark.parametrize("modular", [True, False], ids=["modular", "exact"])
def test_inconsistent_and_underdetermined_messages(monkeypatch, modular):
    if not modular:
        monkeypatch.setattr(linalg, "mod_row_profile",
                            lambda rows, limit=None: None)
    dense, rhs, x = tall_system()
    assert solve_unique(sparse(dense), rhs, 3, CTX.one) == x
    bad = list(rhs)
    bad[-1] = bad[-1] + CTX.one     # a row past the chosen square block
    with pytest.raises(ConventionError, match="^inconsistent linear system$"):
        solve_unique(sparse(dense), bad, 3, CTX.one)
    # drop the last column: rank 2 of 2 unknowns but inconsistent
    with pytest.raises(ConventionError, match="^inconsistent linear system$"):
        solve_unique(sparse([row[:2] for row in dense]), rhs, 2, CTX.one)
    # a zero column: one free unknown
    under = [row[:2] + [CTX.zero] for row in dense]
    rhs2 = [row[0] + row[1] for row in under]
    with pytest.raises(ConventionError,
                       match="^solution space has dimension 1, expected 0$"):
        solve_unique(sparse(under), rhs2, 3, CTX.one)
