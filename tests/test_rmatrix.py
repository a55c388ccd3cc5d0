import hashlib
import json
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from qflag import linalg, rmatrix
from qflag.cartan import LieType, bilinear
from qflag.errors import ConventionError
from qflag.linalg import SparseMatrix
from qflag.reps import (ModuleData, build_irreducible, check_intertwines,
                        context_for, decompose, tensor, trivial_module)
from qflag.rmatrix import Braiding, braiding, ybe_check
from qflag.scalars import Scalar

from oracles import braiding_by_solve, rescaled, ybe_full

A1, A2, B2 = (LieType.parse(t) for t in ("A1", "A2", "B2"))


def intertwines(br):
    """R rho_{V (x) W}(x) = rho_{W (x) V}(x) R for every generator x."""
    vw = tensor(br.v, br.w)
    return check_intertwines(br.matrix, vw,
                             vw if br.v is br.w else tensor(br.w, br.v))


def test_a1_frozen_values():
    # solved by hand from the 16-equation intertwiner system: with e0 the
    # highest weight vector and L = 2 (s = q^(1/2)),
    #   R(e0 (x) e0) = q^(1/2) e0 (x) e0
    #   R(e0 (x) e1) = q^(-1/2) e1 (x) e0
    #   R(e1 (x) e0) = q^(-1/2) e0 (x) e1 + (q^(1/2) - q^(-3/2)) e1 (x) e0
    #   R(e1 (x) e1) = q^(1/2) e1 (x) e1
    ctx = context_for(A1)
    v = build_irreducible(ctx, A1, (1,))
    br = braiding(v, v)
    s = Scalar.s_power
    assert br.coeff(0, 0, 0, 0) == s(1)
    assert br.coeff(1, 1, 1, 1) == s(1)
    assert br.coeff(1, 0, 0, 1) == s(-1)
    assert br.coeff(0, 1, 1, 0) == s(-1)
    assert br.coeff(1, 0, 1, 0) == s(1) - s(-3)
    assert len(br.matrix.entries_sorted()) == 5


def test_leading_term_highest_highest():
    for lie, lam, mu in ((A1, (1,), (1,)), (A2, (1, 0), (1, 0)),
                         (A2, (1, 0), (0, 1)), (B2, (1, 0), (1, 0))):
        ctx = context_for(lie)
        v = build_irreducible(ctx, lie, lam)
        w = build_irreducible(ctx, lie, mu)
        br = braiding(v, w)
        hv, hw = v.highest_index, w.highest_index
        col = [(r, val) for (r, c), val in br.matrix.entries_sorted()
               if c == hv * w.dim + hw]
        assert col == [(hw * v.dim + hv, ctx.q_power(bilinear(lie, lam, mu)))]


def test_intertwining_and_weight_preservation():
    ctx = context_for(A2)
    v = build_irreducible(ctx, A2, (1, 0))
    w = build_irreducible(ctx, A2, (0, 1))
    br = braiding(v, w)
    assert intertwines(br)
    for (r, c), _ in br.matrix.entries_sorted():
        k, l = divmod(r, v.dim)
        i, j = divmod(c, w.dim)
        in_wt = tuple(a + b for a, b in zip(v.weights[i], w.weights[j]))
        out_wt = tuple(a + b for a, b in zip(w.weights[k], v.weights[l]))
        assert in_wt == out_wt


def test_braiding_with_trivial_is_flip():
    ctx = context_for(A2)
    v = build_irreducible(ctx, A2, (1, 0))
    t = trivial_module(ctx, A2)
    br = braiding(v, t)
    # V (x) C -> C (x) V with factor q^0 = 1: the identity reshuffle
    assert br.matrix == SparseMatrix.identity(v.dim, ctx.one)
    assert ybe_check(t)
    assert ybe_full(t, braiding(t, t))


@pytest.mark.parametrize("name,lam", [
    ("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)), ("A2", (0, 1)),
    ("A3", (0, 1, 0)), ("B2", (1, 0)), ("C2", (0, 1)),
])
def test_ybe(name, lam):
    lie = LieType.parse(name)
    ctx = context_for(lie)
    v = build_irreducible(ctx, lie, lam)
    br = braiding(v, v)
    assert intertwines(br)
    assert ybe_check(v, br)
    assert ybe_full(v, br)


def _module(name, lam):
    lie = LieType.parse(name)
    return build_irreducible(context_for(lie), lie, lam)


@pytest.mark.parametrize("name,lam", [("A2", (1, 0)), ("B2", (0, 1))])
def test_ybe_rejects_r_plus_identity(name, lam):
    # R + 1 commutes with the action and keeps weight, yet it breaks the
    # Yang-Baxter identity; no braiding() certified it, so every column is
    # checked
    v = _module(name, lam)
    r = braiding(v, v).matrix
    bad = Braiding(v, v, r.add(SparseMatrix.identity(r.nrows, v.ctx.one)))
    assert intertwines(bad)
    assert not ybe_check(v, bad)
    assert not ybe_full(v, bad)


def test_ybe_rejects_weight_breaking_entry():
    v = _module("A2", (1, 0))
    r = braiding(v, v).matrix
    data = dict(r.entries_sorted())
    lowest = v.dim * v.dim - 1
    assert (lowest, 0) not in data
    data[(lowest, 0)] = v.ctx.one
    bad = Braiding(v, v, SparseMatrix.from_entries(r.nrows, r.ncols, data.items()))
    assert not ybe_check(v, bad)
    assert not ybe_full(v, bad)


def _flip(v):
    d = v.dim
    return Braiding(v, v, SparseMatrix.from_entries(d * d, d * d, [
        ((j * d + i, i * d + j), v.ctx.one) for i in range(d) for j in range(d)]))


def test_flip_satisfies_ybe_on_all_columns():
    # the plain flip P does not commute with the q-deformed action, so the
    # check runs on every basis vector of V (x) V (x) V
    v = _module("A2", (1, 0))
    p = _flip(v)
    assert not intertwines(p)
    assert ybe_check(v, p)
    assert ybe_full(v, p)


def test_ybe_applies_dim_squared_columns(monkeypatch):
    # each column costs six applications of R12 or R23 (three per side)
    v = _module("A2", (1, 0))
    calls = []
    apply_r = rmatrix._apply_r

    def counting(*args):
        calls.append(args[3])
        return apply_r(*args)

    monkeypatch.setattr(rmatrix, "_apply_r", counting)
    assert ybe_check(v, braiding(v, v))
    assert len(calls) == 6 * v.dim ** 2
    calls.clear()
    assert ybe_check(v, _flip(v))
    assert len(calls) == 6 * v.dim ** 3
    # the rescaled module is not canonical, so its braiding comes from the
    # solve and the check runs on all columns
    w = rescaled(v)
    calls.clear()
    assert ybe_check(w, braiding_by_solve(w, w))
    assert len(calls) == 6 * w.dim ** 3


def test_ybe_check_trusts_only_the_certificate_of_braiding(monkeypatch):
    # braiding() certifies its matrix on V (x) V; ybe_check does not repeat
    # that, and a hand-built or replaced braiding is not certified there
    # either: it is checked on every column
    v = _module("A2", (1, 0))
    calls = []
    check = rmatrix.check_intertwines

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(rmatrix, "check_intertwines", counting)
    br = braiding(v, v)
    assert ybe_check(v, br)
    assert len(calls) == 1
    assert br.certified
    with pytest.raises(FrozenInstanceError):
        br.matrix = SparseMatrix.identity(br.matrix.nrows, v.ctx.one)
    bad_matrix = br.matrix.add(SparseMatrix.identity(br.matrix.nrows, v.ctx.one))
    for bad in (Braiding(v, v, bad_matrix), replace(br, matrix=bad_matrix)):
        assert not bad.certified
        calls.clear()
        assert not ybe_check(v, bad)
        assert calls == []


def test_braiding_refuses_a_module_that_is_not_canonical():
    # transport needs every basis vector to be exactly an F-word of e_0
    v = _module("A2", (1, 0))
    for bad in (rescaled(v), replace(v, parents=None)):
        with pytest.raises(ConventionError):
            braiding(bad, v)
    # only the first factor is transported along
    assert braiding(v, rescaled(v)).matrix == \
        braiding_by_solve(v, rescaled(v)).matrix


def test_braiding_calls_no_solver(monkeypatch):
    calls = []
    solve = linalg.solve_unique

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "solve_unique", None) is solve:
            monkeypatch.setattr(mod, "solve_unique", counting)
    v = _module("C2", (0, 1))
    braiding(v, v)
    assert calls == []
    braiding_by_solve(v, v)
    assert len(calls) == 1


@pytest.mark.parametrize("name,lam,mu", [
    ("A2", (1, 0), None), ("C3", (0, 0, 1), None), ("A4", (0, 1, 0, 0), None),
    ("A5", (0, 0, 1, 0, 0), None), ("B3", (0, 0, 1), None),
    ("D6", (0, 0, 0, 0, 0, 1), None), ("E6", (1, 0, 0, 0, 0, 0), None),
    ("A2", (1, 0), (0, 1)), ("A3", (1, 0, 0), (0, 1, 0)),
    ("A4", (0, 1, 0, 0), (0, 0, 1, 0)), ("B2", (1, 0), (0, 1)),
    ("A2", (1, 0), (0, 0)), ("B2", (0, 1), (0, 0)),
])
def test_braiding_equals_the_solve(name, lam, mu):
    # the transported braiding is the unique solution of the intertwining
    # system, entry for entry
    v = _module(name, lam)
    w = v if mu is None else _module(name, mu)
    assert braiding(v, w).matrix == braiding_by_solve(v, w).matrix


def test_naturality_spot_check():
    # for the intertwiner phi: V -> V twisting by a scalar, naturality
    # (1 (x) phi) R_{V,V} = R_{V,V} (phi (x) 1) holds trivially; exercise the
    # nontrivial instance phi: V_{w1} (x) V_{w1} -> V_{w1} (x) V_{w1} given by
    # the braiding itself, via the YBE identity established above, and check
    # R_{V,V} commutes with the diagonal K-action
    ctx = context_for(A1)
    v = build_irreducible(ctx, A1, (1,))
    br = braiding(v, v)
    kvals = [ctx.q_power(v.k_exps[0][i] + v.k_exps[0][j])
             for i in range(2) for j in range(2)]
    kk = SparseMatrix.diagonal(kvals)
    assert br.matrix.mul(kk) == kk.mul(br.matrix)


def test_inconsistent_system_detected():
    # corrupting a generator matrix breaks intertwinability: the F-words are
    # intact, so the braiding is transported, and its certification must
    # report the convention failure instead of returning it
    ctx = context_for(A1)
    v = build_irreducible(ctx, A1, (1,))
    bad = ModuleData(lie=A1, ctx=ctx, dim=2, weights=v.weights,
                     e_mats=(v.e_mats[0].scale(ctx.from_fraction(2)),),
                     f_mats=v.f_mats, highest_index=0, parents=v.parents)
    with pytest.raises(ConventionError, match="does not intertwine"):
        braiding(bad, v)
    with pytest.raises(ConventionError):
        braiding_by_solve(bad, v)


def test_intertwines_detects_one_changed_entry():
    ctx = context_for(A2)
    v = build_irreducible(ctx, A2, (1, 0))
    w = build_irreducible(ctx, A2, (0, 1))
    br = braiding(v, w)
    assert intertwines(br)
    data = dict(br.matrix.entries_sorted())
    key = min(data)
    data[key] = data[key] + ctx.one
    bad = type(br)(v, w, SparseMatrix.from_entries(
        br.matrix.nrows, br.matrix.ncols, data.items()))
    assert not intertwines(bad)


@pytest.mark.parametrize("s0", [None, Fraction(3, 2)],
                         ids=["symbolic", "s0=3/2"])
def test_check_intertwines_refuses_an_entry_across_k_exponents(s0):
    # E = F = 0 on both sides, so only the K test sees the entry from e_0
    # (K-exponent 1) to e_1 (K-exponent -1); the scan must agree with the
    # product K phi != phi K in either mode
    ctx = context_for(A1, s0)
    zero = SparseMatrix.zero(2, 2)
    m = ModuleData(lie=A1, ctx=ctx, dim=2, weights=((1,), (-1,)),
                   e_mats=(zero,), f_mats=(zero,))
    phi = SparseMatrix(2, 2, {0: {1: ctx.one}})
    k = m.gen_matrix("K", 1)
    assert phi.mul(k) != k.mul(phi)
    assert not check_intertwines(phi, m, m)
    assert check_intertwines(SparseMatrix.identity(2, ctx.one), m, m)
    # the same entry added to the identity of the genuine module V_1
    v = build_irreducible(ctx, A1, (1,))
    assert v.k_exps == ((1, -1),)
    assert check_intertwines(SparseMatrix.identity(2, ctx.one), v, v)
    assert not check_intertwines(
        SparseMatrix.identity(2, ctx.one).add(phi), v, v)


def casimir(lie, mu):
    """c(mu) = (mu, mu + 2 rho), rho = (1, ..., 1) in fundamental weights."""
    return bilinear(lie, mu, tuple(a + 2 for a in mu))


@pytest.mark.parametrize("name,lam,signs", [
    ("A1", (1,), {(2,): 1, (0,): -1}),
    ("A2", (1, 0), {(2, 0): 1, (0, 1): -1}),
    ("B2", (1, 0), {(2, 0): 1, (0, 2): -1, (0, 0): 1}),
    ("B2", (0, 1), {(0, 2): 1, (1, 0): -1, (0, 0): -1}),
    ("C2", (0, 1), {(0, 2): 1, (2, 0): -1, (0, 0): 1}),
])
def test_braiding_scalar_on_each_summand(name, lam, signs):
    # Drinfeld; Reshetikhin: the braided flip acts on V_nu in V (x) V as
    # eps_nu q^((c(nu) - 2 c(lam)) / 2); nu = 2 lam gets +q^((lam, lam))
    lie = LieType.parse(name)
    ctx = context_for(lie)
    store = {}

    def module(nu):
        if nu not in store:
            store[nu] = build_irreducible(ctx, lie, nu)
        return store[nu]

    v = module(lam)
    r = braiding(v, v).matrix
    summands = decompose(v, v, module).summands
    assert sorted(s.nu for s in summands) == sorted(signs)
    top = tuple(2 * a for a in lam)
    assert signs[top] == 1
    assert (casimir(lie, top) - 2 * casimir(lie, lam)) / 2 == \
        bilinear(lie, lam, lam)
    for s in summands:
        exp = (casimir(lie, s.nu) - 2 * casimir(lie, lam)) / 2
        assert r.mul(s.emb) == s.emb.scale(ctx.q_power(exp) * signs[s.nu])


def braiding_digest(mat) -> str:
    doc = [[r, c, str(x)] for (r, c), x in mat.entries_sorted()]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,lam,mu,digest", [
    ("A2", (1, 0), (0, 1),
     "0bd1c2e08ae709c72fbc0ad31418f2baf31c3242d4b6da2ba00ddb925cb82b6e"),
    ("A4", (0, 1, 0, 0), (0, 1, 0, 0),
     "165933fe310473317923103bf12c80e7c5075e048c05fc0beffaf656650d6a43"),
    ("C3", (0, 0, 1), (0, 0, 1),
     "f46f8a757c2590e0df6935c23ffdcb16f1b7dbb6af14fe3d69ecae236ff0749a"),
])
def test_braiding_digest_pinned(name, lam, mu, digest):
    # digests recorded from the braidings of the linear solve
    lie = LieType.parse(name)
    ctx = context_for(lie)
    v = build_irreducible(ctx, lie, lam)
    w = v if mu == lam else build_irreducible(ctx, lie, mu)
    assert braiding_digest(braiding(v, w).matrix) == digest
