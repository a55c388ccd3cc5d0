import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import freudenthal_multiplicities
from qflag.cartan import (LieType, bilinear_form, dominant_weights_up_to,
                          longest_word, minus_w0, root_sequence, weyl_dim)
from qflag import cartan, linalg, reps
from qflag.errors import ConventionError, DimensionGuardError, DomainError
from qflag.linalg import (MOD_POINT, SpanBasis, SparseMatrix,
                          column_rank_profile, mod_row_profile)
from qflag.reps import (LusztigOperators, build_irreducible,
                        check_defining_relations, check_intertwines,
                        context_for, decompose, dual_module, dual_pairing,
                        intertwiner, nullspace_of_conjugation, tensor,
                        trivial_module)

A1, A2, A3, B2, C2 = (LieType.parse(t) for t in ("A1", "A2", "A3", "B2", "C2"))
C3 = LieType.parse("C3")


def store_for(lie, ctx, guard=64, cache={}):
    def get(nu):
        key = (lie, tuple(nu), guard)
        if key not in cache:
            cache[key] = build_irreducible(ctx, lie, nu, guard=guard)
        return cache[key]
    return get


def test_a1_fundamental_explicit():
    ctx = context_for(A1)
    m = build_irreducible(ctx, A1, (1,))
    assert m.dim == 2
    assert m.weights == ((1,), (-1,))
    # the unique 2-dimensional solution of the defining relations
    assert m.e_mats[0].entries_sorted() == [((0, 1), ctx.one)]
    assert m.f_mats[0].entries_sorted() == [((1, 0), ctx.one)]
    assert m.k_exps == ((1, -1),)


def test_trivial_module():
    ctx = context_for(A1)
    m = trivial_module(ctx, A1)
    assert m.dim == 1
    assert m.e_mats[0].is_zero() and m.f_mats[0].is_zero()
    assert m.k_exps == ((0,),)


def test_a2_vector_weights():
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (1, 0))
    assert m.dim == 3
    # w1, w1 - a1, w1 - a1 - a2
    assert m.weights == ((1, 0), (-1, 1), (0, -1))


@pytest.mark.parametrize("name,lam", [
    ("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("A3", (0, 1, 0)),
    ("A3", (1, 0, 1)), ("B2", (1, 1)), ("B2", (0, 2)), ("C2", (1, 1)),
])
def test_defining_relations_and_dims(name, lam):
    lie = LieType.parse(name)
    ctx = context_for(lie)
    m = build_irreducible(ctx, lie, lam)
    check_defining_relations(m)   # includes rank-2 Serre identities
    assert m.dim == weyl_dim(lie, lam)
    mults = freudenthal_multiplicities(lie, lam)
    built = {}
    for w in m.weights:
        built[w] = built.get(w, 0) + 1
    assert built == mults


def test_construction_guards():
    ctx = context_for(A3)
    with pytest.raises(DimensionGuardError):
        build_irreducible(ctx, A3, (2, 2, 2))
    with pytest.raises(DomainError):
        build_irreducible(ctx, A3, (-1, 0, 0))
    e6 = LieType("E", 6)
    with pytest.raises(DimensionGuardError):
        build_irreducible(context_for(e6), e6,
                          (1, 0, 0, 0, 0, 0))


def test_tensor_weights_and_highest():
    ctx = context_for(A1)
    v = build_irreducible(ctx, A1, (1,))
    t = tensor(v, v)
    assert sorted(t.weights) == [(-2,), (0,), (0,), (2,)]
    check_defining_relations(t)
    # E kills highest (x) highest
    hw = 0 * v.dim + 0
    assert not t.e_mats[0].by_col().get(hw)
    # anything (x) trivial is an isomorphic copy
    triv = trivial_module(ctx, A1)
    t2 = tensor(v, triv)
    assert t2.dim == v.dim and t2.weights == v.weights
    assert t2.e_mats[0].data == v.e_mats[0].data


def test_dual_module():
    ctx = context_for(A2)
    v = build_irreducible(ctx, A2, (1, 0))
    d = dual_module(v)
    check_defining_relations(d)
    assert d.highest == (0, 1) == minus_w0(A2, (1, 0))
    triv = trivial_module(ctx, A2)
    assert dual_module(triv).dim == 1
    # A1: dual of the fundamental is isomorphic to it (intertwiner found)
    ctx1 = context_for(A1)
    v1 = build_irreducible(ctx1, A1, (1,))
    pair = dual_pairing(v1, v1)  # -w0(w1) = w1
    assert check_intertwines(pair, v1, dual_module(v1))
    p2 = dual_pairing(build_irreducible(ctx, A2, (0, 1)), v)
    assert check_intertwines(p2, build_irreducible(ctx, A2, (0, 1)),
                             dual_module(v))


def test_decompose_a1():
    ctx = context_for(A1)
    get = store_for(A1, ctx)
    t = tensor(get((1,)), get((1,)))
    cg = decompose(t, get)
    assert sorted(s.nu for s in cg.summands) == [(0,), (2,)]
    total = SparseMatrix.zero(t.dim, t.dim)
    for s in cg.summands:
        v = get(s.nu)
        assert s.proj.mul(s.emb) == SparseMatrix.identity(v.dim, ctx.one)
        total = total.add(s.emb.mul(s.proj))
        for i in (1,):
            for kind in ("E", "F", "K"):
                assert t.gen_matrix(kind, i).mul(s.emb) == \
                    s.emb.mul(v.gen_matrix(kind, i))
    assert total == SparseMatrix.identity(t.dim, ctx.one)
    # V (x) trivial decomposes to V alone
    cg2 = decompose(tensor(get((1,)), get((0,))), get)
    assert [s.nu for s in cg2.summands] == [(1,)]


def test_decompose_a2_dims():
    ctx = context_for(A2)
    get = store_for(A2, ctx)
    t = tensor(get((1, 0)), get((0, 1)))
    cg = decompose(t, get)
    assert sorted(s.nu for s in cg.summands) == [(0, 0), (1, 1)]
    assert sum(weyl_dim(A2, s.nu) for s in cg.summands) == 9


def test_decompose_random_pairs_bookkeeping():
    rng = random.Random(12)
    cases = []
    for name in ("A2", "B2", "C2", "A3"):
        lie = LieType.parse(name)
        small = [w for w in dominant_weights_up_to(lie, 3)
                 if weyl_dim(lie, w) <= 12]
        cases.append((lie, small))
    pairs = []
    while len(pairs) < 20:
        lie, small = rng.choice(cases)
        pairs.append((lie, rng.choice(small), rng.choice(small)))
    for lie, lam, mu in pairs:
        ctx = context_for(lie)
        get = store_for(lie, ctx, guard=200)
        t = tensor(get(lam), get(mu))
        cg = decompose(t, get)
        assert sum(weyl_dim(lie, s.nu) for s in cg.summands) == t.dim
        # weight multiset bookkeeping: the summand weights partition t's
        twts = sorted(t.weights)
        swts = sorted(w for s in cg.summands for w in get(s.nu).weights)
        assert twts == swts
        for s in cg.summands:
            v = get(s.nu)
            assert s.proj.mul(s.emb) == SparseMatrix.identity(v.dim, ctx.one)


def test_braid_operator_a1():
    ctx = context_for(A1)
    m = build_irreducible(ctx, A1, (1,))
    ops = LusztigOperators(m, verify="full")
    th = ops.theta(1)
    # antidiagonal: swaps the two weight spaces up to scalars
    assert set(th.data) == {(0, 1), (1, 0)}
    # uniqueness: the conjugation system has a 1-dimensional solution space
    assert len(nullspace_of_conjugation(m, 1)) == 1
    triv = trivial_module(ctx, A1)
    opst = LusztigOperators(triv, verify="full")
    assert opst.theta(1) == SparseMatrix.identity(1, ctx.one)


def test_braid_weight_permutation():
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (1, 1))
    ops = LusztigOperators(m, verify="full")
    from qflag.cartan import reflect_weight
    for i in (1, 2):
        th = ops.theta(i)
        for (r, c) in th.data:
            assert m.weights[r] == reflect_weight(A2, i, m.weights[c])


def test_conjugation_nullspace_is_one_dimensional():
    for lie, lam in ((A2, (1, 0)), (B2, (0, 1))):
        ctx = context_for(lie)
        m = build_irreducible(ctx, lie, lam)
        for i in range(1, lie.rank + 1):
            assert len(nullspace_of_conjugation(m, i)) == 1


def test_braid_relation_a2_up_to_scalar():
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (1, 0))
    ops = LusztigOperators(m, verify="full")
    lhs = ops.theta(1).mul(ops.theta(2)).mul(ops.theta(1))
    rhs = ops.theta(2).mul(ops.theta(1)).mul(ops.theta(2))
    (k0, v0) = lhs.entries_sorted()[0]
    (k1, v1) = rhs.entries_sorted()[0]
    assert k0 == k1
    assert lhs == rhs.scale(v0 / v1)


def test_braid_light_verify_matches_full():
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (1, 1))
    full = LusztigOperators(m, verify="full")
    light = LusztigOperators(m, verify="light")
    for i in (1, 2):
        assert full.theta(i) == light.theta(i)
        assert full.theta_inv(i) == light.theta_inv(i)


def test_root_operator_basics():
    ctx = context_for(A1)
    m = build_irreducible(ctx, A1, (1,))
    ops = LusztigOperators(m, verify="full")
    # r = 1 is the plain generator
    assert ops.root_operator((1,), 1, "E") == m.e_mats[0]
    assert ops.root_operator((1,), 1, "F") == m.f_mats[0]


@pytest.mark.parametrize("name", ["A2", "B2", "C2"])
def test_root_operator_weights(name):
    lie = LieType.parse(name)
    ctx = context_for(lie)
    word = longest_word(lie)
    seq = root_sequence(lie, word)
    m = build_irreducible(ctx, lie, (1, 1))
    ops = LusztigOperators(m, verify="full")
    for r, beta in enumerate(seq, start=1):
        for kind, sgn in (("E", 1), ("F", -1)):
            op = ops.root_operator(word, r, kind)
            assert not op.is_zero()
            for i in range(1, lie.rank + 1):
                ei = tuple(1 if t == i - 1 else 0 for t in range(lie.rank))
                ab = bilinear_form(lie, ei, beta, ("root", "root"))
                for (rr, cc) in op.data:
                    assert m.k_exps[i - 1][rr] - m.k_exps[i - 1][cc] == sgn * ab


def test_root_operators_linearly_independent():
    # degree-1 PBW independence: for a fixed reduced word the E_{beta_r} are
    # linearly independent as matrices
    for lie in (A2, B2):
        ctx = context_for(lie)
        word = longest_word(lie)
        m = build_irreducible(ctx, lie, (1, 1))
        ops = LusztigOperators(m, verify="full")
        span = SpanBasis()
        for r in range(1, len(word) + 1):
            op = ops.root_operator(word, r, "E")
            assert span.insert(dict(op.data))
        assert span.dim == len(word)


def test_root_operators_word_independence_of_spans():
    # different reduced words can give different operators; the joint kernel
    # on a slice is what downstream uses, checked in the calculus tests.
    lie = A2
    ctx = context_for(lie)
    m = build_irreducible(ctx, lie, (1, 1))
    ops = LusztigOperators(m, verify="full")
    w1 = longest_word(lie)
    w2 = tuple(reversed(w1))
    ops1 = [ops.root_operator(w1, r, "E") for r in range(1, 4)]
    ops2 = [ops.root_operator(w2, r, "E") for r in range(1, 4)]
    s1, s2 = SpanBasis(), SpanBasis()
    for o in ops1:
        s1.insert(dict(o.data))
    for o in ops2:
        s2.insert(dict(o.data))
    assert s1.dim == s2.dim == 3


def test_specialized_construction_matches_dims():
    from fractions import Fraction
    for lie, s0 in ((A2, Fraction(3, 2)), (B2, Fraction(5, 2))):
        ctx = context_for(lie, s0=s0)
        for lam in dominant_weights_up_to(lie, 2):
            m = build_irreducible(ctx, lie, lam)
            check_defining_relations(m)
            assert m.dim == weyl_dim(lie, lam)


# -- module construction by multiplicities -----------------------------------


def module_digest(m) -> str:
    """sha256 of the canonical JSON of a canonical build."""
    def entries(mat):
        return [[r, c, str(v)] for (r, c), v in mat.entries_sorted()]
    doc = {"dim": m.dim, "highest": list(m.highest),
           "weights": [list(w) for w in m.weights],
           "e": [entries(x) for x in m.e_mats],
           "f": [entries(x) for x in m.f_mats],
           "k_exps": [list(k) for k in m.k_exps],
           "fwords": [list(w) for w in m.fwords],
           "parents": [list(p) if p else None for p in m.parents]}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("lie,lam,digest", [
    (B2, (2, 2),
     "e39732ecc6aec6b2c74e0988cc5780332bf962ef47aef03bae2df10cbdb91285"),
    (C3, (0, 0, 2),
     "fce8e55e06d5c8770dc68020a3144abb2f269a8890fc854ad0cddea3723004cd"),
])
def test_build_digest_pinned(lie, lam, digest):
    # digests of the construction by exact rank profile and inverse
    m = build_irreducible(context_for(lie), lie, lam, guard=100)
    assert module_digest(m) == digest


def test_modular_profile_matches_exact_on_real_grams(monkeypatch):
    # reps takes the Gram's column rank profile as the modular row profile
    # of its columns
    grams = []

    def record(cols, limit=None):
        grams.append(cols)
        return mod_row_profile(cols, limit)

    monkeypatch.setattr(reps, "mod_row_profile", record)
    build_irreducible(context_for(B2), B2, (2, 2), guard=100)
    assert len(grams) > 30 and any(len(g) > 4 for g in grams)
    for cols in grams:
        m = len(cols)
        rows = [{t: col[s] for t, col in enumerate(cols) if s in col}
                for s in range(m)]
        assert mod_row_profile(cols) == column_rank_profile(rows, m)


def counting(monkeypatch, name):
    calls = []
    original = getattr(reps, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reps, name, wrapper)
    return calls


def test_modular_path_needs_no_exact_profile(monkeypatch):
    calls = counting(monkeypatch, "column_rank_profile")
    inverses = counting(monkeypatch, "invert_dense")
    build_irreducible(context_for(C2), C2, (2, 1))
    # specialized mode: Fractions take the same path
    build_irreducible(context_for(C2, s0=Fraction(3, 2)), C2, (2, 1))
    assert calls == [] and inverses == []


def test_fallback_on_vanishing_denominator(monkeypatch):
    ctx = context_for(A1)
    pole = ctx.one / (ctx.s_power(1) - MOD_POINT)
    zero, one, two = ctx.zero, ctx.one, ctx.one + ctx.one
    assert linalg.mod_image(pole) is None
    gram = [[pole, pole, one], [pole, pole, one], [one, one, two]]
    assert mod_row_profile([dict(enumerate(col)) for col in zip(*gram)]) is None
    calls = counting(monkeypatch, "column_rank_profile")
    profile, red = reps._select_candidates(gram, 2)
    assert len(calls) == 1
    assert profile == [0, 2]
    # column 1 equals column 0
    assert [row.get(1, zero) for row in red] == [one, zero]


@pytest.mark.parametrize("lie,lam", [(B2, (1, 1)), (A3, (1, 0, 1))])
def test_exact_fallback_builds_the_same_module(monkeypatch, lie, lam):
    ctx = context_for(lie)
    want = module_digest(build_irreducible(ctx, lie, lam))
    monkeypatch.setattr(reps, "mod_row_profile", lambda rows, limit=None: None)
    calls = counting(monkeypatch, "column_rank_profile")
    assert module_digest(build_irreducible(ctx, lie, lam)) == want
    assert calls


def test_rank_against_multiplicity_checked_per_weight(monkeypatch):
    wrong = dict(cartan.weight_multiplicities(A2, (1, 1)))
    wrong[(0, 0)] = 1
    monkeypatch.setattr(cartan, "weight_multiplicities",
                        lambda lie, lam: wrong)
    with pytest.raises(ConventionError, match="multiplicity"):
        build_irreducible(context_for(A2), A2, (1, 1))
