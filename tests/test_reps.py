import gc
import hashlib
import json
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import (conjugated_root_vector, decompose_eager,
                     freudenthal_multiplicities, nullspace_of_conjugation,
                     rescaled, root_vector_matrix, theta_by_matrices)
from qflag.cartan import (LieType, bilinear_form, dominant_weights_up_to,
                          longest_word, minus_w0, root_sequence, weyl_dim)
from qflag import cartan, linalg, reps
from qflag.errors import (ConventionError, DimensionGuardError, DomainError,
                          ReducibleModuleError)
from qflag.linalg import (MOD_POINT, SpanBasis, SparseMatrix,
                          column_rank_profile, mod_row_profile,
                          rows_from_columns)
from qflag.peterweyl import PWAlgebra
from qflag.reps import (BraidOperators, LusztigOperators, braid_image,
                        build_irreducible, check_defining_relations,
                        check_intertwines, context_for, decompose,
                        dual_module, dual_pairing, tensor, transport,
                        trivial_module)
from qflag.verify import DEFAULT_DEPTH

A1, A2, A3, B2, C2 = (LieType.parse(t) for t in ("A1", "A2", "A3", "B2", "C2"))
B3, C3 = LieType.parse("B3"), LieType.parse("C3")


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
    # the guard is the one size gate for the E series too
    e6 = LieType("E", 6)
    with pytest.raises(DimensionGuardError):
        build_irreducible(context_for(e6), e6, (0, 0, 0, 1, 0, 0))


@pytest.mark.parametrize("name,lam,dim", [
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
])
def test_exceptional_modules_satisfy_relations(name, lam, dim):
    lie = LieType.parse(name)
    m = build_irreducible(context_for(lie), lie, lam)
    assert m.dim == dim == weyl_dim(lie, lam)
    check_defining_relations(m)


def test_tensor_weights_and_highest():
    ctx = context_for(A1)
    v = build_irreducible(ctx, A1, (1,))
    t = tensor(v, v)
    assert sorted(t.weights) == [(-2,), (0,), (0,), (2,)]
    check_defining_relations(t)
    # E kills highest (x) highest
    hw = 0 * v.dim + 0
    assert not t.e_mats[0].cols.get(hw)
    # anything (x) trivial is an isomorphic copy
    triv = trivial_module(ctx, A1)
    t2 = tensor(v, triv)
    assert t2.dim == v.dim and t2.weights == v.weights
    assert t2.e_mats[0].entries_sorted() == v.e_mats[0].entries_sorted()


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


def test_transport_along_own_f_words_is_identity():
    # each canonical basis vector is F_j applied to its parent, exactly
    for lie, lam in [(A2, (1, 1)), (B2, (1, 1))]:
        m = build_irreducible(context_for(lie), lie, lam)
        assert transport(m, m.f_mats, {0: m.ctx.one}) == \
            SparseMatrix.identity(m.dim, m.ctx.one)
    v = build_irreducible(context_for(A1), A1, (1,))
    with pytest.raises(ReducibleModuleError):
        transport(tensor(v, v), v.f_mats, {0: v.ctx.one})


def test_decompose_a1():
    ctx = context_for(A1)
    get = store_for(A1, ctx)
    t = tensor(get((1,)), get((1,)))
    cg = decompose(get((1,)), get((1,)), get)
    assert sorted(s.nu for s in cg.summands) == [(0,), (2,)]
    total = SparseMatrix.zero(t.dim, t.dim)
    for k, s in enumerate(cg.summands):
        v = get(s.nu)
        assert cg.proj(k).mul(s.emb) == SparseMatrix.identity(v.dim, ctx.one)
        total = total.add(s.emb.mul(cg.proj(k)))
        for i in (1,):
            for kind in ("E", "F", "K"):
                assert t.gen_matrix(kind, i).mul(s.emb) == \
                    s.emb.mul(v.gen_matrix(kind, i))
    assert total == SparseMatrix.identity(t.dim, ctx.one)
    # V (x) trivial decomposes to V alone
    cg2 = decompose(get((1,)), get((0,)), get)
    assert [s.nu for s in cg2.summands] == [(1,)]


def test_decompose_a2_dims():
    ctx = context_for(A2)
    get = store_for(A2, ctx)
    cg = decompose(get((1, 0)), get((0, 1)), get)
    assert sorted(s.nu for s in cg.summands) == [(0, 0), (1, 1)]
    assert sum(weyl_dim(A2, s.nu) for s in cg.summands) == 9


CG_PAIRS = [
    (A2, (1, 0), (1, 1)), (B2, (1, 0), (0, 1)), (C2, (1, 1), (0, 1)),
    (LieType.parse("A4"), (0, 1, 0, 0), (0, 1, 0, 0)),
    (LieType.parse("D4"), (1, 0, 0, 0), (0, 0, 1, 0))]


@pytest.mark.parametrize("lie,lam,mu", CG_PAIRS)
def test_lazy_projections_equal_eager_inverse(lie, lam, mu):
    # the predicted seeds and the projection columns solved on read, against
    # seeds at every dominant weight and one inverse of every block
    ctx = context_for(lie)
    get = store_for(lie, ctx)
    cg = decompose(get(lam), get(mu), get)
    t_dim = get(lam).dim * get(mu).dim
    # a few columns first, so that the whole projection mixes columns
    # solved on demand with columns solved by proj()
    for tc in (0, t_dim // 2, t_dim - 1):
        cg.proj_columns(tc)
    eager = decompose_eager(get(lam), get(mu), get)
    assert [s.nu for s in cg.summands] == [nu for nu, _, _ in eager]
    for k, (s, (_, emb, proj)) in enumerate(zip(cg.summands, eager)):
        assert s.emb.entries_sorted() == emb.entries_sorted()
        assert cg.proj(k).entries_sorted() == proj.entries_sorted()


# A4 V_(0,1,1,0) (x) V_(0,1,0,0): its weight-(0,1,0,0) block has 20 columns
# from five summands, the first of them dense (its highest weight)
A4_PAIR = (LieType.parse("A4"), (0, 1, 1, 0), (0, 1, 0, 0))
A4_BLOCK = (0, 1, 0, 0)


def a4_block_decomposition():
    """A fresh decomposition of A4_PAIR, its module store and the rows of T
    of weight A4_BLOCK."""
    lie, lam, mu = A4_PAIR
    get = store_for(lie, context_for(lie), guard=1000)
    v, w = get(lam), get(mu)
    rows = [a * w.dim + b for a in range(v.dim) for b in range(w.dim)
            if tuple(x + y for x, y in zip(v.weights[a], w.weights[b]))
            == A4_BLOCK]
    return decompose(v, w, get), get, rows


def test_sparse_summands_are_factored_first(monkeypatch):
    # the first projection column read on the block factors it with the
    # sparsest summands' columns first: 540 products (1,730 in summand order)
    from qflag.scalars import Scalar
    cg, _, rows = a4_block_decomposition()
    assert len(rows) == 20
    count = [0]
    mul = Scalar.__mul__

    def counted(x, y):
        count[0] += 1
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    assert len(cg.proj_columns(rows[0])) == 5
    assert count[0] <= 700, count[0]


def test_projection_columns_keep_summand_order():
    # the block is factored out of summand order, and every projection
    # column still lists its summands, and each summand its columns, in
    # increasing order
    cg, _, rows = a4_block_decomposition()
    (order,) = [cols for r, cols in cg.u_inv._blocks if list(r) == rows]
    assert len(order) == 20 and order != sorted(order)
    for tc in rows:
        col = cg.proj_columns(tc)
        assert list(col) == sorted(col)
        for vec in col.values():
            assert list(vec) == sorted(vec)


def test_block_projections_equal_eager_inverse():
    # the block's projection columns, solved from the reordered factor,
    # against one inverse of every block in summand order
    cg, get, rows = a4_block_decomposition()
    lie, lam, mu = A4_PAIR
    eager = decompose_eager(get(lam), get(mu), get)
    assert [s.nu for s in cg.summands] == [nu for nu, _, _ in eager]
    for tc in rows:
        want = {k: proj.cols[tc] for k, (_, _, proj) in enumerate(eager)
                if tc in proj.cols}
        got = cg.proj_columns(tc)
        assert list(got) == list(want)
        for k, vec in got.items():
            assert sorted(vec.items()) == sorted(want[k].items())


@pytest.mark.parametrize("lie,lam,mu", CG_PAIRS)
def test_embedding_rows_equal_the_transposed_embeddings(lie, lam, mu):
    # each row read on demand from the columns of its weight equals the
    # row of the whole transpose, in the same column order
    get = store_for(lie, context_for(lie))
    cg = decompose(get(lam), get(mu), get)
    t_dim = get(lam).dim * get(mu).dim
    for k, s in enumerate(cg.summands):
        rows = s.emb.transpose().cols
        for tr in range(t_dim):
            row = cg.emb_row(k, tr)
            assert list(row.items()) == list(rows.get(tr, {}).items())
            assert cg.emb_row(k, tr) is row


@pytest.mark.parametrize("lie,lam,mu", CG_PAIRS)
def test_tensor_multiplicities_equal_the_exact_summands(lie, lam, mu):
    ctx = context_for(lie)
    get = store_for(lie, ctx)
    found = {}
    for nu, _, _ in decompose_eager(get(lam), get(mu), get):
        found[nu] = found.get(nu, 0) + 1
    assert cartan.tensor_multiplicities(lie, lam, mu) == found
    assert cartan.tensor_multiplicities(lie, mu, lam) == found


def test_summand_over_the_guard_is_refused_before_the_tensor(monkeypatch):
    # V_(1,1) (x) V_(1,1) holds V_(2,2), dim 27: the characters refuse it
    # before the 64-dimensional tensor module is built
    ctx = context_for(A2)
    get = store_for(A2, ctx, guard=26)
    built = []
    monkeypatch.setattr(reps, "tensor", lambda *args: built.append(args))
    with pytest.raises(DimensionGuardError, match=r"V_\(2, 2\) = 27"):
        decompose(get((1, 1)), get((1, 1)), get)
    assert built == []
    # through the algebra, a factor over the guard is named first
    alg = PWAlgebra(A2, guard=14)
    with pytest.raises(DimensionGuardError, match=r"V_\(2, 1\) = 15"):
        alg.cg((1, 1), (2, 1))
    with pytest.raises(DimensionGuardError, match=r"V_\(2, 2\) = 27"):
        alg.cg((1, 1), (1, 1))
    assert built == []


def test_decompose_checks_the_predicted_multiplicities():
    # with E spoiled to 0 on both factors, every vector of V (x) V is a
    # highest weight vector: weight 0 holds two, the characters predict one
    ctx = context_for(A1)
    get = store_for(A1, ctx)
    v = get((1,))
    spoiled = replace(v, e_mats=(SparseMatrix.zero(v.dim, v.dim),))
    with pytest.raises(ConventionError, match="weight \\(0,\\) has dimension "
                       "2, the characters predict 1"):
        decompose(spoiled, spoiled, get)


def test_multiply_inverts_only_the_blocks_it_reads(factored):
    # a product factors the weight block of the projection column it reads,
    # once, and solves that column alone
    alg = PWAlgebra(A2)
    lam, mu = (1, 0), (0, 1)
    v, w = alg.module(lam), alg.module(mu)
    t = tensor(v, w)
    mult = {wt: len(idx) for wt, idx in t.weight_indices().items()}
    # c1 (x) c2 and c1b (x) c2b both have weight 0, multiplicity 3
    c1, c2 = 0, w.weights.index(tuple(-x for x in v.weights[0]))
    c1b, c2b = 1, w.weights.index(tuple(-x for x in v.weights[1]))
    assert mult[(0, 0)] == 3
    calls = factored
    p = alg.multiply(alg.basis_element(lam, 0, c1),
                     alg.basis_element(mu, 1, c2))
    assert p
    assert calls == [3]
    cg = alg.cg(lam, mu)
    assert list(cg.u_inv._cols) == [c1 * w.dim + c2]
    # another row, another column of the same weight: the factor is kept
    alg.multiply(alg.basis_element(lam, 2, c1b), alg.basis_element(mu, 0, c2b))
    assert calls == [3]
    assert list(cg.u_inv._cols) == [c1 * w.dim + c2, c1b * w.dim + c2b]
    # a column of another weight factors its own block, once
    alg.multiply(alg.basis_element(lam, 0, 0), alg.basis_element(mu, 0, 0))
    assert calls == [3, mult[tuple(a + b for a, b in zip(v.weights[0],
                                                           w.weights[0]))]]
    # the whole projection factors the remaining blocks only
    for k in range(len(cg.summands)):
        cg.proj(k)
    assert sorted(calls) == sorted(mult.values())


def test_decompose_rejects_a_singular_block_no_product_reads(monkeypatch):
    ctx = context_for(A2)
    get = store_for(A2, ctx)
    lam, mu = (1, 0), (0, 1)
    t = tensor(get(lam), get(mu))
    adjoint = get((1, 1))
    # a non-highest column of weight 0 in the adjoint summand's embedding
    dropped = adjoint.weights.index((0, 0))
    original = reps.transport

    def spoiled(src, f_mats, seed):
        emb = original(src, f_mats, seed)
        if src is adjoint and f_mats[0].nrows == t.dim:
            emb = SparseMatrix(emb.nrows, emb.ncols, {
                c: col for c, col in emb.cols.items() if c != dropped})
        return emb

    monkeypatch.setattr(reps, "transport", spoiled)
    with pytest.raises(ConventionError):
        decompose(get(lam), get(mu), get)


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
        cg = decompose(get(lam), get(mu), get)
        assert sum(weyl_dim(lie, s.nu) for s in cg.summands) == t.dim
        # weight multiset bookkeeping: the summand weights partition t's
        twts = sorted(t.weights)
        swts = sorted(w for s in cg.summands for w in get(s.nu).weights)
        assert twts == swts
        for k, s in enumerate(cg.summands):
            v = get(s.nu)
            assert cg.proj(k).mul(s.emb) == \
                SparseMatrix.identity(v.dim, ctx.one)


def test_braid_operator_a1():
    ctx = context_for(A1)
    m = build_irreducible(ctx, A1, (1,))
    ops = LusztigOperators(m)
    th = ops.theta(1)
    # antidiagonal: swaps the two weight spaces up to scalars
    assert {k for k, _ in th.entries_sorted()} == {(0, 1), (1, 0)}
    # uniqueness: the conjugation system has a 1-dimensional solution space
    assert len(nullspace_of_conjugation(m, 1)) == 1
    triv = trivial_module(ctx, A1)
    opst = LusztigOperators(triv)
    assert opst.theta(1) == SparseMatrix.identity(1, ctx.one)


def test_braid_weight_permutation():
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (1, 1))
    ops = LusztigOperators(m)
    from qflag.cartan import reflect_weight
    for i in (1, 2):
        th = ops.theta(i)
        for (r, c), _ in th.entries_sorted():
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
    ops = LusztigOperators(m)
    lhs = ops.theta(1).mul(ops.theta(2)).mul(ops.theta(1))
    rhs = ops.theta(2).mul(ops.theta(1)).mul(ops.theta(2))
    (k0, v0) = lhs.entries_sorted()[0]
    (k1, v1) = rhs.entries_sorted()[0]
    assert k0 == k1
    assert lhs == rhs.scale(v0 / v1)


def test_braid_identities_hold_above_full_verify_limit():
    # above the limit theta checks only the K-family itself
    ctx = context_for(A2)
    m = build_irreducible(ctx, A2, (2, 2))
    assert m.dim == 27 > BraidOperators.FULL_VERIFY_LIMIT
    ops = LusztigOperators(m)
    for i in (1, 2):
        th = ops.theta(i)
        for kind in ("K", "E", "F"):
            for j in (1, 2):
                assert th.mul(m.gen_matrix(kind, j)) == \
                    braid_image(m, i, kind, j).mul(th)


def test_rescaled_module_is_refused_above_full_verify_limit():
    # F -> 2F, E -> E/2 is still a module, but its basis vectors are no
    # longer exactly F-words of e_0: a Theta transported along its parents
    # fails the E- and F-identities, which nothing checks above the limit
    m = build_irreducible(context_for(A2), A2, (2, 2))
    w = rescaled(m)
    assert w.dim > BraidOperators.FULL_VERIFY_LIMIT
    check_defining_relations(w)
    with pytest.raises(ReducibleModuleError):
        LusztigOperators(w).theta(1)
    with pytest.raises(ReducibleModuleError):
        transport(w, w.f_mats, {0: m.ctx.one})
    assert reps.generated_by_highest(m)
    assert not reps.generated_by_highest(w)


def test_theta_check_reuses_the_twisted_f_images(monkeypatch):
    # T_1(F_j) is built once for the transport and read again by the check;
    # the E-images are built for the check on modules of dim <= the limit
    # only (V_(1,0), dim 3, not V_(2,2), dim 27), and the K-family is a scan
    # that builds no image
    calls = counting(monkeypatch, "braid_image")
    for lam, e_images in (((1, 0), [("E", 1), ("E", 2)]), ((2, 2), [])):
        m = build_irreducible(context_for(A2), A2, lam)
        calls.clear()
        LusztigOperators(m).theta(1)
        assert sorted(c[2:] for c in calls) == \
            e_images + [("F", 1), ("F", 2)]


@pytest.mark.parametrize("lam", [(1, 0), (2, 2)])
def test_theta_k_scan_refuses_an_entry_across_k_exponents(monkeypatch, lam):
    # one entry of the transported Theta_1 moved to a row of other
    # K-exponents: only the K-family can see it above the limit, and below
    # it the scan runs before the E- and F-products
    m = build_irreducible(context_for(A2), A2, lam)
    transport_ = reps.transport

    def moved(src, f_mats, seed):
        th = transport_(src, f_mats, seed)
        c = max(th.cols)
        r, v = next(iter(th.cols[c].items()))
        r2 = next(t for t in range(m.dim)
                  if [k[t] for k in m.k_exps] != [k[r] for k in m.k_exps])
        cols = dict(th.cols)
        cols[c] = {**{t: x for t, x in th.cols[c].items() if t != r}, r2: v}
        return SparseMatrix(th.nrows, th.ncols, cols)

    def product(self, other):
        raise AssertionError("a product ran before the K-family scan")

    monkeypatch.setattr(reps, "transport", moved)
    monkeypatch.setattr(SparseMatrix, "mul", product)
    calls = counting(monkeypatch, "braid_image")
    with pytest.raises(ConventionError, match=r"T_1\(K_j\)"):
        LusztigOperators(m).theta(1)
    assert sorted(c[2] for c in calls) == ["F", "F"]


def test_root_operator_basics():
    ctx = context_for(A1)
    m = build_irreducible(ctx, A1, (1,))
    ops = LusztigOperators(m)
    # r = 1 is the plain generator
    for kind in "EF":
        assert root_vector_matrix(ops.root_operator((1,), 1, kind)) == \
            m.gen_matrix(kind, 1)
    with pytest.raises(DomainError):
        ops.root_operator((1,), 2, "E")


def test_root_operator_cached_by_word_index_and_kind():
    m = build_irreducible(context_for(A2), A2, (1, 1))
    ops = LusztigOperators(m)
    word = longest_word(A2)
    first = {(r, kind): ops.root_operator(word, r, kind)
             for r in range(1, 4) for kind in "EF"}
    # the same object for an equal word, given as a list or a tuple
    for (r, kind), op in first.items():
        assert ops.root_operator(list(word), r, kind) is op
    # each root vector is Theta_{i1} ... Theta_{i(r-1)} conjugating its
    # simple generator, whatever order the calls and columns come in
    fresh = LusztigOperators(m)
    for r in (3, 1, 2):
        p = SparseMatrix.identity(m.dim, m.ctx.one)
        for i in word[:r - 1]:
            p = p.mul(fresh.theta(i))
        e = m.gen_matrix("E", word[r - 1])
        rv = fresh.root_operator(word, r, "E")
        for c in reversed(range(m.dim)):
            rv.column(c)
        op = root_vector_matrix(rv)
        assert op.mul(p) == p.mul(e)
        assert op == root_vector_matrix(first[(r, "E")])


@pytest.mark.parametrize("name", ["A2", "B2", "C2"])
def test_root_operator_weights(name):
    lie = LieType.parse(name)
    ctx = context_for(lie)
    word = longest_word(lie)
    seq = root_sequence(lie, word)
    m = build_irreducible(ctx, lie, (1, 1))
    ops = LusztigOperators(m)
    for r, beta in enumerate(seq, start=1):
        for kind, sgn in (("E", 1), ("F", -1)):
            op = root_vector_matrix(ops.root_operator(word, r, kind))
            assert not op.is_zero()
            for i in range(1, lie.rank + 1):
                ei = tuple(1 if t == i - 1 else 0 for t in range(lie.rank))
                ab = bilinear_form(lie, ei, beta, ("root", "root"))
                for (rr, cc), _ in op.entries_sorted():
                    assert m.k_exps[i - 1][rr] - m.k_exps[i - 1][cc] == sgn * ab


def test_root_operators_linearly_independent():
    # degree-1 PBW independence: for a fixed reduced word the E_{beta_r} are
    # linearly independent as matrices
    for lie in (A2, B2):
        ctx = context_for(lie)
        word = longest_word(lie)
        m = build_irreducible(ctx, lie, (1, 1))
        ops = LusztigOperators(m)
        span = SpanBasis()
        for r in range(1, len(word) + 1):
            op = root_vector_matrix(ops.root_operator(word, r, "E"))
            assert span.insert(dict(op.entries_sorted()))
        assert span.dim == len(word)


def test_root_operators_word_independence_of_spans():
    # different reduced words can give different operators; the joint kernel
    # on a slice is what downstream uses, checked in the calculus tests.
    lie = A2
    ctx = context_for(lie)
    m = build_irreducible(ctx, lie, (1, 1))
    ops = LusztigOperators(m)
    w1 = longest_word(lie)
    w2 = tuple(reversed(w1))
    ops1 = [root_vector_matrix(ops.root_operator(w1, r, "E"))
            for r in range(1, 4)]
    ops2 = [root_vector_matrix(ops.root_operator(w2, r, "E"))
            for r in range(1, 4)]
    s1, s2 = SpanBasis(), SpanBasis()
    for o in ops1:
        s1.insert(dict(o.entries_sorted()))
    for o in ops2:
        s2.insert(dict(o.entries_sorted()))
    assert s1.dim == s2.dim == 3


def test_root_vectors_hold_no_reference_cycle():
    # a dropped LusztigOperators frees its root vectors, with their cached
    # columns and Theta^-1 chains, by reference counting alone
    m = build_irreducible(context_for(A2), A2, (1, 1))
    ops = LusztigOperators(m)
    rv = ops.root_operator(longest_word(A2), 3, "E")
    rv.column(0)
    refs = [weakref.ref(ops), weakref.ref(rv)]
    gc.disable()
    try:
        del ops, rv
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_root_vector_builds_its_thetas_on_first_read(monkeypatch):
    # root_operator records the prefix only; the first column read builds
    # (and checks) the Theta_i of the prefix, and a root vector whose
    # columns are never read builds none
    m = build_irreducible(context_for(A2), A2, (1, 1))
    ops = LusztigOperators(m)
    built = []
    check = BraidOperators._check

    def recording(self, i, th, twisted):
        built.append(i)
        return check(self, i, th, twisted)

    monkeypatch.setattr(BraidOperators, "_check", recording)
    word = longest_word(A2)
    rvs = {(r, kind): ops.root_operator(word, r, kind)
           for r in range(1, 4) for kind in "EF"}
    assert built == []
    rvs[(2, "E")].column(0)
    assert built == [word[0]]
    rvs[(3, "F")].column(1)
    assert built == [word[0], word[1]]


def test_root_vector_column_inverts_only_the_blocks_on_its_chain(factored):
    # Theta_i^-1 is checked mod p when built and factors a weight block when
    # a column of it is first read: one column of E_beta reads one block of
    # each Theta^-1 along its chain, the weights w, s_i1 w, s_i2 s_i1 w, ...
    m = build_irreducible(context_for(A3), A3, (1, 0, 1))
    mult = {w: len(idx) for w, idx in m.weight_indices().items()}
    calls = factored
    word = longest_word(A3)
    r = len(word)
    rv = LusztigOperators(m).root_operator(word, r, "E")
    assert calls == []
    c = m.weights.index((0, 0, 0))
    rv.column(c)
    read, want, w = set(), [], m.weights[c]
    for i in word[:r - 1]:
        if (i, w) not in read:
            read.add((i, w))
            want.append(mult[w])
        w = cartan.reflect_weight(A3, i, w)
    assert calls == want
    assert len(calls) < len(set(word[:r - 1])) * len(mult)


def _oracle_modules():
    # every module of the six default flags' truncations up to dim 35
    # (C2 (2, 1) among them: a_12 = -2, so divided powers of order 2
    # appear), and the adjoint of D4
    cases = set()
    for name, depth in DEFAULT_DEPTH.items():
        lie = cartan.FlagSpec.parse(name).lie
        cases.update((str(lie), lam)
                     for lam in dominant_weights_up_to(lie, depth)
                     if weyl_dim(lie, lam) <= 35)
    assert ("C2", (2, 1)) in cases
    return sorted(cases) + [("D4", (0, 1, 0, 0))]


@pytest.mark.parametrize("name,lam", _oracle_modules(),
                         ids=lambda x: "".join(map(str, x)))
def test_root_vectors_equal_the_conjugated_matrices(name, lam):
    # every column of every E and F root vector, computed through the
    # Theta chain, equals p X p^-1 conjugated as whole matrices; and each
    # Theta_i, transported through the words of braid_image, equals the one
    # transported through whole braid-image matrices
    lie = LieType.parse(name)
    m = build_irreducible(context_for(lie), lie, lam)
    ops = LusztigOperators(m)
    for i in range(1, lie.rank + 1):
        assert ops.theta(i) == theta_by_matrices(m, i)
    word = longest_word(lie)
    for r in range(1, len(word) + 1):
        for kind in "EF":
            assert root_vector_matrix(ops.root_operator(word, r, kind)) == \
                conjugated_root_vector(ops, word, r, kind)


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
    # dims 330, 378 and 512
    (B3, (2, 1, 0),
     "c1f28aeb1c7d51437e401e7d12ef24db3dddae116d8585bb703412339a47fc90"),
    (B3, (0, 1, 2),
     "052542cab977eaf81b7526cb7afd761dc39d283a49714eac88e48e368badea94"),
    (B3, (1, 1, 1),
     "4658a9a4ab87a3841bc80e43313075a2b9b1b94da4475cf13fced9c426c11297"),
])
def test_build_digest_pinned(lie, lam, digest):
    # digests from an independent construction (the contravariant form's
    # Gram rows); V_lam and its F-word expansions are unique, so any correct
    # method reproduces them
    m = build_irreducible(context_for(lie), lie, lam, guard=512)
    assert module_digest(m) == digest


@pytest.mark.parametrize("lie,lam", [(B2, (2, 2)), (C3, (0, 0, 2)),
                                     (A3, (1, 0, 1))])
def test_basis_follows_weight_multiplicities_order(lie, lam):
    m = build_irreducible(context_for(lie), lie, lam, guard=100)
    assert list(cartan.weight_multiplicities(lie, lam)) == \
        list(dict.fromkeys(m.weights))


def raising_columns(m):
    """Per weight space below the highest, in build order: the weight, its
    multiplicity and the exact raising column of each candidate F_j.u,
    recomputed from the finished module as E_i(F_j e_u) for every node i,
    merged."""
    n = m.lie.rank
    amat = cartan.cartan_matrix(m.lie)
    idx = m.weight_indices()
    out = []
    for nu in list(idx)[1:]:
        cols = []
        for j in range(n):
            above = tuple(x + amat[k][j] for k, x in enumerate(nu))
            for u in idx.get(above, ()):
                v = m.f_mats[j].column(u)
                col = {}
                for i in range(n):
                    col.update(m.e_mats[i].matvec(v))
                cols.append(col)
        out.append((nu, len(idx[nu]), cols))
    return out


def images_mod_p(cols):
    return [linalg.mod_vector(col) for col in cols]


def modular_passes(monkeypatch):
    """Each modular pass of the build: the rows it reduced, as it read them,
    and the profile it returned."""
    passes = []
    original = reps.mod_row_profile

    def wrapper(rows, leads=None):
        read = []

        def reading():
            for row in rows:
                read.append(row)
                yield row

        profile = original(reading(), leads)
        passes.append((read, profile))
        return profile

    monkeypatch.setattr(reps, "mod_row_profile", wrapper)
    return passes


def recorded_reads(monkeypatch):
    """Per weight space, in build order: its columns mod p, its profile,
    the (candidate, column) pairs read in full, in order, and the columns
    read at the lead rows only, by candidate."""
    spaces = []
    select = reps._select_candidates

    def record(mods, want, column, column_at):
        full, at = [], {}

        def reading(t):
            full.append((t, column(t)))
            return full[-1][1]

        def reading_at(t, keys):
            at[t] = column_at(t, keys)
            return at[t]

        out = select(mods, want, reading, reading_at)
        spaces.append((mods, out[0], full, at))
        return out

    monkeypatch.setattr(reps, "_select_candidates", record)
    return spaces


def test_modular_profile_matches_exact_on_real_raising_matrices(monkeypatch):
    # every column the build reduces mod p is the image of the exact
    # raising column, and on these raising matrices the modular profile is
    # the exact column rank profile
    passes = modular_passes(monkeypatch)
    m = build_irreducible(context_for(B2), B2, (2, 2), guard=100)
    spaces = raising_columns(m)
    assert len(spaces) > 30 and any(len(c) > 4 for _, _, c in spaces)
    assert [rows for rows, _ in passes] == [
        images_mod_p(cols) for _, _, cols in spaces]
    for (_, want, cols), (_, profile) in zip(spaces, passes):
        exact = column_rank_profile(rows_from_columns(cols), len(cols))
        assert mod_row_profile(images_mod_p(cols)) == profile == exact
        assert len(profile) == want


def counting(monkeypatch, name):
    calls = []
    original = getattr(reps, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reps, name, wrapper)
    return calls


def test_modular_path_needs_no_exact_profile(monkeypatch):
    # every weight space takes the modular path, every candidate read mod p
    # off the module's own images: the modular profile has the
    # multiplicity's size, and one exact RREF of that many rows confirms it
    # (none when every candidate is kept); a fallback adds an elimination
    # of every row
    spaces = []
    passes = modular_passes(monkeypatch)
    calls = counting(monkeypatch, "eliminate")
    inverses = counting(monkeypatch, "BlockInverse")
    select = reps._select_candidates

    def record(mods, want, column, column_at):
        starts = len(passes), len(calls)
        out = select(mods, want, column, column_at)
        spaces.append((mods, want, passes[starts[0]:], calls[starts[1]:]))
        return out

    monkeypatch.setattr(reps, "_select_candidates", record)
    build_irreducible(context_for(C2), C2, (2, 1))
    # specialized mode: Fractions take the same path
    build_irreducible(context_for(C2, s0=Fraction(3, 2)), C2, (2, 1))
    assert inverses == []
    assert any(want < len(mods) for mods, want, _, _ in spaces)
    for mods, want, space_passes, elims in spaces:
        assert None not in mods
        m = len(mods)
        [(rows, profile)] = space_passes
        assert len(rows) == m and profile is not None
        assert len(profile) == want
        assert [(len(rows), ncols) for rows, ncols in elims] == (
            [] if want == m else [(want, m)])


def test_one_modular_pass_per_weight_space(monkeypatch):
    # each weight space with candidates is reduced mod p once, and the one
    # exact RREF takes the exact raising matrix's rows that the kept
    # candidates led with in that pass, in increasing key order
    passes = modular_passes(monkeypatch)
    calls = counting(monkeypatch, "eliminate")
    selected = []
    select = reps._select_candidates

    def record(mods, want, column, column_at):
        starts = len(passes), len(calls)
        out = select(mods, want, column, column_at)
        selected.append((passes[starts[0]:], calls[starts[1]:]))
        return out

    monkeypatch.setattr(reps, "_select_candidates", record)
    m = build_irreducible(context_for(B2), B2, (2, 2), guard=100)
    spaces = raising_columns(m)
    # every weight below the highest has candidates
    assert len(selected) == len(spaces) == len(
        cartan.weight_multiplicities(B2, (2, 2))) - 1
    assert any(want < len(cols) for _, want, cols in spaces)
    for (_, want, cols), (space_passes, elims) in zip(spaces, selected):
        [(rows, profile)] = space_passes
        images = images_mod_p(cols)
        assert rows == images
        leads = []
        assert mod_row_profile(images, leads) == profile
        m = len(cols)
        led = [{t: col[g] for t, col in enumerate(cols) if g in col}
               for g in sorted(leads)]
        assert elims == ([] if want == m else [(led, m)])


@pytest.mark.parametrize("lie,lam", [(B2, (2, 2)), (C3, (0, 0, 2))])
def test_later_candidates_are_exact_at_lead_rows_only(monkeypatch, lie, lam):
    # a candidate the modular pass drops is never computed exactly in full:
    # the exact RREF reads it at the kept columns' leading rows only, and
    # each kept candidate is read in full once
    spaces = recorded_reads(monkeypatch)
    m = build_irreducible(context_for(lie), lie, lam, guard=100)
    dropped = 0
    for (mods, profile, full, at), (_, want, exact) in zip(
            spaces, raising_columns(m)):
        assert len(profile) == want
        assert full == [(t, exact[t]) for t in profile]
        leads = []
        mod_row_profile(mods, leads)
        assert sorted(at) == [t for t in range(len(exact))
                              if t not in profile]
        for t, col in at.items():
            dropped += 1
            assert col == {g: v for g, v in exact[t].items() if g in leads}
    assert dropped > 50


@pytest.mark.parametrize("lie,lam,dim", [(B2, (2, 2), 81),
                                         (C3, (0, 0, 2), 84)])
def test_a_build_reads_one_full_column_per_kept_candidate(monkeypatch, lie,
                                                          lam, dim):
    # every basis vector below the highest is a kept candidate, and no
    # other candidate's raising column is computed in full
    spaces = recorded_reads(monkeypatch)
    m = build_irreducible(context_for(lie), lie, lam, guard=100)
    assert m.dim == dim
    assert sum(len(full) for _, _, full, _ in spaces) == dim - 1


def test_no_int_is_imaged_mod_p(monkeypatch):
    # the build's columns mod p are residues already and reach the modular
    # profile as they are: neither a build (with dropped candidates, in
    # both modes) nor a Clebsch-Gordan decomposition images an int
    imaged = []
    image = linalg.mod_image

    def recording(v):
        imaged.append(type(v))
        return image(v)

    for mod in (linalg, reps):
        monkeypatch.setattr(mod, "mod_image", recording)
    ctx = context_for(B2)
    v = build_irreducible(ctx, B2, (1, 1))
    build_irreducible(context_for(B2, s0=Fraction(3, 2)), B2, (1, 1))
    built = len(imaged)
    decompose(v, build_irreducible(ctx, B2, (1, 0)), store_for(B2, ctx))
    assert 0 < built < len(imaged)
    assert int not in imaged


def test_fallback_on_vanishing_denominator(monkeypatch):
    ctx = context_for(A1)
    pole = ctx.one / (ctx.s_power(1) - MOD_POINT)
    zero, one, two = ctx.zero, ctx.one, ctx.one + ctx.one
    assert linalg.mod_image(pole) is None
    # three candidates, the second equal to the first
    cols = [{0: pole, 1: one, 2: one}, {0: pole, 1: one, 2: one},
            {0: one, 1: two, 2: one}]
    mods = images_mod_p(cols)
    assert mods[:2] == [None, None]
    calls = counting(monkeypatch, "eliminate")
    profile, red = reps._select_candidates(
        mods, 2, cols.__getitem__,
        lambda t, keys: {g: v for g, v in cols[t].items() if g in keys})
    assert calls == [(rows_from_columns(cols), 3)]    # every row, exactly
    assert profile == [0, 2]
    assert [row.get(1, zero) for row in red] == [one, zero]


@pytest.mark.parametrize("lie,lam", [(B2, (1, 1)), (A3, (1, 0, 1))])
def test_exact_fallback_builds_the_same_module(monkeypatch, lie, lam):
    # with no image mod p anywhere, every weight space reduces every row of
    # its exact raising matrix, and the module comes out the same
    ctx = context_for(lie)
    ref = build_irreducible(ctx, lie, lam)
    spaces = raising_columns(ref)
    assert any(want < len(cols) for _, want, cols in spaces)
    for mod in (linalg, reps):
        monkeypatch.setattr(mod, "mod_image", lambda v: None)
    calls = counting(monkeypatch, "eliminate")
    assert module_digest(build_irreducible(ctx, lie, lam)) == \
        module_digest(ref)
    assert calls == [(rows_from_columns(cols), len(cols))
                     for _, _, cols in spaces]


def test_a_candidate_without_an_image_reduces_its_space_exactly(monkeypatch):
    # one candidate of a weight space that drops candidates has no image
    # mod p: that space reduces every row of its exact raising matrix, the
    # others keep the modular path, and the module is the same
    ctx = context_for(B2)
    ref = build_irreducible(ctx, B2, (2, 2), guard=100)
    spaces = raising_columns(ref)
    target = next(k for k, (_, want, cols) in enumerate(spaces)
                  if 1 < want < len(cols))
    calls = counting(monkeypatch, "eliminate")
    elims = []
    select = reps._select_candidates

    def record(mods, want, column, column_at):
        if len(elims) == target:
            mods = mods[:-1] + [None]
        start = len(calls)
        out = select(mods, want, column, column_at)
        elims.append(calls[start:])
        return out

    monkeypatch.setattr(reps, "_select_candidates", record)
    assert module_digest(build_irreducible(ctx, B2, (2, 2), guard=100)) == \
        module_digest(ref)
    assert len(elims) == len(spaces)
    for k, ((_, want, cols), space_elims) in enumerate(zip(spaces, elims)):
        m = len(cols)
        if k == target:
            assert space_elims == [(rows_from_columns(cols), m)]
        else:
            assert [(len(rows), ncols) for rows, ncols in space_elims] == (
                [] if want == m else [(want, m)])


def test_rank_against_multiplicity_checked_per_weight(monkeypatch):
    wrong = dict(cartan.weight_multiplicities(A2, (1, 1)))
    wrong[(0, 0)] = 1
    monkeypatch.setattr(cartan, "weight_multiplicities",
                        lambda lie, lam: wrong)
    with pytest.raises(ConventionError, match="multiplicity"):
        build_irreducible(context_for(A2), A2, (1, 1))
