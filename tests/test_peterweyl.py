import hashlib
import itertools
import json
import random
import sys

import pytest

from oracles import slice_dim_by_weights, zbar_by_solve
from qflag import linalg
from qflag.cartan import LieType, weyl_dim
from qflag.errors import ConventionError
from qflag.linalg import SparseMatrix, dv_add_scaled
from qflag.peterweyl import PWAlgebra
from qflag.verify import DEFAULT_FLAGS

A1 = LieType.parse("A1")
A2 = LieType.parse("A2")


def test_unit_and_counit(algebras):
    alg = algebras("A1")
    one = alg.one()
    a = alg.basis_element((1,), 0, 0)
    assert alg.multiply(one, a) == a == alg.multiply(a, one)
    assert alg.counit(one) == 1
    # counit of a basis coefficient is the Kronecker delta of its slots
    assert alg.counit(alg.basis_element((1,), 0, 1)) == 0
    assert alg.counit(alg.basis_element((2,), 1, 1)) == 1


def test_counit_multiplicative(algebras, flag_of):
    alg = algebras("A2")
    gens = alg.generators(flag_of("A2/1"))
    rng = random.Random(5)
    pool = list(gens.z) + list(gens.zbar)
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert alg.counit(alg.multiply(a, b)) == alg.counit(a) * alg.counit(b)


def test_associativity_on_generator_products(algebras, flag_of):
    for name in ("A1/1", "A2/1"):
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        gens = alg.generators(flag)
        rng = random.Random(7)
        pool = list(gens.z) + list(gens.zbar)
        for _ in range(8):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert alg.multiply(alg.multiply(a, b), c) == \
                alg.multiply(a, alg.multiply(b, c))


def test_act_v_basics(algebras):
    alg = algebras("A1")
    # K acts on the vector slot by q^((alpha_i, wt v))
    a = alg.basis_element((2,), 1, 0)
    m = alg.module((2,))
    scaled = alg.act_v(("K", 1), a)
    c = alg.ctx.q_power(m.k_exps[0][0])
    assert scaled == {k: c * v for k, v in a.items()}
    # E kills the highest-weight column
    hw = m.highest_index
    assert alg.act_v(("E", 1), alg.basis_element((2,), 0, hw)) == {}


def test_actions_drop_entries_that_cancel(algebras):
    # E_1 on V_(2,1) has a row and a column with two entries: two terms
    # matched to them cancel under the left and the right action, and the
    # results equal the sums of the single-term actions (no zero kept)
    alg = algebras("A2")
    lam, tag = (2, 1), ("E", 1)
    e1 = alg.module(lam).gen_matrix(*tag)
    r, row = next((r, row) for r, row in sorted(e1.transpose().cols.items())
                  if len(row) > 1)
    s, col = next((s, col) for s, col in sorted(e1.cols.items())
                  if len(col) > 1)

    def check(act, pair, key, at):
        (c1, x1), (c2, x2) = sorted(pair.items())[:2]
        out = act(tag, {key(c1): x2, key(c2): -x1})
        assert at not in out
        want = act(tag, {key(c1): x2})
        dv_add_scaled(want, act(tag, {key(c2): x1}), -1)
        assert out == want

    check(alg.act_v, row, lambda c: (lam, 0, c), (lam, 0, r))
    check(alg.act_f, col, lambda c: (lam, c, 0), (lam, s, 0))


def test_act_leibniz_single_generators(algebras, flag_of):
    alg = algebras("A1")
    gens = alg.generators(flag_of("A1/1"))
    pool = list(gens.z) + list(gens.zbar)
    for x, y in itertools.product(pool, pool):
        ab = alg.multiply(x, y)
        lhs = alg.act_v(("E", 1), ab)
        rhs = alg.multiply(alg.act_v(("E", 1), x), alg.act_v(("K", 1), y))
        dv_add_scaled(rhs, alg.multiply(x, alg.act_v(("E", 1), y)), 1)
        assert lhs == rhs
        lhs = alg.act_v(("F", 1), ab)
        rhs = alg.multiply(alg.act_v(("F", 1), x), y)
        dv_add_scaled(rhs, alg.multiply(alg.act_v(("Kinv", 1), x),
                                        alg.act_v(("F", 1), y)), 1)
        assert lhs == rhs


def test_act_slots_commute(algebras, flag_of):
    alg = algebras("A2")
    gens = alg.generators(flag_of("A2/1"))
    for a in list(gens.z) + list(gens.zbar):
        for i in (1, 2):
            x = alg.act_f(("F", i), alg.act_v(("E", i), a))
            y = alg.act_v(("E", i), alg.act_f(("F", i), a))
            assert x == y


def test_counit_pairing_consistency(algebras, flag_of):
    # counit(X acting on a) equals evaluating the matrix coefficient at X
    alg = algebras("A1")
    m = alg.module((1,))
    a = alg.basis_element((1,), 0, 1)   # c_{f_0, e_1}
    # E e_1 = e_0, so counit(E acting) = f_0(E e_1) = 1
    assert alg.counit(alg.act_v(("E", 1), a)) == 1
    assert alg.counit(alg.act_v(("F", 1), a)) == 0


def test_invariant_subspace(algebras, flag_of):
    alg1 = algebras("A1")
    f1 = flag_of("A1/1")
    # degree 0: the weight-0 subspace of V_k, 1-dimensional iff k even
    # (no uncrossed node); blocks without an invariant are left out
    sl = alg1.graded_component(f1, 0, 3)
    assert {lam: len(cols) for lam, cols in sl.blocks} == {(0,): 1, (2,): 1}
    assert sl.block_weights() == ((0,), (2,))
    alg2 = algebras("A2")
    f2 = flag_of("A2/1")
    # the highest weight vector of V_{w1} is U_q(l^s)-invariant, of degree 1
    blocks = dict(alg2.graded_component(f2, 1, 1).blocks)
    hw = alg2.module((1, 0)).highest_index
    assert any(set(col) == {hw} for col in blocks[(1, 0)])


def test_generators(algebras, flag_of):
    for name, n_expected in (("A1/1", 2), ("A2/1", 3), ("B2/1", 5)):
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        gens = alg.generators(flag)
        assert len(gens.z) == len(gens.zbar) == n_expected == \
            weyl_dim(flag.lie, gens.lam)
        # sum zbar_i z_i = 1 exactly after normalization
        s = {}
        for zb, z in zip(gens.zbar, gens.z):
            dv_add_scaled(s, alg.multiply(zb, z), 1)
        assert s == alg.one()
        # every z_i is invariant for the semisimple Levi part under act_v,
        # and K_x scales it by q^((alpha_x, w_x))
        for j in flag.uncrossed:
            for z in gens.z:
                assert alg.act_v(("E", j), z) == {}
                assert alg.act_v(("F", j), z) == {}
                assert alg.act_v(("K", j), z) == z
        from qflag.cartan import symmetrizers
        c = alg.ctx.q_power(symmetrizers(flag.lie)[flag.crossed - 1])
        for z in gens.z:
            assert alg.act_v(("K", flag.crossed), z) == \
                {k: c * v for k, v in z.items()}


def test_generators_call_no_solver(monkeypatch, flag_of):
    # zbar is read off the pairing; the solve of the oracle gives the same
    calls = []
    solve = linalg.solve_unique

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "solve_unique", None) is solve:
            monkeypatch.setattr(mod, "solve_unique", counting)
    for name in DEFAULT_FLAGS:
        flag = flag_of(name)
        alg = PWAlgebra(flag.lie)
        gens = alg.generators(flag)
        assert calls == []
        raw = [{k: gens.normalization * v for k, v in zb.items()}
               for zb in gens.zbar]
        assert raw == zbar_by_solve(alg, flag)
        assert len(calls) == 1
        calls.clear()


def test_generators_refuse_a_pairing_with_a_second_lowest_entry(
        monkeypatch, flag_of):
    # the column that meets the highest weight row must have no other entry
    flag = flag_of("A2/1")
    pairing = PWAlgebra.pairing

    def smudged(self, lam):
        p = pairing(self, lam)
        hw = self.module(lam).highest_index
        (low,) = [c for c, col in p.cols.items() if hw in col]
        cols = dict(p.cols)
        cols[low] = {**cols[low], (hw + 1) % p.nrows: self.ctx.one}
        return SparseMatrix(p.nrows, p.ncols, cols)

    monkeypatch.setattr(PWAlgebra, "pairing", smudged)
    with pytest.raises(ConventionError, match="pairing"):
        PWAlgebra(flag.lie).generators(flag)


def test_products_have_no_zero_entry(algebras, flag_of):
    # z_i zbar_j times a generator has terms that cancel in the accumulator
    alg = algebras("A2")
    gens = alg.generators(flag_of("A2/1"))
    for z in gens.z:
        for zb in gens.zbar:
            p = alg.multiply(z, zb)
            assert p and all(p.values())
            for g in gens.z + gens.zbar:
                pg = alg.multiply(p, g)
                assert pg and all(pg.values())


def test_suites_leave_the_cached_generators_alone(flag_of):
    # every suite reads z and zbar from the algebra's cache; none may have
    # used one of them as an accumulator
    from qflag import verify
    flag = flag_of("A2/1")
    alg = PWAlgebra(A2)
    assert verify.verify_suite(flag, verify.SUITES, algebra=alg)["ok"]
    gens, fresh = alg.generators(flag), PWAlgebra(A2).generators(flag)
    assert gens.z == fresh.z and gens.zbar == fresh.zbar


def test_z_products_stay_in_cartan_block(algebras, flag_of):
    alg = algebras("A1")
    gens = alg.generators(flag_of("A1/1"))
    zz = alg.multiply(gens.z[0], gens.z[1])
    assert {k[0] for k in zz} == {(2,)}
    z3 = alg.multiply(zz, gens.z[0])
    assert {k[0] for k in z3} == {(3,)}


def test_block_independence(algebras, flag_of):
    # products land only in blocks of the tensor decomposition
    alg = algebras("A2")
    gens = alg.generators(flag_of("A2/1"))
    p = alg.multiply(gens.zbar[0], gens.z[1])
    cg = alg.cg(gens.lam_bar, gens.lam)
    allowed = {s.nu for s in cg.summands}
    assert {k[0] for k in p} <= allowed


def test_graded_component_dims_oracle(algebras, flag_of):
    # brute-force weight/invariant enumeration oracle
    alg1 = algebras("A1")
    f1 = flag_of("A1/1")
    sl = alg1.graded_component(f1, 1, 3)
    assert sl.dim == 6 == slice_dim_by_weights(A1, f1, 1, 3)
    assert alg1.graded_component(f1, 0, 3).dim == \
        slice_dim_by_weights(A1, f1, 0, 3)
    alg2 = algebras("A2")
    f2 = flag_of("A2/1")
    for k in (-1, 0, 1, 2):
        assert alg2.graded_component(f2, k, 3).dim == \
            slice_dim_by_weights(A2, f2, k, 3)


def test_grading_multiplicative(algebras, flag_of):
    alg = algebras("A1")
    flag = flag_of("A1/1")
    from qflag.linalg import SpanBasis
    sl_sum = alg.graded_component(flag, 1, 4)
    span = SpanBasis()
    for e in alg.slice_elements(sl_sum):
        span.insert(e)
    for a in alg.slice_elements(alg.graded_component(flag, 2, 2)):
        for b in alg.slice_elements(alg.graded_component(flag, -1, 1)):
            p = alg.multiply(a, b)
            assert span.contains(p)


@pytest.mark.parametrize("lam,mu,digest", [
    ((0, 1), (1, 0),
     "b5b82f86bc1eeae2bca9374b8b92b4f2eb63ca82cb65daefe9416f3a1cf1a677"),
    ((1, 0), (1, 0),
     "b2ae3583e92e4cc8b5c736dafc358124dd4332acf8013b5a35de46a19d3fb831"),
    ((1, 1), (1, 1),
     "64686a5a85963fc69587c43d51e6b2587d888145a1c3c959cde12bf19af6759b"),
])
def test_cg_seeds_are_pinned(lam, mu, digest):
    # each summand's weight and highest weight vector, as decompose finds
    # them, whichever projection blocks are read
    cg = PWAlgebra(A2).cg(lam, mu)
    if lam == mu == (1, 1):
        # (1,1) (x) (1,1) holds the adjoint summand twice
        assert [s.nu for s in cg.summands].count((1, 1)) == 2
    text = json.dumps(
        [{"nu": list(s.nu),
          "hw": [[t, str(v)] for t, v in sorted(s.emb.cols[0].items())]}
         for s in cg.summands], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_specialized_mode_products(flag_of):
    from fractions import Fraction
    from qflag.reps import context_for
    ctx = context_for(A1, s0=Fraction(3, 2))
    alg = PWAlgebra(A1, ctx=ctx)
    gens = alg.generators(flag_of("A1/1"))
    s = {}
    for zb, z in zip(gens.zbar, gens.z):
        dv_add_scaled(s, alg.multiply(zb, z), 1)
    assert s == alg.one()
