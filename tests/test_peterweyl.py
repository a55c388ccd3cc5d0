import itertools
import json
import os
import random

import pytest

from oracles import slice_dim_by_weights
from qflag.cartan import LieType, weyl_dim
from qflag.peterweyl import PWAlgebra, PWElement

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
    assert scaled == a.scale(alg.ctx.q_power(m.k_exps[0][0]))
    # E kills the highest-weight column
    hw = m.highest_index
    assert alg.act_v(("E", 1), alg.basis_element((2,), 0, hw)).is_zero()


def test_act_v_word(algebras):
    alg = algebras("A1")
    a = alg.basis_element((2,), 0, 2)
    word = (("E", 1), ("E", 1))
    stepwise = alg.act_v(("E", 1), alg.act_v(("E", 1), a))
    assert alg.act_v(word, a) == stepwise
    assert not stepwise.is_zero()
    # right action composes the other way around
    b = alg.basis_element((2,), 2, 0)
    lhs = alg.act_f((("F", 1), ("E", 1)), b)
    rhs = alg.act_f(("E", 1), alg.act_f(("F", 1), b))
    assert lhs == rhs


def test_act_leibniz_single_generators(algebras, flag_of):
    alg = algebras("A1")
    gens = alg.generators(flag_of("A1/1"))
    pool = list(gens.z) + list(gens.zbar)
    for x, y in itertools.product(pool, pool):
        ab = alg.multiply(x, y)
        lhs = alg.act_v(("E", 1), ab)
        rhs = alg.multiply(alg.act_v(("E", 1), x), alg.act_v(("K", 1), y)) + \
            alg.multiply(x, alg.act_v(("E", 1), y))
        assert lhs == rhs
        lhs = alg.act_v(("F", 1), ab)
        rhs = alg.multiply(alg.act_v(("F", 1), x), y) + \
            alg.multiply(alg.act_v(("Kinv", 1), x), alg.act_v(("F", 1), y))
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
    # weight-0 subspace of V_k: 1-dimensional iff k even (S is empty)
    assert len(alg1.invariant_subspace((2,), f1, semisimple=False)) == 1
    assert len(alg1.invariant_subspace((3,), f1, semisimple=False)) == 0
    assert len(alg1.invariant_subspace((0,), f1, semisimple=False)) == 1
    alg2 = algebras("A2")
    f2 = flag_of("A2/1")
    # the highest weight vector of V_{w1} is U_q(l^s)-invariant
    inv = alg2.invariant_subspace((1, 0), f2, semisimple=True)
    hw = alg2.module((1, 0)).highest_index
    assert any(set(col) == {hw} for col in inv)


def test_generators(algebras, flag_of):
    for name, n_expected in (("A1/1", 2), ("A2/1", 3), ("B2/1", 5)):
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        gens = alg.generators(flag)
        assert len(gens.z) == len(gens.zbar) == n_expected == \
            weyl_dim(flag.lie, gens.lam)
        # sum zbar_i z_i = 1 exactly after normalization
        s = PWElement()
        for zb, z in zip(gens.zbar, gens.z):
            s = s + alg.multiply(zb, z)
        assert s == alg.one()
        # every z_i is invariant for the semisimple Levi part under act_v,
        # and K_x scales it by q^((alpha_x, w_x))
        for j in flag.uncrossed:
            for z in gens.z:
                assert alg.act_v(("E", j), z).is_zero()
                assert alg.act_v(("F", j), z).is_zero()
                assert alg.act_v(("K", j), z) == z
        from qflag.cartan import symmetrizers
        dx = symmetrizers(flag.lie)[flag.crossed - 1]
        for z in gens.z:
            assert alg.act_v(("K", flag.crossed), z) == \
                z.scale(alg.ctx.q_power(dx))


def test_z_products_stay_in_cartan_block(algebras, flag_of):
    alg = algebras("A1")
    gens = alg.generators(flag_of("A1/1"))
    zz = alg.multiply(gens.z[0], gens.z[1])
    assert zz.blocks() == [(2,)]
    z3 = alg.multiply(zz, gens.z[0])
    assert z3.blocks() == [(3,)]


def test_block_independence(algebras, flag_of):
    # products land only in blocks of the tensor decomposition
    alg = algebras("A2")
    gens = alg.generators(flag_of("A2/1"))
    p = alg.multiply(gens.zbar[0], gens.z[1])
    cg = alg.cg(gens.lam_bar, gens.lam)
    allowed = {s.nu for s in cg.summands}
    assert set(p.blocks()) <= allowed


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
        span.insert(dict(e.coeffs))
    for a in alg.slice_elements(alg.graded_component(flag, 2, 2)):
        for b in alg.slice_elements(alg.graded_component(flag, -1, 1)):
            p = alg.multiply(a, b)
            if p.is_zero():
                continue
            assert span.contains(dict(p.coeffs))


def test_structure_cache_roundtrip(tmp_path, flag_of):
    cache = str(tmp_path / "cg")
    alg1 = PWAlgebra(A1, cache_dir=cache)
    gens = alg1.generators(flag_of("A1/1"))
    p1 = alg1.multiply(gens.z[0], gens.zbar[1])
    import os
    files = sorted(os.listdir(cache))
    assert files and all(f.startswith("cg_A1_") for f in files)
    # a second algebra instance reloads the persisted constants bit-exactly
    alg2 = PWAlgebra(A1, cache_dir=cache)
    gens2 = alg2.generators(flag_of("A1/1"))
    p2 = alg2.multiply(gens2.z[0], gens2.zbar[1])
    assert p1 == p2
    before = {f: open(os.path.join(cache, f)).read() for f in files}
    # rerun and compare bytes (idempotent persistence)
    alg3 = PWAlgebra(A1, cache_dir=cache)
    gens3 = alg3.generators(flag_of("A1/1"))
    alg3.multiply(gens3.z[0], gens3.zbar[1])
    after = {f: open(os.path.join(cache, f)).read() for f in sorted(os.listdir(cache))}
    assert before == after


def test_corrupt_cache_is_a_miss(tmp_path, flag_of):
    cache = str(tmp_path / "cg")
    alg1 = PWAlgebra(A1, cache_dir=cache)
    gens = alg1.generators(flag_of("A1/1"))
    ref = alg1.multiply(gens.z[0], gens.z[1])
    import os
    files = sorted(os.listdir(cache))
    with open(os.path.join(cache, files[0]), "w") as fh:
        fh.write("{not json")
    alg2 = PWAlgebra(A1, cache_dir=cache)
    gens2 = alg2.generators(flag_of("A1/1"))
    assert alg2.multiply(gens2.z[0], gens2.z[1]) == ref


def test_specialized_mode_products(flag_of):
    from fractions import Fraction
    from qflag.reps import context_for
    ctx = context_for(A1, s0=Fraction(3, 2))
    alg = PWAlgebra(A1, ctx=ctx)
    gens = alg.generators(flag_of("A1/1"))
    s = PWElement()
    for zb, z in zip(gens.zbar, gens.z):
        s = s + alg.multiply(zb, z)
    assert s == alg.one()


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set_summand(key, value):
    def edit(doc):
        doc["summands"][0][key] = value
    return edit


def _set_entry(field, pos, value):
    def edit(doc):
        doc["summands"][0][field][0][pos] = value
    return edit


def _drop_last_summand(doc):
    doc["summands"].pop()


@pytest.mark.parametrize("edit", [
    _drop("summands"),
    lambda doc: doc.update(summands="x"),
    _set_summand("nu", "2"),
    _set_summand("nu", [4]),
    _set_summand("emb", None),
    _set_entry("emb", 2, "s^^2"),
    _set_entry("proj", 2, "(1)/(0)"),
    _set_entry("emb", 0, 99),
    _set_entry("proj", 1, -1),
    _drop_last_summand,
], ids=["no-summands", "summands-str", "nu-str", "nu-above-top", "emb-null",
        "unparsable", "zero-denominator", "row-out-of-range",
        "col-out-of-range", "dims-short"])
def test_malformed_cache_file_is_a_miss_and_rewritten(tmp_path, edit):
    cache = str(tmp_path / "cg")
    ref = PWAlgebra(A1, cache_dir=cache).cg((1,), (1,))
    path = os.path.join(cache, "cg_A1_L2_v1_1_1.json")
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    got = PWAlgebra(A1, cache_dir=cache).cg((1,), (1,))
    assert got == ref
    with open(path) as fh:
        assert fh.read() == text
