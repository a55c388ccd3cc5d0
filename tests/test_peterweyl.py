import hashlib
import itertools
import json
import os
import random
import tempfile

import pytest

from oracles import slice_dim_by_weights
from qflag import linalg, peterweyl, reps
from qflag.cartan import LieType, weyl_dim
from qflag.cli import main
from qflag.linalg import dv_add_scaled
from qflag.peterweyl import PWAlgebra
from qflag.scalars import scalar_from_str

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


def test_cold_cache_files_are_pinned(tmp_path, capsys):
    # each file holds the seeds decompose finds, whichever blocks were read
    cache = str(tmp_path / "cg")
    assert main(["--cache", cache, "verify", "--flag", "A2/1",
                 "--suite", "borel-weil", "--depth", "2"]) == 0
    capsys.readouterr()
    digests = {}
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == {
        "cg_A2_L3_v2_0-1_1-0.json":
            "ebb5b258a3afc6c84075ca66286bce6ffab256458f4126861e38f36a4aeb0eb0",
        "cg_A2_L3_v2_1-0_1-0.json":
            "335add77e8aecc8d48f55c78961f7e8c1a7dba061b3df934ed78421c16392235",
    }


def test_cold_cache_run_inverts_no_more_than_an_uncached_one(
        tmp_path, capsys, monkeypatch):
    calls = []
    original = linalg.invert_dense

    def counted(rows, one):
        calls.append(len(rows))
        return original(rows, one)

    # reps inverts CG blocks by its own name, invert_blocks by linalg's
    monkeypatch.setattr(linalg, "invert_dense", counted)
    monkeypatch.setattr(reps, "invert_dense", counted)
    argv = ["verify", "--flag", "A2/1", "--suite", "borel-weil",
            "--depth", "2"]
    assert main(argv) == 0
    uncached = sorted(calls)
    calls.clear()
    assert main(["--cache", str(tmp_path / "cg")] + argv) == 0
    capsys.readouterr()
    assert sorted(calls) == uncached


@pytest.mark.parametrize("lie,lam,mu", [
    (A1, (1,), (2,)), (A2, (1, 0), (0, 1)), (A2, (1, 1), (1, 1)),
    (LieType.parse("B2"), (1, 0), (0, 1)),
    (LieType.parse("C2"), (1, 1), (0, 1))])
def test_warm_hit_equals_computed_without_decomposing(
        tmp_path, monkeypatch, lie, lam, mu):
    cache = str(tmp_path / "cg")
    ref = PWAlgebra(lie, cache_dir=cache).cg(lam, mu)
    if lam == mu == (1, 1):
        # (1,1) (x) (1,1) holds the adjoint summand twice
        assert [s.nu for s in ref.summands].count((1, 1)) == 2

    def refuse(*args):
        raise AssertionError("a cache hit must not recompute")

    monkeypatch.setattr(peterweyl, "decompose", refuse)
    monkeypatch.setattr(reps, "decompose", refuse)
    monkeypatch.setattr(reps, "joint_kernel", refuse)
    assert PWAlgebra(lie, cache_dir=cache).cg(lam, mu) == ref


def test_cache_write_goes_through_a_cg_temp_file(tmp_path, monkeypatch):
    # so that `cache clear` finds the one a killed write leaves behind
    names = []
    original = tempfile.mkstemp

    def recorded(*args, **kwargs):
        fd, path = original(*args, **kwargs)
        names.append(os.path.basename(path))
        return fd, path

    monkeypatch.setattr(tempfile, "mkstemp", recorded)
    PWAlgebra(A1, cache_dir=str(tmp_path / "cg")).cg((1,), (1,))
    assert names and all(n.startswith("cg_") and n.endswith(".tmp")
                         for n in names)


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
    s = {}
    for zb, z in zip(gens.zbar, gens.z):
        dv_add_scaled(s, alg.multiply(zb, z), 1)
    assert s == alg.one()


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set_summand(key, value):
    def edit(doc):
        doc["summands"][0][key] = value
    return edit


def _set_entry(pos, value):
    def edit(doc):
        doc["summands"][0]["hw"][0][pos] = value
    return edit


def _drop_last_summand(doc):
    doc["summands"].pop()


def _scale_seed(doc):
    hw = doc["summands"][0]["hw"]
    hw[:] = [[t, str(scalar_from_str(text) * 17)] for t, text in hw]


# A1 (1) (x) (1): summand 0 is V_0, seed [[1, "-s^2"], [2, "1"]] (leading
# key 2); index 0, of weight 2, is killed by E, so only the weight check
# rejects an entry there.
@pytest.mark.parametrize("edit", [
    _drop("summands"),
    lambda doc: doc.update(summands="x"),
    _set_summand("nu", "2"),
    _set_summand("nu", [4]),
    _set_summand("hw", None),
    _set_summand("hw", []),
    _set_entry(1, "s^^2"),
    _set_entry(1, "(1)/(0)"),
    _set_entry(1, "0"),
    _set_entry(0, 99),
    lambda doc: doc["summands"][0]["hw"].insert(0, [0, "1"]),
    _drop_last_summand,
    _set_entry(1, "17"),
    _set_entry(1, "(1)/(s - 1000003)"),
    _scale_seed,
    lambda doc: doc["summands"].reverse(),
], ids=["no-summands", "summands-str", "nu-str", "nu-above-top", "hw-null",
        "hw-empty", "unparsable", "zero-denominator", "zero-entry",
        "row-out-of-range", "index-at-another-weight", "dims-short",
        "emb-wrong-entry", "no-image-mod-p", "seed-scaled",
        "summands-swapped"])
def test_malformed_cache_file_is_a_miss_and_rewritten(tmp_path, edit):
    cache = str(tmp_path / "cg")
    ref = PWAlgebra(A1, cache_dir=cache).cg((1,), (1,))
    path = os.path.join(cache, "cg_A1_L2_v2_1_1.json")
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


def test_seeds_off_the_echelon_basis_are_a_miss(tmp_path):
    # (1,1) (x) (1,1) has two seeds of weight (1,1); adding the first to the
    # second keeps a valid decomposition, with the same leading keys and
    # entries, that is not the one decompose finds
    cache = str(tmp_path / "cg")
    ref = PWAlgebra(A2, cache_dir=cache).cg((1, 1), (1, 1))
    path = os.path.join(cache, "cg_A2_L3_v2_1-1_1-1.json")
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    first, second = (s["hw"] for s in doc["summands"] if s["nu"] == [1, 1])
    mixed = {t: scalar_from_str(v) for t, v in second}
    for t, v in first:
        mixed[t] = mixed.get(t, 0) + scalar_from_str(v)
    second[:] = [[t, str(v)] for t, v in sorted(mixed.items()) if v]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert PWAlgebra(A2, cache_dir=cache).cg((1, 1), (1, 1)) == ref
    with open(path) as fh:
        assert fh.read() == text
