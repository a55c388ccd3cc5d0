import pytest

from oracles import h0_one_shot
from qflag.calculus import (Calculus, act_f_orbit_rows, z_power,
                            zbar_power)
from qflag.cartan import FlagSpec, LieType, longest_word, weyl_dim
from qflag.linalg import SpanBasis, SparseMatrix
from qflag.peterweyl import GradedSlice, PWAlgebra
from qflag.reps import BraidOperators, LusztigOperators, RootVector
from qflag.verify import (DEFAULT_DEPTH, DEFAULT_FLAGS, DEFAULT_KMAX,
                          DEFAULT_KMIN, verify_suite)


def crossed(flag):
    return tuple(1 if t == flag.crossed - 1 else 0
                 for t in range(flag.lie.rank))


def test_dbar_on_generators(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    calc = Calculus(alg, flag)
    assert calc.dbar(alg.one()) == {}
    gens = alg.generators(flag)
    for z in gens.z:
        assert calc.dbar(z) == {}
    assert any(calc.dbar(zb) for zb in gens.zbar)
    # opposite chirality: del kills the zbar generators
    for zb in gens.zbar:
        assert calc.del_(zb) == {}
    assert any(calc.del_(z) for z in gens.z)


def test_h0_podles_tower(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    calc = Calculus(alg, flag)
    dims = {k: calc.h0(k, 5).dim for k in range(-3, 5)}
    assert dims == {-3: 0, -2: 0, -1: 0, 0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    res1 = calc.h0(1, 5)
    assert isinstance(res1, GradedSlice)
    assert res1.block_weights() == ((1,),)


def test_liouville(algebras, flag_of):
    for name, depth in (("A1/1", 5), ("A2/1", 3)):
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        rep = Calculus(alg, flag).liouville_check(depth)
        assert rep["ok"] and rep["dim"] == 1 and rep["contains_unit"]
    # degenerate depth-0 truncation: only the unit block survives
    flag = flag_of("A1/1")
    rep = Calculus(algebras("A1"), flag).liouville_check(0)
    assert rep["ok"]


def test_z_powers_holomorphic(algebras, flag_of):
    flag = flag_of("A2/1")
    alg = algebras("A2")
    calc = Calculus(alg, flag)
    for k in (1, 2, 3):
        res = calc.h0(k, 4)
        zk = z_power(alg, flag, k)
        assert zk
        assert calc.h0_contains(res, zk)


def test_h0_multiplicative(algebras, flag_of):
    # products of kernel elements land in the kernel of the sum degree
    flag = flag_of("A1/1")
    alg = algebras("A1")
    calc = Calculus(alg, flag)
    r1 = calc.h0(1, 5)
    r2 = calc.h0(2, 5)
    e1 = [alg.basis_element((1,), r, 0) for r in range(2)]
    for a in e1:
        for b in e1:
            p = alg.multiply(a, b)
            assert calc.h0_contains(r2, p)
    r3 = calc.h0(3, 5)
    for a in e1:
        p = alg.multiply(alg.multiply(a, e1[0]), e1[1])
        assert calc.h0_contains(r3, p)


def test_h0_is_act_f_submodule(algebras, flag_of):
    # the row-slot action commutes with the tangent operators: applying any
    # generator on the functional slot keeps kernel elements in the kernel
    flag = flag_of("A2/1")
    alg = algebras("A2")
    calc = Calculus(alg, flag)
    res = calc.h0(1, 3)
    zk = z_power(alg, flag, 1)
    for i in (1, 2):
        for kind in ("E", "F", "K"):
            img = alg.act_f((kind, i), zk)
            if img:
                assert calc.h0_contains(res, img)


def test_orbit_equals_kernel(algebras, flag_of):
    for name, depth, kmax in (("A1/1", 5, 3), ("A2/1", 3, 2)):
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        calc = Calculus(alg, flag)
        lam = crossed(flag)
        for k in range(1, kmax + 1):
            res = calc.h0(k, depth)
            blk = tuple(k * x for x in lam)
            assert res.block_weights() == (blk,)
            assert len(res.blocks[0][1]) == 1
            zk = z_power(alg, flag, k)
            rowvec = {r: v for (bl, r, c), v in zk.items()}
            orbit = act_f_orbit_rows(alg, blk, rowvec)
            assert orbit.dim == weyl_dim(flag.lie, blk) == res.dim
            # kernel column is exactly the z^k column (the extreme vector)
            hw = alg.module(blk).highest_index
            assert set(res.blocks[0][1][0]) == {hw}


def test_highest_weight_count_is_one(algebras, flag_of):
    flag = flag_of("A2/1")
    alg = algebras("A2")
    calc = Calculus(alg, flag)
    for k in (1, 2):
        res = calc.h0(k, 3)
        assert sum(len(cols) for _, cols in res.blocks) == 1


def test_opposite_chirality_mirror(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    calc = Calculus(alg, flag)
    for k in range(-3, 4):
        res = calc.h0(k, 4, chirality="10")
        expected = weyl_dim(flag.lie, (-k,)) if k <= 0 else 0
        assert res.dim == expected
    res = calc.h0(-1, 4, chirality="10")
    assert calc.h0_contains(res, zbar_power(alg, flag, 1))
    assert calc.h0(0, 4, chirality="10").dim == 1


def test_second_reduced_word_gives_same_kernels(algebras, flag_of):
    flag = flag_of("A2/1")
    alg = algebras("A2")
    lie = flag.lie
    alt = tuple(reversed(longest_word(lie)))
    c1 = Calculus(alg, flag)
    c2 = Calculus(alg, flag, word=alt)
    for k in (-1, 0, 1, 2):
        r1 = c1.h0(k, 3)
        r2 = c2.h0(k, 3)
        assert r1.dim == r2.dim
        # span-level agreement per block
        for (b1, cols1), (b2, cols2) in zip(r1.blocks, r2.blocks):
            assert b1 == b2
            s1, s2 = SpanBasis(), SpanBasis()
            for c in cols1:
                s1.insert(c)
            for c in cols2:
                s2.insert(c)
            assert s1.equals(s2)


def test_specialized_h0_dims_match_symbolic(flag_of):
    from fractions import Fraction
    from qflag.peterweyl import PWAlgebra
    from qflag.reps import context_for
    lie = LieType.parse("A2")
    flag = flag_of("A2/1")
    ctx = context_for(lie, s0=Fraction(3, 2))
    alg = PWAlgebra(lie, ctx=ctx)
    calc = Calculus(alg, flag)
    assert {k: calc.h0(k, 3).dim for k in range(-1, 3)} == \
        {-1: 0, 0: 1, 1: 3, 2: 6}


def test_specialized_h0_dims_match_symbolic_grassmannian(flag_of):
    from fractions import Fraction
    from qflag.peterweyl import PWAlgebra
    from qflag.reps import context_for
    lie = LieType.parse("A3")
    flag = flag_of("A3/2")
    ctx = context_for(lie, s0=Fraction(3, 2))   # q = (3/2)^4
    alg = PWAlgebra(lie, ctx=ctx)
    calc = Calculus(alg, flag)
    assert {k: calc.h0(k, 3).dim for k in range(-1, 3)} == \
        {-1: 0, 0: 1, 1: 6, 2: 20}


def test_calculi_share_root_vectors(algebras, flag_of):
    # the root vectors are kept with their module, not with a Calculus
    alg = algebras("A2")
    flag = flag_of("A2/1")
    c1, c2 = Calculus(alg, flag), Calculus(alg, flag)
    for lam in ((1, 0), (1, 1)):
        for chirality in ("01", "10"):
            ops1 = c1.tangent_operators(lam, chirality)
            ops2 = c2.tangent_operators(lam, chirality)
            assert ops1 and len(ops1) == len(ops2)
            assert all(a is b for a, b in zip(ops1, ops2))


def test_verify_conjugates_each_root_vector_once(flag_of, monkeypatch):
    # every root-vector column is computed once per algebra, and on a module
    # above FULL_VERIFY_LIMIT the root-vector path multiplies no matrices
    muls, dims, computed = [], [], []
    mul = SparseMatrix.mul
    limit = BraidOperators.FULL_VERIFY_LIMIT

    def counting_mul(self, other):
        if dims:
            muls.append(dims[-1])
        return mul(self, other)

    def on_module(fn, dim_of):
        def wrapper(self, *args):
            dims.append(dim_of(self))
            try:
                return fn(self, *args)
            finally:
                dims.pop()
        return wrapper

    def recording(fn):
        def wrapper(self, c):
            computed.append((self, c))
            return fn(self, c)
        return wrapper

    monkeypatch.setattr(SparseMatrix, "mul", counting_mul)
    for name in ("root_operator", "theta"):
        monkeypatch.setattr(LusztigOperators, name, on_module(
            getattr(LusztigOperators, name), lambda ops: ops.m.dim))
    monkeypatch.setattr(RootVector, "column", on_module(
        RootVector.column, lambda rv: rv.dim))
    monkeypatch.setattr(RootVector, "_column", recording(RootVector._column))
    flag = flag_of("A2/1")
    rep = verify_suite(flag, ["liouville", "borel-weil", "coordring", "gamma"],
                       depth=4, algebra=PWAlgebra(flag.lie))
    assert rep["ok"]
    assert computed
    assert len(computed) == len(set(computed))
    assert any(rv.dim > limit for rv, _ in computed)    # V_(2, 2), dim 27
    assert muls and all(d <= limit for d in muls)


@pytest.mark.parametrize("name,depth,ks", [
    pytest.param(name, DEFAULT_DEPTH[name],
                 range(DEFAULT_KMIN[name], DEFAULT_KMAX[name] + 1), id=name)
    for name in DEFAULT_FLAGS] + [pytest.param("D4/1", 2, (-1, 0, 1),
                                               id="D4/1")])
def test_staged_h0_equals_the_stacked_nullspace(name, depth, ks):
    # entry for entry, at every default degree, in both chiralities
    flag = FlagSpec.parse(name)
    calc = Calculus(PWAlgebra(flag.lie, guard=400), flag)
    for k in ks:
        for chirality in ("01", "10"):
            assert calc.h0(k, depth, chirality) == \
                h0_one_shot(calc, k, depth, chirality)


def test_liouville_on_d4_reads_few_root_vector_columns(monkeypatch):
    # each root vector reads only the columns that the earlier ones left:
    # 25 columns where every root vector on every Levi-invariant column
    # reads 120
    computed = []
    column = RootVector._column

    def recording(self, c):
        computed.append((self, c))
        return column(self, c)

    monkeypatch.setattr(RootVector, "_column", recording)
    flag = FlagSpec.parse("D4/1")
    rep = verify_suite(flag, ["liouville"], depth=2,
                       algebra=PWAlgebra(flag.lie, guard=400))
    assert rep["ok"]
    assert 0 < len(computed) <= 25


def test_spoiled_late_root_vector_changes_h0(monkeypatch):
    # the last root vector still runs on a block where columns survive the
    # earlier ones: give it a nonzero image of the surviving column, and
    # that block leaves the kernel
    flag = FlagSpec.parse("A2/1")
    alg = PWAlgebra(flag.lie)
    calc = Calculus(alg, flag)
    res = calc.h0(1, 4)
    (lam, (col,)), = res.blocks
    assert len(calc.positions) > 1
    late = calc.tangent_operators(lam)[-1]
    assert not late.matvec(col)
    reads = []

    def spoiled(c):
        reads.append(c)
        return {0: alg.ctx.one} if c in col else {}

    monkeypatch.setattr(late, "column", spoiled)
    assert calc.h0(1, 4).blocks == ()
    assert reads
