import gc
import weakref

import pytest

from oracles import graded_component_stacked, stacked_joint_kernel
from qflag import reps, verify
from qflag.cartan import FlagSpec
from qflag.errors import ConventionError, DimensionGuardError, QflagError
from qflag.peterweyl import PWAlgebra

# (flag, depth, guard): the default six at their default depths, and the
# next ring at depth 2
STACKED_CASES = [(name, verify.DEFAULT_DEPTH[name], 64)
                 for name in verify.DEFAULT_FLAGS] + [("A4/2", 2, 400),
                                                      ("D4/1", 2, 400)]


def test_borel_weil_k0_row_agrees_with_liouville(algebras, flag_of):
    flag = flag_of("A2/1")
    alg = algebras("A2")
    rep = verify.borel_weil_report(alg, flag, kmax=0, depth=3, kmin=0)
    liou = verify.liouville_report(alg, flag, 3)
    assert rep["rows"][0]["dim"] == liou["dim"] == 1
    assert rep["ok"] and liou["ok"]


def test_report_metadata(algebras, flag_of):
    flag = flag_of("A1/1")
    rep = verify.borel_weil_report(algebras("A1"), flag, kmax=1, depth=3)
    for key in ("schema", "schema_version", "flag", "L", "mode", "word"):
        assert key in rep
    assert rep["L"] == 2
    assert rep["mode"] == "symbolic"
    assert rep["word"] == [1]


def test_highest_weight_audit(algebras, flag_of):
    for name, k, depth in (("A1/1", 1, 3), ("A1/1", 2, 4), ("A2/1", 1, 3)):
        flag = flag_of(name)
        rep = verify.highest_weight_audit(algebras(str(flag.lie)), flag, k,
                                          depth)
        assert rep["block_shift_law"], rep
        assert all(e["factors_through_z_power"] for e in rep["elements"])
        assert rep["ok"]
    with pytest.raises(ValueError):
        verify.highest_weight_audit(algebras("A1"), flag_of("A1/1"), 0, 2)


def test_highest_weight_audit_larger_flags(algebras, flag_of):
    for name, depth in (("A3/2", 3), ("B2/1", 3), ("C2/2", 3)):
        flag = flag_of(name)
        rep = verify.highest_weight_audit(algebras(str(flag.lie)), flag, 1,
                                          depth)
        assert rep["ok"], (name, rep)


def test_audit_multiplies_only_the_products_it_tests(algebras, flag_of,
                                                     monkeypatch):
    # of the 36 elements of A3/2's degree-0 slice at depth 3, 9 sit on rows
    # of weight bl - wt(z) for a degree-1 block bl; only those are multiplied
    flag = flag_of("A3/2")
    alg = algebras("A3")
    zk = verify.z_power(alg, flag, 1)
    assert alg.graded_component(flag, 0, 3).dim == 36
    multiply = alg.multiply
    products = []

    def counted(a, b):
        if b is zk:
            products.append(a)
        return multiply(a, b)

    monkeypatch.setattr(verify, "z_power", lambda a, f, k: zk)
    monkeypatch.setattr(alg, "multiply", counted)
    rep = verify.highest_weight_audit(alg, flag, 1, 3)
    assert rep["ok"]
    assert len(products) == 9


def test_audit_answers_false_for_another_generator(algebras, flag_of,
                                                   monkeypatch):
    # z^k replaced by a generator z_i off the highest row: every top-row
    # element of E_1 fails to factor through it
    flag = flag_of("A2/1")
    alg = algebras("A2")
    gens = alg.generators(flag)
    hw = alg.module(gens.lam).highest_index
    for i in range(len(gens.z)):
        if i == hw:
            continue
        monkeypatch.setattr(verify, "z_power", lambda a, f, k: gens.z[i])
        rep = verify.highest_weight_audit(alg, flag, 1, 3)
        assert rep["block_shift_law"]
        assert rep["elements"]
        assert not any(e["factors_through_z_power"] for e in rep["elements"])
        assert not rep["ok"]
    # a power on rows of two weights has no one weight to filter by
    both = {**gens.z[0], **gens.z[1]}
    monkeypatch.setattr(verify, "z_power", lambda a, f, k: both)
    with pytest.raises(ConventionError):
        verify.highest_weight_audit(alg, flag, 1, 3)


def test_audit_block_shift_content(algebras, flag_of):
    # E_1 blocks are the E_0 blocks shifted by w_x (dual labels shift by
    # -w0(w_x)); for A2/1 that is {w1, (2,1)} within depth 3
    rep = verify.highest_weight_audit(algebras("A2"), flag_of("A2/1"), 1, 3)
    assert rep["blocks_found"] == [[1, 0], [2, 1]]


def test_verify_suite_depth_clamps(algebras, flag_of):
    # a small explicit depth clamps the k and d budgets so predictions fit
    rep = verify.verify_suite(flag_of("A1/1"), ["borel-weil", "coordring"],
                              depth=2, algebra=algebras("A1"))
    assert rep["ok"]
    bw = rep["reports"][0]
    assert max(r["k"] for r in bw["rows"]) == 2


def test_verify_suite_unknown_name(algebras, flag_of, monkeypatch):
    with pytest.raises(ValueError):
        verify.verify_suite(flag_of("A1/1"), ["bogus"],
                            algebra=algebras("A1"))

    # refused before the suites named ahead of it run
    def ran(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "liouville_report", ran)
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        verify.verify_suite(flag_of("A1/1"), ["liouville", "nonsense"],
                            algebra=algebras("A1"))


def test_verify_suite_refuses_the_audit_below_depth_one(flag_of):
    # the degree-1 blocks lie outside a depth-0 truncation: the audit
    # passed there on empty blocks
    with pytest.raises(QflagError, match="the audit degree = 1 exceeds the "
                                         "depth 0"):
        verify.verify_suite(flag_of("A1/1"), ["audit"], depth=0)


def test_second_word_spans_via_report(algebras, flag_of):
    import qflag.cartan as cartan
    flag = flag_of("A2/1")
    alg = algebras("A2")
    alt = tuple(reversed(cartan.longest_word(flag.lie)))
    base = verify.borel_weil_report(alg, flag, kmax=2, depth=3, kmin=-1)
    other = verify.borel_weil_report(alg, flag, kmax=2, depth=3, kmin=-1,
                                     word=alt)
    assert [r["dim"] for r in base["rows"]] == \
        [r["dim"] for r in other["rows"]]
    assert other["word"] == list(alt)


@pytest.mark.parametrize("name,depth,guard", [("A2/1", None, 64),
                                              ("D4/1", 2, 400)])
def test_an_algebra_that_ran_every_suite_needs_no_collector(name, depth,
                                                            guard):
    # no reference cycle holds the algebra or its modules: reference
    # counting alone frees them once the last name is dropped
    flag = FlagSpec.parse(name)
    alg = PWAlgebra(flag.lie, guard=guard)
    refused = []
    for suite in verify.SUITES:
        try:
            rep = verify.verify_suite(flag, [suite], depth=depth, algebra=alg)
            assert rep["ok"], suite
        except DimensionGuardError:
            refused.append(suite)
    # D4/1's audit needs V_(0,1,1,1), dim 840
    assert refused == (["audit"] if name == "D4/1" else [])
    refs = [weakref.ref(alg)] + [weakref.ref(m)
                                 for m in alg._modules.values()]
    assert len(refs) > 5
    gc.disable()
    try:
        del alg
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def verified():
    """Per case, a fresh algebra after every suite, and the (tensor module,
    seeds) of every decomposition it built."""
    cache = {}

    def get(name, depth, guard):
        if name not in cache:
            seen = []

            class Recording(reps.CGDecomposition):
                def __init__(self, t_mod, seeds):
                    seen.append((t_mod, seeds))
                    super().__init__(t_mod, seeds)

            flag = FlagSpec.parse(name)
            alg = PWAlgebra(flag.lie, guard=guard)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reps, "CGDecomposition", Recording)
                for suite in verify.SUITES:
                    try:
                        verify.verify_suite(flag, [suite], depth=depth,
                                            algebra=alg)
                    except DimensionGuardError:
                        pass
            cache[name] = alg, seen
        return cache[name]

    return get


@pytest.mark.parametrize("name,depth,guard", STACKED_CASES)
def test_decompose_seeds_equal_the_stacked_kernel(name, depth, guard,
                                                  verified):
    # the seeds taken one raising operator at a time are the basis of one
    # nullspace of all of them stacked, entry for entry and in key order
    _, seen = verified(name, depth, guard)
    assert seen
    for t_mod, seeds in seen:
        by_weight = t_mod.weight_indices()
        got = {}
        for v_nu, u in seeds:
            got.setdefault(v_nu.highest, []).append(list(u.items()))
        for nu, us in got.items():
            want = stacked_joint_kernel(t_mod.e_mats, by_weight[nu],
                                        t_mod.ctx.one)
            assert us == [list(u.items()) for u in want], nu


@pytest.mark.parametrize("name,depth,guard", STACKED_CASES)
def test_graded_component_equals_the_stacked_kernel(name, depth, guard,
                                                    verified):
    alg, _ = verified(name, depth, guard)
    flag = FlagSpec.parse(name)
    for k in range(verify.DEFAULT_KMIN.get(name, -1),
                   verify.DEFAULT_KMAX.get(name, 1) + 1):
        got = alg.graded_component(flag, k, depth)
        want = graded_component_stacked(alg, flag, k, depth)
        assert got == want, k
        assert [[list(c.items()) for c in cols] for _, cols in got.blocks] \
            == [[list(c.items()) for c in cols] for _, cols in want.blocks]


def _a4_2_products(monkeypatch, suite):
    """The number of products one suite forms on a fresh A4/2 algebra, past
    the 10 that normalize the generators."""
    flag = FlagSpec.parse("A4/2")
    alg = PWAlgebra(flag.lie, guard=400)
    alg.generators(flag)
    calls = []
    real = PWAlgebra.multiply

    def counted(self, a, b):
        calls.append(None)
        return real(self, a, b)

    monkeypatch.setattr(PWAlgebra, "multiply", counted)
    rep = verify.verify_suite(flag, [suite], depth=2, algebra=alg)
    assert rep["ok"]
    return len(calls)


def test_relations_suite_forms_only_products_of_grown_monomials(monkeypatch):
    # each degree's monomials are products of the lower degree's that grew
    # its span, and one span serves every degree and the degree-2 kernel's
    # dimension: growing the spans again for each degree, and solving the
    # kernel besides, took 920 products here
    assert _a4_2_products(monkeypatch, "relations") <= 700


def test_gamma_suite_forms_only_the_words_it_reads(monkeypatch):
    # the slices k = -1, 0, 1 read the generators and the 2n^2 mixed
    # products; building the z z and zbar zbar words too took 820 products
    assert _a4_2_products(monkeypatch, "gamma") <= 420
