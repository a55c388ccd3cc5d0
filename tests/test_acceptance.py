"""Acceptance suite: the project's exactness gate, one criterion per test.

Each test prints one pass line (visible under pytest -s or in the captured
output); an assertion failure is the fail line.  Tolerances are zero
throughout: every equality is an integer or subspace equality over Q(s), and
the generous wall-clock bounds on the first three criteria document the
symbolic-mode budgets they must stay inside.
"""

import json
import os
import random
import time

import pytest

from oracles import root_vector_matrix
from qflag import verify
from qflag.calculus import Calculus, gamma_crosscheck
from qflag.cartan import (LieType, dominant_weights_up_to, longest_word,
                          root_sequence, weyl_dim)
from qflag.cli import main as cli_main
from qflag.coordring import central_element_checks, mixed_commutation_check
from qflag.reps import (LusztigOperators, build_irreducible,
                        check_defining_relations, context_for, decompose,
                        tensor)
from qflag.rmatrix import braiding, ybe_check

SIX = ("A1/1", "A2/1", "A2/2", "A3/2", "B2/1", "C2/2")


def crossed(flag):
    return tuple(1 if t == flag.crossed - 1 else 0
                 for t in range(flag.lie.rank))


def _passed(n, text):
    print(f"[criterion {n:02d}] {text}: PASS")


def test_criterion_01_podles_borel_weil(algebras, flag_of):
    flag = flag_of("A1/1")
    t0 = time.time()
    rep = verify.borel_weil_report(algebras("A1"), flag, kmax=4, depth=5,
                                   kmin=-3)
    assert time.time() - t0 < 60  # budget: under a minute, symbolic
    dims = {r["k"]: r["dim"] for r in rep["rows"]}
    assert [dims[k] for k in range(0, 5)] == [1, 2, 3, 4, 5]
    assert all(dims[-k] == 0 for k in (1, 2, 3))
    assert all(r["kernel_equals_orbit"] for r in rep["rows"] if r["k"] >= 1)
    assert rep["ok"]
    _passed(1, "A1/1 dims 1,2,3,4,5 at D=5; negatives vanish; kernels = "
               "act_f-orbits of z^k")


def test_criterion_02_cp2(algebras, flag_of):
    flag = flag_of("A2/1")
    t0 = time.time()
    rep = verify.borel_weil_report(algebras("A2"), flag, kmax=3, depth=4,
                                   kmin=-2)
    assert time.time() - t0 < 600  # budget: under ten minutes
    dims = {r["k"]: r["dim"] for r in rep["rows"]}
    assert [dims[k] for k in range(0, 4)] == [1, 3, 6, 10]
    assert dims[-1] == dims[-2] == 0
    assert rep["ok"]
    _passed(2, "A2/1 dims 1,3,6,10 at D=4; negatives vanish")


def test_criterion_03_grassmannian(algebras, flag_of):
    flag = flag_of("A3/2")
    t0 = time.time()
    rep = verify.borel_weil_report(algebras("A3"), flag, kmax=2, depth=3,
                                   kmin=-1)
    assert time.time() - t0 < 3600  # budget: under an hour
    dims = {r["k"]: r["dim"] for r in rep["rows"]}
    assert dims[1] == 6 and dims[2] == 20 and dims[-1] == 0
    assert rep["ok"]
    _passed(3, "A3/2 dim h0(1)=6, h0(2)=20, h0(-1)=0 at D=3 (symbolic)")


def test_criterion_04_quadric(algebras, flag_of):
    flag = flag_of("B2/1")
    alg = algebras("B2")
    rep = verify.borel_weil_report(alg, flag, kmax=1, depth=3, kmin=-1)
    dims = {r["k"]: r["dim"] for r in rep["rows"]}
    assert dims[1] == 5 and dims[-1] == 0 and dims[0] == 1
    assert rep["ok"]
    _passed(4, "B2/1 dim h0(1)=5, h0(-1)=0, Liouville dim 1 at D=3")


def test_criterion_05_liouville_all_flags(algebras, flag_of):
    for name in SIX:
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        rep = Calculus(alg, flag).liouville_check(verify.default_depth(flag))
        assert rep["ok"], name
    _passed(5, "Liouville kernel is exactly C.1 on all six default flags")


def test_criterion_06_coordinate_ring_equality(algebras, flag_of):
    budgets = {"A1/1": (3, [1, 2, 3, 4]), "A2/1": (3, [1, 3, 6, 10]),
               "A3/2": (2, [1, 6, 20]), "B2/1": (2, [1, 5, 14])}
    for name, (dmax, dims) in budgets.items():
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        rep = verify.coordinate_ring_equality(alg, flag, dmax,
                                              verify.default_depth(flag))
        assert rep["ok"], (name, rep["rows"])
        assert [r["h0_dim"] for r in rep["rows"]] == dims
        assert [r["monomial_dim"] for r in rep["rows"]] == dims
    _passed(6, "z-monomial spans equal h0(d) degreewise (A1/1, A2/1 to d=3; "
               "A3/2, B2/1 to d=2)")


def test_criterion_07_quadratic_flatness(algebras, flag_of):
    for name in SIX:
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        rep = verify.quadratic_flatness(alg, flag, dmax=3)
        assert rep["ok"], (name, rep)
    _passed(7, "abstract = realized = Weyl graded dimensions to d=3 on all "
               "six flags")


def test_criterion_08_determinant_identity(algebras, flag_of):
    for name in SIX:
        flag = flag_of(name)
        rep = central_element_checks(algebras(str(flag.lie)), flag)
        assert rep["ok"], (name, rep)
    _passed(8, "sum(zbar_i z_i) = 1 after normalization; central on "
               "generators; all six flags")


def test_criterion_09_mixed_commutation(algebras, flag_of):
    for name in ("A1/1", "A2/1", "B2/1"):
        flag = flag_of(name)
        rep = mixed_commutation_check(algebras(str(flag.lie)), flag)
        assert rep["ok"], (name, rep["failures"][:1])
    _passed(9, "mixed commutation identities hold exactly for all (i,j) on "
               "A1/1, A2/1, B2/1")


def test_criterion_10_rmatrix_suite(algebras, flag_of):
    from qflag.cartan import bilinear
    for name in SIX:
        flag = flag_of(name)
        alg = algebras(str(flag.lie))
        lam = crossed(flag)
        v = alg.module(lam)
        br = braiding(v, v)   # raises unless the braiding is certified
        assert ybe_check(v, br), name
        hw = v.highest_index
        lead = br.coeff(hw, hw, hw, hw)
        assert lead == alg.ctx.q_power(bilinear(flag.lie, lam, lam))
    _passed(10, "YBE exact, leading term q^((l,l)) exact, braiding "
                "certified on all six crossed blocks")


def test_criterion_11_lusztig_suite(algebras):
    from qflag.cartan import bilinear_form
    total = 0
    for name in ("A2", "B2", "C2"):
        lie = LieType.parse(name)
        alg = algebras(name)
        word = longest_word(lie)
        seq = root_sequence(lie, word)
        lams = [w for w in dominant_weights_up_to(lie, 3)
                if weyl_dim(lie, w) <= 20]
        for lam in lams:
            m = alg.module(lam)
            ops = LusztigOperators(m)
            for i in range(1, lie.rank + 1):
                ops.theta(i)      # raises if any conjugation identity fails
            for r, beta in enumerate(seq, start=1):
                for kind, sgn in (("E", 1), ("F", -1)):
                    op = root_vector_matrix(
                        ops.root_operator(word, r, kind))
                    for i in range(1, lie.rank + 1):
                        ei = tuple(1 if t == i - 1 else 0
                                   for t in range(lie.rank))
                        ab = bilinear_form(lie, ei, beta, ("root", "root"))
                        for (rr, cc), _ in op.entries_sorted():
                            assert m.k_exps[i - 1][rr] - \
                                m.k_exps[i - 1][cc] == sgn * ab
            total += 1
    assert total >= 24
    _passed(11, f"braid conjugation identities and root-vector K-weights "
                f"exact on {total} modules of dim <= 20 (A2, B2, C2)")


def test_criterion_12_representation_suite(algebras):
    checked = 0
    for name in ("A1", "A2", "A3", "B2", "C2"):
        lie = LieType.parse(name)
        alg = algebras(name)
        for lam in list(alg._modules):
            m = alg.module(lam)
            check_defining_relations(m)
            assert m.dim == weyl_dim(lie, lam)
            checked += 1
    # CG bookkeeping on 20 seeded random tensor pairs of factor dim <= 12
    rng = random.Random(2024)
    cases = []
    for name in ("A2", "B2", "C2", "A3"):
        lie = LieType.parse(name)
        small = [w for w in dominant_weights_up_to(lie, 3)
                 if weyl_dim(lie, w) <= 12]
        cases.append((lie, small))
    pairs = [(*rng.choice(cases),) for _ in range(20)]
    for lie, small in pairs:
        lam, mu = rng.choice(small), rng.choice(small)
        ctx = context_for(lie)
        store = {}

        def get(nu, lie=lie, ctx=ctx, store=store):
            if nu not in store:
                store[nu] = build_irreducible(ctx, lie, nu, guard=200)
            return store[nu]

        t = tensor(get(lam), get(mu))
        cg = decompose(get(lam), get(mu), get)
        assert sum(weyl_dim(lie, s.nu) for s in cg.summands) == t.dim
        assert sorted(t.weights) == \
            sorted(w for s in cg.summands for w in get(s.nu).weights)
    _passed(12, f"defining relations exact on {checked} constructed modules; "
                f"CG bookkeeping exact on 20 random pairs")


def test_criterion_13_spherical_decomposition(algebras, flag_of):
    for name, depth in (("A2/1", 4), ("B2/1", 3), ("C2/2", 3)):
        flag = flag_of(name)
        rep = verify.spherical_report(algebras(str(flag.lie)), flag, depth)
        assert rep["multiplicity_free"] and rep["monoid_equal"], (name, rep)
    _passed(13, "invariants multiplicity-free; weight sets equal the "
                "spherical monoid truncations (A2/1, B2/1, C2/2)")


def test_criterion_14_opposite_chirality(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    rep = verify.borel_weil_report(alg, flag, kmax=3, depth=5, kmin=-4,
                                   opposite=True)
    dims = {r["k"]: r["dim"] for r in rep["rows"]}
    assert [dims[-k] for k in range(0, 5)] == [1, 2, 3, 4, 5]
    assert dims[1] == dims[2] == dims[3] == 0
    assert rep["ok"]
    _passed(14, "opposite calculus mirrors criterion 1 with the roles of "
                "positive and negative k exchanged")


def test_criterion_15_gamma_crosscheck(algebras, flag_of):
    flag = flag_of("A1/1")
    rep = gamma_crosscheck(algebras("A1"), flag, trunc=2, ks=(-1, 0, 1))
    assert rep["ok"]
    assert [s["agree"] for s in rep["slices"]] == [True, True, True]
    _passed(15, "tangent-route and quotient-route kernels agree on A1/1 "
                "slices k in {-1, 0, 1} at truncation degree 2")


def test_criterion_16_determinism(tmp_path, capsys, monkeypatch):
    # each run builds a fresh algebra; none may leave a file behind
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--flag", "A1/1",
            "--suite", "borel-weil,coordring,relations", "--depth", "3"]
    outs = []
    for _ in range(3):
        assert cli_main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["ok"]
    assert os.listdir(tmp_path) == []
    _passed(16, "three runs of the same verify argv byte-identical; "
                "no file written")
