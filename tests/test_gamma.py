"""The quotient-route calculus and the R-matrix bracket operator."""

import pytest

from qflag.calculus import gamma_crosscheck, gamma_relation_operator
from qflag.linalg import SparseMatrix


def test_bracket_operator_assembly(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    rep = gamma_relation_operator(alg, flag)
    op = rep["operator"]
    assert op.nrows == op.ncols == 4
    # the bracket is a polynomial in the braiding, so it is a scalar on each
    # Clebsch-Gordan block of the tensor square
    assert all(b["scalar_block"] for b in rep["blocks"])
    assert sorted(tuple(b["nu"]) for b in rep["blocks"]) == [(0,), (2,)]
    # its rank is reported, not assumed (see the decisions ledger: neither
    # block is annihilated under the verbatim coefficients)
    assert rep["rank"] in range(0, 5)


def test_bracket_commutes_with_action(algebras, flag_of):
    flag = flag_of("A2/1")
    alg = algebras("A2")
    rep = gamma_relation_operator(alg, flag)
    op = rep["operator"]
    v = alg.module((1, 0))
    ctx = alg.ctx
    # tensor-square action of each generator commutes with the bracket
    for kind in ("E", "F"):
        for i in (1, 2):
            d2 = v.dim
            data = {}
            if kind == "E":
                for (r, c), val in v.e_mats[i - 1].entries_sorted():
                    for b in range(d2):
                        data[(r * d2 + b, c * d2 + b)] = val * \
                            ctx.q_power(v.k_exps[i - 1][b])
                for a in range(v.dim):
                    for (r, c), val in v.e_mats[i - 1].entries_sorted():
                        key = (a * d2 + r, a * d2 + c)
                        data[key] = data.get(key, ctx.zero) + val
            else:
                for (r, c), val in v.f_mats[i - 1].entries_sorted():
                    for b in range(d2):
                        data[(r * d2 + b, c * d2 + b)] = val
                for a in range(v.dim):
                    tw = ctx.q_power(-v.k_exps[i - 1][a])
                    for (r, c), val in v.f_mats[i - 1].entries_sorted():
                        key = (a * d2 + r, a * d2 + c)
                        data[key] = data.get(key, ctx.zero) + tw * val
            g = SparseMatrix.from_entries(v.dim * d2, v.dim * d2, data.items())
            assert op.mul(g) == g.mul(op)


@pytest.mark.parametrize("name", ["A1/1", "A2/1", "A2/2", "B2/1"])
def test_gamma_crosscheck_agrees(name, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    rep = gamma_crosscheck(alg, flag, trunc=2, ks=(-1, 0, 1))
    assert rep["ok"]
    by_k = {s["k"]: s for s in rep["slices"]}
    assert by_k[0]["quotient_dim"] == by_k[0]["tangent_dim"] == 1
    n = len(alg.generators(flag).z)
    assert by_k[1]["quotient_dim"] == by_k[1]["tangent_dim"] == n
    assert by_k[-1]["quotient_dim"] == by_k[-1]["tangent_dim"] == 0
