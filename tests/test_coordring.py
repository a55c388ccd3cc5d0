import dataclasses

import pytest

from oracles import mixed_by_scan, monomial_span_all, scalar_from_str
from qflag.cartan import weyl_dim
from qflag.coordring import (abstract_graded_dimension, central_element_checks,
                             mixed_commutation_check, monomial_spans,
                             quadratic_relations, realized_degree2_kernel,
                             realized_graded_dimension,
                             relations_annihilate_realized)
from qflag.linalg import SpanBasis, SparseMatrix, dv_add_scaled
from qflag.rmatrix import braiding
from qflag.scalars import Scalar

FLAT_CASES = [("A1/1", 3), ("A2/1", 3), ("A2/2", 3), ("B2/1", 3),
              ("C2/2", 3), ("A3/2", 3)]


def crossed(flag):
    return tuple(1 if t == flag.crossed - 1 else 0
                 for t in range(flag.lie.rank))


@pytest.mark.parametrize("name,dmax", FLAT_CASES)
def test_relation_space_dimension(name, dmax, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    spec = quadratic_relations(alg, flag)
    lam = crossed(flag)
    # flat-deformation oracle: classical symmetric-square count
    assert len(spec.relations) == spec.n ** 2 - \
        weyl_dim(flag.lie, tuple(2 * x for x in lam))


def test_a1_single_relation_is_q_commutation(algebras, flag_of):
    flag = flag_of("A1/1")
    alg = algebras("A1")
    spec = quadratic_relations(alg, flag)
    assert len(spec.relations) == 1
    rel = spec.relations[0]
    # z_1 z_0 = q z_0 z_1 (s^2 = q at L = 2), echelonized on the (0,1) pivot
    assert rel == {(0, 1): Scalar.one(), (1, 0): -Scalar.s_power(-2)}


@pytest.mark.parametrize("name,dmax", FLAT_CASES)
def test_realized_annihilation_both_directions(name, dmax, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    spec = quadratic_relations(alg, flag)
    assert relations_annihilate_realized(alg, flag, spec)
    relspan = SpanBasis()
    for r in spec.relations:
        relspan.insert(r)
    assert relspan.equals(realized_degree2_kernel(alg, flag))


@pytest.mark.parametrize("name,dmax", FLAT_CASES)
def test_graded_dimensions_flat(name, dmax, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    spec = quadratic_relations(alg, flag)
    lam = crossed(flag)
    for d in range(0, dmax + 1):
        expected = weyl_dim(flag.lie, tuple(d * x for x in lam))
        assert abstract_graded_dimension(alg.ctx, spec, d) == expected
        assert realized_graded_dimension(alg, flag, d) == expected


@pytest.mark.parametrize("name,dmax", FLAT_CASES)
def test_monomial_spans_equal_the_span_of_every_monomial(name, dmax, algebras,
                                                         flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    spans = monomial_spans(alg, flag, dmax)
    assert len(spans) == dmax + 1
    for d, span in enumerate(spans):
        assert span.equals(monomial_span_all(alg, flag, d)), d


def test_a3_d2_realized_dimension(algebras, flag_of):
    # Gr(4,2): dim of degree-2 z-monomials is dim V_{2 w_2} = 20
    alg = algebras("A3")
    assert realized_graded_dimension(alg, flag_of("A3/2"), 2) == 20


@pytest.mark.parametrize("name", ["A1/1", "A2/1", "B2/1"])
def test_mixed_commutation(name, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    rep = mixed_commutation_check(alg, flag)
    assert rep["ok"], rep["failures"][:1]
    assert rep["pairs_checked"] == len(alg.generators(flag).z) ** 2


@pytest.mark.parametrize("name", ["A2/1", "A3/2", "B2/1", "C2/2", "D4/1"])
def test_mixed_commutation_equals_the_scan(name, algebras, flag_of):
    # the rule read off R's nonzero entries is the rule read at every index
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    assert mixed_commutation_check(alg, flag) == mixed_by_scan(alg, flag)


def test_mixed_commutation_failure_lists_entries_in_key_order(
        monkeypatch, algebras, flag_of):
    # a braiding with its columns in reverse order fails the first pair, and
    # its exchanged sum collects keys out of order on A2/2: the report lists
    # the entries of zbar_i z_j and of that sum sorted by key all the same
    from qflag import coordring
    flag = flag_of("A2/2")
    alg = algebras("A2")

    def reversed_columns(v, w):
        br = braiding(v, w)
        n = br.matrix.ncols
        cols = {n - 1 - c: col for c, col in br.matrix.cols.items()}
        return dataclasses.replace(
            br, matrix=SparseMatrix(br.matrix.nrows, n, cols))

    monkeypatch.setattr(coordring, "braiding", reversed_columns)
    rep = mixed_commutation_check(alg, flag)
    assert not rep["ok"] and len(rep["failures"]) == 1
    fail = rep["failures"][0]
    gens = alg.generators(flag)
    lhs = alg.multiply(gens.zbar[fail["i"]], gens.z[fail["j"]])
    assert fail["lhs"] == [[list(k[0]), k[1], k[2], str(v)]
                           for k, v in sorted(lhs.items())]
    keys = [(tuple(e[0]), e[1], e[2]) for e in fail["rhs"]]
    assert len(keys) == 5 and keys == sorted(keys)
    # the same failure as the scan of the same braiding
    v, w = alg.module(gens.lam), alg.module(gens.lam_bar)
    assert rep == mixed_by_scan(alg, flag, reversed_columns(v, w))


@pytest.mark.parametrize("name", ["A1/1", "A2/1", "A2/2", "B2/1", "C2/2",
                                  "A3/2"])
def test_central_element(name, algebras, flag_of):
    flag = flag_of(name)
    alg = algebras(str(flag.lie))
    rep = central_element_checks(alg, flag)
    assert rep["scalar"]
    assert rep["counit_nonzero"]
    assert rep["central_on_generators"]
    assert rep["normalized_to_one"]


def test_normalization_survives_reserialization(algebras, flag_of):
    # round-trip the generators through scalar strings; the identity persists
    flag = flag_of("A2/1")
    alg = algebras("A2")
    gens = alg.generators(flag)

    def roundtrip(e):
        return {k: scalar_from_str(str(v)) for k, v in e.items()}

    s = {}
    for zb, z in zip(gens.zbar, gens.z):
        dv_add_scaled(s, alg.multiply(roundtrip(zb), roundtrip(z)), 1)
    assert s == alg.one()


def test_degree_membership_of_generators(algebras, flag_of):
    # deg z = +1 and deg zbar = -1 under the graded slices
    flag = flag_of("A2/1")
    alg = algebras("A2")
    gens = alg.generators(flag)
    sl1 = alg.graded_component(flag, 1, 2)
    slm = alg.graded_component(flag, -1, 2)
    span1 = SpanBasis()
    for e in alg.slice_elements(sl1):
        span1.insert(e)
    spanm = SpanBasis()
    for e in alg.slice_elements(slm):
        spanm.insert(e)
    for z in gens.z:
        assert span1.contains(z)
    for zb in gens.zbar:
        assert spanm.contains(zb)
