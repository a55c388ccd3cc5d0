import random
from fractions import Fraction

import pytest

from oracles import (dim_by_weights, freudenthal_multiplicities,
                     weight_multiplicities_by_levels, weyl_dim_by_forms)
from qflag.cartan import (FlagSpec, LieType, bilinear_form, cartan_matrix,
                          catalog, dominant_weights_up_to, is_reduced_for_w0,
                          lattice_denominator, longest_word, minus_w0,
                          monoid_truncation, positive_roots, root_sequence,
                          spherical_weights, symmetrizers,
                          tensor_multiplicities, w0_on_weight,
                          weight_multiplicities, weyl_dim)
from qflag.errors import CatalogError, DomainError

A1, A2, A3, B2, B3, C2, C3, D4 = (LieType.parse(t) for t in
                                  ("A1", "A2", "A3", "B2", "B3", "C2", "C3",
                                   "D4"))


def test_cartan_matrices():
    assert cartan_matrix(A1) == ((2,),)
    assert cartan_matrix(A2) == ((2, -1), (-1, 2))
    # a_ij = (alpha_i_vee, alpha_j) with node 1 long under Humphreys numbering;
    # the symmetrized matrix d_i a_ij must be symmetric with d = (2, 1)
    assert cartan_matrix(B2) == ((2, -1), (-2, 2))
    assert cartan_matrix(C2) == ((2, -2), (-1, 2))
    for lie in (A3, B3, C3, D4, LieType("E", 6), LieType("E", 7)):
        a = cartan_matrix(lie)
        d = symmetrizers(lie)
        n = lie.rank
        for i in range(n):
            assert a[i][i] == 2
            for j in range(n):
                if i != j:
                    assert a[i][j] <= 0
                assert d[i] * a[i][j] == d[j] * a[j][i]


def test_bilinear_form():
    assert bilinear_form(A1, (1,), (1,)) == Fraction(1, 2)
    assert bilinear_form(A2, (1, 0), (0, 1), ("root", "root")) == -1
    # (alpha_i, w_j) = delta_ij (alpha_i, alpha_i)/2
    for lie in (A2, B2, C2, A3, B3):
        d = symmetrizers(lie)
        for i in range(lie.rank):
            ai = tuple(1 if t == i else 0 for t in range(lie.rank))
            for j in range(lie.rank):
                wj = tuple(1 if t == j else 0 for t in range(lie.rank))
                val = bilinear_form(lie, ai, wj, ("root", "weight"))
                assert val == (d[i] if i == j else 0)
    # symmetry and shortest-root normalization
    for lie in (A2, B2, C2, B3, C3, D4):
        d = symmetrizers(lie)
        assert min(d) == 1
        for i in range(lie.rank):
            ai = tuple(1 if t == i else 0 for t in range(lie.rank))
            assert bilinear_form(lie, ai, ai, ("root", "root")) == 2 * d[i]


def test_lattice_denominator():
    assert lattice_denominator(A1) == 2
    assert lattice_denominator(A2) == 3
    assert lattice_denominator(A3) == 4
    assert lattice_denominator(B2) == 1
    assert lattice_denominator(C2) == 1
    assert lattice_denominator(D4) == 2


def test_positive_roots():
    assert positive_roots(A1) == ((1,),)
    assert set(positive_roots(A2)) == {(1, 0), (0, 1), (1, 1)}
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(B2)) == 4
    assert len(positive_roots(B3)) == 9
    assert len(positive_roots(D4)) == 12


def test_longest_word_and_root_sequence():
    assert longest_word(A1) == (1,)
    assert longest_word(A2) in ((1, 2, 1), (2, 1, 2))
    assert root_sequence(A2, (1, 2, 1)) == ((1, 0), (1, 1), (0, 1))
    for lie in (A1, A2, A3, B2, B3, C2, C3, D4):
        word = longest_word(lie)
        assert len(word) == len(positive_roots(lie))
        assert set(root_sequence(lie, word)) == set(positive_roots(lie))
        assert is_reduced_for_w0(lie, word)
        # reversed reduced word is again reduced for the involution w0
        assert is_reduced_for_w0(lie, tuple(reversed(word)))
    with pytest.raises(DomainError):
        root_sequence(A2, (1, 1, 2))


def test_w0_action():
    assert minus_w0(A1, (1,)) == (1,)
    assert minus_w0(A2, (1, 0)) == (0, 1)
    assert minus_w0(B2, (1, 0)) == (1, 0)
    assert minus_w0(A3, (1, 0, 0)) == (0, 0, 1)
    assert minus_w0(A3, (0, 1, 0)) == (0, 1, 0)
    assert w0_on_weight(A2, (1, 1)) == (-1, -1)


def test_weyl_dim_against_weight_oracle():
    cases = [(A1, (3,)), (A2, (1, 0)), (A2, (1, 1)), (A2, (2, 1)),
             (A3, (0, 1, 0)), (A3, (1, 0, 1)), (A3, (0, 2, 0)),
             (B2, (1, 0)), (B2, (0, 1)), (B2, (1, 1)), (B2, (2, 0)),
             (C2, (0, 1)), (C3, (1, 0, 0)), (D4, (1, 0, 0, 0))]
    for lie, lam in cases:
        assert weyl_dim(lie, lam) == dim_by_weights(lie, lam)
    assert weyl_dim(A1, (4,)) == 5
    assert weyl_dim(A2, (1, 0)) == 3
    assert weyl_dim(A3, (0, 1, 0)) == 6
    with pytest.raises(DomainError):
        weyl_dim(A2, (-1, 0))


def catalog_types():
    return sorted({LieType(e["series"], e["rank"]) for e in catalog()})


def test_weyl_dim_in_integers_equals_the_form_product():
    # every dominant weight with |lam| <= 3 up to rank 4, and 0 and the
    # fundamental weights on every catalog type (E6 and E7 included)
    checked = 0
    for lie in catalog_types():
        for lam in dominant_weights_up_to(lie, 3 if lie.rank <= 4 else 1):
            assert weyl_dim(lie, lam) == weyl_dim_by_forms(lie, lam), (lie, lam)
            checked += 1
    assert checked > 300
    assert weyl_dim(LieType("E", 7), (0, 0, 0, 0, 0, 0, 1)) == 56
    assert weyl_dim(LieType("E", 6), (1, 0, 0, 0, 0, 0)) == 27


def test_tensor_multiplicities_fill_the_tensor():
    # sum_nu m_nu dim V_nu = dim V_lam dim V_mu, with no module built
    rng = random.Random(22)
    assert tensor_multiplicities(A1, (3,), (2,)) == {
        (1,): 1, (3,): 1, (5,): 1}
    assert tensor_multiplicities(A2, (1, 1), (1, 1)) == {
        (0, 0): 1, (1, 1): 2, (0, 3): 1, (3, 0): 1, (2, 2): 1}
    for lie in catalog_types():
        small = [lam for lam in dominant_weights_up_to(lie, 2)
                 if weyl_dim(lie, lam) <= 300]
        for _ in range(3):
            lam, mu = rng.choice(small), rng.choice(small)
            mults = tensor_multiplicities(lie, lam, mu)
            assert all(m > 0 for m in mults.values())
            assert sum(m * weyl_dim(lie, nu) for nu, m in mults.items()) \
                == weyl_dim(lie, lam) * weyl_dim(lie, mu), (lie, lam, mu)
            # the top summand lam + mu, once
            assert mults[tuple(a + b for a, b in zip(lam, mu))] == 1
            assert list(mults) == sorted(mults, key=lambda w: (sum(w), w))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C2",
                                  "C3", "D4"])
def test_weight_multiplicities_sum_to_weyl_dim(name):
    lie = LieType.parse(name)
    for lam in dominant_weights_up_to(lie, 3):
        mults = weight_multiplicities(lie, lam)
        assert sum(mults.values()) == weyl_dim(lie, lam), lam
        assert mults[tuple(lam)] == 1
        # multiplicities are Weyl-invariant: the lowest weight is simple
        assert mults[w0_on_weight(lie, lam)] == 1


def test_weight_multiplicities_values():
    assert weight_multiplicities(A2, (1, 1))[(0, 0)] == 2
    assert weight_multiplicities(A3, (1, 0, 1))[(0, 0, 0)] == 3
    assert weight_multiplicities(A1, (3,)) == {(3,): 1, (1,): 1, (-1,): 1,
                                               (-3,): 1}
    for lie, lam in ((B2, (1, 1)), (C3, (0, 1, 0)), (A3, (1, 1, 0)),
                     (D4, (0, 1, 0, 0))):
        assert weight_multiplicities(lie, lam) == \
            freudenthal_multiplicities(lie, lam)
    with pytest.raises(DomainError):
        weight_multiplicities(A2, (-1, 0))


@pytest.mark.parametrize("name,depth", [
    (name, 3) for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2",
                           "C3", "C4", "D4")] + [("D5", 2)])
def test_dominant_recursion_equals_the_recursion_at_every_weight(name, depth):
    # same multiplicities in the same order, from Freudenthal at the
    # dominant weights only as from Freudenthal at every weight
    lie = LieType.parse(name)
    for lam in dominant_weights_up_to(lie, depth):
        assert list(weight_multiplicities(lie, lam).items()) == \
            list(weight_multiplicities_by_levels(lie, lam).items()), lam
    with pytest.raises(DomainError):
        weight_multiplicities(lie, (-1,) + (1,) * (lie.rank - 1))


@pytest.mark.parametrize("name,lam", [
    ("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 1, 0, 0, 0, 0)),
    ("E6", (0, 0, 0, 1, 0, 0)), ("E6", (1, 0, 0, 0, 0, 1)),
    ("E6", (2, 0, 0, 0, 0, 0)), ("E7", (1, 0, 0, 0, 0, 0, 0)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)), ("E7", (0, 0, 0, 0, 0, 0, 2))])
def test_dominant_recursion_on_the_exceptional_types(name, lam):
    lie = LieType.parse(name)
    mults = weight_multiplicities(lie, lam)
    assert list(mults.items()) == \
        list(weight_multiplicities_by_levels(lie, lam).items())
    assert sum(mults.values()) == weyl_dim(lie, lam)


def test_weyl_dim_dual_symmetry():
    for lie in (A2, A3, B2, C3, D4):
        for lam in dominant_weights_up_to(lie, 2):
            assert weyl_dim(lie, lam) == weyl_dim(lie, minus_w0(lie, lam))


def test_flag_catalog():
    f = FlagSpec.parse("A3/2")
    assert f.name() == "Gr(4,2)" and f.uncrossed == (1, 3)
    assert FlagSpec.parse("B2/1").name() == "Q(5)"
    assert FlagSpec.parse("C2/2").name() == "L(2)"
    assert FlagSpec.parse("D4/1").name() == "Q(8)"
    assert FlagSpec.parse("D4/4").name() == "S(4)"
    assert FlagSpec.parse("E6/6").name() == "OP2"
    assert FlagSpec.parse("E7/7").name() == "F"
    for bad in ("B3/2", "C3/1", "D4/2", "E6/2", "E7/1", "A2/3"):
        with pytest.raises(CatalogError):
            FlagSpec.parse(bad)
    entries = catalog(7)
    names = {(e["series"], e["rank"], e["crossed"]) for e in entries}
    assert ("E", 6, 1) in names and ("E", 7, 7) in names
    assert all("spherical_weights" in e for e in entries)


def test_spherical_weights_table():
    assert spherical_weights(FlagSpec.parse("A1/1")) == ((2,),)
    assert spherical_weights(FlagSpec.parse("A2/1")) == ((1, 1),)
    assert spherical_weights(FlagSpec.parse("A3/2")) == ((1, 0, 1), (0, 2, 0))
    assert spherical_weights(FlagSpec.parse("B3/1")) == \
        ((2, 0, 0), (0, 1, 0))
    # rank-2 fold: e1 + e2 = 2 w_2 for B2 (w_2 is the spin weight)
    assert spherical_weights(FlagSpec.parse("B2/1")) == ((2, 0), (0, 2))
    assert spherical_weights(FlagSpec.parse("C2/2")) == ((2, 0), (0, 2))
    assert spherical_weights(FlagSpec.parse("C3/3")) == \
        ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert spherical_weights(FlagSpec.parse("D4/1")) == \
        ((2, 0, 0, 0), (0, 1, 0, 0))
    assert spherical_weights(FlagSpec.parse("D4/4")) == \
        ((0, 1, 0, 0), (0, 0, 0, 2))
    assert spherical_weights(FlagSpec.parse("D4/3")) == \
        ((0, 1, 0, 0), (0, 0, 2, 0))
    assert spherical_weights(FlagSpec.parse("D5/5")) == \
        ((0, 1, 0, 0, 0), (0, 0, 0, 1, 1))
    assert spherical_weights(FlagSpec.parse("E6/6")) == \
        ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0))
    assert spherical_weights(FlagSpec.parse("E7/7")) == \
        ((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0),
         (0, 0, 0, 0, 0, 0, 2))


def test_crossed_plus_dual_is_spherical():
    # w_x - w0(w_x) lies in the monoid; neither w_x nor -w0(w_x) alone does
    for entry in catalog(4):
        flag = FlagSpec(LieType(entry["series"], entry["rank"]),
                        entry["crossed"])
        lie = flag.lie
        x = flag.crossed
        wx = tuple(1 if t == x - 1 else 0 for t in range(lie.rank))
        dual = minus_w0(lie, wx)
        target = tuple(a + b for a, b in zip(wx, dual))
        gens = spherical_weights(flag)
        mono = monoid_truncation(gens, sum(target))
        assert target in mono, flag
        assert wx not in mono or wx == target
        assert dual not in mono or dual == target


def test_monoid_truncation():
    mono = monoid_truncation(((1, 1),), 4)
    assert mono == [(0, 0), (1, 1), (2, 2)]
    mono = monoid_truncation(((2, 0), (0, 1)), 3)
    assert (2, 1) in mono and (0, 3) in mono and (1, 0) not in mono
