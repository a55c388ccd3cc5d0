"""The sparse elimination engine against the dense reference of oracles.py."""

import random
from fractions import Fraction

import pytest

from oracles import dense_nullspace, dense_rref, dense_solve, invert_blocks
from qflag.cartan import LieType
from qflag.errors import ConventionError
from qflag.linalg import (MOD_POINT, BlockInverse, SpanBasis, SparseMatrix,
                          column_rank_profile, dv_add_scaled, eliminate,
                          invert_dense, kernel_combinations, mod_row_profile,
                          mod_vector, nullspace, rank, rows_from_columns,
                          solve_unique, staged_kernel)
from qflag.reps import (LusztigOperators, build_irreducible, context_for,
                        decompose, dual_module, tensor)
from qflag.rmatrix import braiding

CTX = context_for(LieType.parse("A1"))


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def scalar_entry(rng):
    acc = CTX.zero
    for _ in range(rng.randint(1, 2)):
        acc = acc + CTX.s_power(rng.randint(-2, 2)) * rng.randint(-3, 3)
    return acc / (CTX.s_power(rng.randint(0, 1)) + rng.randint(1, 2))


FIELDS = [(Fraction(1), fraction_entry), (CTX.one, scalar_entry)]


def random_dense(rng, nrows, ncols, entry, zero, density=0.35):
    return [[entry(rng) if rng.random() < density else zero
             for _ in range(ncols)] for _ in range(nrows)]


def sparse(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def to_dense(vec, ncols, zero):
    return tuple(vec.get(c, zero) for c in range(ncols))


def with_dependent_rows(rng, dense, extra):
    """Append random combinations of the rows (rank stays the same)."""
    out = [list(r) for r in dense]
    for _ in range(extra):
        a, b = rng.randrange(len(dense)), rng.randrange(len(dense))
        f = rng.randint(-2, 2)
        out.insert(rng.randint(0, len(out)),
                   [x + f * y for x, y in zip(dense[a], dense[b])])
    return out


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_engine_matches_dense_reference(one, entry):
    zero = one - one
    rng = random.Random(7)
    for trial in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        dense = random_dense(rng, nrows, ncols, entry, zero)
        if trial % 3 == 0:
            dense = with_dependent_rows(rng, dense, 2)
        want_piv, want_red = dense_rref(dense, ncols)
        pivots, red = eliminate(sparse(dense), ncols)
        assert pivots == want_piv
        assert [to_dense(r, ncols, zero) for r in red[:len(pivots)]] == \
            [tuple(r) for r in want_red[:len(want_piv)]]
        assert len(red) == len(dense)
        assert all(not r for r in red[len(pivots):])
        # the pivots and the RREF are unique: the same for the rows shuffled
        # and each scaled by a nonzero factor
        moved = [[x * f for x in row]
                 for row, f in zip(dense, [entry(rng) or one for _ in dense])]
        rng.shuffle(moved)
        assert eliminate(sparse(moved), ncols) == (pivots, red)
        # without the upward pass row r has a 1 at pivot r, no key below it
        echelon_piv, echelon = eliminate(sparse(dense), ncols, reduce_up=False)
        assert echelon_piv == want_piv
        for p, row in zip(echelon_piv, echelon):
            assert row[p] == one and min(row) == p
        # augmented and inconsistent (a row repeated with another right-hand
        # side): past the pivots, rows are nonzero only at keys >= ncols
        aug = [{**row, ncols: entry(rng), ncols + 1: entry(rng)}
               for row in sparse(dense)]
        aug.append({**aug[0], ncols: aug[0].get(ncols, zero) + one})
        rng.shuffle(aug)
        aug_piv, aug_red = eliminate(aug, ncols)
        assert aug_piv == want_piv and len(aug_red) == len(aug)
        residue = [r for r in aug_red[len(aug_piv):] if r]
        assert residue and all(min(r) >= ncols for r in residue)
        assert column_rank_profile(sparse(dense), ncols) == want_piv
        assert [to_dense(v, ncols, zero)
                for v in nullspace(sparse(dense), ncols, one)] == \
            dense_nullspace(dense, ncols, one)
        # the kernel's combinations of some vectors, one per kernel vector
        vectors = [{-1: entry(rng) or one, c: one} for c in range(ncols)]
        want = []
        for x in dense_nullspace(dense, ncols, one):
            acc = {}
            for xt, vec in zip(x, vectors):
                for key, v in vec.items():
                    acc[key] = acc.get(key, zero) + xt * v
            want.append({key: v for key, v in acc.items() if v})
        assert list(kernel_combinations(sparse(dense), vectors, one)) == want
        # the transpose's row profile mod p is the column profile here, and
        # the kept columns are independent on the rows they lead with mod p
        cols = [{r: row[c] for r, row in enumerate(dense) if row[c]}
                for c in range(ncols)]
        leads = []
        assert mod_row_profile([mod_vector(c) for c in cols],
                               leads) == want_piv
        assert rank([{a: dense[r][c] for a, c in enumerate(want_piv)
                      if dense[r][c]} for r in leads],
                    len(want_piv)) == len(want_piv)


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_staged_kernel_equals_the_stacked_nullspace(one, entry):
    # one map at a time on what the earlier ones left, against one
    # nullspace of every map's images stacked: the same vectors, entry for
    # entry and in the same key order, with dependent and zero vectors among
    # the inputs, maps of one or two rows (so that several stages cut), and
    # maps that kill everything
    zero = one - one
    rng = random.Random(23)
    for trial in range(200):
        dim = rng.randint(1, 8)
        vectors = sparse(random_dense(rng, rng.randint(1, 8), dim, entry,
                                      zero, density=0.5))
        if trial % 2:
            dep = dv_add_scaled(dict(rng.choice(vectors)), rng.choice(vectors),
                                rng.randint(-2, 2))
            vectors.insert(rng.randint(0, len(vectors)), dep)
            vectors.append({})
        maps = []
        for _ in range(rng.randint(0, 6)):
            nrows = rng.randint(1, 2)
            if rng.random() < 0.15:
                maps.append(SparseMatrix.zero(nrows, dim))
                continue
            dense = random_dense(rng, nrows, dim, entry, zero, density=0.5)
            maps.append(SparseMatrix(nrows, dim, {
                c: {r: row[c] for r, row in enumerate(dense) if row[c]}
                for c in range(dim)}))
        stacked = [row for mat in maps
                   for row in rows_from_columns([mat.matvec(v)
                                                 for v in vectors])]
        want = list(kernel_combinations(stacked, vectors, one))
        got = staged_kernel([mat.matvec for mat in maps], vectors, one)
        assert got == want
        assert [list(v) for v in got] == [list(v) for v in want]


def test_staged_kernel_stops_when_nothing_survives():
    one = Fraction(1)
    vectors = [{0: one}, {1: one, 2: one}]
    applied = []

    def injective(v):
        applied.append(v)
        return dict(v)

    def never(v):
        raise AssertionError("a map ran after the kernel was empty")

    assert staged_kernel([injective, never], vectors, one) == []
    assert applied == vectors
    # a map that kills everything passes every vector on
    assert staged_kernel([lambda v: {}], vectors, one) == vectors
    assert staged_kernel([], [], one) == []


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_span_basis_agrees_with_rank(one, entry):
    zero = one - one
    rng = random.Random(5)
    for trial in range(30):
        ncols = rng.randint(1, 6)
        dense = random_dense(rng, rng.randint(1, 7), ncols, entry, zero)
        if trial % 3 == 0:
            dense = with_dependent_rows(rng, dense, 2)
        rows = sparse(dense)
        span = SpanBasis()
        for t, row in enumerate(rows):
            assert span.insert(row) == (rank(rows[:t + 1], ncols) >
                                        rank(rows[:t], ncols))
        assert span.dim == rank(rows, ncols)
        assert all(span.contains(row) for row in rows)
        probe = {c: entry(rng) or one for c in range(ncols)}
        assert span.contains(probe) == (rank(rows + [probe], ncols) ==
                                        span.dim)
        # the same span from its basis, and a span one row short of it
        other = SpanBasis()
        for vec in reversed(span.vectors()):
            other.insert(vec)
        assert span.equals(other) and other.equals(span)
        short = SpanBasis()
        for row in rows[1:]:
            short.insert(row)
        assert span.equals(short) == (rank(rows[1:], ncols) == span.dim)


def test_span_basis_insert_leaves_stored_rows_unchanged():
    # an echelon basis is enough for dim, contains and equals: a new row
    # is not back-substituted into the rows stored before it
    one = Fraction(1)
    span = SpanBasis()
    assert span.insert({0: one, 1: one})
    before = span.vectors()
    assert span.insert({1: Fraction(2)})
    assert span.vectors() == before + [{1: one}]
    assert span.contains({0: one}) and span.dim == 2


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_solve_unique_matches_dense_reference(one, entry):
    zero = one - one
    rng = random.Random(11)
    solved = 0
    for _ in range(40):
        ncols = rng.randint(1, 5)
        dense = random_dense(rng, rng.randint(ncols, 3 * ncols), ncols,
                             entry, zero, density=0.5)
        dense = with_dependent_rows(rng, dense, 2)
        x = [entry(rng) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), zero) for row in dense]
        want = dense_solve(dense, rhs, ncols)
        if want is None:
            with pytest.raises(ConventionError, match="solution space"):
                solve_unique(sparse(dense), rhs, ncols, one)
            continue
        assert want == x
        assert solve_unique(sparse(dense), rhs, ncols, one) == x
        solved += 1
    assert solved > 10


def test_invert_dense_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        dense = random_dense(rng, n, n, scalar_entry, CTX.zero, density=0.8)
        aug = [row + [CTX.one if i == j else CTX.zero for j in range(n)]
               for i, row in enumerate(dense)]
        pivots, red = dense_rref(aug, n)
        if len(pivots) < n:
            with pytest.raises(ConventionError, match="singular"):
                invert_dense(sparse(dense), CTX.one)
            continue
        got = invert_dense(sparse(dense), CTX.one)
        assert [to_dense(r, n, CTX.zero) for r in got] == \
            [tuple(r[n:]) for r in red]


def random_blocks(rng, n):
    """(rows, cols) pairs partitioning 0..n-1 twice, shuffled, equal sizes."""
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    blocks = []
    while rows:
        k = rng.randint(1, min(3, len(rows)))
        blocks.append((rows[:k], cols[:k]))
        rows, cols = rows[k:], cols[k:]
    return blocks


def read_in_order(inv, order):
    """The whole BlockInverse, its columns read in the given order."""
    return SparseMatrix(inv.nrows, inv.ncols,
                        {r: inv.column(r) for r in order})


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_invert_blocks_matches_dense_reference(one, entry):
    # the eager oracle against dense Gauss-Jordan, and BlockInverse, read
    # column by column in a random order, against the oracle
    zero = one - one
    rng = random.Random(5)
    inverted = singular = 0
    for _ in range(30):
        n = rng.randint(1, 7)
        blocks = random_blocks(rng, n)
        dense = [[zero] * n for _ in range(n)]
        for rows, cols in blocks:
            for r in rows:
                for c in cols:
                    if rng.random() < 0.8:
                        dense[r][c] = entry(rng)
        mat = SparseMatrix.from_entries(n, n, (
            ((r, c), v) for r, row in enumerate(dense) for c, v in enumerate(row)))
        aug = [row + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(dense)]
        pivots, red = dense_rref(aug, n)
        if len(pivots) < n:
            with pytest.raises(ConventionError, match="singular"):
                invert_blocks(mat, blocks, one)
            with pytest.raises(ConventionError, match="singular"):
                BlockInverse(mat, blocks, one)
            singular += 1
            continue
        got = invert_blocks(mat, blocks, one)
        assert (got.nrows, got.ncols) == (n, n)
        assert [[got.entry(i, j) or zero for j in range(n)]
                for i in range(n)] == [r[n:] for r in red]
        order = list(range(n))
        rng.shuffle(order)
        lazy = BlockInverse(mat, blocks, one)
        assert read_in_order(lazy, order) == got
        # keys in the block's column order, as the eager inverse has them
        assert all(list(lazy.column(r)) == list(got.cols.get(r, {}))
                   for r in order)
        assert not lazy._factors     # each factor dropped with its last column
        vec = {j: entry(rng) for j in range(n) if rng.random() < 0.5}
        assert lazy.matvec(vec) == got.matvec(vec)
        inverted += 1
    assert inverted > 10 and singular


def test_invert_blocks_rejects_bad_blocks():
    one = Fraction(1)
    mat = SparseMatrix.from_entries(3, 3, {
        (0, 0): one, (1, 1): one, (1, 2): one, (2, 1): one, (2, 2): one}.items())
    with pytest.raises(ConventionError, match="not square"):
        BlockInverse(mat, [([0], [0]), ([1, 2], [1])], one)
    with pytest.raises(ConventionError, match="singular"):
        BlockInverse(mat, [([0], [0]), ([1, 2], [1, 2])], one)
    # a rectangular matrix with square blocks: the shape is transposed
    wide = SparseMatrix.from_entries(1, 2, [((0, 1), Fraction(2))])
    inv = BlockInverse(wide, [([0], [1])], one)
    assert ((inv.nrows, inv.ncols, read_in_order(inv, [0]).entries_sorted())
            == (2, 1, [((1, 0), Fraction(1, 2))]))


def test_block_inverse_checks_a_block_no_one_reads(factored):
    # a singular block raises when the inverse is built, although no column
    # of it is ever read; the invertible blocks wait for their first read
    one = Fraction(1)
    mat = SparseMatrix.from_entries(4, 4, {
        (0, 0): one, (1, 1): one, (1, 2): one, (2, 1): one, (2, 2): one,
        (3, 3): Fraction(2)}.items())
    calls = factored
    with pytest.raises(ConventionError, match="singular"):
        BlockInverse(mat, [([0], [0]), ([1, 2], [1, 2]), ([3], [3])], one)
    assert calls == [2]
    calls.clear()
    inv = BlockInverse(mat, [([0], [0]), ([1], [1]), ([3], [3])], one)
    assert calls == []
    assert inv.column(3) == {3: Fraction(1, 2)}
    assert inv.matvec({3: one, 1: one}) == {3: Fraction(1, 2), 1: one}
    assert inv.column(3) == {3: Fraction(1, 2)}
    assert calls == [1, 1]


def test_block_inverse_factors_a_block_with_a_pole_at_once(factored):
    # an entry with a pole at the modular point has no image mod p, so its
    # block is factored exactly when the inverse is built; the other block
    # waits for its first read, and every column equals the dense inverse
    one, zero, s = CTX.one, CTX.zero, CTX.s_power(1)
    pole = one / (s - MOD_POINT)
    assert mod_vector({1: pole}) is None
    dense = [[s, zero, zero], [zero, pole, s], [zero, one, s + one]]
    mat = SparseMatrix.from_entries(3, 3, (
        ((r, c), v) for r, row in enumerate(dense) for c, v in enumerate(row)))
    inv = BlockInverse(mat, [([0], [0]), ([1, 2], [1, 2])], one)
    assert factored == [2]
    pivots, red = dense_rref(
        [row + [one if i == j else zero for j in range(3)]
         for i, row in enumerate(dense)], 3)
    assert pivots == [0, 1, 2]
    assert [[inv.column(j).get(i, zero) for j in range(3)]
            for i in range(3)] == [row[3:] for row in red]
    assert factored == [2, 1]


def from_dense(dense, ncols):
    return SparseMatrix.from_entries(len(dense), ncols, (
        ((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row)))


def assert_clean(mat):
    assert all(col and all(col.values()) for col in mat.cols.values()), \
        "an explicit zero or an empty column survived"
    assert all(0 <= j < mat.ncols and all(0 <= i < mat.nrows for i in col)
               for j, col in mat.cols.items())


def as_dense(mat, zero):
    assert_clean(mat)
    return [[mat.entry(i, j) or zero for j in range(mat.ncols)]
            for i in range(mat.nrows)]


def dense_mul(a, b, ncols, zero):
    out = [[zero] * ncols for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            for j in range(ncols):
                out[i][j] = out[i][j] + x * b[k][j]
    return out


@pytest.mark.parametrize("one,entry", FIELDS, ids=["fraction", "scalar"])
def test_sparse_matrix_matches_dense_reference(one, entry):
    zero = one - one
    rng = random.Random(11)
    for _ in range(25):
        m, k, n = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
        a = random_dense(rng, m, k, entry, zero, density=0.5)
        b = random_dense(rng, k, n, entry, zero, density=0.5)
        # entries and whole columns that cancel: a's columns 0 and 1 agree
        # and b's column 0 is x e_0 - x e_1, so a.b has a zero column 0;
        # c is -a on column 0 and on about half of the other entries
        for row in a:
            row[1] = row[0]
        x = entry(rng) or one
        for t, row in enumerate(b):
            row[0] = x if t == 0 else -x if t == 1 else zero
        c = [[-v if j == 0 or rng.random() < 0.5 else entry(rng)
              for j, v in enumerate(row)] for row in a]
        sa, sb, sc = from_dense(a, k), from_dense(b, n), from_dense(c, k)
        assert as_dense(sa, zero) == a
        prod = sa.mul(sb)
        assert (prod.nrows, prod.ncols) == (m, n)
        assert as_dense(prod, zero) == dense_mul(a, b, n, zero)
        assert 0 not in prod.cols
        total = sa.add(sc)
        assert as_dense(total, zero) == [[x + y for x, y in zip(r, s)]
                                         for r, s in zip(a, c)]
        assert 0 not in total.cols
        assert as_dense(sa.sub(sc), zero) == [[x - y for x, y in zip(r, s)]
                                              for r, s in zip(a, c)]
        assert sa.sub(sa).is_zero() and sa.sub(sa).cols == {}
        f = entry(rng)
        assert as_dense(sa.scale(f), zero) == [[f * x for x in r] for r in a]
        assert sa.scale(zero).cols == {}
        tr = sa.transpose()
        assert (tr.nrows, tr.ncols) == (k, m)
        assert as_dense(tr, zero) == [list(col) for col in zip(*a)]
        vec = {j: entry(rng) for j in range(k) if rng.random() < 0.6}
        vec.update({0: x, 1: -x})
        want = [sum((r[j] * v for j, v in vec.items()), zero) for r in a]
        assert sa.matvec(vec) == {i: v for i, v in enumerate(want) if v}
        assert sa.matvec({0: x, 1: -x}) == {}
        assert sa.row_dicts() == sparse(a)
        assert sa.entries_sorted() == [
            ((i, j), v) for i, row in enumerate(a) for j, v in enumerate(row)
            if v]
        assert SparseMatrix.from_entries(m, k, sa.entries_sorted()) == sa
        # the constructor keeps the entries it is given and drops only
        # empty columns; add (above), from_entries and diagonal drop zeros
        assert SparseMatrix(m, k, {1: {}}).cols == {}
        assert SparseMatrix.from_entries(m, k, [((0, 0), zero)]).cols == {}
        assert SparseMatrix.diagonal([zero, x, zero]).cols == {1: {1: x}}


def test_module_tensor_and_product_matrices_are_clean():
    # the constructor does not filter zeros, so every matrix a module,
    # product, braid operator or braiding is built from must be clean
    lie = LieType.parse("A2")
    ctx = context_for(lie)
    v = build_irreducible(ctx, lie, (1, 0))
    w = build_irreducible(ctx, lie, (1, 1))
    t = tensor(v, w)
    for m in (v, w, t, dual_module(w)):
        for i in range(lie.rank):
            e, f = m.e_mats[i], m.f_mats[i]
            for mat in (e, f, e.transpose(), e.mul(f), f.mul(e),
                        e.mul(f).sub(f.mul(e)), e.mul(e).mul(e)):
                assert_clean(mat)
    # transport along F-words: braid operators and CG embeddings
    ops = LusztigOperators(w)
    for i in range(1, lie.rank + 1):
        assert_clean(ops.theta(i))
    for s in decompose(
            v, w, lambda nu: build_irreducible(ctx, lie, nu)).summands:
        assert_clean(s.emb)
    assert_clean(braiding(v, w).matrix)
    assert_clean(braiding(w, w).matrix)
    # E_1^3 vanishes on the 8-dimensional V_(1,1), by cancellation or not
    assert w.e_mats[0].power(3, ctx.one).is_zero()


def tall_system():
    s = CTX.s_power
    one, zero = CTX.one, CTX.zero
    dense = [[s(1), one, zero], [zero, s(-1), one], [one, zero, s(2)],
             [s(1) + one, s(-1) + one, one], [zero, zero, s(3)]]
    x = [s(2) - one, one / (s(1) + one), s(-1)]
    rhs = [sum((a * b for a, b in zip(row, x)), zero) for row in dense]
    return dense, rhs, x


def test_inconsistent_and_underdetermined_messages():
    dense, rhs, x = tall_system()
    assert solve_unique(sparse(dense), rhs, 3, CTX.one) == x
    bad = list(rhs)
    bad[-1] = bad[-1] + CTX.one     # a row past the three that fix x
    with pytest.raises(ConventionError, match="^inconsistent linear system$"):
        solve_unique(sparse(dense), bad, 3, CTX.one)
    # drop the last column: rank 2 of 2 unknowns but inconsistent
    with pytest.raises(ConventionError, match="^inconsistent linear system$"):
        solve_unique(sparse([row[:2] for row in dense]), rhs, 2, CTX.one)
    # a zero column: one free unknown
    under = [row[:2] + [CTX.zero] for row in dense]
    rhs2 = [row[0] + row[1] for row in under]
    with pytest.raises(ConventionError,
                       match="^solution space has dimension 1, expected 0$"):
        solve_unique(sparse(under), rhs2, 3, CTX.one)
