"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: weight multiplicities
come from Freudenthal's recursion (not the basis construction), taken at
every weight level by level (not at the dominant weights with W-invariance
filling their orbits), dimensions from summing them (not the Weyl product
formula), graded-slice sizes from counting weights with the invariance
conditions (not from kernels of generator matrices), reduced row echelon
forms from plain dense
Gauss-Jordan elimination on lists (not the sparse engine), the
Yang-Baxter identity from full products of Kronecker matrices on
V (x) V (x) V (not the reduced set of columns), braid operators from
whole braid-image matrices (not words applied by matvec), block-diagonal
inverses with every block inverted at once (not each column solved on its
first read), Clebsch-Gordan decompositions seeded at every dominant weight
of the tensor module (not at the summands the characters predict), Weyl
dimensions as products of Fractions of the invariant form (not integer
sums), root vectors by conjugating whole matrices with prefix products of
braid operators (not column by column), braidings as the unique solution of
the intertwining system (not by transport along F-words), braid operators
as the kernel of their whole conjugation system (not by transport), zbar
from the solution of a linear system (not read off the pairing), the mixed
exchange coefficients by reading R at every index tuple (not by walking R's
nonzero entries), the sum, product and quotient of two canonical
fractions by one gcd of the full product (not by gcds of cofactors),
holomorphic sections, highest weight vectors and Levi invariants by one
nullspace of every operator's images stacked (not one operator at a time
on what the earlier ones left), and the span of the degree-d z-monomials
from all n^d of them (not from the products of the degree-(d-1) monomials
that grew their span).
:func:`rescaled` gives the tests a module that is not a canonical build,
and :func:`scalar_from_str` parses the string form of a scalar back.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

from qflag import _kernel as K
from qflag import _poly_py as P
from qflag import cartan
from qflag.cartan import (bilinear_form, cartan_matrix, positive_roots,
                          reflect_weight, root_to_weight, symmetrizers,
                          w0_on_weight, weight_to_root_int)
from qflag.errors import ConventionError, DomainError
from qflag.linalg import (SpanBasis, SparseMatrix, dv_add_scaled,
                          invert_dense, kernel_combinations, nullspace,
                          rows_from_columns, solve_unique)
from qflag.peterweyl import GradedSlice
from qflag.reps import ModuleData, braid_image, tensor, transport
from qflag.rmatrix import Braiding, braiding
from qflag.scalars import Scalar


def freudenthal_multiplicities(lie, lam):
    """Exact weight multiplicities of the irreducible with highest weight lam."""
    n = lie.rank
    pos = positive_roots(lie)
    lam_rho = tuple(x + 1 for x in lam)
    c_top = bilinear_form(lie, lam_rho, lam_rho)
    dvec = weight_to_root_int(
        lie, tuple(a - b for a, b in zip(lam, w0_on_weight(lie, lam))))
    amat = cartan_matrix(lie)
    alpha_fw = [tuple(amat[k][j] for k in range(n)) for j in range(n)]
    mults = {}
    boxes = sorted(product(*[range(d + 1) for d in dvec]),
                   key=lambda c: (sum(c), c))
    for c in boxes:
        mu = tuple(lam[k] - sum(c[j] * alpha_fw[j][k] for j in range(n))
                   for k in range(n))
        if sum(c) == 0:
            mults[mu] = 1
            continue
        mu_rho = tuple(x + 1 for x in mu)
        denom = c_top - bilinear_form(lie, mu_rho, mu_rho)
        acc = Fraction(0)
        for alpha in pos:
            afw = root_to_weight(lie, alpha)
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, afw))
                diff = tuple(x - y for x, y in zip(lam, nu))
                try:
                    cc = weight_to_root_int(lie, diff)
                except Exception:
                    break
                if any(x < 0 for x in cc):
                    break
                m_nu = mults.get(nu, 0)
                if m_nu:
                    acc += m_nu * bilinear_form(lie, nu, afw)
                k += 1
        m = 2 * acc / denom if denom else Fraction(0)
        if m:
            assert m.denominator == 1
            mults[mu] = int(m)
    return {k: v for k, v in mults.items() if v}


def weight_multiplicities_by_levels(lie, lam) -> dict:
    """Freudenthal's formula at every weight, level by level from lam.

    The same integer recursion as :func:`qflag.cartan.weight_multiplicities`
    in root-depth coordinates c (nu = lam - sum_j c_j alpha_j), evaluated at
    every weight one simple-root step below a weight found (not at the
    dominant weights alone, with orbits filled by W-invariance), returned in
    the same order: lam first, then by depth sum_j c_j, then by c.
    """
    if len(lam) != lie.rank or any(x < 0 for x in lam):
        raise DomainError(f"{lam} is not a dominant weight for {lie}")
    n = lie.rank
    a = cartan_matrix(lie)
    d = symmetrizers(lie)
    form = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    top = [d[j] * (lam[j] + 1) for j in range(n)]
    dvec = weight_to_root_int(
        lie, tuple(x - y for x, y in zip(lam, w0_on_weight(lie, lam))))
    radix = [1] * n
    for j in range(1, n):
        radix[j] = radix[j - 1] * (dvec[j - 1] + 1)
    roots = []
    for alpha in positive_roots(lie):
        cols = [sum(form[i][j] * alpha[j] for j in range(n)) for i in range(n)]
        roots.append(([(i, x) for i, x in enumerate(alpha) if x],
                      sum(x * r for x, r in zip(alpha, radix)),
                      sum(alpha[j] * d[j] * lam[j] for j in range(n)),
                      cols, sum(alpha[i] * cols[i] for i in range(n))))
    zero = tuple([0] * n)
    mult = {0: 1}
    found = {zero: 1}
    level = [zero]
    while level:
        targets = set()
        for c in level:
            for j in range(n):
                if c[j] < dvec[j]:
                    targets.add(c[:j] + (c[j] + 1,) + c[j + 1:])
        level = []
        for c in sorted(targets):
            denom = 2 * sum(c[j] * top[j] for j in range(n)) - sum(
                c[i] * c[j] * form[i][j] for i in range(n) for j in range(n))
            if denom <= 0:
                continue
            key = sum(x * r for x, r in zip(c, radix))
            acc = 0
            for supp, step, lam_pair, cols, norm in roots:
                kmax = min(c[i] // x for i, x in supp)
                for k in range(1, kmax + 1):
                    m_up = mult.get(key - k * step)
                    if m_up:
                        pair = lam_pair - sum(c[i] * cols[i] for i in range(n))
                        acc += m_up * (pair + k * norm)
            m, rem = divmod(2 * acc, denom)
            if rem or m < 0:
                raise ConventionError(
                    f"Freudenthal: non-integral multiplicity at depth {c}")
            if m:
                mult[key] = m
                found[c] = m
                level.append(c)
    return {tuple(lam[k] - sum(c[j] * a[k][j] for j in range(n))
                  for k in range(n)): m for c, m in found.items()}


def dim_by_weights(lie, lam) -> int:
    return sum(freudenthal_multiplicities(lie, lam).values())


def slice_dim_by_weights(lie, flag, k, depth) -> int:
    """Truncated line-module slice dimension, purely from weight counting.

    Supports flags with at most one uncrossed node.  With no uncrossed node
    the slice at V_lam is the full weight space with mu_x = k; with a single
    uncrossed node j, the invariant count at a weight mu with <mu, a_j> = 0
    is the number of trivial sl2(alpha_j)-summands through mu, which equals
    m(mu) - m(mu + alpha_j) by the sl2 string count.
    """
    from qflag.cartan import dominant_weights_up_to
    snodes = flag.uncrossed
    if len(snodes) > 1:
        raise NotImplementedError("oracle limited to one uncrossed node")
    x = flag.crossed
    amat = cartan_matrix(lie)
    total = 0
    for lam in dominant_weights_up_to(lie, depth):
        mults = freudenthal_multiplicities(lie, lam)
        dim = sum(mults.values())
        inv = 0
        for mu, m in mults.items():
            if mu[x - 1] != k or any(mu[j - 1] != 0 for j in snodes):
                continue
            if snodes:
                j = snodes[0]
                alpha = tuple(amat[t][j - 1] for t in range(lie.rank))
                nu = tuple(a + b for a, b in zip(mu, alpha))
                inv += m - mults.get(nu, 0)
            else:
                inv += m
        total += dim * inv
    return total


def dense_rref(rows, ncols):
    """Dense Gauss-Jordan elimination: (pivot columns, RREF rows).

    Pivots are the first nonzero entry of each column, so the pivot rule
    differs from the engine's; the RREF is unique either way.  Columns
    from ncols on are carried along (augmented columns).
    """
    work = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        best = next((r for r in range(r0, len(work)) if work[r][col]), None)
        if best is None:
            continue
        work[r0], work[best] = work[best], work[r0]
        inv = work[r0][col]
        work[r0] = [x / inv for x in work[r0]]
        for r in range(len(work)):
            f = work[r][col]
            if r != r0 and f:
                work[r] = [a - f * b for a, b in zip(work[r], work[r0])]
        pivots.append(col)
    return pivots, work


def dense_nullspace(rows, ncols, one):
    """Basis of the kernel, one vector per free column, as dense tuples."""
    pivots, red = dense_rref(rows, ncols)
    zero = one - one
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [zero] * ncols
        x[free] = one
        for r, p in enumerate(pivots):
            x[p] = -red[r][free]
        basis.append(tuple(x))
    return basis


def dense_solve(rows, rhs, ncols):
    """The unique solution of rows @ x = rhs, or None."""
    pivots, red = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if len(pivots) < ncols or any(row[ncols] for row in red[ncols:]):
        return None
    return [red[r][ncols] for r in range(ncols)]


def kron_with_identity(mat, dim_id, side):
    """mat (x) 1 (side "left") or 1 (x) mat on a tensor-cube factor."""
    n = mat.nrows
    data = {}
    for (r, c), val in mat.entries_sorted():
        for t in range(dim_id):
            if side == "left":
                data[(r * dim_id + t, c * dim_id + t)] = val
            else:
                data[(t * n + r, t * n + c)] = val
    return SparseMatrix.from_entries(n * dim_id, n * dim_id, data.items())


def ybe_full(v, br):
    """R12 R23 R12 == R23 R12 R23 as full sparse products on V (x) V (x) V."""
    r12 = kron_with_identity(br.matrix, v.dim, "left")
    r23 = kron_with_identity(br.matrix, v.dim, "right")
    return r12.mul(r23).mul(r12) == r23.mul(r12).mul(r23)


def braid_f_matrix(m, i, j):
    """The matrix of T_i(F_j) on m, by whole-matrix products.

    T_i(F_i) = -K_i^-1 E_i and, for j != i with a = a_ij,
    T_i(F_j) = sum_t (-1)^(t-a) q_i^t F_i^(t) F_j F_i^(-a-t), t = 0..-a.
    """
    ctx = m.ctx
    if i == j:
        return m.k_matrix(i, -1).mul(m.e_mats[i - 1]).scale(-1)
    a = cartan_matrix(m.lie)[i - 1][j - 1]
    d = symmetrizers(m.lie)[i - 1]

    def divided(n):
        out = m.f_mats[i - 1].power(n, ctx.one)
        return out.scale(ctx.one / ctx.qfact(n, d)) if n >= 2 else out

    acc = None
    for t in range(0, -a + 1):
        sign = -1 if (t - a) % 2 else 1
        term = divided(t).mul(m.f_mats[j - 1]).mul(divided(-a - t)).scale(
            ctx.q_power(t * d) * sign)
        acc = term if acc is None else acc.add(term)
    return acc


def theta_by_matrices(m, i):
    """Theta_i transported through the whole matrices T_i(F_j), normalized
    so that its first nonzero entry in column order is 1."""
    target = reflect_weight(m.lie, i, m.highest)
    seed = m.weights.index(target)
    th = transport(m, [braid_f_matrix(m, i, j)
                       for j in range(1, m.lie.rank + 1)], {seed: m.ctx.one})
    first = th.cols[min(th.cols)]
    return th.scale(m.ctx.one / first[min(first)])


def nullspace_of_conjugation(m: ModuleData, i: int):
    """The solutions Theta of Theta g = T_i(g) Theta for every generator g,
    as a nullspace of the whole linear system (Theta_i up to scale)."""
    lie, ctx = m.lie, m.ctx
    n = m.dim
    unknowns = [(r, c) for r in range(n) for c in range(n)]
    uidx = {rc: k for k, rc in enumerate(unknowns)}
    rows = []
    for kind in ("E", "F", "K"):
        for j in range(1, lie.rank + 1):
            g = m.gen_matrix(kind, j)
            tg_rows = braid_image(m, i, kind, j).mul(
                SparseMatrix.identity(n, ctx.one)).row_dicts()
            # Theta g - tg Theta = 0, entry (r, c)
            for r in range(n):
                for c in range(n):
                    row = {}
                    for a, v in g.cols.get(c, {}).items():
                        row[uidx[(r, a)]] = row.get(uidx[(r, a)], ctx.zero) + v
                    for b, v in tg_rows[r].items():
                        row[uidx[(b, c)]] = row.get(uidx[(b, c)], ctx.zero) - v
                    if row:
                        rows.append(row)
    return nullspace(rows, len(unknowns), ctx.one)


def invert_blocks(mat, blocks, one):
    """Inverse of a block-diagonal SparseMatrix, one invert_dense per block.

    ``blocks`` lists (row indices, column indices) pairs; each block is read
    from ``mat`` in that row and column order (entries outside the blocks
    are not read).  The result has shape mat.ncols x mat.nrows, and block
    (rows, cols) of mat inverts to block (cols, rows) of it.  Raises
    ConventionError when a block is not square or is singular.
    """
    out = {}
    for rows, cols in blocks:
        if len(rows) != len(cols):
            raise ConventionError("weight block is not square")
        block = block_rows([mat.cols.get(c, {}) for c in cols], rows)
        for c, row in zip(cols, invert_dense(block, one)):
            for b, v in row.items():
                out.setdefault(rows[b], {})[c] = v
    return SparseMatrix(mat.ncols, mat.nrows, out)


def block_rows(columns, rows):
    """The dict-vector ``columns`` restricted to the keys ``rows``, as rows.

    Row b holds the entries at key rows[b], keyed by column position;
    entries at other keys are not read.
    """
    pos = {r: b for b, r in enumerate(rows)}
    block = [{} for _ in rows]
    for a, col in enumerate(columns):
        for r, v in col.items():
            b = pos.get(r)
            if b is not None:
                block[b][a] = v
    return block


def stacked_joint_kernel(mats, idxs, one):
    """Basis of the common kernel of mats restricted to the basis vectors
    idxs, by one nullspace of the restrictions stacked.

    The vectors are dict-vectors over the whole basis (keys in idxs), in
    the order of :func:`qflag.linalg.nullspace`.
    """
    if not idxs:
        return []
    rows = []
    for mat in mats:
        rows.extend(rows_from_columns([mat.cols.get(c, {}) for c in idxs]))
    return [{idxs[t]: v for t, v in vec.items()}
            for vec in nullspace(rows, len(idxs), one)]


def graded_component_stacked(alg, flag, k, depth):
    """PWAlgebra.graded_component with each block's Levi invariants from
    :func:`stacked_joint_kernel`."""
    blocks, dims = [], []
    for lam in cartan.dominant_weights_up_to(alg.lie, depth):
        m = alg.module(lam)
        idxs = [t for t, w in enumerate(m.weights)
                if w[flag.crossed - 1] == k
                and all(w[j - 1] == 0 for j in flag.uncrossed)]
        mats = [mat for j in flag.uncrossed
                for mat in (m.e_mats[j - 1], m.f_mats[j - 1])]
        cols = stacked_joint_kernel(mats, idxs, alg.ctx.one)
        if cols:
            blocks.append((tuple(lam), tuple(cols)))
            dims.append(m.dim)
    return GradedSlice(flag=flag, k=k, depth=depth, blocks=tuple(blocks),
                       dims=tuple(dims))


def monomial_span_all(alg, flag, d):
    """The span of the degree-d z-monomials, every one of the n^d formed."""
    gens = alg.generators(flag)
    monomials = [alg.one()]
    for _ in range(d):
        monomials = [alg.multiply(m, z) for m in monomials for z in gens.z]
    span = SpanBasis()
    for m in monomials:
        span.insert(m)
    return span


def decompose_eager(v, w, module_store):
    """V_lam (x) V_mu split into irreducibles: (nu, embedding, projection)
    per summand.

    The seeds are the joint kernels of the raising operators on every
    dominant weight space of the tensor module, by (|nu|, nu); each
    embedding carries its seed along V_nu's F-words, and the projections
    are the rows of one :func:`invert_blocks` of the embeddings side by
    side, split back by summand.
    """
    t = tensor(v, w)
    by_weight = t.weight_indices()
    dominant = sorted((nu for nu in by_weight if all(x >= 0 for x in nu)),
                      key=lambda nu: (sum(nu), nu))
    embs = [(nu, transport(module_store(nu), t.f_mats, u)) for nu in dominant
            for u in stacked_joint_kernel(t.e_mats, by_weight[nu],
                                          t.ctx.one)]
    columns, cols_by_weight, owner = {}, {}, []
    for k, (nu, emb) in enumerate(embs):
        for c, wt in enumerate(module_store(nu).weights):
            columns[len(owner)] = emb.cols.get(c, {})
            cols_by_weight.setdefault(wt, []).append(len(owner))
            owner.append((k, c))
    uinv = invert_blocks(
        SparseMatrix(t.dim, len(owner), columns),
        [(by_weight.get(wt, ()), g) for wt, g in cols_by_weight.items()],
        t.ctx.one)
    projs = [{} for _ in embs]
    for r, col in uinv.cols.items():
        for g, x in col.items():
            k, c = owner[g]
            projs[k].setdefault(r, {})[c] = x
    return [(nu, emb, SparseMatrix(emb.ncols, t.dim, proj))
            for (nu, emb), proj in zip(embs, projs)]


def conjugated_root_vector(ops, word, r, kind):
    """p X p^-1 as whole matrices: p = Theta_{i1} ... Theta_{i(r-1)} by
    products, each Theta_i^-1 by one inversion per weight block."""
    m = ops.m
    by_weight = m.weight_indices()
    p = pinv = SparseMatrix.identity(m.dim, m.ctx.one)
    for i in word[:r - 1]:
        th = ops.theta(i)
        inv = invert_blocks(
            th, [(by_weight.get(reflect_weight(m.lie, i, mu), ()), cols)
                 for mu, cols in by_weight.items()], m.ctx.one)
        p, pinv = p.mul(th), inv.mul(pinv)
    return p.mul(m.gen_matrix(kind, word[r - 1])).mul(pinv)


def h0_one_shot(calc, k, depth, chirality="01"):
    """Calculus.h0 by one nullspace per block: every root vector applied to
    every Levi-invariant column, the images stacked."""
    alg = calc.algebra
    sl = alg.graded_component(calc.flag, k, depth)
    blocks, dims = [], []
    for (lam, cols), d in zip(sl.blocks, sl.dims):
        rows = []
        for op in calc.tangent_operators(lam, chirality):
            rows.extend(rows_from_columns([op.matvec(col) for col in cols]))
        kcols = tuple(kernel_combinations(rows, cols, alg.ctx.one))
        if kcols:
            blocks.append((lam, kcols))
            dims.append(d)
    return GradedSlice(flag=calc.flag, k=k, depth=depth, blocks=tuple(blocks),
                       dims=tuple(dims))


def root_vector_matrix(rv):
    """A root vector assembled from its column(c), c = 0..dim-1."""
    return SparseMatrix(rv.dim, rv.dim,
                        {c: rv.column(c) for c in range(rv.dim)})


def _strictly_below(lie, mu, nu):
    """mu < nu in the dominance order (nu - mu a nonzero sum of simple roots)."""
    diff = tuple(a - b for a, b in zip(nu, mu))
    if all(x == 0 for x in diff):
        return False
    try:
        c = cartan.weight_to_root_int(lie, diff)
    except DomainError:
        return False
    return all(x >= 0 for x in c)


def braiding_by_solve(v: ModuleData, w: ModuleData) -> Braiding:
    """Solve for R_{V,W}; raises ConventionError unless the solution is unique."""
    if v.lie != w.lie:
        raise ConventionError("braiding of modules over different types")
    lie, ctx = v.lie, v.ctx
    dv, dw = v.dim, w.dim
    below = [[k for k in range(dw)
              if _strictly_below(lie, w.weights[k], w.weights[j])]
             for j in range(dw)]
    v_at = v.weight_indices()
    lead = []       # per col: the leading coefficient, at row support[col][0]
    support = []    # per col: (row, unknown index, or None at the lead)
    unknowns = []   # (row, col) per unknown
    for i in range(dv):
        for j in range(dw):
            col = i * dw + j
            total = tuple(a + b for a, b in zip(v.weights[i], w.weights[j]))
            lead.append(ctx.q_power(
                cartan.bilinear(lie, v.weights[i], w.weights[j])))
            sup = [(j * dv + i, None)]
            for k in below[j]:
                rest = tuple(a - b for a, b in zip(total, w.weights[k]))
                for l in v_at.get(rest, ()):
                    sup.append((k * dv + l, len(unknowns)))
                    unknowns.append((k * dv + l, col))
            support.append(sup)
    vw = tensor(v, w)
    wv = vw if v is w else tensor(w, v)
    rows = []
    rhs = []
    zero = ctx.zero
    for kind in ("E", "F"):
        for a in range(1, lie.rank + 1):
            act_in = vw.gen_matrix(kind, a).cols
            act_out = wv.gen_matrix(kind, a).cols
            for col in range(dv * dw):
                # R(g . (e_i (x) f_j)) - g . R(e_i (x) f_j), per output row;
                # the key None collects the leading (known) terms
                eqs = {}
                for c2, cf in act_in.get(col, {}).items():
                    for r2, u in support[c2]:
                        eq = eqs.setdefault(r2, {})
                        term = cf if u is not None else cf * lead[c2]
                        eq[u] = eq[u] + term if u in eq else term
                for r0, u in support[col]:
                    for r2, cf in act_out.get(r0, {}).items():
                        eq = eqs.setdefault(r2, {})
                        term = cf if u is not None else cf * lead[col]
                        eq[u] = eq[u] - term if u in eq else -term
                for r2 in sorted(eqs):
                    eq = eqs[r2]
                    const = eq.pop(None, zero)
                    row = {u: x for u, x in eq.items() if x}
                    if row or const:
                        rows.append(row)
                        rhs.append(-const)
    sol = solve_unique(rows, rhs, len(unknowns), ctx.one)
    cols = [{sup[0][0]: x} for sup, x in zip(support, lead)]
    for (r, c), x in zip(unknowns, sol):
        cols[c][r] = x
    return Braiding(v, w, SparseMatrix(dv * dw, dv * dw, dict(enumerate(cols))))


def zbar_by_solve(algebra, flag):
    """zbar_j before normalization, from the solution w of P w = e_hw.

    P is the pairing of V_{-w0 w_x} with the dual of V_{w_x}; zbar_j is
    sum_{t,u} P[j, t] w_u times the basis element (lam_bar, t, u).
    """
    gens = algebra.generators(flag)
    lam_bar = gens.lam_bar
    v = algebra.module(gens.lam)
    pair = algebra.pairing(gens.lam)
    ctx = algebra.ctx
    rhs = [ctx.one if r == v.highest_index else ctx.zero for r in range(v.dim)]
    w = solve_unique(pair.row_dicts(), rhs, v.dim, ctx.one)
    out = []
    for j in range(v.dim):
        acc = {}
        for t in range(v.dim):
            for u in range(v.dim):
                if pair.entry(j, t) and w[u]:
                    acc[(lam_bar, t, u)] = pair.entry(j, t) * w[u]
        out.append(acc)
    return out


def mixed_by_scan(algebra, flag, br=None):
    """The mixed commutation report, reading R at every (i, j, k, l, t).

    ``br`` replaces the braiding V (x) V_{-w0 w_x} -> V_{-w0 w_x} (x) V.
    """
    ctx = algebra.ctx
    gens = algebra.generators(flag)
    n = len(gens.z)
    v = algebra.module(gens.lam)
    w = algebra.module(gens.lam_bar)
    pair = algebra.pairing(gens.lam)
    prows = pair.row_dicts()
    pinv = invert_dense(prows, ctx.one)
    if br is None:
        br = braiding(v, w)
    qll = ctx.q_power(cartan.bilinear(algebra.lie, gens.lam, gens.lam))
    prods = {(k, l): algebra.multiply(gens.z[k], gens.zbar[l])
             for k in range(n) for l in range(n)}
    failures = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.multiply(gens.zbar[i], gens.z[j])
            acc = {}
            for k in range(n):
                for l in range(n):
                    coeff = ctx.zero
                    for u, piu in prows[i].items():
                        for t in range(n):
                            val = br.matrix.entry(u * v.dim + j, k * w.dim + t)
                            if val and l in pinv[t]:
                                coeff = coeff + piu * val * pinv[t][l]
                    if coeff:
                        dv_add_scaled(acc, prods[(k, l)], qll * coeff)
            if lhs != acc:
                failures.append({
                    "i": i, "j": j,
                    "lhs": [[list(kk[0]), kk[1], kk[2], str(vv)]
                            for kk, vv in sorted(lhs.items())],
                    "rhs": [[list(kk[0]), kk[1], kk[2], str(vv)]
                            for kk, vv in sorted(acc.items())],
                })
                break
        if failures:
            break
    return {
        "kind": "mixed_commutation",
        "flag": str(flag),
        "pairs_checked": n * n,
        "ok": not failures,
        "failures": failures,
    }


def rescaled(v):
    """F -> 2F, E -> E/2: an isomorphic module whose basis vectors are no
    longer exactly F-words of the highest weight vector."""
    ctx = v.ctx
    return replace(v, e_mats=tuple(m.scale(ctx.from_fraction(Fraction(1, 2)))
                                   for m in v.e_mats),
                   f_mats=tuple(m.scale(ctx.from_fraction(2))
                                for m in v.f_mats))


def fmake(num, den):
    """Canonical fraction by one gcd of num and den, then content and sign."""
    if P.pis_zero(den):
        raise ZeroDivisionError("zero denominator")
    if P.pis_zero(num):
        return P.F_ZERO
    v = min(num[0], den[0])
    num = (num[0] - v, num[1], num[2])
    den = (den[0] - v, den[1], den[2])
    g = P.pgcd(num, den)
    num, den = P.pdivexact(num, g), P.pdivexact(den, g)
    c = gcd(P.pcontent(num), P.pcontent(den))
    num = (num[0], num[1], tuple(x // c for x in num[2]))
    den = (den[0], den[1], tuple(x // c for x in den[2]))
    if den[2][-1] < 0:
        num, den = P.pneg(num), P.pneg(den)
    return (num, den)


def fadd(x, y):
    """x + y by reducing a(d) + c(b) over bd with fmake."""
    (a, b), (c, d) = x, y
    if P.fis_zero(x):
        return y
    if P.fis_zero(y):
        return x
    if b == d:
        return fmake(P.padd(a, c), b)
    return fmake(P.padd(P.pmul(a, d), P.pmul(c, b)), P.pmul(b, d))


def fmul(x, y):
    """x y by reducing ac over bd with fmake."""
    if P.fis_zero(x) or P.fis_zero(y):
        return P.F_ZERO
    return fmake(P.pmul(x[0], y[0]), P.pmul(x[1], y[1]))


def fdiv(x, y):
    """x / y by reducing ad over bc with fmake."""
    if P.fis_zero(y):
        raise ZeroDivisionError("division by zero scalar")
    if P.fis_zero(x):
        return P.F_ZERO
    return fmake(P.pmul(x[0], y[1]), P.pmul(x[1], y[0]))


def _poly_parse(text: str):
    text = text.strip()
    if text == "0":
        return K.P_ZERO
    pairs = {}
    text = text.replace("- ", "+-").replace("+ ", "+")
    if text.startswith("-"):
        text = "-" + text[1:].lstrip()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if "s" in chunk:
            coeff_s, _, pow_s = chunk.partition("s")
            coeff_s = coeff_s.rstrip("*").strip()
            c = int(coeff_s) if coeff_s else 1
            pow_s = pow_s.strip()
            e = int(pow_s[1:]) if pow_s.startswith("^") else 0 if not pow_s else None
            if e is None:
                raise ValueError(f"bad monomial {chunk!r}")
            if pow_s == "":
                e = 1
        else:
            c = int(chunk)
            e = 0
        pairs[e] = pairs.get(e, 0) + sign * c
    if not pairs:
        return K.P_ZERO
    lo = min(pairs)
    hi = max(pairs)
    return K.pcanon(lo, 1, [pairs.get(e, 0) for e in range(lo, hi + 1)])


def scalar_from_str(text: str) -> Scalar:
    """Parse the string form produced by ``str(Scalar)`` (round-trip exact)."""
    text = text.strip()
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num_s, den_s = text[1:-1].split(")/(", 1)
        return Scalar(K.fmake(_poly_parse(num_s), _poly_parse(den_s)))
    return Scalar(K.fmake(_poly_parse(text), K.P_ONE))


def weyl_dim_by_forms(lie, lam) -> int:
    """dim V_lam as prod_alpha (lam + rho, alpha) / (rho, alpha), every
    factor an exact Fraction of the invariant form (not integer sums)."""
    if any(x < 0 for x in lam):
        raise DomainError(f"{lam} is not dominant")
    rho = tuple([1] * lie.rank)
    num = Fraction(1)
    lam_rho = tuple(x + 1 for x in lam)
    for alpha in positive_roots(lie):
        num *= bilinear_form(lie, lam_rho, alpha, ("weight", "root")) / \
            bilinear_form(lie, rho, alpha, ("weight", "root"))
    if num.denominator != 1:
        raise DomainError("Weyl dimension came out non-integral")
    return int(num)
