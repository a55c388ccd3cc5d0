"""Finite-dimensional type-1 modules as explicit generator matrices.

Irreducibles are built weight space by weight space, in Freudenthal's weight
order (:func:`qflag.cartan.weight_multiplicities`, every weight after the
weights one simple root above it).  The candidates for L(lam)_nu are the
vectors F_j.u, u a basis vector of weight nu + alpha_j; their E-action is
computed from the defining commutation relation E_i F_j u = F_j E_i u +
d_ij [mu_i] u on the weight spaces above, whose E and F matrices are already
exact.  For nu != lam the map x -> (E_1 x, ..., E_n x) is injective on
L(lam)_nu (a nonzero vector every E_i kills would be a highest weight vector
of a proper submodule), so the candidates satisfy exactly the linear
relations of their raising images: each weight space keeps the candidates on
the column rank profile of the raising matrix, and expands the others in
them.

The target rank of each weight space is its multiplicity, from Freudenthal's
formula in integers at the dominant weights, spread over their Weyl orbits.
The profile is first found mod a fixed prime at a fixed point of s, in one
modular pass over the weight space, which reads every candidate's raising
column off the images mod p of the module's own E- and F-entries, each made
when first read.  When the profile has exactly the target size, those
columns are independent over Q(s) and the rank cannot exceed the
multiplicity, so one exact reduced row echelon form of the rows the kept
columns led with mod p confirms it (its pivots must be the profile) and
gives every expansion of a dropped candidate in the kept ones: a kept
candidate is computed exactly in full, any other only at those rows.
Otherwise, or when an entry has no image mod the prime, every row of the
raising matrix is reduced exactly; the module comes out the same either
way.  In symbolic mode a rank other than the multiplicity raises
ConventionError at that weight space; the total dimension is also checked
against the Weyl dimension formula, which doubles as the degeneration guard
in specialized mode.

Every basis vector remembers its parent, e_t = F_j e_u, so the F-word that
produced it; braid operators and Clebsch-Gordan embeddings both ride on that:
an intertwiner from V_lam into any module is determined by the image of the
highest weight vector, and is evaluated by transporting that image along the
parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cartan
from .cartan import LieType, Weight
from .errors import (ConventionError, DimensionGuardError, DomainError,
                     ReducibleModuleError, SpecializationError)
from .linalg import (MOD_PRIME, BlockInverse, SparseMatrix, dv_add_scaled,
                     eliminate, mod_image, mod_row_profile, mod_vector,
                     rows_from_columns, staged_kernel)
from .scalars import QContext

DEFAULT_GUARD = 64


def context_for(lie: LieType, s0=None) -> QContext:
    """Arithmetic context with the type's exponent lattice denominator."""
    return QContext(cartan.lattice_denominator(lie), s0=s0)


@dataclass(frozen=True)
class ModuleData:
    """A type-1 module: weight-labelled basis plus generator matrices."""
    lie: LieType
    ctx: QContext
    highest: Weight | None
    dim: int
    weights: tuple
    e_mats: tuple          # per node (0-based), SparseMatrix
    f_mats: tuple
    k_exps: tuple          # k_exps[i][t] = (alpha_i, weights[t]), an integer
    highest_index: int | None = None
    parents: tuple | None = None    # (node, parent index) per basis vector

    @property
    def fwords(self):
        """F-word per basis vector, outermost node first, read off
        ``parents``; None for a module without parents."""
        if self.parents is None:
            return None
        words = [()]
        for j, u in self.parents[1:]:
            words.append((j,) + words[u])
        return tuple(words)

    def k_values(self, i: int, sign: int = 1):
        ctx = self.ctx
        return [ctx.q_power(sign * e) for e in self.k_exps[i - 1]]

    def k_matrix(self, i: int, sign: int = 1) -> SparseMatrix:
        return SparseMatrix.diagonal(self.k_values(i, sign))

    def gen_matrix(self, kind: str, i: int) -> SparseMatrix:
        if kind == "E":
            return self.e_mats[i - 1]
        if kind == "F":
            return self.f_mats[i - 1]
        if kind == "K":
            return self.k_matrix(i)
        if kind == "Kinv":
            return self.k_matrix(i, -1)
        raise DomainError(f"unknown generator kind {kind!r}")

    def weight_indices(self) -> dict:
        out = {}
        for t, w in enumerate(self.weights):
            out.setdefault(w, []).append(t)
        return out


def _select_candidates(mods, want: int, column, column_at):
    """Column rank profile of a weight space's raising matrix, with the RREF.

    Column t of the raising matrix is candidate F_j.u's E_i-images for every
    node i, merged (E_i lands in weight nu + alpha_i, so the keys of
    different nodes never meet).  On L(lam)_nu, nu != lam, the map
    x -> (E_1 x, ..., E_n x) is injective: a nonzero vector every E_i kills
    would be a highest weight vector of a proper submodule.  So the
    candidates are dependent exactly when their columns are, the profile is
    the lowest-index set of candidates independent in L(lam)_nu, and the
    rank is the weight's multiplicity ``want``.

    ``mods[t]`` is column t mod p (:func:`qflag.linalg.mod_vector`), or None
    when an entry has no image; ``column(t)`` is column t, exact, and
    ``column_at(t, keys)`` the same at ``keys`` only.  Returns the profile
    and rows whose column t expands candidate t in the kept ones: the RREF
    of rows spanning the row space, which is unique.  The profile is first
    taken in Z/p, as the modular row profile of ``mods``, which also gives
    each kept column's leading row once reduced
    (:func:`qflag.linalg.mod_row_profile`).  When it has ``want`` columns,
    they are independent over Q(s), so the rank is ``want``; the kept
    columns are independent mod p on their ``want`` leading rows, so those
    rows are independent over Q(s) and span the row space.  The kept
    columns are then read in full and the others at those rows only, and
    the pivots of the rows' exact RREF over all candidates are the exact
    profile, which is checked.  Otherwise, or when a column has no image
    mod p, every column is read in full and every row is reduced exactly.
    """
    m = len(mods)
    if None not in mods:
        leads = []
        profile = mod_row_profile(mods, leads)
        if len(profile) == want:
            kept = set(profile)
            keys = sorted(leads)
            read = [column(t) if t in kept else column_at(t, keys)
                    for t in range(m)]
            if want == m:
                return profile, []
            pivots, red = eliminate(
                [{t: col[g] for t, col in enumerate(read) if g in col}
                 for g in keys], m)
            if pivots == profile:
                return profile, red
    pivots, red = eliminate(rows_from_columns(
        [column(t) for t in range(m)]), m)
    return pivots, red[:len(pivots)]


def build_irreducible(ctx: QContext, lie: LieType, lam: Weight,
                      guard: int = DEFAULT_GUARD) -> ModuleData:
    """The irreducible module with highest weight lam (dominant)."""
    if len(lam) != lie.rank or any(x < 0 for x in lam):
        raise DomainError(f"{lam} is not a dominant weight for {lie}")
    if ctx.L != cartan.lattice_denominator(lie):
        raise DomainError("context lattice denominator does not match the type")
    dim = cartan.weyl_dim(lie, lam)
    if dim > guard:
        raise DimensionGuardError(
            f"dim V_{lam} = {dim} exceeds the dimension guard {guard}")

    n = lie.rank
    d = cartan.symmetrizers(lie)
    one = ctx.one
    amat = cartan.cartan_matrix(lie)
    alpha_fw = [tuple(amat[k][j] for k in range(n)) for j in range(n)]

    weights = [tuple(lam)]
    parents = [None]
    eimg = [[{} for _ in range(n)]]           # per global, per node: dict-vec
    fimg = [[None] * n]                       # filled as weights are processed
    spaces = {tuple(lam): range(1)}           # weight -> its basis indices
    # images mod p of eimg[u] and fimg[g][j], made when a later candidate
    # first reads them, for u one level and g two levels above the weights
    # being built; None when an entry has no image
    emod, fmod, qmod = {}, {}, {}
    level_start = 0                 # first basis index of the current level

    def exact_images(j, u):
        # E_i(F_j u) = F_j(E_i u) + d_ij [mu_i] u for every node i
        wu = weights[u]
        per_node = []
        for i in range(n):
            acc = {}
            for g, cf in eimg[u][i].items():
                fg = fimg[g][j]
                if fg:
                    dv_add_scaled(acc, fg, cf)
            if i == j and wu[i]:
                dv_add_scaled(acc, {u: one}, ctx.qint(wu[i], d[i]))
            per_node.append(acc)
        return per_node

    def exact_at(j, u, keys):
        # the same sum at keys only, merged over the nodes
        col = {}
        for img in eimg[u]:
            for g, cf in img.items():
                fg = fimg[g][j]
                if fg:
                    for k in keys:
                        if k in fg:
                            x = cf * fg[k]
                            col[k] = col[k] + x if k in col else x
        if weights[u][j] and u in keys:
            x = ctx.qint(weights[u][j], d[j])
            col[u] = col[u] + x if u in col else x
        return {k: v for k, v in col.items() if v}

    def mod_column(j, u):
        # the same sum mod p, merged over the nodes; None when an entry it
        # reads has no image
        if u not in emod:
            imgs = [mod_vector(img) for img in eimg[u]]
            emod[u] = None if None in imgs else imgs
        if emod[u] is None:
            return None
        col = {}
        for i, img in enumerate(emod[u]):
            for g, cf in img.items():
                key = (g, j)
                if key not in fmod:
                    fmod[key] = mod_vector(fimg[g][j] or {})
                fg = fmod[key]
                if fg is None:
                    return None
                for k, v in fg.items():
                    col[k] = col.get(k, 0) + cf * v
            if i == j and weights[u][i]:
                key = (weights[u][i], d[i])
                if key not in qmod:
                    qmod[key] = mod_image(ctx.qint(*key))
                if qmod[key] is None:
                    return None
                col[u] = col.get(u, 0) + qmod[key]
        return {k: r for k, y in col.items() if (r := y % MOD_PRIME)}

    # parents before children: the order of weight_multiplicities, lam first
    mults = iter(cartan.weight_multiplicities(lie, lam).items())
    next(mults)
    for nu, want in mults:
        cands = [(j, u) for j in range(n) for u in spaces.get(
            tuple(a + b for a, b in zip(nu, alpha_fw[j])), ())]
        if cands and cands[0][1] >= level_start:    # one level further down
            level_start = len(weights)
            emod.clear()
            fmod.clear()
        full = {}       # candidate read in full -> its images per node

        def column(t):
            full[t] = exact_images(*cands[t])
            return {g: v for img in full[t] for g, v in img.items()}

        profile, red = _select_candidates(
            [mod_column(j, u) for j, u in cands], want, column,
            lambda t, keys: exact_at(*cands[t], keys))
        if ctx.symbolic and len(profile) != want:
            raise ConventionError(
                f"weight {nu}: rank {len(profile)}, multiplicity {want}")
        if not profile:
            continue
        base = len(weights)
        sel = {t: base + k for k, t in enumerate(profile)}
        for t in profile:
            j, u = cands[t]
            weights.append(nu)
            parents.append((j + 1, u))
            eimg.append(full[t])
            fimg.append([None] * n)
        for t, (j, u) in enumerate(cands):
            if t in sel:
                fimg[u][j] = {sel[t]: one}
            else:
                fimg[u][j] = {base + k: row[t] for k, row in enumerate(red)
                              if t in row}
        spaces[nu] = range(base, len(weights))

    total = len(weights)
    if total != dim:
        if not ctx.symbolic:
            raise SpecializationError(
                f"degenerate specialization: built dim {total}, expected {dim}")
        raise ConventionError(
            f"construction produced dim {total}, Weyl dimension is {dim}")

    def gen_mats(imgs):    # column g of node i's matrix is imgs[g][i]
        return tuple(SparseMatrix(total, total, {
            g: img[i] or {} for g, img in enumerate(imgs)}) for i in range(n))

    k_exps = tuple(tuple(d[i] * w[i] for w in weights) for i in range(n))
    return ModuleData(
        lie=lie, ctx=ctx, highest=tuple(lam), dim=total, weights=tuple(weights),
        e_mats=gen_mats(eimg), f_mats=gen_mats(fimg),
        k_exps=k_exps, highest_index=0, parents=tuple(parents))


def trivial_module(ctx: QContext, lie: LieType) -> ModuleData:
    return build_irreducible(ctx, lie, tuple([0] * lie.rank), guard=1)


def tensor(m1: ModuleData, m2: ModuleData) -> ModuleData:
    """Tensor product module, generator action through the coproduct."""
    if m1.lie != m2.lie:
        raise DomainError("tensor factors live over different types")
    lie, ctx = m1.lie, m1.ctx
    n = lie.rank
    d2 = m2.dim
    dim = m1.dim * d2
    weights = tuple(tuple(a + b for a, b in zip(w1, w2))
                    for w1 in m1.weights for w2 in m2.weights)
    e_mats = []
    f_mats = []
    for i in range(n):
        kq = [ctx.q_power(e) for e in m2.k_exps[i]]
        e1, e2 = m1.e_mats[i].cols, m2.e_mats[i].cols
        f1, f2 = m1.f_mats[i].cols, m2.f_mats[i].cols
        ee, ff = {}, {}
        for a in range(m1.dim):
            kinv = ctx.q_power(-m1.k_exps[i][a])
            for b in range(d2):
                # Delta(E) = E (x) K + 1 (x) E, Delta(F) = F (x) 1 + K^-1 (x) F
                e_col = {a * d2 + r: v for r, v in e2.get(b, {}).items()}
                dv_add_scaled(e_col, {r * d2 + b: v for r, v in
                                      e1.get(a, {}).items()}, kq[b])
                ee[a * d2 + b] = e_col
                f_col = {r * d2 + b: v for r, v in f1.get(a, {}).items()}
                dv_add_scaled(f_col, {a * d2 + r: v for r, v in
                                      f2.get(b, {}).items()}, kinv)
                ff[a * d2 + b] = f_col
        e_mats.append(SparseMatrix(dim, dim, ee))
        f_mats.append(SparseMatrix(dim, dim, ff))
    k_exps = tuple(tuple(m1.k_exps[i][t // d2] + m2.k_exps[i][t % d2]
                         for t in range(dim)) for i in range(n))
    return ModuleData(lie=lie, ctx=ctx, highest=None, dim=dim, weights=weights,
                      e_mats=tuple(e_mats), f_mats=tuple(f_mats), k_exps=k_exps)


def dual_module(m: ModuleData) -> ModuleData:
    """Dual with action (x.f)(v) = f(S(x)v), in the dual basis."""
    lie, ctx = m.lie, m.ctx
    n = lie.rank
    e_mats = []
    f_mats = []
    for i in range(n):
        k = m.k_exps[i]
        e_mats.append(SparseMatrix(m.dim, m.dim, {
            r: {c: -(v * ctx.q_power(-k[c])) for c, v in col.items()}
            for r, col in m.e_mats[i].transpose().cols.items()}))
        f_mats.append(SparseMatrix(m.dim, m.dim, {
            r: {c: -(ctx.q_power(k[r]) * v) for c, v in col.items()}
            for r, col in m.f_mats[i].transpose().cols.items()}))
    weights = tuple(tuple(-x for x in w) for w in m.weights)
    k_exps = tuple(tuple(-e for e in m.k_exps[i]) for i in range(n))
    hw = None
    hi = None
    if m.highest is not None:
        hw = cartan.minus_w0(lie, m.highest)
        hi = lowest_index(m)
    return ModuleData(lie=lie, ctx=ctx, highest=hw, dim=m.dim,
                      weights=weights, e_mats=tuple(e_mats),
                      f_mats=tuple(f_mats), k_exps=k_exps, highest_index=hi)


def lowest_index(m: ModuleData) -> int | None:
    """The basis index of m's lowest weight w0(highest), or None when that
    weight space is not one basis vector."""
    low = cartan.w0_on_weight(m.lie, m.highest)
    idxs = [t for t, w in enumerate(m.weights) if w == low]
    return idxs[0] if len(idxs) == 1 else None


def generated_by_highest(m: ModuleData) -> bool:
    """Each basis vector is exactly F_j of its parent, rooted at e_0 = e_h.

    True for canonical builds; then basis vector t is the F-word of
    ``m.parents`` applied to the highest weight vector, with the module's
    own F-matrices.  A module with no parents, or whose F-matrices were
    changed after the build (a rescaled basis, say), fails.
    """
    if m.parents is None or m.highest_index != 0:
        return False
    one = m.ctx.one
    return all(m.f_mats[j - 1].cols.get(u) == {t: one}
               for t, (j, u) in enumerate(m.parents[1:], 1))


def transport(src: ModuleData, f_mats, seed: dict) -> SparseMatrix:
    """Carry seed along the F-words of src: column t is F_w . seed.

    src must be a canonical build (:func:`generated_by_highest`, else
    ReducibleModuleError); basis vector t of src is F_w applied to its
    highest weight vector, and column t of the result is the same word of
    ``f_mats`` applied to seed.  With the F-matrices of a module dst and a
    highest weight vector seed of dst of src's highest weight, this is the
    module map src -> dst sending the highest weight vector to seed, exact
    by irreducibility of src.
    """
    if not generated_by_highest(src):
        raise ReducibleModuleError(
            "source module is not generated by F-words of e_0")
    cols = [seed]
    for j, p in src.parents[1:]:
        cols.append(f_mats[j - 1].matvec(cols[p]))
    return SparseMatrix(f_mats[0].nrows, src.dim, dict(enumerate(cols)))


def k_scan(phi: SparseMatrix, row_exps, col_exps) -> bool:
    """Every entry (r, c) of phi joins row_exps[r] == col_exps[c].

    row_exps and col_exps hold a tuple of K-exponents per basis index.  For
    the diagonal K-actions with those exponents this is exactly
    phi K_col = K_row phi, a scan, not a product, because q is not a root
    of unity (QContext refuses q0 in {-1, 0, 1}).
    """
    return all(row_exps[r] == col_exps[c]
               for c, col in phi.cols.items() for r in col)


def check_intertwines(phi: SparseMatrix, src: ModuleData, dst: ModuleData) -> bool:
    """phi rho_src(x) = rho_dst(x) phi for every generator x, exactly.

    The K_i are checked by :func:`k_scan` (every entry joins basis vectors
    of equal K-exponents), E and F by products.
    """
    if not k_scan(phi, list(zip(*dst.k_exps)), list(zip(*src.k_exps))):
        return False
    for i in range(1, src.lie.rank + 1):
        for kind in ("E", "F"):
            a = phi.mul(src.gen_matrix(kind, i))
            b = dst.gen_matrix(kind, i).mul(phi)
            if a != b:
                return False
    return True


def dual_pairing(vminus: ModuleData, v: ModuleData) -> SparseMatrix:
    """Matrix P of the canonical map V_{-w0 lam} -> (V_lam)^* .

    Column t of P is the functional phi(b_t) in the dual basis of v, i.e.
    [phi(b_t)](v_s) = P[s, t].  Normalized so the highest weight vector of
    vminus maps to the functional dual to the lowest basis vector of v.
    """
    dual = dual_module(v)
    if dual.highest_index is None:
        raise ConventionError("lowest weight space of the source is not simple")
    seed = {dual.highest_index: v.ctx.one}
    phi = transport(vminus, dual.f_mats, seed)
    if not check_intertwines(phi, vminus, dual):
        raise ConventionError("dual pairing failed to intertwine")
    return phi


# -- Clebsch-Gordan decomposition --------------------------------------------


@dataclass(frozen=True)
class CGSummand:
    nu: Weight
    emb: SparseMatrix    # V_nu -> T


class CGDecomposition:
    """A tensor module T split into summands V_nu, from their seeds.

    ``seeds`` is the ordered list of (V_nu, u), V_nu the canonical
    irreducible and u a highest weight vector of T of weight nu (a
    dict-vector); summand k embeds V_nu by carrying its u along V_nu's
    F-words (:func:`transport`).  :meth:`emb_row` reads one row of summand
    k's embedding on demand.  U, the change of
    basis, is the embeddings side by side in summand order; it is block
    diagonal by weight, and the projections T -> V_nu are the rows of U^-1,
    a :class:`qflag.linalg.BlockInverse`.  Each weight block is handed to it
    summand by summand, the summands with the fewest nonzeros per column
    first (ties by summand index), each summand's columns in their order, so
    the sparse columns are eliminated first; the inverse does not depend on
    that order.  Construction checks every block mod a prime (raising
    ConventionError for a block that is not square or is singular), a block
    is factored when a projection column of its weight is first read, and
    only the columns read are solved (:meth:`proj_columns`).  Construction
    also checks that the summand dims add up to dim T.
    """

    def __init__(self, t_mod: ModuleData, seeds):
        summands = []
        owner = []              # column of U -> (summand, its column)
        cols_by_weight = {}     # weight -> columns of U
        for v_nu, u in seeds:
            for c, w in enumerate(v_nu.weights):
                cols_by_weight.setdefault(w, []).append(len(owner))
                owner.append((len(summands), c))
            summands.append(CGSummand(v_nu.highest,
                                      transport(v_nu, t_mod.f_mats, u)))
        if len(owner) != t_mod.dim:
            raise ConventionError(
                f"summand dimensions {len(owner)} do not add up to {t_mod.dim}")
        self.summands = tuple(summands)
        self._t_weights = t_mod.weights
        self._nu_weights = tuple(v_nu.weight_indices() for v_nu, _ in seeds)
        self._emb_rows = {}     # (summand, row of T) -> row of its embedding
        self._owner = owner
        u = SparseMatrix(t_mod.dim, len(owner), {
            g: summands[k].emb.cols.get(c, {}) for g, (k, c) in enumerate(owner)})
        by_weight = t_mod.weight_indices()
        self.u_inv = BlockInverse(
            u, [(by_weight.get(w, ()), _sparse_summands_first(g, owner, u))
                for w, g in cols_by_weight.items()], t_mod.ctx.one)

    def emb_row(self, k, tr) -> dict:
        """Row tr of summand k's embedding, {column of V_nu: value}.

        The embedding preserves weight, so the row is read from the columns
        of V_nu of row tr's weight, in increasing order; it is kept.  The
        returned dict is shared: callers must not change it.
        """
        got = self._emb_rows.get((k, tr))
        if got is None:
            cols = self.summands[k].emb.cols
            got = self._emb_rows[(k, tr)] = {
                c: x for c in self._nu_weights[k].get(self._t_weights[tr], ())
                if (x := cols.get(c, {}).get(tr)) is not None}
        return got

    def proj_columns(self, tc) -> dict:
        """Column tc of the projections, {summand index: dict-vector}.

        Summands whose projection column tc is zero are left out; the others
        come in summand order, each with its columns in increasing order.
        """
        out = {}
        for g, v in sorted(self.u_inv.column(tc).items()):
            k, c = self._owner[g]
            out.setdefault(k, {})[c] = v
        return out

    def proj(self, k) -> SparseMatrix:
        """The whole projection T -> V_nu of summand k (every column solved)."""
        t_dim = self.u_inv.ncols
        return SparseMatrix(self.summands[k].emb.ncols, t_dim, {
            tc: self.proj_columns(tc).get(k, {}) for tc in range(t_dim)})

    def __eq__(self, other):
        # the embeddings determine the projections
        return (isinstance(other, CGDecomposition)
                and self.summands == other.summands)


def _sparse_summands_first(cols, owner, u):
    """The columns ``cols`` of U in one weight block, summand by summand.

    The summands with the fewest nonzeros per column come first, ties by
    summand index, and each summand's columns keep their order.  An
    embedding preserves weight, so a column's nonzeros all lie in the block.
    """
    runs = {}
    for g in cols:
        runs.setdefault(owner[g][0], []).append(g)
    order = sorted(runs, key=lambda k: (
        Fraction(sum(len(u.cols.get(g, ())) for g in runs[k]), len(runs[k])),
        k))
    return [g for k in order for g in runs[k]]


def decompose(v: ModuleData, w: ModuleData, module_store) -> CGDecomposition:
    """Split V_lam (x) V_mu into irreducibles via highest weight vectors.

    v and w are the canonical irreducibles V_lam and V_mu, and
    ``module_store(nu)`` must return the canonical V_nu.  The summands and
    their multiplicities are predicted from the characters
    (:func:`qflag.cartan.tensor_multiplicities`), and every predicted V_nu
    is asked of ``module_store`` by (|nu|, nu) before the tensor module T
    is built, so a summand the store refuses (the dimension guard) is
    refused before any exact work.  The seeds are the joint kernels of T's
    raising operators on the predicted weight spaces only, by (|nu|, nu) and
    then in :func:`qflag.linalg.staged_kernel` order (the reduced echelon
    basis: each seed's largest key carries 1, which is 0 in the other seeds
    of its weight, and those keys increase).  A kernel whose dimension is
    not the predicted multiplicity raises ConventionError.  No other weight
    space can hold a highest weight vector: the summands fill dim T, and
    :class:`CGDecomposition` certifies the change of basis invertible.
    """
    mults = cartan.tensor_multiplicities(v.lie, v.highest, w.highest)
    modules = {nu: module_store(nu) for nu in mults}
    t_mod = tensor(v, w)
    by_weight = t_mod.weight_indices()
    raising = [mat.matvec for mat in t_mod.e_mats]
    one = t_mod.ctx.one
    seeds = []
    for nu, m in mults.items():
        found = staged_kernel(raising,
                              [{c: one} for c in by_weight.get(nu, [])], one)
        if len(found) != m:
            raise ConventionError(
                f"highest weight space of weight {nu} has dimension "
                f"{len(found)}, the characters predict {m}")
        seeds.extend((modules[nu], u) for u in found)
    return CGDecomposition(t_mod, seeds)


# -- Lusztig braid operators and quantum root vectors -------------------------


class WordSum:
    """A linear operator sum_k c_k M_k1 ... M_kl, applied by matrix-vector
    products (the rightmost matrix first), never multiplied out.

    ``terms`` is a tuple of (coefficient, tuple of SparseMatrix).
    """

    __slots__ = ("nrows", "ncols", "terms")

    def __init__(self, dim: int, terms):
        self.nrows = self.ncols = dim
        self.terms = tuple(terms)

    def matvec(self, vec: dict) -> dict:
        acc = {}
        for coeff, word in self.terms:
            v = vec
            for mat in reversed(word):
                v = mat.matvec(v)
            dv_add_scaled(acc, v, coeff)
        return acc

    def mul(self, other: SparseMatrix) -> SparseMatrix:
        """The product with a matrix, one matvec per column of ``other``."""
        return SparseMatrix(self.nrows, other.ncols, {
            j: self.matvec(col) for j, col in other.cols.items()})


def braid_k_exps(m: ModuleData, i: int) -> tuple:
    """K-exponents of T_i(K_j) = K_j K_i^(-a_ij): entry [j-1][t] on basis t."""
    a = cartan.cartan_matrix(m.lie)[i - 1]
    ki = m.k_exps[i - 1]
    return tuple(tuple(e - a[j] * k for e, k in zip(m.k_exps[j], ki))
                 for j in range(m.lie.rank))


def braid_image(m: ModuleData, i: int, kind: str, j: int) -> WordSum:
    """T_i(x) on m, for x = E_j, F_j, K_j, as scaled words in the generators.

    T_i(E_i) = -F_i K_i, T_i(F_i) = -K_i^-1 E_i, T_i(K_j) = K_j K_i^(-a_ij)
    (:func:`braid_k_exps`), and for j != i, with a = a_ij and t = 0..-a,
    T_i(E_j) = sum_t (-1)^(t-a) q_i^-t E_i^(-a-t) E_j E_i^(t),
    T_i(F_j) = sum_t (-1)^(t-a) q_i^t F_i^(t) F_j F_i^(-a-t),
    where X^(n) = X^n / [n]_{q_i}! is the divided power (Lusztig,
    Introduction to Quantum Groups, ch. 37).
    """
    ctx = m.ctx
    one = ctx.one
    if kind == "K":
        exps = braid_k_exps(m, i)[j - 1]
        return WordSum(m.dim, [(one, (SparseMatrix.diagonal(
            [ctx.q_power(e) for e in exps]),))])
    if kind not in ("E", "F"):
        raise DomainError(f"unknown generator kind {kind!r}")
    if i == j:
        word = ((m.f_mats[i - 1], m.k_matrix(i)) if kind == "E"
                else (m.k_matrix(i, -1), m.e_mats[i - 1]))
        return WordSum(m.dim, [(-one, word)])
    x_i, x_j = m.gen_matrix(kind, i), m.gen_matrix(kind, j)
    a = cartan.cartan_matrix(m.lie)[i - 1][j - 1]
    d = cartan.symmetrizers(m.lie)[i - 1]
    terms = []
    for t in range(0, -a + 1):
        left, right = (-a - t, t) if kind == "E" else (t, -a - t)
        coeff = ctx.q_power(-t * d if kind == "E" else t * d)
        if (t - a) % 2:
            coeff = -coeff
        for n in (left, right):
            if n >= 2:
                coeff = coeff * (one / ctx.qfact(n, d))
        terms.append((coeff, (x_i,) * left + (x_j,) + (x_i,) * right))
    return WordSum(m.dim, terms)


class RootVector:
    """E_beta_r (or F_beta_r) on a module, built column by column.

    With p = Theta_{i1} ... Theta_{i(r-1)} along the word and X the simple
    generator of node i_r, column c is p X p^-1 e_c: p^-1 e_c is read from
    ``chains[c]``, the vectors Theta_{ik}^-1 ... Theta_{i1}^-1 e_c, k = 1,
    2, ..., which the root vectors of one word share and extend as they
    need, and X and p are applied by matrix-vector products.  The Theta_i
    of the prefix and their inverses are taken from ``braids`` (a
    :class:`BraidOperators`) when the first column is read, so a root
    vector whose columns are never read builds none.  A column is computed
    on its first read and kept; the returned dict-vectors are shared, so
    callers must not change them.
    """

    def __init__(self, gen: SparseMatrix, braids, prefix, chains: dict):
        self.dim = gen.nrows
        self._gen = gen
        self._braids = braids
        self._prefix = prefix           # i1, ..., i(r-1)
        self._thetas = self._invs = None
        self._chains = chains
        self._cols = {}

    def column(self, c: int) -> dict:
        got = self._cols.get(c)
        if got is None:
            got = self._cols[c] = self._column(c)
        return got

    def _column(self, c: int) -> dict:
        if not self._prefix:
            return self._gen.cols.get(c, {})
        if self._thetas is None:
            braids = self._braids
            self._thetas = [braids.theta(i) for i in self._prefix]
            self._invs = [braids.theta_inv(i) for i in self._prefix]
        invs = self._invs
        chain = self._chains.setdefault(c, [])
        while len(chain) < len(invs):
            k = len(chain)
            chain.append(invs[k].matvec(chain[-1]) if k
                         else invs[0].column(c))
        v = self._gen.matvec(chain[len(invs) - 1])
        for th in reversed(self._thetas):
            v = th.matvec(v)
        return v

    def matvec(self, vec: dict) -> dict:
        """Apply to a column dict-vector {col index: value}."""
        acc = {}
        for c, x in vec.items():
            dv_add_scaled(acc, self.column(c), x)
        return acc


class BraidOperators:
    """Braid operators Theta_i on one irreducible module, and their inverses.

    Theta_i is the nonzero solution of Theta rho(x) = rho(T_i(x)) Theta over
    all generators x, unique up to a scalar by irreducibility.  It is found
    constructively: the extreme weight space of weight s_i(lam) seeds the
    image of the highest weight vector, and columns follow the stored
    F-words through the twisted F-action T_i(F_j), applied as the words of
    :func:`braid_image`.  The K-family of identities is checked as a scan
    that every entry joins K-exponents matching under T_i (:func:`k_scan`);
    on modules of dim <= FULL_VERIFY_LIMIT the E- and F-identities are also
    checked as exact matrix identities, and above it the kernel
    certificates downstream re-check every consequence.  Each Theta_i is
    built, and checked, on its first request.

    Theta_i^-1 is a :class:`qflag.linalg.BlockInverse` of Theta_i, whose
    weight blocks are checked mod a prime when it is built and factored when
    a root-vector column first reads them; only the columns read are
    solved.  This object holds no root vectors, so the root vectors that
    read it hold no reference cycle.
    """

    FULL_VERIFY_LIMIT = 24

    def __init__(self, m: ModuleData):
        self.m = m
        self._theta = {}
        self._theta_inv = {}

    def theta(self, i: int) -> SparseMatrix:
        th = self._theta.get(i)
        if th is not None:
            return th
        m = self.m
        lie, ctx = m.lie, m.ctx
        target = cartan.reflect_weight(lie, i, m.highest)
        seeds = [t for t, w in enumerate(m.weights) if w == target]
        if len(seeds) != 1:
            raise ConventionError("extreme weight space is not 1-dimensional")
        twisted = [braid_image(m, i, "F", j) for j in range(1, lie.rank + 1)]
        th = transport(m, twisted, {seeds[0]: ctx.one})
        # normalize: first nonzero entry in column order becomes 1
        if th.is_zero():
            raise ConventionError("braid operator came out zero")
        first = th.cols[min(th.cols)]
        norm = first[min(first)]
        if not (norm == 1):
            th = th.scale(ctx.one / norm)
        self._check(i, th, twisted)
        self._theta[i] = th
        return th

    def _check(self, i, th, twisted):
        """Check the conjugation identities; twisted[j-1] is T_i(F_j)."""
        m = self.m
        if not k_scan(th, list(zip(*braid_k_exps(m, i))), list(zip(*m.k_exps))):
            raise ConventionError(
                f"braid conjugation identity failed for T_{i}(K_j)")
        if m.dim > self.FULL_VERIFY_LIMIT:
            return
        for kind in ("E", "F"):
            for j in range(1, m.lie.rank + 1):
                image = (twisted[j - 1] if kind == "F"
                         else braid_image(m, i, kind, j))
                if th.mul(m.gen_matrix(kind, j)) != image.mul(th):
                    raise ConventionError(
                        f"braid conjugation identity failed for T_{i}({kind}_{j})")

    def theta_inv(self, i: int) -> BlockInverse:
        inv = self._theta_inv.get(i)
        if inv is not None:
            return inv
        m = self.m
        by_weight = m.weight_indices()
        inv = BlockInverse(
            self.theta(i),
            [(by_weight.get(cartan.reflect_weight(m.lie, i, mu), ()), cols)
             for mu, cols in by_weight.items()], m.ctx.one)
        self._theta_inv[i] = inv
        return inv


class LusztigOperators:
    """The root vectors of one irreducible module, with its braid operators.

    ``braids`` is the module's :class:`BraidOperators` (Theta_i and
    Theta_i^-1, each built and checked on its first request); ``theta``
    reads it.  This object is the one cache of the module's root vectors
    (:class:`RootVector`, one per (word, r, kind)), and of the chains
    Theta_{ik}^-1 ... Theta_{i1}^-1 e_c that their columns start from.
    :meth:`root_operator` records the word's prefix only: a root vector
    takes its Theta_i from ``braids`` when its first column is read, and
    holds no reference to this object.
    """

    def __init__(self, m: ModuleData):
        if not generated_by_highest(m):
            raise ReducibleModuleError("braid operators need a canonical "
                                       "irreducible module")
        self.m = m
        self.braids = BraidOperators(m)
        self._chains = {}       # word -> {c: [Theta_{i1}^-1 e_c, ...]}
        self._roots = {}        # (word, r, kind) -> RootVector

    def theta(self, i: int) -> SparseMatrix:
        return self.braids.theta(i)

    def root_operator(self, word, r: int, kind: str = "E") -> RootVector:
        """E_{beta_r} (or F_{beta_r}) along word, read column by column."""
        key = (tuple(word), r, kind)
        got = self._roots.get(key)
        if got is None:
            if not 1 <= r <= len(word):
                raise DomainError("root index out of range")
            got = self._roots[key] = RootVector(
                self.m.gen_matrix(kind, key[0][r - 1]), self.braids,
                key[0][:r - 1], self._chains.setdefault(key[0], {}))
        return got


def check_defining_relations(m: ModuleData) -> None:
    """Assert every defining relation as an exact matrix identity."""
    lie, ctx = m.lie, m.ctx
    n = lie.rank
    a = cartan.cartan_matrix(lie)
    d = cartan.symmetrizers(lie)
    for i in range(1, n + 1):
        ki = m.k_matrix(i)
        kinv = m.k_matrix(i, -1)
        if ki.mul(kinv) != SparseMatrix.identity(m.dim, ctx.one):
            raise ConventionError("K K^{-1} != 1")
        for j in range(1, n + 1):
            qiaij = ctx.q_power(d[i - 1] * a[i - 1][j - 1])
            lhs = ki.mul(m.e_mats[j - 1])
            rhs = m.e_mats[j - 1].mul(ki).scale(qiaij)
            if lhs != rhs:
                raise ConventionError(f"K_{i} E_{j} relation failed")
            lhs = ki.mul(m.f_mats[j - 1])
            rhs = m.f_mats[j - 1].mul(ki).scale(ctx.one / qiaij)
            if lhs != rhs:
                raise ConventionError(f"K_{i} F_{j} relation failed")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            comm = m.e_mats[i - 1].mul(m.f_mats[j - 1]).sub(
                m.f_mats[j - 1].mul(m.e_mats[i - 1]))
            if i == j:
                vals = [ctx.qint(m.weights[t][i - 1], d[i - 1])
                        for t in range(m.dim)]
                if comm != SparseMatrix.diagonal(vals):
                    raise ConventionError(f"[E_{i}, F_{i}] relation failed")
            elif not comm.is_zero():
                raise ConventionError(f"[E_{i}, F_{j}] should vanish")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or a[i - 1][j - 1] == 0:
                continue
            nrel = 1 - a[i - 1][j - 1]
            for mats in (m.e_mats, m.f_mats):
                acc = None
                for t in range(nrel + 1):
                    sign = -1 if t % 2 else 1
                    coeff = ctx.qbinom(nrel, t, d[i - 1]) * sign
                    term = mats[i - 1].power(nrel - t, ctx.one).mul(
                        mats[j - 1]).mul(mats[i - 1].power(t, ctx.one))
                    term = term.scale(coeff)
                    acc = term if acc is None else acc.add(term)
                if not acc.is_zero():
                    raise ConventionError(f"Serre relation ({i},{j}) failed")
