"""The quantum coordinate algebra in its Peter-Weyl basis.

An algebra element is a dict-vector {(lam, row, col): scalar} with no zero
entry (see :mod:`qflag.linalg`), where lam runs over dominant weights, col
indexes the canonical basis of V_lam (the vector slot) and row indexes the
dual basis (the functional slot).  Every PWAlgebra method that returns an
element returns a fresh dict and drops its zero entries; callers add
elements in place with :func:`qflag.linalg.dv_add_scaled`.  The product of
two basis elements is a matrix coefficient of the tensor module, re-expanded
through the Clebsch-Gordan embeddings on the functional slot and projections
on the vector slot.  A product reads the projections one tensor column at a
time, so only the columns it reads are ever solved, each from one
factorization of its weight block (see :class:`qflag.reps.CGDecomposition`).
Each pair's decomposition is computed by :func:`qflag.reps.decompose` on
first use and kept in memory for the life of the algebra; its summands are
predicted from the characters, so a summand over the dimension guard is
refused before the tensor module is built.  Nothing is read from or written
to disk.

Action conventions: act_v lets a generator act on the vector slot
through the module matrices (the natural left action); act_f is the right
action on the functional slot, i.e. row vectors transform by the transposed
matrices.  No report calls either; the tests check both against the
product (act_v is a derivation of it) and against each other.  act_v and
the calculus's dbar_at share one loop, :meth:`PWAlgebra.act_vector_slot`.

:class:`GradedSlice` is the one type for vector-slot columns per block
V_lam: the Levi invariants of one degree (one staged joint kernel per
block; at degree 0 the spherical invariants), or the holomorphic sections
inside them.
Each V_lam is kept with its LusztigOperators, the one root-vector cache,
which computes a column of a root vector when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan
from .cartan import FlagSpec, LieType
from .errors import ConventionError, DomainError
from .linalg import SparseMatrix, dv_add_scaled, staged_kernel
from .reps import (DEFAULT_GUARD, CGDecomposition, LusztigOperators,
                   ModuleData, build_irreducible, context_for, decompose,
                   dual_pairing)


@dataclass(frozen=True)
class Generators:
    flag: FlagSpec
    lam: tuple            # the crossed fundamental weight
    lam_bar: tuple        # its dual -w0(lam)
    # z and zbar are cached per flag: read them, never add into them
    z: tuple              # z_1..z_N, each a dict-vector {(lam, row, col): scalar}
    zbar: tuple           # dict-vectors normalized so sum(zbar_i z_i) = 1
    normalization: object  # the pre-normalization value of sum(zbar_i z_i)


@dataclass(frozen=True)
class GradedSlice:
    """Truncated basis of a line-module graded component, or of a subspace.

    blocks maps a dominant weight lam to the tuple of vector-slot columns
    (dict-vectors over the basis of V_lam) spanning the slice there; every
    functional-slot index pairs with each column, so the slice dimension is
    sum(dim V_lam * len(columns)).  A block without columns is left out.
    """
    flag: FlagSpec
    k: int
    depth: int
    blocks: tuple         # ((lam, (col dict-vec, ...)), ...)
    dims: tuple           # dim V_lam per block

    @property
    def dim(self) -> int:
        return sum(d * len(cols) for (_, cols), d in zip(self.blocks, self.dims))

    def block_weights(self):
        return tuple(lam for lam, _ in self.blocks)


class PWAlgebra:
    """Workspace for one quantized coordinate algebra O_q(G).

    ``cache_dir`` is accepted and ignored: decompositions are always
    computed, and the keyword stays only so that callers written for the
    former on-disk cache keep working.
    """

    def __init__(self, lie: LieType, ctx=None, cache_dir=None,
                 guard=DEFAULT_GUARD):
        self.lie = lie
        self.ctx = ctx if ctx is not None else context_for(lie)
        if self.ctx.L != cartan.lattice_denominator(lie):
            raise DomainError("context does not match the type's exponent lattice")
        self.guard = guard
        self._modules = {}
        self._ops = {}
        self._cg = {}
        self._pairings = {}
        self._gens = {}
        self._zero_weight = tuple([0] * lie.rank)

    # -- module bookkeeping --------------------------------------------------

    def module(self, lam) -> ModuleData:
        lam = tuple(lam)
        m = self._modules.get(lam)
        if m is None:
            m = build_irreducible(self.ctx, self.lie, lam, guard=self.guard)
            self._modules[lam] = m
        return m

    def ops(self, lam) -> LusztigOperators:
        lam = tuple(lam)
        o = self._ops.get(lam)
        if o is None:
            o = LusztigOperators(self.module(lam))
            self._ops[lam] = o
        return o

    def pairing(self, lam) -> SparseMatrix:
        """Pairing matrix between V_{-w0 lam} and the dual of V_lam."""
        lam = tuple(lam)
        p = self._pairings.get(lam)
        if p is None:
            lam_bar = cartan.minus_w0(self.lie, lam)
            p = dual_pairing(self.module(lam_bar), self.module(lam))
            self._pairings[lam] = p
        return p

    # -- structure constants ---------------------------------------------------

    def cg(self, lam, mu) -> CGDecomposition:
        key = (tuple(lam), tuple(mu))
        cg = self._cg.get(key)
        if cg is None:
            cg = decompose(self.module(lam), self.module(mu), self.module)
            self._cg[key] = cg
        return cg

    # -- Hopf-algebra operations ----------------------------------------------

    def one(self) -> dict:
        self.module(self._zero_weight)
        return {(self._zero_weight, 0, 0): self.ctx.one}

    def basis_element(self, lam, row, col) -> dict:
        lam = tuple(lam)
        m = self.module(lam)
        if not (0 <= row < m.dim and 0 <= col < m.dim):
            raise DomainError("basis index out of range")
        return {(lam, row, col): self.ctx.one}

    def multiply(self, a: dict, b: dict) -> dict:
        out = {}
        zero_w = self._zero_weight
        for (l1, r1, c1), v1 in a.items():
            for (l2, r2, c2), v2 in b.items():
                v12 = v1 * v2
                if l1 == zero_w:
                    key = (l2, r2, c2)
                    out[key] = out.get(key, self.ctx.zero) + v12
                    continue
                if l2 == zero_w:
                    key = (l1, r1, c1)
                    out[key] = out.get(key, self.ctx.zero) + v12
                    continue
                d2 = self.module(l2).dim
                tr = r1 * d2 + r2
                tc = c1 * d2 + c2
                cg = self.cg(l1, l2)
                for k, cls in cg.proj_columns(tc).items():
                    rws = cg.emb_row(k, tr)
                    if not rws:
                        continue
                    nu = cg.summands[k].nu
                    for rr, ev in rws.items():
                        vv = v12 * ev
                        for ss, pv in cls.items():
                            key = (nu, rr, ss)
                            out[key] = out.get(key, self.ctx.zero) + vv * pv
        return {k: v for k, v in out.items() if v}

    def multiply_all(self, elems) -> dict:
        acc = self.one()
        for e in elems:
            acc = self.multiply(acc, e)
        return acc

    def counit(self, a: dict):
        acc = self.ctx.zero
        for (_, r, c), v in a.items():
            if r == c:
                acc = acc + v
        return acc

    def act_v(self, gen, a: dict) -> dict:
        """Left action on the vector slot.

        gen is a generator tag (kind, i), kind "E", "F", "K" or "Kinv".
        """
        return self.act_vector_slot(
            lambda lam: self.module(lam).gen_matrix(*gen), a)

    def act_vector_slot(self, operator, a: dict) -> dict:
        """``operator(lam)``, asked once per block V_lam, acting on the
        vector slot of a; it reads ``column(c)`` (SparseMatrix, RootVector,
        BlockInverse)."""
        zero = self.ctx.zero
        ops = {}
        out = {}
        for (lam, row, c), v in a.items():
            op = ops.get(lam)
            if op is None:
                op = ops[lam] = operator(lam)
            for r2, mv in op.column(c).items():
                key = (lam, row, r2)
                out[key] = out.get(key, zero) + v * mv
        return {k: v for k, v in out.items() if v}

    def act_f(self, gen, a: dict) -> dict:
        """Right action on the functional slot (transposed matrices).

        gen is a generator tag, as for act_v.
        """
        kind, i = gen
        out = {}
        rows_cache = {}
        for (lam, r, c), v in a.items():
            rows = rows_cache.get(lam)
            if rows is None:
                rows = self.module(lam).gen_matrix(kind, i).transpose().cols
                rows_cache[lam] = rows
            for s, mv in rows.get(r, {}).items():
                key = (lam, s, c)
                out[key] = out.get(key, self.ctx.zero) + v * mv
        return {k: v for k, v in out.items() if v}

    # -- generators, grading ---------------------------------------------------

    def generators(self, flag: FlagSpec) -> Generators:
        got = self._gens.get(flag)
        if got is not None:
            return got
        if flag.lie != self.lie:
            raise DomainError("flag is over a different type")
        lam = flag.crossed_weight
        lam_bar = cartan.minus_w0(self.lie, lam)
        v = self.module(lam)
        pair = self.pairing(lam)
        hw = v.highest_index
        z = tuple(self.basis_element(lam, i, hw) for i in range(v.dim))
        # zbar_j is row j of the pairing applied to the vector that the
        # pairing carries to the functional dual to e_hw.  The pairing
        # preserves weight and is invertible (it intertwines two
        # irreducibles), so that vector is e_low / x, where column low is the
        # one column meeting row hw; it must be exactly {hw: x}.
        at_hw = [c for c, col in pair.cols.items() if hw in col]
        if len(at_hw) != 1 or len(pair.cols[at_hw[0]]) != 1:
            raise ConventionError(
                "the pairing does not carry one basis vector to the "
                "functional dual to the highest weight vector")
        low = at_hw[0]
        inv_x = self.ctx.one / pair.cols[low][hw]
        zbar = [{(lam_bar, t, low): pj * inv_x for t, pj in sorted(row.items())}
                for row in pair.row_dicts()]
        s = {}
        for zb, zz in zip(zbar, z):
            dv_add_scaled(s, self.multiply(zb, zz), 1)
        bad = [k for k in s if k != (self._zero_weight, 0, 0)]
        if bad:
            raise ConventionError(
                f"sum(zbar_i z_i) is not scalar; stray coefficients at {bad[:3]}")
        norm = s.get((self._zero_weight, 0, 0))
        if not norm:
            raise ConventionError("sum(zbar_i z_i) vanished; cannot normalize")
        inv = self.ctx.one / norm
        zbar = tuple({k: inv * v for k, v in zb.items()} for zb in zbar)
        gens = Generators(flag=flag, lam=lam, lam_bar=lam_bar, z=z, zbar=zbar,
                          normalization=norm)
        self._gens[flag] = gens
        return gens

    def graded_component(self, flag: FlagSpec, k: int, depth: int) -> GradedSlice:
        """Truncated basis of the degree-k line module component.

        Within the truncation sum(lam) <= depth: the vector-slot subspace of
        V_lam killed by E_j and F_j for every uncrossed node j, of weight 0
        at those nodes and k at the crossed one.  At k = 0 these are the
        invariants of the whole Levi factor, its torus included.
        """
        snodes = flag.uncrossed
        x = flag.crossed
        one = self.ctx.one
        blocks = []
        dims = []
        for lam in cartan.dominant_weights_up_to(self.lie, depth):
            m = self.module(lam)
            idxs = [t for t, w in enumerate(m.weights)
                    if w[x - 1] == k and all(w[j - 1] == 0 for j in snodes)]
            levi = [mat.matvec for j in snodes
                    for mat in (m.e_mats[j - 1], m.f_mats[j - 1])]
            cols = staged_kernel(levi, [{c: one} for c in idxs], one)
            if cols:
                blocks.append((tuple(lam), tuple(cols)))
                dims.append(m.dim)
        return GradedSlice(flag=flag, k=k, depth=depth, blocks=tuple(blocks),
                           dims=tuple(dims))

    def slice_elements(self, sl: GradedSlice):
        """PW basis elements spanning a graded slice (deterministic order)."""
        return [{(lam, r, c): v for c, v in col.items()}
                for (lam, cols), d in zip(sl.blocks, sl.dims)
                for r in range(d) for col in cols]


def element_doc(elem: dict):
    """An element as a JSON list of [lam, row, col, value], sorted by key."""
    return [[list(lam), r, c, str(v)] for (lam, r, c), v in sorted(elem.items())]

