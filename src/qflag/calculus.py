"""First-order calculi on the quantum flag manifolds: tangent operators,
the exterior derivative, truncated holomorphic sections, and the quotient
(generators-and-relations) route used to cross-validate the tangent route.

The (0,1) side uses quantum root vectors E_beta for the positive roots with
nonzero crossed-node coefficient; the (1,0) side uses the F_beta for their
negatives; each is read from the algebra's LusztigOperators of V_lam, which
keeps it with the module and computes a column, and the braid operators of
its prefix, only when a column is first read
(:class:`qflag.reps.RootVector`).  A truncated line-module element is
holomorphic when every tangent operator kills its vector slot; since the
operators act on the vector slot only and blocks are independent, kernels
are computed per weight block, and ``h0`` returns them as a
:class:`qflag.peterweyl.GradedSlice`.  Every tangent kernel, in ``h0`` and
in the tangent route of :func:`gamma_crosscheck`, is taken in stages, like
every joint kernel (:func:`qflag.linalg.staged_kernel`): the root vectors in
word order, each applied only to what the earlier ones left, so a root
vector that comes after the kernel is empty reads no column.  ``dbar_at``
is the image of one root position (``PWAlgebra.act_vector_slot``, the loop
of ``act_v``); ``dbar`` is their union.

The quotient route realizes forms as spans of formal symbols u . d(zbar_l) . v
with word coefficients, modulo the Leibniz images of every relation that the
realized algebra satisfies at the truncation (this includes the quadratic,
mixed, and c = 1 relations automatically, since they span the realization
kernel).  Formal d kills the z generators.  The bracket operator from the
R-matrix presentation of the relation module is assembled verbatim and
reported with its blockwise eigenvalues; kernel agreement between the two
routes is the acceptance arbiter.
"""

from __future__ import annotations

from functools import partial

from . import cartan
from .cartan import FlagSpec
from .errors import DomainError, TruncationError
from .linalg import (SpanBasis, SparseMatrix, dv_add_scaled,
                     kernel_combinations, rank, rows_from_columns,
                     staged_kernel)
from .peterweyl import GradedSlice, PWAlgebra
from .rmatrix import Braiding, braiding


class Calculus:
    """Tangent-space data of the two Heckenberger-Kolb chiralities."""

    def __init__(self, algebra: PWAlgebra, flag: FlagSpec, word=None):
        if flag.lie != algebra.lie:
            raise DomainError("flag is over a different type")
        self.algebra = algebra
        self.flag = flag
        self.word = tuple(word) if word is not None else \
            cartan.longest_word(algebra.lie)
        if not cartan.is_reduced_for_w0(algebra.lie, self.word):
            raise DomainError("word is not reduced for the longest element")
        seq = cartan.root_sequence(algebra.lie, self.word)
        x = flag.crossed
        self.positions = tuple((r + 1, beta) for r, beta in enumerate(seq)
                               if beta[x - 1] != 0)

    def tangent_operator(self, lam, pos: int, chirality: str = "01"):
        """The root vector (:class:`qflag.reps.RootVector`) of root position
        pos on V_lam for one chirality."""
        kind = "E" if chirality == "01" else "F"
        return self.algebra.ops(lam).root_operator(
            self.word, self.positions[pos][0], kind)

    def tangent_operators(self, lam, chirality: str = "01"):
        """The root vectors on V_lam for one chirality, in word order."""
        return tuple(self.tangent_operator(lam, pos, chirality)
                     for pos in range(len(self.positions)))

    # -- exterior derivatives -------------------------------------------------

    def dbar_at(self, a: dict, pos: int, chirality: str = "01") -> dict:
        """E_beta of root position pos acting on the vector slot, as an
        element {(lam, row, col): scalar}."""
        return self.algebra.act_vector_slot(
            lambda lam: self.tangent_operator(lam, pos, chirality), a)

    def dbar(self, a: dict, chirality: str = "01") -> dict:
        """Sum of (E_beta acting on the vector slot) (x) e_beta, as a map
        {((lam, row, col), root position): scalar}."""
        return {(key, pos): v for pos in range(len(self.positions))
                for key, v in self.dbar_at(a, pos, chirality).items()}

    def del_(self, a: dict) -> dict:
        return self.dbar(a, chirality="10")

    # -- holomorphic sections ---------------------------------------------------

    def h0(self, k: int, depth: int, chirality: str = "01") -> GradedSlice:
        """Exact kernel of the tangent operators on the truncated slice.

        The kernel is a sub-slice of ``graded_component(flag, k, depth)``:
        its blocks hold the kernel columns, and blocks with none are left out.
        Per block, :func:`qflag.linalg.staged_kernel` applies the root
        vectors in word order (shortest Theta prefix first), each to the
        Levi-invariant columns that the earlier ones left, and stops when
        none is left; the columns are those of one nullspace of all the
        root vectors stacked.
        """
        alg = self.algebra
        sl = alg.graded_component(self.flag, k, depth)
        blocks = []
        dims = []
        for (lam, cols), d in zip(sl.blocks, sl.dims):
            kcols = tuple(staged_kernel(
                [op.matvec for op in self.tangent_operators(lam, chirality)],
                cols, alg.ctx.one))
            if kcols:
                blocks.append((lam, kcols))
                dims.append(d)
        return GradedSlice(flag=self.flag, k=k, depth=depth,
                           blocks=tuple(blocks), dims=tuple(dims))

    def h0_contains(self, res: GradedSlice, elem: dict) -> bool:
        """Exact membership of a PW element in the kernel span."""
        by_block = {}
        for (lam, r, c), v in elem.items():
            by_block.setdefault((lam, r), {})[c] = v
        spans = {}
        for (lam, _), colvec in by_block.items():
            sp = spans.get(lam)
            if sp is None:
                sp = SpanBasis()
                for blam, cols in res.blocks:
                    if blam == lam:
                        for col in cols:
                            sp.insert(col)
                spans[lam] = sp
            if not sp.contains(colvec):
                return False
        return True

    def liouville_check(self, depth: int) -> dict:
        """Kernel of dbar on the truncated flag algebra is exactly C.1."""
        res = self.h0(0, depth)
        contains_one = self.h0_contains(res, self.algebra.one())
        report = {
            "kind": "liouville",
            "flag": str(self.flag),
            "depth": depth,
            "dim": res.dim,
            "contains_unit": contains_one,
            "word": list(self.word),
            "ok": res.dim == 1 and contains_one,
        }
        return report


def act_f_orbit_rows(algebra: PWAlgebra, lam, row_vec: dict) -> SpanBasis:
    """Closure of a functional-slot row vector under the right action."""
    m = algebra.module(lam)
    span = SpanBasis()
    span.insert(row_vec)
    frontier = [row_vec]
    # row vectors transform by the transposed generators
    gens = [g.transpose() for g in m.e_mats + m.f_mats]
    while frontier:
        new = []
        for vec in frontier:
            for g in gens:
                img = g.matvec(vec)
                if img and span.insert(img):
                    new.append(img)
        frontier = new
    return span


def z_power(algebra: PWAlgebra, flag: FlagSpec, k: int) -> dict:
    """The k-th power of the distinguished highest generator z."""
    gens = algebra.generators(flag)
    hw = algebra.module(gens.lam).highest_index
    z = gens.z[hw]
    return algebra.multiply_all([z] * k) if k else algebra.one()


def zbar_power(algebra: PWAlgebra, flag: FlagSpec, k: int) -> dict:
    gens = algebra.generators(flag)
    hw = algebra.module(gens.lam).highest_index
    zb = gens.zbar[hw]
    return algebra.multiply_all([zb] * k) if k else algebra.one()


# -- quotient-route calculus (generators and relations) -----------------------


def gamma_relation_operator(algebra: PWAlgebra, flag: FlagSpec,
                            br: Braiding | None = None) -> dict:
    """Assemble the quadratic bracket in the braiding on V (x) V verbatim.

    Returns the operator together with its rank and its scalar on each
    Clebsch-Gordan block (the operator is a polynomial in the braiding, so it
    acts blockwise).  Reported, not asserted: see the ledger note on the
    corrupted source display.
    """
    lie, ctx = algebra.lie, algebra.ctx
    x = flag.crossed
    lam = flag.crossed_weight
    v = algebra.module(lam)
    if br is None:
        br = braiding(v, v)
    r = br.matrix
    ww = cartan.bilinear(lie, lam, lam)
    axax = 2 * cartan.symmetrizers(lie)[x - 1]
    c1 = ctx.q_power(ww) * (ctx.q_power(axax) - ctx.one)
    c0 = ctx.q_power(2 * ww - axax)
    n2 = v.dim * v.dim
    op = r.mul(r).add(r.scale(c1)).add(SparseMatrix.identity(n2, ctx.one).scale(c0))
    rk = rank(op.row_dicts(), n2)
    cg = algebra.cg(lam, lam)
    blocks = []
    for s in cg.summands:
        col0 = s.emb.cols[0]
        img = op.matvec(col0)
        pivot = min(col0)
        scalar = img.get(pivot, ctx.zero) / col0[pivot]
        check = dict(img)
        dv_add_scaled(check, col0, -scalar)
        blocks.append({
            "nu": list(s.nu),
            "eigenvalue": str(scalar),
            "scalar_block": not check,
            "annihilated": not img,
        })
    return {
        "kind": "gamma_relation_operator",
        "flag": str(flag),
        "size": n2,
        "rank": rk,
        "blocks": blocks,
        "operator": op,
    }


def _formal_dbar(word):
    """Leibniz expansion with d(z) = 0: word -> {(prefix, l, suffix): 1}."""
    out = {}
    for t, (kind, idx) in enumerate(word):
        if kind == "zb":
            key = (word[:t], idx, word[t + 1:])
            out[key] = out.get(key, 0) + 1
    return out


def gamma_crosscheck(algebra: PWAlgebra, flag: FlagSpec, trunc: int = 2,
                     ks=(-1, 0, 1)) -> dict:
    """Compare quotient-route and tangent-route kernels on graded slices.

    Both kernels are computed inside the realized span of words of length at
    most ``trunc`` in the generators.  The quotient route's relation module is
    the Leibniz image of the full realization kernel (all algebra relations
    at this truncation); disagreement is reported loudly.
    """
    gens = algebra.generators(flag)
    calc = Calculus(algebra, flag)
    n = len(gens.z)
    ctx = algebra.ctx

    def words_up_to(maxlen):
        out = [()]
        frontier = [()]
        for _ in range(maxlen):
            nxt = []
            for w in frontier:
                for kind in ("z", "zb"):
                    for i in range(n):
                        nxt.append(w + ((kind, i),))
            out.extend(nxt)
            frontier = nxt
        return out

    def realize(word) -> dict:
        elems = [gens.z[i] if kind == "z" else gens.zbar[i]
                 for kind, i in word]
        return algebra.multiply_all(elems)

    all_words = words_up_to(trunc)
    degree = {w: sum(1 if kind == "z" else -1 for kind, _ in w)
              for w in all_words}
    # only the slices of ks are read, so only their words are multiplied
    realized = {w: realize(w) for w in all_words if degree[w] in ks}
    # one-form symbols of every word: relation modules are assembled from
    # the formal images of ALL words, not only one slice's
    nsyms = sorted({sym for w in all_words for sym in _formal_dbar(w)})
    nsymidx = {s: t for t, s in enumerate(nsyms)}
    report = {"kind": "gamma_crosscheck", "flag": str(flag), "trunc": trunc,
              "slices": [], "ok": True}
    for k in ks:
        words = [w for w in all_words if degree[w] == k]
        if not words:
            continue
        elems = [realized[w] for w in words]
        # formal one-form images, as vectors over the symbols
        formal = [{nsymidx[sym]: ctx.one * mult
                   for sym, mult in _formal_dbar(w).items()} for w in words]
        # relation submodule: Leibniz images of the realization kernel
        rows = rows_from_columns(elems)
        relation_vectors = (list(kernel_combinations(rows, formal, ctx.one))
                            if rows else [])
        # kernel of the quotient-route dbar: coefficient vectors c with
        # sum_w c_w dbar(w) in span(relations); a relation's unknown adds
        # nothing to the element
        nrel = len(relation_vectors)
        eq_rows = rows_from_columns(
            formal + [{key: -cf for key, cf in rv.items()}
                      for rv in relation_vectors])
        quotient_kernel = SpanBasis()
        for acc in kernel_combinations(eq_rows, elems + [{}] * nrel, ctx.one):
            if acc:
                quotient_kernel.insert(acc)
        # tangent-route kernel on the same realized span, one root
        # position at a time
        tangent_kernel = SpanBasis()
        for acc in staged_kernel(
                [partial(calc.dbar_at, pos=pos)
                 for pos in range(len(calc.positions))], elems, ctx.one):
            if acc:
                tangent_kernel.insert(acc)
        agree = quotient_kernel.equals(tangent_kernel)
        report["slices"].append({
            "k": k,
            "words": len(words),
            "relations": nrel,
            "quotient_dim": quotient_kernel.dim,
            "tangent_dim": tangent_kernel.dim,
            "agree": agree,
        })
        if not agree:
            report["ok"] = False
    if not report["ok"]:
        raise TruncationError(
            "quotient-route and tangent-route kernels disagree: " +
            repr(report["slices"]))
    return report
