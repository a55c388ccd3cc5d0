"""Braidings R_{V,W}: V (x) W -> W (x) V of the type-1 tensor category.

The braiding is pinned down as the unique solution of a linear system: it
must intertwine the generator action through the coproduct, send the highest
leading position (j, i) of each input (i, j) to q^((wt e_i, wt f_j)) exactly,
and otherwise produce only terms f_k (x) e_l whose first-slot weight drops
strictly below wt(f_j) in the dominance order (weight preservation then
forces the second slot up).  The generator actions are the matrices of the
tensor modules V (x) W and W (x) V; the equations are sparse rows, solved by
:func:`qflag.linalg.solve_unique`, which refuses non-unique or inconsistent
systems instead of picking a representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan
from .errors import ConventionError, DomainError
from .linalg import SparseMatrix, dv_add_scaled, solve_unique
from .reps import ModuleData, check_intertwines, tensor


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


@dataclass
class Braiding:
    """R_{V,W} with its coefficient tensor R^{kl}_{ij} (output f_k (x) e_l)."""
    v: ModuleData
    w: ModuleData
    matrix: SparseMatrix   # rows (k, l) -> k*dim(V)+l; cols (i, j) -> i*dim(W)+j

    def coeff(self, k: int, l: int, i: int, j: int):
        return self.matrix.entry(k * self.v.dim + l, i * self.w.dim + j)


def braiding(v: ModuleData, w: ModuleData) -> Braiding:
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


def _apply_r(r: SparseMatrix, vec: dict, d: int, slot: int) -> dict:
    """R (x) 1 (slot 12) or 1 (x) R (slot 23) on a dict-vector of V (x) V (x) V.

    r is R_{V,V}; index a*d*d + b*d + c stands for e_a (x) e_b (x) e_c, with
    d = dim V.
    """
    out = {}
    for x, c in vec.items():
        if slot == 12:
            pair, low = divmod(x, d)
            col = {i * d + low: u for i, u in r.cols.get(pair, {}).items()}
        else:
            high, pair = divmod(x, d * d)
            col = {high * d * d + i: u for i, u in r.cols.get(pair, {}).items()}
        dv_add_scaled(out, col, c)
    return out


def _generated_by_highest(v: ModuleData) -> bool:
    """Each basis vector is exactly F_j of its parent, rooted at e_0 = e_h.

    True for canonical builds; then every basis vector is an F-word applied
    to the highest weight vector, with the module's own F-matrices.
    """
    if v.parents is None or v.highest_index != 0:
        return False
    one = v.ctx.one
    return all(v.f_mats[j - 1].cols.get(u) == {t: one}
               for t, (j, u) in enumerate(v.parents[1:], 1))


def ybe_check(v: ModuleData, br: Braiding | None = None) -> bool:
    """Exact Yang-Baxter identity R12 R23 R12 = R23 R12 R23 on V (x) V (x) V.

    R12 = R (x) 1 and R23 = 1 (x) R.  When R = R_{V,V} commutes with the
    generators on V (x) V (:func:`qflag.reps.check_intertwines`, whose K
    test is that R preserves weight), both sides commute with the F-action
    on V (x) V (x) V (coassociativity of Delta).  With
    Delta(F_i) = F_i (x) 1 + K_i^-1 (x) F_i,
        F_i u (x) w = F_i (u (x) w) - q^(-(alpha_i, wt u)) u (x) F_i w,
    so by induction on F-words the vectors e_h (x) e_b (x) e_c, h the highest
    weight vector, generate V (x) V (x) V whenever every basis vector of V is
    an F-word applied to e_h (Jantzen, Lectures on Quantum Groups, ch. 3-5).
    Two F-commuting maps that agree on those dim(V)^2 vectors are equal, so
    only they are checked.  Otherwise (a module with no F-word data, or a
    matrix that does not intertwine or breaks weight) both sides are applied
    to every basis vector.  Every comparison is exact.
    """
    if br is None:
        br = braiding(v, v)
    d = v.dim
    if (br.v is v and br.w is v and _generated_by_highest(v)
            and check_intertwines(br.matrix, vv := tensor(v, v), vv)):
        h = v.highest_index
        cols = range(h * d * d, (h + 1) * d * d)
    else:
        cols = range(d ** 3)
    one = v.ctx.one
    for x in cols:
        lhs = rhs = {x: one}
        for a, b in ((12, 23), (23, 12), (12, 23)):
            lhs = _apply_r(br.matrix, lhs, d, a)
            rhs = _apply_r(br.matrix, rhs, d, b)
        if lhs != rhs:
            return False
    return True
