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
from .errors import ConventionError
from .linalg import SparseMatrix, invert_blocks, solve_unique
from .reps import ModuleData, tensor


def _strictly_below(lie, mu, nu):
    """mu < nu in the dominance order (nu - mu a nonzero sum of simple roots)."""
    diff = tuple(a - b for a, b in zip(nu, mu))
    if all(x == 0 for x in diff):
        return False
    try:
        c = cartan.weight_to_root_int(lie, diff)
    except Exception:
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

    def inverse(self) -> SparseMatrix:
        """Blockwise (per weight) inverse, W (x) V -> V (x) W."""
        rows = _indices_by_weight(self.w, self.v)
        cols = _indices_by_weight(self.v, self.w)
        return invert_blocks(
            self.matrix, [(r, cols.get(mu, ())) for mu, r in rows.items()],
            self.v.ctx.one)


def _indices_by_weight(a: ModuleData, b: ModuleData) -> dict:
    """Basis indices i*dim(b)+j of a (x) b grouped by weight, ascending."""
    out = {}
    for i, wa in enumerate(a.weights):
        for j, wb in enumerate(b.weights):
            mu = tuple(x + y for x, y in zip(wa, wb))
            out.setdefault(mu, []).append(i * b.dim + j)
    return out


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
    fixed = {}      # (row, col) -> the leading coefficient
    support = []    # per col: (row, unknown index, or None at the lead)
    unknowns = []   # (row, col) per unknown
    for i in range(dv):
        for j in range(dw):
            col = i * dw + j
            total = tuple(a + b for a, b in zip(v.weights[i], w.weights[j]))
            fixed[(j * dv + i, col)] = ctx.q_power(
                cartan.bilinear(lie, v.weights[i], w.weights[j]))
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
            act_in = vw.gen_matrix(kind, a).by_col()
            act_out = wv.gen_matrix(kind, a).by_col()
            for col in range(dv * dw):
                # R(g . (e_i (x) f_j)) - g . R(e_i (x) f_j), per output row;
                # the key None collects the leading (known) terms
                eqs = {}
                for c2, cf in act_in.get(col, ()):
                    for r2, u in support[c2]:
                        eq = eqs.setdefault(r2, {})
                        term = cf if u is not None else cf * fixed[(r2, c2)]
                        eq[u] = eq[u] + term if u in eq else term
                for r0, u in support[col]:
                    for r2, cf in act_out.get(r0, ()):
                        eq = eqs.setdefault(r2, {})
                        term = cf if u is not None else cf * fixed[(r0, col)]
                        eq[u] = eq[u] - term if u in eq else -term
                for r2 in sorted(eqs):
                    eq = eqs[r2]
                    const = eq.pop(None, zero)
                    row = {u: x for u, x in eq.items() if x}
                    if row or const:
                        rows.append(row)
                        rhs.append(-const)
    sol = solve_unique(rows, rhs, len(unknowns), ctx.one)
    data = dict(fixed)
    for (r, c), x in zip(unknowns, sol):
        if x:
            data[(r, c)] = x
    return Braiding(v, w, SparseMatrix(dv * dw, dv * dw, data))


def kron_with_identity(mat: SparseMatrix, dim_id: int, side: str) -> SparseMatrix:
    """mat (x) 1 or 1 (x) mat on a tensor-cube factor."""
    n = mat.nrows
    data = {}
    if side == "left":
        for (r, c), val in mat.data.items():
            for t in range(dim_id):
                data[(r * dim_id + t, c * dim_id + t)] = val
        return SparseMatrix(n * dim_id, n * dim_id, data)
    for (r, c), val in mat.data.items():
        for t in range(dim_id):
            data[(t * n + r, t * n + c)] = val
    return SparseMatrix(n * dim_id, n * dim_id, data)


def ybe_check(v: ModuleData, br: Braiding | None = None) -> bool:
    """Exact Yang-Baxter identity for R = R_{V,V} on V (x) V (x) V."""
    if br is None:
        br = braiding(v, v)
    r = br.matrix
    r12 = kron_with_identity(r, v.dim, "left")
    r23 = kron_with_identity(r, v.dim, "right")
    lhs = r12.mul(r23).mul(r12)
    rhs = r23.mul(r12).mul(r23)
    return lhs == rhs


def intertwines(br: Braiding) -> bool:
    """Check R rho_{V(x)W}(x) = rho_{W(x)V}(x) R for all generators."""
    vw, wv = tensor(br.v, br.w), tensor(br.w, br.v)
    for kind in ("E", "F"):
        for a in range(1, br.v.lie.rank + 1):
            lhs = br.matrix.mul(vw.gen_matrix(kind, a))
            rhs = wv.gen_matrix(kind, a).mul(br.matrix)
            if lhs != rhs:
                return False
    return True
