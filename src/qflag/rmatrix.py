"""Braidings R_{V,W}: V (x) W -> W (x) V of the type-1 tensor category.

V must be a canonical build: every basis vector e_i is an F-word applied to
the highest weight vector e_0 (:func:`qflag.reps.generated_by_highest`).
Then the vectors e_0 (x) f_j generate V (x) W under Delta(F) (Jantzen,
Lectures on Quantum Groups, ch. 3-5), so the braiding is carried along V's
F-words from its values there, one matrix-vector product per column and no
linear solve:
    R(e_0 (x) f_j) = q^((lam, wt f_j)) f_j (x) e_0,
since a term f_k (x) e_l with wt f_k < wt f_j would need wt e_l above lam;
and for e_i = F_a e_p, Delta(F_a)(e_p (x) f_j) = e_i (x) f_j
+ K_a^-1 e_p (x) F_a f_j, so
    R(e_i (x) f_j) = Delta(F_a) R(e_p (x) f_j) - R(K_a^-1 e_p (x) F_a f_j),
the last term a combination of the known R(e_p (x) f_r).  Both Delta(F_a)
are read off the tensor modules V (x) W and W (x) V (:func:`qflag.reps.tensor`).
:func:`qflag.reps.check_intertwines` then certifies the result exactly; an
intertwiner is fixed by its values on a generating set, so it is the unique
braiding with those leading terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cartan
from .errors import ConventionError
from .linalg import SparseMatrix, dv_add_scaled
from .reps import (ModuleData, check_intertwines, generated_by_highest,
                   tensor)


@dataclass(frozen=True)
class Braiding:
    """R_{V,W} with its coefficient tensor R^{kl}_{ij} (output f_k (x) e_l).

    ``certified`` is set only by :func:`braiding`, after the matrix passed
    :func:`qflag.reps.check_intertwines` on these very modules.  It is not an
    init argument, so a hand-built braiding, or one made from another by
    ``dataclasses.replace``, is never certified.
    """
    v: ModuleData
    w: ModuleData
    matrix: SparseMatrix   # rows (k, l) -> k*dim(V)+l; cols (i, j) -> i*dim(W)+j
    certified: bool = field(default=False, init=False)

    def coeff(self, k: int, l: int, i: int, j: int):
        return self.matrix.entry(k * self.v.dim + l, i * self.w.dim + j)


def braiding(v: ModuleData, w: ModuleData) -> Braiding:
    """R_{V,W} by transport along V's F-words.

    Raises ConventionError when V is not a canonical build or the result
    does not intertwine.
    """
    if v.lie != w.lie:
        raise ConventionError("braiding of modules over different types")
    if not generated_by_highest(v):
        raise ConventionError(
            "braiding needs a first factor whose basis is F-words of e_0")
    ctx = v.ctx
    dv, dw = v.dim, w.dim
    wv = tensor(w, v)
    vw = wv if v is w else tensor(v, w)
    cols = [{j * dv: ctx.q_power(cartan.bilinear(v.lie, v.highest, wt))}
            for j, wt in enumerate(w.weights)]
    for t, (a, p) in enumerate(v.parents[1:], 1):
        f_wv, f_vw = wv.f_mats[a - 1], vw.f_mats[a - 1].cols
        for j in range(dw):
            # Delta(F_a)(e_p (x) f_j) is e_t (x) f_j, entry 1, plus known terms
            col = f_wv.matvec(cols[p * dw + j])
            for r, x in f_vw.get(p * dw + j, {}).items():
                if r != t * dw + j:
                    dv_add_scaled(col, cols[r], -x)
            cols.append(col)
    mat = SparseMatrix(dv * dw, dv * dw, dict(enumerate(cols)))
    if not check_intertwines(mat, vw, wv):
        raise ConventionError("the transported braiding does not intertwine")
    br = Braiding(v, w, mat)
    object.__setattr__(br, "certified", True)
    return br


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
    for a braiding that :func:`braiding` certified on V itself only they are
    checked.  Anything else (a hand-built or replaced braiding, or one of
    other modules) is applied to every basis vector.  Every comparison is
    exact.
    """
    if br is None:
        br = braiding(v, v)
    d = v.dim
    if br.v is v and br.w is v and br.certified:
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
