"""Quadratic homogeneous coordinate rings of the quantum flag manifolds.

The degree-one generators z_i span the crossed-fundamental block with the
highest weight vector in the vector slot; the quadratic relation space is the
span of the rows of (R - q^((w_x, w_x)) id) on the tensor square, realized
products annihilate exactly that space, and the graded dimensions of the
abstract quadratic algebra match the realized ones (flatness at generic q).

The mixed commutation rule exchanging zbar_i z_j into z_k zbar_l uses the
braiding V (x) W -> W (x) V (W the dual-weight block) with its W-slots
rewritten through the canonical pairing, coefficient convention as for the
R-matrix itself; the exact index reading was pinned by solving for the true
exchange matrix inside the realized algebra and is locked in by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan
from .cartan import FlagSpec
from .errors import ConventionError
from .linalg import SpanBasis, invert_dense, nullspace, rows_from_columns
from .peterweyl import PWAlgebra, PWElement
from .rmatrix import Braiding, braiding


@dataclass(frozen=True)
class QuadraticAlgebraSpec:
    """Degree-2 relation space of a quadratic algebra on n generators."""
    n: int
    relations: tuple     # tuple of dicts {(k, l): coeff}, echelonized


def quadratic_relations(algebra: PWAlgebra, flag: FlagSpec,
                        br: Braiding | None = None) -> QuadraticAlgebraSpec:
    """Span of Sum_kl R^{ij}_{kl} z_k z_l - q^((w_x,w_x)) z_i z_j over (i,j)."""
    ctx = algebra.ctx
    gens = algebra.generators(flag)
    n = len(gens.z)
    v = algebra.module(gens.lam)
    if br is None:
        br = braiding(v, v)
    qll = ctx.q_power(cartan.bilinear(algebra.lie, gens.lam, gens.lam))
    rows = {}
    for (r, c), val in br.matrix.data.items():
        rows.setdefault(r, {})[c] = val
    span = SpanBasis()
    for i in range(n):
        for j in range(n):
            # coefficient R^{ij}_{kl}: output (i,j), input (k,l) - a matrix row
            vec = {}
            for c, val in rows.get(i * n + j, {}).items():
                vec[divmod(c, n)] = val
            vec[(i, j)] = vec.get((i, j), ctx.zero) - qll
            vec = {kk: vv for kk, vv in vec.items() if vv}
            if vec:
                span.insert(vec)
    return QuadraticAlgebraSpec(n=n, relations=tuple(span.vectors()))


def relations_annihilate_realized(algebra: PWAlgebra, flag: FlagSpec,
                                  spec: QuadraticAlgebraSpec) -> bool:
    """Apply each relation's coefficients to the realized products z_k z_l."""
    gens = algebra.generators(flag)
    prods = {}
    for (k, l) in sorted({kl for rel in spec.relations for kl in rel}):
        prods[(k, l)] = algebra.multiply(gens.z[k], gens.z[l])
    for rel in spec.relations:
        acc = PWElement()
        for (k, l), c in sorted(rel.items()):
            acc = acc + prods[(k, l)].scale(c)
        if not acc.is_zero():
            return False
    return True


def realized_degree2_kernel(algebra: PWAlgebra, flag: FlagSpec) -> SpanBasis:
    """Exact kernel of the realization map on degree-2 monomials."""
    ctx = algebra.ctx
    gens = algebra.generators(flag)
    n = len(gens.z)
    pairs = [(k, l) for k in range(n) for l in range(n)]
    rows = rows_from_columns([algebra.multiply(gens.z[k], gens.z[l]).coeffs
                              for k, l in pairs])
    span = SpanBasis()
    for vec in nullspace(rows, len(pairs), ctx.one):
        span.insert({pairs[t]: v for t, v in vec.items()})
    return span


def realized_graded_dimension(algebra: PWAlgebra, flag: FlagSpec, d: int) -> int:
    """Dimension of the span of degree-d z-monomials inside O_q(G)."""
    if d == 0:
        return 1
    gens = algebra.generators(flag)
    span = SpanBasis()
    # depth-first over the monomials, with an explicit stack: a recursive
    # closure would hold the algebra in a reference cycle after returning
    stack = [(algebra.one(), 0)]
    while stack:
        elem, depth = stack.pop()
        if depth == d:
            span.insert(dict(elem.coeffs))
            continue
        stack.extend((algebra.multiply(elem, z), depth + 1)
                     for z in reversed(gens.z))
    return span.dim


def abstract_graded_dimension(ctx, spec: QuadraticAlgebraSpec, d: int) -> int:
    """Graded dimension of the abstract quadratic algebra, d <= 3."""
    n = spec.n
    if d == 0:
        return 1
    if d == 1:
        return n
    if d == 2:
        return n * n - len(spec.relations)
    if d != 3:
        raise ConventionError("graded dimensions implemented for d <= 3 only")
    span = SpanBasis()
    for rel in spec.relations:
        for m in range(n):
            span.insert({(k, l, m): c for (k, l), c in rel.items()})
            span.insert({(m, k, l): c for (k, l), c in rel.items()})
    return n ** 3 - span.dim


def mixed_commutation_check(algebra: PWAlgebra, flag: FlagSpec) -> dict:
    """Verify zbar_i z_j = q^((w_x,w_x)) Sum (R~)^{ij}_{kl} z_k zbar_l exactly.

    R~ is the braiding V (x) V_{-w0 w_x} -> V_{-w0 w_x} (x) V with its
    dual-block slots conjugated by the canonical pairing; the coefficient
    (R~)^{ij}_{kl} is, in the R-matrix notation, the coefficient of
    f_i (x) e_j in R~(e_k (x) f_l).
    """
    ctx = algebra.ctx
    gens = algebra.generators(flag)
    n = len(gens.z)
    v = algebra.module(gens.lam)
    w = algebra.module(gens.lam_bar)
    pair = algebra.pairing(gens.lam)
    prows = pair.row_dicts()
    pinv = invert_dense(prows, ctx.one)
    br = braiding(v, w)
    qll = ctx.q_power(cartan.bilinear(algebra.lie, gens.lam, gens.lam))
    prods = {(k, l): algebra.multiply(gens.z[k], gens.zbar[l])
             for k in range(n) for l in range(n)}
    failures = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.multiply(gens.zbar[i], gens.z[j])
            acc = PWElement()
            for k in range(n):
                for l in range(n):
                    coeff = ctx.zero
                    for u, piu in prows[i].items():
                        for t in range(n):
                            val = br.matrix.entry(u * v.dim + j, k * w.dim + t)
                            if val and l in pinv[t]:
                                coeff = coeff + piu * val * pinv[t][l]
                    if coeff:
                        acc = acc + prods[(k, l)].scale(qll * coeff)
            if not (lhs == acc):
                failures.append({
                    "i": i, "j": j,
                    "lhs": [[list(kk[0]), kk[1], kk[2], str(vv)]
                            for kk, vv in lhs.items()],
                    "rhs": [[list(kk[0]), kk[1], kk[2], str(vv)]
                            for kk, vv in acc.items()],
                })
                if len(failures) >= 1:
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


def central_element_checks(algebra: PWAlgebra, flag: FlagSpec) -> dict:
    """sum(zbar_i z_i) is scalar, central on generators, normalized to 1."""
    gens = algebra.generators(flag)
    # reconstruct the pre-normalization element
    raw_zbar = [zb.scale(gens.normalization) for zb in gens.zbar]
    s = PWElement()
    for zb, z in zip(raw_zbar, gens.z):
        s = s + algebra.multiply(zb, z)
    one = algebra.one()
    zero_key = (tuple([0] * algebra.lie.rank), 0, 0)
    scalar_ok = set(s.coeffs) == {zero_key}
    eps = algebra.counit(s)
    central_ok = True
    for g in list(gens.z) + list(raw_zbar):
        if algebra.multiply(s, g) != algebra.multiply(g, s):
            central_ok = False
            break
    normalized = PWElement()
    for zb, z in zip(gens.zbar, gens.z):
        normalized = normalized + algebra.multiply(zb, z)
    return {
        "kind": "central_element",
        "flag": str(flag),
        "scalar": scalar_ok,
        "value": str(gens.normalization),
        "counit_nonzero": bool(eps),
        "central_on_generators": central_ok,
        "normalized_to_one": normalized == one,
        "ok": scalar_ok and bool(eps) and central_ok and (normalized == one),
    }
