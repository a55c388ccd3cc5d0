"""Quadratic homogeneous coordinate rings of the quantum flag manifolds.

The degree-one generators z_i span the crossed-fundamental block with the
highest weight vector in the vector slot; the quadratic relation space is the
span of the rows of (R - q^((w_x, w_x)) id) on the tensor square, realized
products annihilate exactly that space, and the graded dimensions of the
abstract quadratic algebra match the realized ones (flatness at generic q)
through degree ABSTRACT_DMAX.  :func:`monomial_spans` is the one span of
z-monomials, each degree grown from the products that grew the one below.

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
from .linalg import (SpanBasis, SparseMatrix, dv_add_scaled, eliminate,
                     invert_dense, kernel_combinations, rows_from_columns)
from .peterweyl import PWAlgebra, element_doc
from .rmatrix import Braiding, braiding

# The largest degree abstract_graded_dimension computes.
ABSTRACT_DMAX = 3


@dataclass(frozen=True)
class QuadraticAlgebraSpec:
    """Degree-2 relation space of a quadratic algebra on n generators."""
    n: int
    relations: tuple     # tuple of dicts {(k, l): coeff}, the RREF


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
    # row (i,j) of R - qll id holds R^{ij}_{kl} at column k*n + l
    rows = br.matrix.sub(SparseMatrix.identity(n * n, qll)).row_dicts()
    pivots, red = eliminate(rows, n * n)
    return QuadraticAlgebraSpec(n=n, relations=tuple(
        {divmod(c, n): v for c, v in row.items()}
        for row in red[:len(pivots)]))


def relations_annihilate_realized(algebra: PWAlgebra, flag: FlagSpec,
                                  spec: QuadraticAlgebraSpec) -> bool:
    """Apply each relation's coefficients to the realized products z_k z_l."""
    gens = algebra.generators(flag)
    prods = {}
    for (k, l) in sorted({kl for rel in spec.relations for kl in rel}):
        prods[(k, l)] = algebra.multiply(gens.z[k], gens.z[l])
    for rel in spec.relations:
        acc = {}
        for (k, l), c in sorted(rel.items()):
            dv_add_scaled(acc, prods[(k, l)], c)
        if acc:
            return False
    return True


def realized_degree2_kernel(algebra: PWAlgebra, flag: FlagSpec) -> SpanBasis:
    """Exact kernel of the realization map on degree-2 monomials."""
    one = algebra.ctx.one
    gens = algebra.generators(flag)
    n = len(gens.z)
    pairs = [(k, l) for k in range(n) for l in range(n)]
    rows = rows_from_columns([algebra.multiply(gens.z[k], gens.z[l])
                              for k, l in pairs])
    span = SpanBasis()
    for vec in kernel_combinations(rows, [{kl: one} for kl in pairs], one):
        span.insert(vec)
    return span


def monomial_spans(algebra: PWAlgebra, flag: FlagSpec, dmax: int) -> list:
    """The spans of the degree-d z-monomials inside O_q(G), d = 0..dmax.

    Degree d is spanned by the products m z_i of the degree-(d-1) products
    m that grew their span, since those m span degree d-1."""
    gens = algebra.generators(flag)
    spans = []
    products = [algebra.one()]
    for _ in range(dmax + 1):
        span = SpanBasis()
        grown = [p for p in products if span.insert(p)]
        spans.append(span)
        # formed one at a time, as the next degree inserts them
        products = (algebra.multiply(m, z) for m in grown for z in gens.z)
    return spans


def realized_graded_dimension(algebra: PWAlgebra, flag: FlagSpec, d: int) -> int:
    """Dimension of the span of degree-d z-monomials inside O_q(G)."""
    return monomial_spans(algebra, flag, d)[d].dim


def abstract_graded_dimension(ctx, spec: QuadraticAlgebraSpec, d: int) -> int:
    """Graded dimension of the abstract algebra, d <= ABSTRACT_DMAX."""
    n = spec.n
    if d == 0:
        return 1
    if d == 1:
        return n
    if d == 2:
        return n * n - len(spec.relations)
    if d != ABSTRACT_DMAX:
        raise ConventionError(
            f"graded dimensions implemented for d <= {ABSTRACT_DMAX} only")
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
    pinv = invert_dense(pair.row_dicts(), ctx.one)
    br = braiding(v, w)
    qll = ctx.q_power(cartan.bilinear(algebra.lie, gens.lam, gens.lam))
    prods = {(k, l): algebra.multiply(gens.z[k], gens.zbar[l])
             for k in range(n) for l in range(n)}
    # coeffs[(i, j)][(k, l)] = sum_{u,t} P[i,u] R[(u,j),(k,t)] P^-1[t,l],
    # over the nonzero entries of R alone
    coeffs = {}
    for col, entries in br.matrix.cols.items():
        k, t = divmod(col, w.dim)
        for row, val in entries.items():
            u, j = divmod(row, v.dim)
            for i, piu in pair.cols.get(u, {}).items():
                got = coeffs.setdefault((i, j), {})
                for l, ptl in pinv[t].items():
                    got[(k, l)] = got.get((k, l), ctx.zero) + piu * val * ptl
    failures = []
    for i in range(n):
        for j in range(n):
            lhs = algebra.multiply(gens.zbar[i], gens.z[j])
            acc = {}
            for kl, coeff in coeffs.get((i, j), {}).items():
                dv_add_scaled(acc, prods[kl], qll * coeff)
            if lhs != acc:
                failures.append({"i": i, "j": j, "lhs": element_doc(lhs),
                                 "rhs": element_doc(acc)})
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
    raw_zbar = [{k: gens.normalization * v for k, v in zb.items()}
                for zb in gens.zbar]
    s = {}
    for zb, z in zip(raw_zbar, gens.z):
        dv_add_scaled(s, algebra.multiply(zb, z), 1)
    one = algebra.one()
    zero_key = (tuple([0] * algebra.lie.rank), 0, 0)
    scalar_ok = set(s) == {zero_key}
    eps = algebra.counit(s)
    central_ok = True
    for g in list(gens.z) + list(raw_zbar):
        if algebra.multiply(s, g) != algebra.multiply(g, s):
            central_ok = False
            break
    normalized = {}
    for zb, z in zip(gens.zbar, gens.z):
        dv_add_scaled(normalized, algebra.multiply(zb, z), 1)
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
