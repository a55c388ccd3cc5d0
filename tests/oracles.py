"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: weight multiplicities
come from Freudenthal's recursion (not the basis construction), dimensions
from summing them (not the Weyl product formula), graded-slice sizes
from counting weights with the invariance conditions (not from kernels of
generator matrices), and reduced row echelon forms from plain dense
Gauss-Jordan elimination on lists (not the sparse engine).
"""

from fractions import Fraction
from itertools import product

from qflag.cartan import (bilinear_form, cartan_matrix, positive_roots,
                          root_to_weight, w0_on_weight, weight_to_root_int)


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
