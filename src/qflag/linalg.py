"""Exact linear algebra over a field, agnostic to the scalar type.

Values only need +, -, *, /, equality, and truthiness as the zero test; both
:class:`qflag.scalars.Scalar` and :class:`fractions.Fraction` qualify, so the
same elimination code serves the symbolic and the specialized mode.

Three views of a linear object are used:

* dense rows (lists of lists) for small weight-block systems,
* dict-vectors ``{key: value}`` with sortable keys for spans of algebra
  elements, echelonized incrementally by :class:`SpanBasis`,
* :class:`SparseMatrix` for generator matrices (band-sparse) and their
  products.

All pivot choices are deterministic: leftmost column, then cheapest entry
(term-count proxy), then lowest row index.

:func:`mod_column_rank_profile` also needs an image in Z/p: a
``mod_image(p, s)`` method (Scalar) or ``numerator``/``denominator``
(Fraction, int).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConventionError

# Prime and evaluation point of the modular rank profile.
MOD_PRIME = (1 << 61) - 1
MOD_POINT = 1000003


def _cost(v) -> int:
    c = getattr(v, "complexity", None)
    if c is not None:
        return c()
    if isinstance(v, Fraction):
        return v.numerator.bit_length() + v.denominator.bit_length()
    return 1


def echelon(rows, ncols, reduce_up=True):
    """Row-reduce a copy of ``rows``; returns (pivot column list, rows).

    Pivots are sought in columns 0..ncols-1 (scanned left to right, so the
    pivot list is the column rank profile); row operations run over the full
    row width, so trailing augmented columns are transformed along.  With
    ``reduce_up`` the result is the RREF.
    """
    work = [list(r) for r in rows]
    width = len(work[0]) if work else ncols
    pivots = []
    r0 = 0
    for col in range(ncols):
        best = -1
        best_cost = None
        for r in range(r0, len(work)):
            v = work[r][col]
            if v:
                c = _cost(v)
                if best < 0 or c < best_cost:
                    best, best_cost = r, c
        if best < 0:
            continue
        work[r0], work[best] = work[best], work[r0]
        row = work[r0]
        inv = row[col]
        if not (inv == 1):
            row[col:] = [x / inv for x in row[col:]]
        rng = range(0, len(work)) if reduce_up else range(r0 + 1, len(work))
        for r in rng:
            if r == r0:
                continue
            f = work[r][col]
            if f:
                other = work[r]
                for j in range(col, width):
                    if row[j]:
                        other[j] = other[j] - f * row[j]
        pivots.append(col)
        r0 += 1
        if r0 == len(work):
            break
    return pivots, work


def rank(rows, ncols) -> int:
    pivots, _ = echelon(rows, ncols, reduce_up=False)
    return len(pivots)


def column_rank_profile(rows, ncols):
    pivots, _ = echelon(rows, ncols, reduce_up=False)
    return pivots


def mod_image(v):
    """Image of v in Z/MOD_PRIME at s = MOD_POINT.

    None when the denominator of v vanishes there.  Values with a
    ``mod_image(p, s)`` method use it; ints and Fractions have no s.
    """
    image = getattr(v, "mod_image", None)
    if image is not None:
        return image(MOD_PRIME, MOD_POINT)
    den = v.denominator % MOD_PRIME
    if not den:
        return None
    return v.numerator * pow(den, -1, MOD_PRIME) % MOD_PRIME


def mod_column_rank_profile(rows, ncols):
    """Column rank profile of the image of ``rows`` in Z/p, p = MOD_PRIME.

    Returns None when an entry has no image (see :func:`mod_image`).
    Columns independent mod p are independent over the field, so the
    profile's size is a lower bound of the exact rank.
    """
    p = MOD_PRIME
    work = []
    for row in rows:
        out = []
        for v in row:
            x = mod_image(v)
            if x is None:
                return None
            out.append(x)
        work.append(out)
    pivots = []
    r0 = 0
    for col in range(ncols):
        best = next((r for r in range(r0, len(work)) if work[r][col]), None)
        if best is None:
            continue
        work[r0], work[best] = work[best], work[r0]
        row = work[r0]
        inv = pow(row[col], -1, p)
        for r in range(r0 + 1, len(work)):
            other = work[r]
            f = other[col] * inv % p
            if f:
                for j in range(col, ncols):
                    if row[j]:
                        other[j] = (other[j] - f * row[j]) % p
        pivots.append(col)
        r0 += 1
        if r0 == len(work):
            break
    return pivots


def nullspace(rows, ncols, one):
    """Deterministic basis of {x : rows @ x = 0}, as tuples of length ncols."""
    pivots, red = echelon(rows, ncols)
    pivset = set(pivots)
    basis = []
    zero = one - one
    for free in range(ncols):
        if free in pivset:
            continue
        x = [zero] * ncols
        x[free] = one
        for r, p in enumerate(pivots):
            v = red[r][free]
            if v:
                x[p] = -v
        basis.append(tuple(x))
    return basis


def solve_unique(rows, rhs, ncols, one):
    """Solve rows @ x = rhs demanding a unique solution.

    Raises ConventionError when the system is inconsistent or the solution
    space has positive dimension.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, red = echelon(aug, ncols)
    for row in red[len(pivots):]:
        if row[ncols]:
            raise ConventionError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ConventionError(
            f"solution space has dimension {ncols - len(pivots)}, expected 0")
    zero = one - one
    x = [zero] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return x


def invert_dense(rows, one):
    """Inverse of a square dense matrix (list of lists)."""
    n = len(rows)
    zero = one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    pivots, red = echelon(aug, n)
    if len(pivots) != n:
        raise ConventionError("singular matrix")
    return [row[n:] for row in red]


# -- dict-vectors ------------------------------------------------------------


def dv_scale(v, c):
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def dv_add_scaled(acc, v, c):
    """acc += c*v in place (acc a plain dict)."""
    if not c:
        return acc
    for k, x in v.items():
        y = acc.get(k)
        if y is None:
            acc[k] = c * x
        else:
            y = y + c * x
            if y:
                acc[k] = y
            else:
                del acc[k]
    return acc


class SpanBasis:
    """Incrementally echelonized span of dict-vectors with sortable keys."""

    def __init__(self):
        self._rows = {}  # pivot key -> normalized dict-vector

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec) -> dict:
        v = dict(vec)
        while v:
            p = min(v)
            row = self._rows.get(p)
            if row is None:
                return v
            dv_add_scaled(v, row, -v[p])
        return v

    def insert(self, vec) -> bool:
        """Add a vector to the span; returns True when the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p]
        if not (inv == 1):
            v = {k: x / inv for k, x in v.items()}
        for row in self._rows.values():
            c = row.get(p)
            if c is not None:
                dv_add_scaled(row, v, -c)
        self._rows[p] = v
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def vectors(self):
        return [dict(self._rows[k]) for k in sorted(self._rows)]

    def equals(self, other: "SpanBasis") -> bool:
        if self.dim != other.dim:
            return False
        return all(other.contains(v) for v in self.vectors())


# -- sparse matrices ---------------------------------------------------------


class SparseMatrix:
    """Immutable sparse matrix with exact entries (no explicit zeros)."""

    __slots__ = ("nrows", "ncols", "data", "_cols")

    def __init__(self, nrows, ncols, data):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {k: v for k, v in data.items() if v}
        self._cols = None

    @staticmethod
    def zero(nrows, ncols) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols, {})

    @staticmethod
    def identity(n, one) -> "SparseMatrix":
        return SparseMatrix(n, n, {(i, i): one for i in range(n)})

    @staticmethod
    def diagonal(values) -> "SparseMatrix":
        n = len(values)
        return SparseMatrix(n, n, {(i, i): v for i, v in enumerate(values) if v})

    def by_col(self):
        if self._cols is None:
            cols = {}
            for (i, j), v in self.data.items():
                cols.setdefault(j, []).append((i, v))
            for lst in cols.values():
                lst.sort(key=lambda t: t[0])
            self._cols = cols
        return self._cols

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __hash__(self):
        raise TypeError("unhashable")

    def entry(self, i, j):
        return self.data.get((i, j))

    def entries_sorted(self):
        return sorted(self.data.items())

    def scale(self, c) -> "SparseMatrix":
        if not c:
            return SparseMatrix.zero(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols,
                            {k: c * v for k, v in self.data.items()})

    def add(self, other) -> "SparseMatrix":
        out = dict(self.data)
        for k, v in other.data.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w = w + v
                if w:
                    out[k] = w
                else:
                    del out[k]
        return SparseMatrix(self.nrows, self.ncols, out)

    def sub(self, other) -> "SparseMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ocols = other.by_col()
        out = {}
        scols = self.by_col()
        for j, col in ocols.items():
            acc = {}
            for k, v in col:
                for i, u in scols.get(k, ()):
                    w = acc.get(i)
                    if w is None:
                        acc[i] = u * v
                    else:
                        w = w + u * v
                        if w:
                            acc[i] = w
                        else:
                            del acc[i]
            for i, v in acc.items():
                out[(i, j)] = v
        return SparseMatrix(self.nrows, other.ncols, out)

    def matvec(self, vec: dict) -> dict:
        """Apply to a column dict-vector {col index: value}."""
        cols = self.by_col()
        acc = {}
        for j, c in vec.items():
            for i, v in cols.get(j, ()):
                w = acc.get(i)
                if w is None:
                    acc[i] = v * c
                else:
                    w = w + v * c
                    if w:
                        acc[i] = w
                    else:
                        del acc[i]
        return acc

    def vecmat(self, vec: dict) -> dict:
        """Apply on the left to a row dict-vector: returns vec @ self."""
        acc = {}
        for (i, j), v in self.data.items():
            c = vec.get(i)
            if c is not None:
                w = acc.get(j)
                if w is None:
                    acc[j] = c * v
                else:
                    w = w + c * v
                    if w:
                        acc[j] = w
                    else:
                        del acc[j]
        return acc

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.ncols, self.nrows,
                            {(j, i): v for (i, j), v in self.data.items()})

    def power(self, n: int, one) -> "SparseMatrix":
        if n < 0:
            raise ValueError("negative power")
        acc = SparseMatrix.identity(self.nrows, one)
        for _ in range(n):
            acc = acc.mul(self)
        return acc
