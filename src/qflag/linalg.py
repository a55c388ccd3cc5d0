"""Exact linear algebra over a field, agnostic to the scalar type.

Values only need +, -, *, /, equality, and truthiness as the zero test; both
:class:`qflag.scalars.Scalar` and :class:`fractions.Fraction` qualify, so the
same elimination code serves the symbolic and the specialized mode.

Two views of a linear object are used:

* dict-vectors ``{key: value}`` (no explicit zeros): the rows of every linear
  system handed to :func:`eliminate` and its wrappers, and spans of algebra
  elements with sortable keys, echelonized incrementally by
  :class:`SpanBasis`;
* :class:`SparseMatrix` for generator matrices (band-sparse) and their
  products.

:func:`eliminate` is the one exact elimination engine.  It keeps each row as
a dict and a column -> rows index, so it touches nonzero entries only.  All
pivot choices are deterministic: leftmost column, then cheapest entry
(term-count proxy), then lowest current row position, the pivot row being
swapped into place.

:func:`mod_row_profile` chooses independent rows in Z/p at a fixed point of
s; it needs an image in Z/p: a ``mod_image(p, s)`` method (Scalar) or
``numerator``/``denominator`` (Fraction, int).
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


def eliminate(rows, ncols, reduce_up=True):
    """Row-reduce copies of the dict rows; returns (pivot columns, rows).

    Pivots are sought in columns 0..ncols-1 (scanned left to right, so the
    pivot list is the column rank profile); row operations act on every key,
    so augmented columns (keys >= ncols) are transformed along.  The returned
    rows are in their final positions: row r carries pivot r.  With
    ``reduce_up`` the pivot rows are the RREF.
    """
    work = [{c: v for c, v in row.items() if v} for row in rows]
    nrows = len(work)
    order = list(range(nrows))    # position -> row id
    where = list(range(nrows))    # row id -> position
    at = {}                       # column -> ids of the rows with an entry
    for rid, row in enumerate(work):
        for c in row:
            at.setdefault(c, set()).add(rid)
    pivots = []
    r0 = 0
    for col in range(ncols):
        best = None
        for rid in at.get(col, ()):
            pos = where[rid]
            if pos >= r0:
                key = (_cost(work[rid][col]), pos)
                if best is None or key < best_key:
                    best, best_key = rid, key
        if best is None:
            continue
        moved = order[r0]
        order[r0], order[best_key[1]] = best, moved
        where[best], where[moved] = r0, best_key[1]
        row = work[best]
        inv = row[col]
        if not (inv == 1):
            for c, x in row.items():
                row[c] = x / inv
        items = list(row.items())
        for rid in [rid for rid in at[col]
                    if rid != best and (reduce_up or where[rid] > r0)]:
            other = work[rid]
            f = other[col]
            for c, x in items:
                y = other.get(c)
                if y is None:
                    other[c] = -(f * x)
                    at.setdefault(c, set()).add(rid)
                else:
                    y = y - f * x
                    if y:
                        other[c] = y
                    else:
                        del other[c]
                        at[c].discard(rid)
        pivots.append(col)
        r0 += 1
        if r0 == nrows:
            break
    return pivots, [work[rid] for rid in order]


def rank(rows, ncols) -> int:
    return len(eliminate(rows, ncols, reduce_up=False)[0])


def column_rank_profile(rows, ncols):
    return eliminate(rows, ncols, reduce_up=False)[0]


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


def mod_row_profile(rows, limit=None):
    """Indices of the lowest-index dict rows independent in Z/p, p = MOD_PRIME.

    Rows are taken in order and kept when independent of the kept ones, so
    on the transpose this is the column rank profile.  Stops once ``limit``
    rows are kept.  Returns None when an entry of a row it reads has no
    image (see :func:`mod_image`).  Rows independent mod p are independent
    over the field, so the count is a lower bound of the exact rank.
    """
    p = MOD_PRIME
    basis = {}   # leading column -> kept row reduced mod p, leading entry 1
    kept = []
    for idx, row in enumerate(rows):
        if len(kept) == limit:
            break
        vec = {}
        for c, x in row.items():
            y = mod_image(x)
            if y is None:
                return None
            if y:
                vec[c] = y
        while vec:
            lead = min(vec)
            base = basis.get(lead)
            if base is None:
                inv = pow(vec[lead], -1, p)
                basis[lead] = {c: y * inv % p for c, y in vec.items()}
                kept.append(idx)
                break
            f = vec[lead]
            for c, y in base.items():
                z = (vec.get(c, 0) - f * y) % p
                if z:
                    vec[c] = z
                else:
                    del vec[c]
    return kept


def nullspace(rows, ncols, one):
    """Deterministic basis of {x : rows @ x = 0}, as dict-vectors.

    One vector per free column f, in increasing f: x_f = 1, and each pivot
    column takes minus the RREF entry of its row at f.  Keys ascend.
    """
    pivots, red = eliminate(rows, ncols)
    pivset = set(pivots)
    basis = {f: {} for f in range(ncols) if f not in pivset}
    for p, row in zip(pivots, red):
        for c, v in row.items():
            vec = basis.get(c)
            if vec is not None:
                vec[p] = -v
    for f, vec in basis.items():
        vec[f] = one
    return list(basis.values())


def solve_unique(rows, rhs, ncols, one):
    """Solve rows @ x = rhs (dict rows) demanding a unique solution.

    The lowest-index rows independent mod p are chosen first; when there are
    ncols of them they are independent over the field, one square exact
    solve gives x, and every other row is checked exactly.  Otherwise (or
    when an entry has no image mod p) the whole system is eliminated.
    Raises ConventionError when the system is inconsistent or the solution
    space has positive dimension.
    """
    zero = one - one
    chosen = mod_row_profile(rows, ncols)
    if chosen is not None and len(chosen) == ncols:
        _, red = eliminate([{**rows[i], ncols: rhs[i]} for i in chosen], ncols)
        x = [row.get(ncols, zero) for row in red]
        chosen = set(chosen)
        for i, (row, b) in enumerate(zip(rows, rhs)):
            if i not in chosen:
                acc = zero
                for c, v in row.items():
                    acc = acc + v * x[c]
                if acc != b:
                    raise ConventionError("inconsistent linear system")
        return x
    pivots, red = eliminate(
        [{**row, ncols: b} for row, b in zip(rows, rhs)], ncols)
    for row in red[len(pivots):]:
        if row:
            raise ConventionError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ConventionError(
            f"solution space has dimension {ncols - len(pivots)}, expected 0")
    return [row.get(ncols, zero) for row in red[:ncols]]


def invert_dense(rows, one):
    """Inverse of a square matrix given by n dict rows, as n dict rows."""
    n = len(rows)
    pivots, red = eliminate([{**row, n + i: one} for i, row in enumerate(rows)],
                            n)
    if len(pivots) != n:
        raise ConventionError("singular matrix")
    return [{c - n: v for c, v in row.items() if c >= n} for row in red]


# -- dict-vectors ------------------------------------------------------------


def rows_from_columns(columns):
    """Dict rows of the matrix whose column t is the dict-vector columns[t].

    One row per key that some column has, in sorted key order.
    """
    rows = {}
    for t, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[t] = v
    return [rows[key] for key in sorted(rows)]


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

    def row_dicts(self):
        """Rows as dict-vectors {col: value}, one per row."""
        rows = [{} for _ in range(self.nrows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

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
