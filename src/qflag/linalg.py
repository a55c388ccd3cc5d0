"""Exact linear algebra over a field, agnostic to the scalar type.

Values only need +, -, *, /, equality, and truthiness as the zero test; both
:class:`qflag.scalars.Scalar` and :class:`fractions.Fraction` qualify, so the
same elimination code serves the symbolic and the specialized mode.

The one linear format is the dict-vector ``{key: value}`` (no explicit
zeros): the rows of every linear system handed to :func:`eliminate` and its
wrappers, spans of algebra elements with sortable keys, kept in echelon
(not reduced) form incrementally by :class:`SpanBasis`, and the columns of a
:class:`SparseMatrix`, which stores a matrix as ``{col: column}``.  Every
matrix-vector and matrix-matrix product folds :func:`dv_add_scaled` over
columns.  :class:`BlockInverse` is the one blockwise inverse (of braid
operators and Clebsch-Gordan changes of basis): every weight block is checked
mod a prime when it is built, factored when a column of it is first read, and
solved only for the columns read.  Every joint kernel of several linear
maps is taken by :func:`staged_kernel`, one map at a time.

:class:`SpanBasis` holds the one exact echelon loop.  :func:`eliminate`, and
so every wrapper of it, inserts its rows into one, the cheapest row first,
and takes one upward pass for the RREF.  Every result is unique, so the row
order decides the speed only: on B3/1, all nine suites at depth 2, pure-Python
kernel, one Intel Xeon core, the :class:`BlockInverse` factors took
1.95-2.02 s with the rows in input order, 10.1-10.6 s by leading key then
cost, 0.48-0.53 s cheapest row first, and 0.57-0.88 s with the former
Gauss-Jordan loop and its per-column pivot search.

:func:`mod_row_profile` chooses independent rows in Z/p at a fixed point of
s, in one pass that also names, for each row it keeps, a key on which the
kept rows are independent; it needs an image in Z/p: a ``mod_image(p, s)``
method (Scalar, memoized there) or ``numerator``/``denominator`` (Fraction,
int).
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

    The rows, zero entries dropped, are inserted into one :class:`SpanBasis`
    in a stable sort by the sum of :func:`_cost` over their entries, cheapest
    first.  The pivots are its leads below ncols, in increasing order (the
    column rank profile); reduction acts on every key, so augmented columns
    (keys >= ncols) are transformed along.  Row r has entry 1 at pivot r and
    no key below it; ``reduce_up`` clears each pivot column from the rows
    above it, giving the RREF.  Rows led by a key >= ncols come next, then
    empty rows, len(rows) rows in all.
    """
    span = SpanBasis()
    for row in sorted(rows, key=lambda row: sum(
            _cost(v) for v in row.values() if v)):
        span.insert({c: v for c, v in row.items() if v})
    stored = span._rows
    leads = sorted(stored)
    pivots = [p for p in leads if p < ncols]
    out = [stored[p] for p in leads]
    if reduce_up:
        for r in range(len(pivots) - 1, 0, -1):
            p, row = pivots[r], out[r]
            for above in out[:r]:
                f = above.get(p)
                if f is not None:
                    dv_add_scaled(above, row, -f)
    return pivots, out + [{} for _ in range(len(rows) - len(out))]


def rank(rows, ncols) -> int:
    return len(eliminate(rows, ncols, reduce_up=False)[0])


def column_rank_profile(rows, ncols):
    return eliminate(rows, ncols, reduce_up=False)[0]


def mod_image(v):
    """Image of v in Z/MOD_PRIME at s = MOD_POINT.

    None when the denominator of v vanishes there.  Values with a
    ``mod_image(p, s)`` method use it; ints and Fractions have no s.
    """
    if type(v) is int:
        return v % MOD_PRIME
    image = getattr(v, "mod_image", None)
    if image is not None:
        return image(MOD_PRIME, MOD_POINT)
    den = v.denominator % MOD_PRIME
    if not den:
        return None
    return v.numerator * pow(den, -1, MOD_PRIME) % MOD_PRIME


def mod_row_profile(rows, leads=None):
    """Indices of the lowest-index dict rows independent in Z/p, p = MOD_PRIME.

    Rows are taken in order and kept when independent of the kept ones, so
    on the transpose this is the column rank profile.  Returns None when an
    entry of a row it reads has no image (see :func:`mod_image`).  Rows
    independent mod p are independent over the field, so the count is a
    lower bound of the exact rank.

    When ``leads`` is a list, it receives the leading (least) key of each
    kept row once reduced against the rows kept before it, in the order
    kept, each before the next row is read (``rows`` may be a generator that
    looks at ``leads``).  These keys are distinct, and a reduced row is zero
    at every key below its own lead, so on the leading keys, in increasing
    order, the reduced rows are triangular with a nonzero diagonal.  The
    reduction adds to each kept row multiples of the rows kept before it, so
    the kept rows themselves are independent mod p on the leading keys
    alone.
    """
    p = MOD_PRIME
    basis = {}   # leading key -> kept row reduced mod p, leading entry 1
    kept = []
    for idx, row in enumerate(rows):
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
                if leads is not None:
                    leads.append(lead)
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


def kernel_combinations(rows, vectors, one):
    """For each basis vector x of {x : rows @ x = 0}, in the order of
    :func:`nullspace` (len(vectors) unknowns), the dict-vector
    sum_t x_t vectors[t]; yielded one at a time."""
    for vec in nullspace(rows, len(vectors), one):
        yield _combine(vectors, vec)


def staged_kernel(maps, vectors, one):
    """:func:`kernel_combinations` of the stacked images of every map, one
    map at a time: returns the same list, entry for entry.

    ``maps`` are linear maps on dict-vectors.  At first every vector
    survives.  Stage i applies maps[i] to the survivors of the earlier
    stages only, and the kernel combinations of those images are the next
    survivors, each kept with its coefficient vector over ``vectors``; the
    stages stop once none is left, and a map that kills every survivor
    keeps them all.

    The last coefficient vectors span the kernel of the stacked system,
    and they are already its basis from :func:`nullspace`, which is the
    only basis with a unit at each vector's largest key and zeros at the
    other vectors' largest keys.  Every stage keeps that form: a nullspace
    vector has its unit at a free unknown f, zeros at the other free
    unknowns and entries only at pivots below f, so over survivors of that
    form, ordered by largest key, the combination has the largest key of
    survivor f, with a unit there, and zeros at the largest keys of the
    other new survivors.  Each coefficient vector's keys are put back in
    increasing order, as :func:`nullspace` gives them.
    """
    coeffs = [{t: one} for t in range(len(vectors))]
    survivors = [dict(v) for v in vectors]
    for apply in maps:
        if not survivors:
            return []
        rows = rows_from_columns([apply(v) for v in survivors])
        if rows:    # else the map kills every survivor
            coeffs = [dict(sorted(x.items()))
                      for x in kernel_combinations(rows, coeffs, one)]
            survivors = [_combine(vectors, x) for x in coeffs]
    return survivors


def _combine(vectors, x):
    """sum_t x_t vectors[t], x a dict-vector of coefficients."""
    acc = {}
    for t, c in x.items():
        dv_add_scaled(acc, vectors[t], c)
    return acc


def solve_unique(rows, rhs, ncols, one):
    """Solve rows @ x = rhs (dict rows) demanding a unique solution.

    The augmented system is eliminated exactly.  Raises ConventionError
    when it is inconsistent or the solution space has positive dimension.
    """
    zero = one - one
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


class BlockInverse:
    """Inverse of a block-diagonal matrix, solved column by column on read.

    ``blocks`` lists (row indices, column indices) pairs; each block is read
    from ``mat`` in that row and column order (entries outside the blocks
    are not read).  The column order is the elimination order, since each
    echelon row pivots on its least column position: it decides the fill-in
    and the growth of the entries, not the inverse, and a solved column
    lists its keys in that order.  Block (rows, cols) of mat inverts to
    block (cols, rows) of the inverse, which has shape mat.ncols x
    mat.nrows.  Building checks every block: one that is not square raises
    ConventionError, and one whose rank mod a fixed prime at a fixed point
    of s (:func:`mod_row_profile`) is not full is factored exactly at once,
    which raises ConventionError when it is singular.  Another block is
    factored when :meth:`column` first reads a column of it, by one
    :func:`eliminate` of [B | I] without reduction upwards; each column read
    is solved from those echelon rows by back-substitution, and the factor
    is dropped once every column of its block is solved.  The columns
    returned are shared: callers must not change them.
    """

    def __init__(self, mat, blocks, one):
        self.nrows, self.ncols = mat.ncols, mat.nrows
        self._mat, self._one = mat, one
        self._blocks = []
        self._pending = {}      # column of the inverse -> (block, position)
        self._factors = {}      # block -> [echelon rows, columns unsolved]
        self._cols = {}         # column of the inverse -> dict-vector
        for rows, cols in blocks:
            if len(rows) != len(cols):
                raise ConventionError("weight block is not square")
            k = len(self._blocks)
            self._blocks.append((rows, cols))
            self._pending.update((r, (k, b)) for b, r in enumerate(rows))
            profile = mod_row_profile(self._read(k))
            if profile is None or len(profile) < len(cols):
                self._factor(k)

    def column(self, r) -> dict:
        """Column r of the inverse (row r of mat), as a dict-vector."""
        got = self._cols.get(r)
        if got is None:
            if r not in self._pending:
                return {}
            k, b = self._pending.pop(r)
            factor = self._factors.get(k) or self._factor(k)
            got = self._cols[r] = self._solve(k, factor[0], b)
            factor[1] -= 1
            if not factor[1]:
                del self._factors[k]
        return got

    def matvec(self, vec: dict) -> dict:
        """Apply to a column dict-vector {col index: value}."""
        acc = {}
        for r, x in vec.items():
            dv_add_scaled(acc, self.column(r), x)
        return acc

    def _read(self, k):
        """Block k of mat as dict rows keyed by column position."""
        rows, cols = self._blocks[k]
        pos = {r: b for b, r in enumerate(rows)}
        out = [{} for _ in rows]
        for a, c in enumerate(cols):
            for r, v in self._mat.cols.get(c, {}).items():
                if (b := pos.get(r)) is not None:
                    out[b][a] = v
        return out

    def _factor(self, k):
        """Echelon rows of [B | I] for block B = k; row a has pivot a."""
        one = self._one
        n = len(self._blocks[k][1])
        pivots, echelon = eliminate(
            [{**row, n + b: one} for b, row in enumerate(self._read(k))], n,
            reduce_up=False)
        if len(pivots) != n:
            raise ConventionError("singular matrix")
        factor = self._factors[k] = [echelon, n]
        return factor

    def _solve(self, k, echelon, b):
        """B^-1 e_b by back-substitution, keyed by block k's columns."""
        cols = self._blocks[k][1]
        n = len(cols)
        x = [None] * n
        for a in range(n - 1, -1, -1):
            acc = echelon[a].get(n + b)
            for c, v in echelon[a].items():
                if a < c < n and x[c]:
                    t = v * x[c]
                    acc = -t if acc is None else acc - t
            x[a] = acc
        return {c: v for c, v in zip(cols, x) if v}


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
    """Incrementally echelonized span of dict-vectors with sortable keys.

    The basis is in echelon form, not reduced: each stored row has entry 1
    at its leading (least) key, which no other stored row leads with, but a
    row may have entries at later rows' leading keys.  A new row is reduced
    against the stored ones and stored; they are never changed again.
    """

    def __init__(self):
        self._rows = {}  # leading key -> dict-vector, entry 1 there

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
        self._rows[p] = v
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def vectors(self):
        """The echelon basis, copies, in increasing leading key."""
        return [dict(self._rows[k]) for k in sorted(self._rows)]

    def equals(self, other: "SpanBasis") -> bool:
        if self.dim != other.dim:
            return False
        return all(other.contains(v) for v in self.vectors())


# -- sparse matrices ---------------------------------------------------------


class SparseMatrix:
    """Immutable sparse matrix with exact entries, stored by column.

    ``cols`` maps a column index to that column as a dict-vector
    {row: value}; no entry is zero and no column is empty.  The constructor
    keeps the columns it is given, not copied (the caller hands them over),
    and drops empty ones.  Products, transposes and tensor actions fold
    :func:`dv_add_scaled`, which drops cancelled entries; :meth:`add`,
    :meth:`diagonal` and :meth:`from_entries`, the only methods that can
    meet a zero entry, drop it themselves.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {j: col for j, col in cols.items() if col}

    @staticmethod
    def from_entries(nrows, ncols, entries) -> "SparseMatrix":
        """The matrix of ((row, col), value) pairs, as entries_sorted gives."""
        cols = {}
        for (i, j), v in entries:
            if v:
                cols.setdefault(j, {})[i] = v
        return SparseMatrix(nrows, ncols, cols)

    @staticmethod
    def zero(nrows, ncols) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols, {})

    @staticmethod
    def identity(n, one) -> "SparseMatrix":
        return SparseMatrix.diagonal([one] * n)

    @staticmethod
    def diagonal(values) -> "SparseMatrix":
        n = len(values)
        return SparseMatrix(n, n, {i: {i: v} for i, v in enumerate(values)
                                   if v})

    def row_dicts(self):
        """Rows as dict-vectors {col: value}, one per row."""
        rows = self.transpose().cols
        return [rows.get(i, {}) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.cols == other.cols)

    def entry(self, i, j):
        return self.cols.get(j, {}).get(i)

    def column(self, j) -> dict:
        """Column j as a dict-vector (shared: callers must not change it)."""
        return self.cols.get(j, {})

    def entries_sorted(self):
        return sorted(((i, j), v) for j, col in self.cols.items()
                      for i, v in col.items())

    def scale(self, c) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, {
            j: {i: c * v for i, v in col.items()}
            for j, col in self.cols.items()} if c else {})

    def add(self, other) -> "SparseMatrix":
        out = dict(self.cols)
        for j, col in other.cols.items():
            out[j] = acc = dict(out.get(j, {}))
            for i, v in col.items():
                w = acc.get(i)
                w = v if w is None else w + v
                if w:
                    acc[i] = w
                else:
                    del acc[i]
        return SparseMatrix(self.nrows, self.ncols, out)

    def sub(self, other) -> "SparseMatrix":
        return self.add(other.scale(-1))

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return SparseMatrix(self.nrows, other.ncols, {
            j: self.matvec(col) for j, col in other.cols.items()})

    def matvec(self, vec: dict) -> dict:
        """Apply to a column dict-vector {col index: value}."""
        cols = self.cols
        acc = {}
        for j, c in vec.items():
            col = cols.get(j)
            if col is not None:
                dv_add_scaled(acc, col, c)
        return acc

    def transpose(self) -> "SparseMatrix":
        rows = {}
        for j, col in self.cols.items():
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        return SparseMatrix(self.ncols, self.nrows, rows)

    def power(self, n: int, one) -> "SparseMatrix":
        if n < 0:
            raise ValueError("negative power")
        acc = SparseMatrix.identity(self.nrows, one)
        for _ in range(n):
            acc = acc.mul(self)
        return acc
