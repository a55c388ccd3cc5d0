"""Root-system combinatorics, the irreducible flag catalog, spherical weights.

Conventions: Humphreys node numbering throughout (B_n has its short root at
node n, C_n its long root at node n, D_n forks at nodes n-1 and n, E-series
has the branch node labelled 2 attached to node 4).  The Cartan matrix entry
is a_ij = (alpha_i_vee, alpha_j), i.e. the row index carries the coroot.  The
symmetric form (.,.) is normalized so every shortest simple root has square
length 2, so the symmetrizers d_i = (alpha_i, alpha_i)/2 are 1, 2 or 3.

Weights are integer tuples in the fundamental-weight basis; roots are integer
tuples in the simple-root basis.  All exact rational data (inverse Cartan
matrix, the pairing (.,.) on the weight lattice) uses Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import CatalogError, ConventionError, DomainError
from .linalg import invert_dense

Weight = tuple  # integer coordinates in the fundamental-weight basis
Root = tuple    # integer coordinates in the simple-root basis

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 2, "D": 4}


@dataclass(frozen=True, order=True)
class LieType:
    series: str
    rank: int

    def __post_init__(self):
        s, n = self.series, self.rank
        if s in _RANK_BOUNDS:
            if n < _RANK_BOUNDS[s]:
                raise DomainError(f"{s}{n}: rank too small for series {s}")
        elif s == "E":
            if n not in (6, 7):
                raise DomainError(f"E{n}: only E6 and E7 are supported")
        else:
            raise DomainError(f"unknown series {s!r}")

    def __str__(self):
        return f"{self.series}{self.rank}"

    @staticmethod
    def parse(text: str) -> "LieType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise DomainError(f"bad Lie type {text!r}")
        return LieType(text[0].upper(), int(text[1:]))


def _edges(lie: LieType):
    """List of (i, j, a_ij, a_ji) for bonded node pairs, 1-based."""
    s, n = lie.series, lie.rank
    if s == "A":
        return [(i, i + 1, -1, -1) for i in range(1, n)]
    if s == "B":
        out = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        out.append((n - 1, n, -1, -2))
        return out
    if s == "C":
        out = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        out.append((n - 1, n, -2, -1))
        return out
    if s == "D":
        out = [(i, i + 1, -1, -1) for i in range(1, n - 2)]
        out.append((n - 2, n - 1, -1, -1))
        out.append((n - 2, n, -1, -1))
        return out
    chain = [(1, 3), (3, 4), (4, 5), (5, 6)] + ([(6, 7)] if n == 7 else [])
    return [(i, j, -1, -1) for i, j in chain] + [(2, 4, -1, -1)]


@lru_cache(maxsize=None)
def cartan_matrix(lie: LieType):
    """Cartan matrix a_ij = (alpha_i_vee, alpha_j) as a tuple of int tuples."""
    n = lie.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j, aij, aji in _edges(lie):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def symmetrizers(lie: LieType):
    """d_i = (alpha_i, alpha_i)/2, normalized so shortest roots give 1."""
    s, n = lie.series, lie.rank
    if s == "B":
        return tuple([2] * (n - 1) + [1])
    if s == "C":
        return tuple([1] * (n - 1) + [2])
    return tuple([1] * n)


@lru_cache(maxsize=None)
def _inverse_cartan(lie: LieType):
    n = lie.rank
    inv = invert_dense([{j: Fraction(x) for j, x in enumerate(row) if x}
                        for row in cartan_matrix(lie)], Fraction(1))
    return tuple(tuple(row.get(j, Fraction(0)) for j in range(n))
                 for row in inv)


def root_to_weight(lie: LieType, root: Root) -> Weight:
    """Simple-root coordinates -> fundamental-weight coordinates."""
    a = cartan_matrix(lie)
    n = lie.rank
    return tuple(sum(a[i][j] * root[j] for j in range(n)) for i in range(n))


def weight_to_root(lie: LieType, lam: Weight):
    """Fundamental-weight coordinates -> simple-root coordinates (Fractions)."""
    ainv = _inverse_cartan(lie)
    n = lie.rank
    return tuple(sum(ainv[i][j] * lam[j] for j in range(n)) for i in range(n))


def weight_to_root_int(lie: LieType, lam: Weight) -> Root:
    c = weight_to_root(lie, lam)
    out = []
    for x in c:
        if x.denominator != 1:
            raise DomainError(f"{lam} is not in the root lattice")
        out.append(int(x))
    return tuple(out)


def bilinear(lie: LieType, lam: Weight, mu: Weight) -> Fraction:
    """The invariant form (lam, mu), both in fundamental-weight coordinates."""
    d = symmetrizers(lie)
    c = weight_to_root(lie, mu)
    return sum((Fraction(lam[j]) * d[j] * c[j] for j in range(lie.rank)),
               Fraction(0))


def bilinear_form(lie: LieType, lam, mu, kinds=("weight", "weight")) -> Fraction:
    """(lam, mu) with each argument tagged as 'weight' or 'root' coordinates."""
    if len(lam) != lie.rank or len(mu) != lie.rank:
        raise DomainError("coordinate length does not match the rank")
    lw = root_to_weight(lie, lam) if kinds[0] == "root" else lam
    mw = root_to_weight(lie, mu) if kinds[1] == "root" else mu
    return bilinear(lie, lw, mw)


@lru_cache(maxsize=None)
def lattice_denominator(lie: LieType) -> int:
    """Smallest L with (P, P) contained in (1/L)Z; q-powers live in Z[s**(1/L)]."""
    d = symmetrizers(lie)
    ainv = _inverse_cartan(lie)
    n = lie.rank
    out = 1
    for i in range(n):
        for j in range(n):
            out = lcm(out, (d[i] * ainv[i][j]).denominator)
    return out


def reflect_root(lie: LieType, i: int, root: Root) -> Root:
    """Simple reflection s_i on simple-root coordinates (i is 1-based)."""
    a = cartan_matrix(lie)
    c = sum(a[i - 1][j] * root[j] for j in range(lie.rank))
    out = list(root)
    out[i - 1] -= c
    return tuple(out)


def reflect_weight(lie: LieType, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i on fundamental-weight coordinates (1-based i)."""
    a = cartan_matrix(lie)
    c = lam[i - 1]
    return tuple(lam[k] - c * a[k][i - 1] for k in range(lie.rank))


@lru_cache(maxsize=None)
def positive_roots(lie: LieType):
    """All positive roots, ordered by (height, coordinates)."""
    n = lie.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(1, n + 1):
                g = reflect_root(lie, i, beta)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    pos = [r for r in seen if all(c >= 0 for c in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return tuple(pos)


@lru_cache(maxsize=None)
def longest_word(lie: LieType):
    """A reduced word for w0 by the descent algorithm on rho (deterministic)."""
    n = lie.rank
    mu = tuple([1] * n)
    applied = []
    npos = len(positive_roots(lie))
    for _ in range(npos):
        i = next((k + 1 for k in range(n) if mu[k] > 0), None)
        if i is None:
            break
        applied.append(i)
        mu = reflect_weight(lie, i, mu)
    if any(c != -1 for c in mu) or len(applied) != npos:
        raise DomainError("descent algorithm failed")  # pragma: no cover
    return tuple(reversed(applied))


def is_reduced_for_w0(lie: LieType, word) -> bool:
    if len(word) != len(positive_roots(lie)):
        return False
    try:
        seq = root_sequence(lie, word, _check=False)
    except DomainError:
        return False
    return set(seq) == set(positive_roots(lie))


def root_sequence(lie: LieType, word, _check=True):
    """beta_r = s_{i_1}...s_{i_{r-1}}(alpha_{i_r}) for a reduced word of w0."""
    n = lie.rank
    seq = []
    for r, ir in enumerate(word):
        beta = tuple(1 if j == ir - 1 else 0 for j in range(n))
        for t in range(r - 1, -1, -1):
            beta = reflect_root(lie, word[t], beta)
        seq.append(beta)
    if _check and set(seq) != set(positive_roots(lie)):
        raise DomainError("word is not a reduced decomposition of w0")
    return tuple(seq)


def w0_on_weight(lie: LieType, lam: Weight) -> Weight:
    mu = lam
    word = longest_word(lie)
    for i in reversed(word):
        mu = reflect_weight(lie, i, mu)
    return mu


def minus_w0(lie: LieType, lam: Weight) -> Weight:
    return tuple(-x for x in w0_on_weight(lie, lam))


def weyl_dim(lie: LieType, lam: Weight) -> int:
    """dim V_lam by the Weyl dimension formula (lam dominant).

    prod_alpha (lam + rho, alpha) / (rho, alpha) in integers: with
    (nu, alpha) = sum_j alpha_j d_j nu_j and rho = (1, ..., 1), the ratio is
    prod_alpha sum_j alpha_j d_j (lam_j + 1) / prod_alpha sum_j alpha_j d_j.
    """
    if any(x < 0 for x in lam):
        raise DomainError(f"{lam} is not dominant")
    d = symmetrizers(lie)
    num = den = 1
    for alpha in positive_roots(lie):
        num *= sum(a * dj * (x + 1) for a, dj, x in zip(alpha, d, lam))
        den *= sum(a * dj for a, dj in zip(alpha, d))
    dim, rem = divmod(num, den)
    if rem:
        raise DomainError("Weyl dimension came out non-integral")
    return dim


def tensor_multiplicities(lie: LieType, lam: Weight, mu: Weight) -> dict:
    """{nu: multiplicity of V_nu in V_lam (x) V_mu} by Brauer-Klimyk.

    V_lam (x) V_mu = sum over the weights eta of V_mu, with multiplicity
    m_mu(eta), of sign(w) V_nu, nu = w(lam + eta + rho) - rho, where w takes
    lam + eta + rho into the dominant chamber; a weight on a wall (some
    coordinate 0 on the way) contributes nothing (Klimyk 1968; Humphreys,
    Introduction to Lie Algebras, section 24).  The sum is symmetric in the
    factors, so it runs over the weights of the smaller one.  Integers only;
    the keys come by (sum(nu), nu), multiplicities are positive.
    """
    if weyl_dim(lie, mu) > weyl_dim(lie, lam):
        lam, mu = mu, lam
    out = {}
    for eta, m in weight_multiplicities(lie, mu).items():
        x = tuple(a + b + 1 for a, b in zip(lam, eta))
        sign = 1
        while True:
            i = next((k for k, c in enumerate(x) if c <= 0), None)
            if i is None or not x[i]:
                break
            x = reflect_weight(lie, i + 1, x)
            sign = -sign
        if i is None:
            nu = tuple(c - 1 for c in x)
            out[nu] = out.get(nu, 0) + sign * m
    return {nu: out[nu] for nu in sorted(out, key=lambda w: (sum(w), w))
            if out[nu]}


def weight_multiplicities(lie: LieType, lam: Weight) -> dict:
    """Multiplicities of the weights of V_lam (lam dominant) by Freudenthal.

    Pure integer arithmetic in root-depth coordinates c, where the weight is
    nu = lam - sum_j c_j alpha_j.  With (alpha_i, alpha_j) = d_i a_ij and
    (lam + rho, alpha_j) = d_j (lam_j + 1), the formula reads

        (2 sum_j c_j d_j (lam_j + 1) - sum_ij c_i c_j d_i a_ij) m(nu)
            = 2 sum_{alpha > 0, k >= 1} (nu + k alpha, alpha) m(nu + k alpha)

    with (nu, alpha) = sum_j alpha_j d_j nu_j.  It is evaluated at the
    dominant weights mu <= lam only.  Those are reached from lam by
    subtracting positive roots while staying dominant: any two dominant
    weights mu < mu' are joined by such a chain (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136, 1998).  Multiplicities are
    W-invariant, so the orbit of each mu gets m(mu); it is filled by simple
    reflections s_i at the weights with a positive coordinate i, which
    reach every weight of the orbit from its dominant one (Humphreys,
    Introduction to Lie Algebras and Representation Theory, sections 13.2,
    21.2 and 22.3; Moody and Patera, "Fast recursion formula for weight
    multiplicities", Bull. AMS 7, 1982).  The dominant weights are taken
    by depth sum_j c_j, and the dominant conjugate of each nu + k alpha on
    the right lies above nu + k alpha, so its orbit is already filled.
    Returns {nu: m(nu)} for the weights with m(nu) > 0; a non-integral
    quotient raises ConventionError.

    The dict's order is a contract: lam first, then by depth sum_j c_j, and
    within one depth by the depth vector c.  So every weight nu + alpha_j
    of V_lam comes before nu, and :func:`qflag.reps.build_irreducible`
    numbers its basis in this order.
    """
    if len(lam) != lie.rank or any(x < 0 for x in lam):
        raise DomainError(f"{lam} is not a dominant weight for {lie}")
    n = lie.rank
    lam = tuple(lam)
    a = cartan_matrix(lie)
    d = symmetrizers(lie)
    form = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    top = [d[j] * (lam[j] + 1) for j in range(n)]
    dvec = weight_to_root_int(
        lie, tuple(x - y for x, y in zip(lam, w0_on_weight(lie, lam))))
    # depth vectors are keyed by one integer in mixed radix (dvec_j + 1)
    radix = [1] * n
    for j in range(1, n):
        radix[j] = radix[j - 1] * (dvec[j - 1] + 1)
    # per positive root: itself in weight coordinates, support, key step,
    # (lam, alpha), (alpha_i, alpha) for each i, and (alpha, alpha)
    roots = []
    for alpha in positive_roots(lie):
        cols = [sum(form[i][j] * alpha[j] for j in range(n)) for i in range(n)]
        roots.append((alpha, root_to_weight(lie, alpha),
                      [(i, x) for i, x in enumerate(alpha) if x],
                      sum(x * r for x, r in zip(alpha, radix)),
                      sum(alpha[j] * d[j] * lam[j] for j in range(n)),
                      cols, sum(alpha[i] * cols[i] for i in range(n))))
    # the dominant weights <= lam, with their depth vectors
    dominant = {lam: tuple([0] * n)}
    todo = [lam]
    for mu in todo:
        c = dominant[mu]
        for alpha, wt, *_ in roots:
            nu = tuple(x - y for x, y in zip(mu, wt))
            if min(nu) >= 0 and nu not in dominant:
                dominant[nu] = tuple(x + y for x, y in zip(c, alpha))
                todo.append(nu)
    mult = {}        # key of c -> m, over every weight found so far
    found = []       # (c, nu, m)
    for mu, c in sorted(dominant.items(), key=lambda e: (sum(e[1]), e[1])):
        if mu == lam:
            m = 1
        else:
            denom = 2 * sum(c[j] * top[j] for j in range(n)) - sum(
                c[i] * c[j] * form[i][j] for i in range(n) for j in range(n))
            key = sum(x * r for x, r in zip(c, radix))
            acc = 0
            for _, _, supp, step, lam_pair, cols, norm in roots:
                kmax = min(c[i] // x for i, x in supp)
                pair = None
                for k in range(1, kmax + 1):
                    m_up = mult.get(key - k * step)
                    if m_up:
                        if pair is None:     # (mu, alpha)
                            pair = lam_pair - sum(
                                c[i] * cols[i] for i in range(n))
                        acc += m_up * (pair + k * norm)
            m, rem = divmod(2 * acc, denom)
            if rem or m < 0:
                raise ConventionError(
                    f"Freudenthal: non-integral multiplicity at depth {c}")
            if not m:
                continue
        # s_i nu = nu - nu_i alpha_i adds nu_i to depth i
        orbit = [(c, mu)]
        seen = {c}
        for cw, w in orbit:
            for i, x in enumerate(w):
                if x > 0:
                    ci = cw[:i] + (cw[i] + x,) + cw[i + 1:]
                    if ci not in seen:
                        seen.add(ci)
                        orbit.append((ci, tuple(w[k] - x * a[k][i]
                                                for k in range(n))))
        for cw, w in orbit:
            mult[sum(x * r for x, r in zip(cw, radix))] = m
            found.append((cw, w, m))
    found.sort(key=lambda e: (sum(e[0]), e[0]))
    return {nu: m for _, nu, m in found}


def dominant_weights_up_to(lie: LieType, depth: int):
    """Dominant weights with coordinate sum <= depth, sorted by (sum, coords)."""
    n = lie.rank
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], depth)
    out.sort(key=lambda w: (sum(w), w))
    return out


# -- the irreducible flag catalog --------------------------------------------


@dataclass(frozen=True)
class FlagSpec:
    """An irreducible quantum flag manifold: a Lie type and its crossed node."""
    lie: LieType
    crossed: int

    def __post_init__(self):
        s, n, x = self.lie.series, self.lie.rank, self.crossed
        ok = (
            (s == "A" and 1 <= x <= n)
            or (s == "B" and x == 1)
            or (s == "C" and x == n)
            or (s == "D" and x in (1, n - 1, n))
            or (s == "E" and n == 6 and x in (1, 6))
            or (s == "E" and n == 7 and x == 7)
        )
        if not ok:
            raise CatalogError(f"{self.lie}/{x} is not an irreducible flag")

    def __str__(self):
        return f"{self.lie}/{self.crossed}"

    @staticmethod
    def parse(text: str) -> "FlagSpec":
        text = text.strip()
        if "/" not in text:
            raise CatalogError(f"bad flag specifier {text!r}, expected e.g. A3/2")
        t, _, x = text.partition("/")
        if not x.isdigit():
            raise CatalogError(f"bad crossed node in {text!r}")
        return FlagSpec(LieType.parse(t), int(x))

    @property
    def uncrossed(self):
        """The node subset S = Pi minus the crossed node (1-based)."""
        return tuple(i for i in range(1, self.lie.rank + 1) if i != self.crossed)

    @property
    def crossed_weight(self):
        """The crossed fundamental weight w_x, in the fundamental basis."""
        return tuple(1 if t == self.crossed - 1 else 0
                     for t in range(self.lie.rank))

    def name(self) -> str:
        s, n, x = self.lie.series, self.lie.rank, self.crossed
        if s == "A":
            return f"Gr({n + 1},{x})"
        if s == "B":
            return f"Q({2 * n + 1})"
        if s == "C":
            return f"L({n})"
        if s == "D":
            return f"Q({2 * n})" if x == 1 else f"S({n})"
        return "OP2" if n == 6 else "F"


def _fw(n, *pairs):
    out = [0] * n
    for idx, c in pairs:
        out[idx - 1] += c
    return tuple(out)


def spherical_weights(flag: FlagSpec):
    """Generators of the monoid of highest weights carrying invariants.

    Instantiated per rank; at small rank a generically-named weight can fold
    (e.g. the B-series second generator e1+e2 equals 2w2 at rank 2, and the
    Grassmannian pair w_j + w_{n+1-j} folds to 2w_j at the middle node).
    """
    s, n, x = flag.lie.series, flag.lie.rank, flag.crossed
    if s == "A":
        return tuple(_fw(n, (j, 1), (n + 1 - j, 1))
                     for j in range(1, min(x, n + 1 - x) + 1))
    if s == "B":
        second = _fw(n, (2, 1)) if n >= 3 else _fw(n, (2, 2))
        return (_fw(n, (1, 2)), second)
    if s == "C":
        return tuple(_fw(n, (j, 2)) for j in range(1, n + 1))
    if s == "D":
        if x == 1:
            return (_fw(n, (1, 2)), _fw(n, (2, 1)))
        evens = [_fw(n, (j, 1)) for j in range(2, n - 1, 2)]
        if n % 2 == 0:
            return tuple(evens + [_fw(n, (x, 2))])
        return tuple(evens + [_fw(n, (n - 1, 1), (n, 1))])
    if n == 6:
        return (_fw(n, (1, 1), (6, 1)), _fw(n, (2, 1)))
    return (_fw(n, (1, 1)), _fw(n, (6, 1)), _fw(n, (7, 2)))


def catalog(max_rank: int = 7):
    """Catalog entries as dicts, deterministic order."""
    flags = []
    for n in range(1, max_rank + 1):
        for x in range(1, n + 1):
            flags.append(FlagSpec(LieType("A", n), x))
    for n in range(2, max_rank + 1):
        flags.append(FlagSpec(LieType("B", n), 1))
    for n in range(2, max_rank + 1):
        flags.append(FlagSpec(LieType("C", n), n))
    for n in range(4, max_rank + 1):
        for x in (1, n - 1, n):
            flags.append(FlagSpec(LieType("D", n), x))
    if max_rank >= 6:
        flags.append(FlagSpec(LieType("E", 6), 1))
        flags.append(FlagSpec(LieType("E", 6), 6))
    if max_rank >= 7:
        flags.append(FlagSpec(LieType("E", 7), 7))
    return [
        {
            "series": f.lie.series,
            "rank": f.lie.rank,
            "crossed": f.crossed,
            "name": f.name(),
            "spherical_weights": [list(w) for w in spherical_weights(f)],
        }
        for f in flags
    ]


def monoid_truncation(generators, depth: int):
    """All nonneg-integer combinations of generators with coord sum <= depth."""
    out = {tuple([0] * len(generators[0]))}
    frontier = set(out)
    while frontier:
        nxt = set()
        for w in frontier:
            for g in generators:
                v = tuple(a + b for a, b in zip(w, g))
                if sum(v) <= depth and v not in out:
                    out.add(v)
                    nxt.add(v)
        frontier = nxt
    return sorted(out, key=lambda w: (sum(w), w))
