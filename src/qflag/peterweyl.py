"""The quantum coordinate algebra in its Peter-Weyl basis.

An algebra element is a finite map (lam, row, col) -> scalar, where lam runs
over dominant weights, col indexes the canonical basis of V_lam (the vector
slot) and row indexes the dual basis (the functional slot).  The product of
two basis elements is a matrix coefficient of the tensor module, re-expanded
through the Clebsch-Gordan embeddings on the functional slot and projections
on the vector slot.  Structure constants per weight pair are cached in memory
and, in symbolic mode, persisted one JSON file per pair (atomic write,
self-describing header; a stale or foreign file is treated as a miss).

Action conventions: act_v lets a generator word act on the vector slot
through the module matrices (the natural left action); act_f is the right
action on the functional slot, i.e. row vectors transform by the transposed
matrices.  Both are exercised against each other by the invariant/grading
checks downstream.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from . import cartan
from .cartan import FlagSpec, LieType
from .errors import ConventionError, DomainError
from .linalg import (SparseMatrix, dv_add_scaled, nullspace,
                     rows_from_columns, solve_unique)
from .reps import (CGDecomposition, CGSummand, LusztigOperators, ModuleData,
                   build_irreducible, context_for, decompose, dual_pairing,
                   tensor)

CACHE_FORMAT = 1


class PWElement:
    """Finite linear combination of Peter-Weyl basis coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PWElement) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        dv_add_scaled(out, other.coeffs, 1)
        return PWElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        dv_add_scaled(out, other.coeffs, -1)
        return PWElement(out)

    def scale(self, c) -> "PWElement":
        if not c:
            return PWElement()
        return PWElement({k: c * v for k, v in self.coeffs.items()})

    def blocks(self):
        return sorted({k[0] for k in self.coeffs})

    def block(self, lam) -> dict:
        return {k: v for k, v in self.coeffs.items() if k[0] == lam}

    def __repr__(self):
        if not self.coeffs:
            return "PWElement(0)"
        parts = [f"{k}:{v}" for k, v in list(self.items())[:4]]
        more = "..." if len(self.coeffs) > 4 else ""
        return f"PWElement({', '.join(parts)}{more})"


@dataclass(frozen=True)
class Generators:
    flag: FlagSpec
    lam: tuple            # the crossed fundamental weight
    lam_bar: tuple        # its dual -w0(lam)
    z: tuple              # z_1..z_N as PWElements
    zbar: tuple           # normalized so sum(zbar_i z_i) = 1
    normalization: object  # the pre-normalization value of sum(zbar_i z_i)


@dataclass(frozen=True)
class GradedSlice:
    """Truncated basis of a line-module graded component.

    blocks maps a dominant weight lam to the tuple of vector-slot columns
    (dict-vectors over the basis of V_lam) spanning the slice there; every
    functional-slot index pairs with each column, so the slice dimension is
    sum(dim V_lam * len(columns)).
    """
    flag: FlagSpec
    k: int
    depth: int
    blocks: tuple         # ((lam, (col dict-vec, ...)), ...)
    dims: tuple           # dim V_lam per block

    @property
    def dim(self) -> int:
        return sum(d * len(cols) for (_, cols), d in zip(self.blocks, self.dims))


class PWAlgebra:
    """Workspace for one quantized coordinate algebra O_q(G)."""

    def __init__(self, lie: LieType, ctx=None, cache_dir=None, guard=64,
                 allow_e=False):
        self.lie = lie
        self.ctx = ctx if ctx is not None else context_for(lie)
        if self.ctx.L != cartan.lattice_denominator(lie):
            raise DomainError("context does not match the type's exponent lattice")
        self.cache_dir = cache_dir
        self.guard = guard
        self.allow_e = allow_e
        self._modules = {}
        self._ops = {}
        self._cg = {}
        self._pairings = {}
        self._gens = {}
        self._zero_weight = tuple([0] * lie.rank)

    # -- module bookkeeping --------------------------------------------------

    def module(self, lam) -> ModuleData:
        lam = tuple(lam)
        m = self._modules.get(lam)
        if m is None:
            m = build_irreducible(self.ctx, self.lie, lam, guard=self.guard,
                                  allow_e=self.allow_e)
            self._modules[lam] = m
        return m

    def ops(self, lam) -> LusztigOperators:
        lam = tuple(lam)
        o = self._ops.get(lam)
        if o is None:
            o = LusztigOperators(self.module(lam))
            self._ops[lam] = o
        return o

    def pairing(self, lam) -> SparseMatrix:
        """Pairing matrix between V_{-w0 lam} and the dual of V_lam."""
        lam = tuple(lam)
        p = self._pairings.get(lam)
        if p is None:
            lam_bar = cartan.minus_w0(self.lie, lam)
            p = dual_pairing(self.module(lam_bar), self.module(lam))
            self._pairings[lam] = p
        return p

    # -- structure constants ---------------------------------------------------

    def cg(self, lam, mu) -> CGDecomposition:
        key = (tuple(lam), tuple(mu))
        got = self._cg.get(key)
        if got is not None:
            return got[0]
        cg = self._load_cg(*key)
        if cg is None:
            t_mod = tensor(self.module(lam), self.module(mu))
            cg = decompose(t_mod, self.module)
            self._store_cg(key[0], key[1], cg)
        maps = []
        for s in cg.summands:
            row_map = {}
            for (tr, rr), v in s.emb.data.items():
                row_map.setdefault(tr, []).append((rr, v))
            col_map = {}
            for (rr, tc), v in s.proj.data.items():
                col_map.setdefault(tc, []).append((rr, v))
            maps.append((s.nu, row_map, col_map))
        self._cg[key] = (cg, maps)
        return cg

    def _cg_maps(self, lam, mu):
        self.cg(lam, mu)
        return self._cg[(tuple(lam), tuple(mu))][1]

    def _cache_path(self, lam, mu):
        name = "cg_{}_L{}_v{}_{}_{}.json".format(
            self.lie, self.ctx.L, CACHE_FORMAT,
            "-".join(map(str, lam)), "-".join(map(str, mu)))
        return os.path.join(self.cache_dir, name)

    def _store_cg(self, lam, mu, cg: CGDecomposition):
        if self.cache_dir is None or not self.ctx.symbolic:
            return
        doc = {
            "format": CACHE_FORMAT,
            "kind": "cg",
            "type": str(self.lie),
            "L": self.ctx.L,
            "s_meaning": f"s = q^(1/{self.ctx.L})",
            "lambda": list(lam),
            "mu": list(mu),
            "summands": [
                {
                    "nu": list(s.nu),
                    "emb": [[r, c, str(v)] for (r, c), v in s.emb.entries_sorted()],
                    "proj": [[r, c, str(v)] for (r, c), v in s.proj.entries_sorted()],
                }
                for s in cg.summands
            ],
        }
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(lam, mu)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _load_cg(self, lam, mu):
        """The cached decomposition, or None on a miss.

        A file that is unreadable, foreign, or malformed counts as a miss:
        wrong or mistyped keys, unparsable scalars, indices outside the
        matrix shapes, a summand weight that is not dominant and below
        lam + mu, or summand dims not adding up to dim V_lam * dim V_mu.
        """
        if self.cache_dir is None or not self.ctx.symbolic:
            return None
        path = self._cache_path(lam, mu)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if (not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT
                or doc.get("kind") != "cg" or doc.get("type") != str(self.lie)
                or doc.get("L") != self.ctx.L or doc.get("lambda") != list(lam)
                or doc.get("mu") != list(mu)
                or not isinstance(doc.get("summands"), list)):
            return None
        top = tuple(a + b for a, b in zip(lam, mu))
        t_dim = self.module(lam).dim * self.module(mu).dim
        summands = []
        total = 0
        for s in doc["summands"]:
            nu = s.get("nu") if isinstance(s, dict) else None
            if not (isinstance(nu, list) and len(nu) == self.lie.rank
                    and all(type(x) is int and x >= 0 for x in nu)):
                return None
            try:
                depth = cartan.weight_to_root_int(
                    self.lie, tuple(a - b for a, b in zip(top, nu)))
            except DomainError:
                return None
            if any(x < 0 for x in depth):
                return None
            nu = tuple(nu)
            d = self.module(nu).dim
            emb = self._parse_entries(s.get("emb"), t_dim, d)
            proj = self._parse_entries(s.get("proj"), d, t_dim)
            if emb is None or proj is None:
                return None
            summands.append(CGSummand(nu, emb, proj))
            total += d
        if total != t_dim:
            return None
        return CGDecomposition(tuple(summands))

    def _parse_entries(self, entries, nrows, ncols):
        """SparseMatrix from cached [row, col, scalar text] triples, or None."""
        if not isinstance(entries, list):
            return None
        data = {}
        parse = self.ctx.parse
        try:
            for r, c, text in entries:
                if not (type(r) is int and type(c) is int
                        and 0 <= r < nrows and 0 <= c < ncols
                        and isinstance(text, str)):
                    return None
                data[(r, c)] = parse(text)
        except (TypeError, ValueError, ZeroDivisionError):
            return None
        return SparseMatrix(nrows, ncols, data)

    # -- Hopf-algebra operations ----------------------------------------------

    def one(self) -> PWElement:
        self.module(self._zero_weight)
        return PWElement({(self._zero_weight, 0, 0): self.ctx.one})

    def basis_element(self, lam, row, col, coeff=None) -> PWElement:
        lam = tuple(lam)
        m = self.module(lam)
        if not (0 <= row < m.dim and 0 <= col < m.dim):
            raise DomainError("basis index out of range")
        return PWElement({(lam, row, col): coeff if coeff is not None
                          else self.ctx.one})

    def multiply(self, a: PWElement, b: PWElement) -> PWElement:
        out = {}
        zero_w = self._zero_weight
        for (l1, r1, c1), v1 in a.coeffs.items():
            for (l2, r2, c2), v2 in b.coeffs.items():
                v12 = v1 * v2
                if l1 == zero_w:
                    key = (l2, r2, c2)
                    out[key] = out.get(key, self.ctx.zero) + v12
                    continue
                if l2 == zero_w:
                    key = (l1, r1, c1)
                    out[key] = out.get(key, self.ctx.zero) + v12
                    continue
                d2 = self.module(l2).dim
                tr = r1 * d2 + r2
                tc = c1 * d2 + c2
                for nu, row_map, col_map in self._cg_maps(l1, l2):
                    rws = row_map.get(tr)
                    if not rws:
                        continue
                    cls = col_map.get(tc)
                    if not cls:
                        continue
                    for rr, ev in rws:
                        vv = v12 * ev
                        for ss, pv in cls:
                            key = (nu, rr, ss)
                            out[key] = out.get(key, self.ctx.zero) + vv * pv
        return PWElement(out)

    def multiply_all(self, elems) -> PWElement:
        acc = self.one()
        for e in elems:
            acc = self.multiply(acc, e)
        return acc

    def counit(self, a: PWElement):
        acc = self.ctx.zero
        for (_, r, c), v in a.coeffs.items():
            if r == c:
                acc = acc + v
        return acc

    def act_v(self, gen, a: PWElement) -> PWElement:
        """Left action on the vector slot.

        gen is a single generator tag ("E"|"F"|"K"|"Kinv", i), a sequence of
        such tags (a word, applied rightmost first), a per-block matrix map,
        or a callable lam -> matrix (used for root-vector operators).
        """
        if isinstance(gen, (list, tuple)) and gen and \
                isinstance(gen[0], (list, tuple)):
            for g in reversed(gen):
                a = self.act_v(g, a)
            return a
        out = {}
        for (lam, r, c), v in a.coeffs.items():
            mat = self._resolve(gen, lam)
            for r2, mv in mat.by_col().get(c, ()):
                key = (lam, r, r2)
                out[key] = out.get(key, self.ctx.zero) + v * mv
        return PWElement(out)

    def act_f(self, gen, a: PWElement) -> PWElement:
        """Right action on the functional slot (transposed matrices).

        Accepts the same generator descriptions as act_v; a word acts
        leftmost first, as befits a right action.
        """
        if isinstance(gen, (list, tuple)) and gen and \
                isinstance(gen[0], (list, tuple)):
            for g in gen:
                a = self.act_f(g, a)
            return a
        out = {}
        rows_cache = {}
        for (lam, r, c), v in a.coeffs.items():
            mat = self._resolve(gen, lam)
            rows = rows_cache.get(lam)
            if rows is None:
                rows = {}
                for (rr, cc), mv in mat.data.items():
                    rows.setdefault(rr, []).append((cc, mv))
                rows_cache[lam] = rows
            for s, mv in rows.get(r, ()):
                key = (lam, s, c)
                out[key] = out.get(key, self.ctx.zero) + v * mv
        return PWElement(out)

    def _resolve(self, gen, lam) -> SparseMatrix:
        if isinstance(gen, tuple):
            kind, i = gen
            return self.module(lam).gen_matrix(kind, i)
        if callable(gen):
            return gen(lam)
        return gen[lam]

    # -- invariants, generators, grading ---------------------------------------

    def invariant_subspace(self, lam, flag: FlagSpec, semisimple: bool = True):
        """Vector-slot invariants under the Levi parabolic subalgebra.

        semisimple=True keeps only the conditions for the semisimple part
        (E_j, F_j, K_j for uncrossed j); semisimple=False additionally asks
        full torus invariance, i.e. weight zero.
        """
        lam = tuple(lam)
        m = self.module(lam)
        snodes = flag.uncrossed
        if semisimple:
            idxs = [t for t, w in enumerate(m.weights)
                    if all(w[j - 1] == 0 for j in snodes)]
        else:
            idxs = [t for t, w in enumerate(m.weights)
                    if all(x == 0 for x in w)]
        return self._levi_kernel(m, snodes, idxs)

    def _levi_kernel(self, m: ModuleData, snodes, idxs):
        if not idxs:
            return []
        rows = []
        for j in snodes:
            for mat in (m.e_mats[j - 1], m.f_mats[j - 1]):
                cols = mat.by_col()
                rows.extend(rows_from_columns([dict(cols.get(c, ()))
                                               for c in idxs]))
        basis = nullspace(rows, len(idxs), self.ctx.one)
        return [{idxs[t]: v for t, v in vec.items()} for vec in basis]

    def generators(self, flag: FlagSpec) -> Generators:
        got = self._gens.get(flag)
        if got is not None:
            return got
        if flag.lie != self.lie:
            raise DomainError("flag is over a different type")
        lam = tuple(1 if t == flag.crossed - 1 else 0 for t in range(self.lie.rank))
        lam_bar = cartan.minus_w0(self.lie, lam)
        v = self.module(lam)
        pair = self.pairing(lam)
        hw = v.highest_index
        z = tuple(self.basis_element(lam, i, hw) for i in range(v.dim))
        # w_low solves pairing . w_low = delta_{hw}: the vector of V_{lam_bar}
        # carried to the functional dual to the highest weight vector of V_lam
        rhs = [self.ctx.one if r == hw else self.ctx.zero for r in range(v.dim)]
        w_low = solve_unique(pair.row_dicts(), rhs, v.dim, self.ctx.one)
        zbar = []
        for j in range(v.dim):
            coeffs = {}
            for t in range(v.dim):
                pj = pair.entry(j, t)
                if not pj:
                    continue
                for u, xu in enumerate(w_low):
                    if xu:
                        key = (lam_bar, t, u)
                        coeffs[key] = coeffs.get(key, self.ctx.zero) + pj * xu
            zbar.append(PWElement(coeffs))
        s = PWElement()
        for zb, zz in zip(zbar, z):
            s = s + self.multiply(zb, zz)
        bad = [k for k in s.coeffs if k != (self._zero_weight, 0, 0)]
        if bad:
            raise ConventionError(
                f"sum(zbar_i z_i) is not scalar; stray coefficients at {bad[:3]}")
        norm = s.coeffs.get((self._zero_weight, 0, 0))
        if not norm:
            raise ConventionError("sum(zbar_i z_i) vanished; cannot normalize")
        inv = self.ctx.one / norm
        zbar = tuple(zb.scale(inv) for zb in zbar)
        gens = Generators(flag=flag, lam=lam, lam_bar=lam_bar, z=z, zbar=zbar,
                          normalization=norm)
        self._gens[flag] = gens
        return gens

    def graded_component(self, flag: FlagSpec, k: int, depth: int) -> GradedSlice:
        """Truncated basis of the degree-k line module component.

        Within the truncation sum(lam) <= depth: the vector-slot subspace of
        V_lam invariant under the semisimple Levi part whose crossed-node
        torus weight is k.
        """
        snodes = flag.uncrossed
        x = flag.crossed
        blocks = []
        dims = []
        for lam in cartan.dominant_weights_up_to(self.lie, depth):
            m = self.module(lam)
            idxs = [t for t, w in enumerate(m.weights)
                    if w[x - 1] == k and all(w[j - 1] == 0 for j in snodes)]
            cols = self._levi_kernel(m, snodes, idxs)
            if cols:
                blocks.append((tuple(lam), tuple(cols)))
                dims.append(m.dim)
        return GradedSlice(flag=flag, k=k, depth=depth, blocks=tuple(blocks),
                           dims=tuple(dims))

    def slice_elements(self, sl: GradedSlice):
        """PW basis elements spanning a graded slice (deterministic order)."""
        out = []
        for (lam, cols), d in zip(sl.blocks, sl.dims):
            for r in range(d):
                for col in cols:
                    out.append(PWElement({(lam, r, c): v for c, v in col.items()}))
        return out
