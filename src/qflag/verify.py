"""Theorem-level verification reports.

Each report is a plain dict (JSON-ready, deterministically ordered) that
opens with :func:`report_header` and embeds the convention metadata needed
to reproduce it: the exponent lattice denominator L, the reduced word used
for the quantum root vectors, and the arithmetic mode.  All comparisons are
exact; "pass" always means subspace equality or integer equality, never a
tolerance.  :func:`verify_suite` refuses a request it cannot answer before
any exact work.

Highest weight labels: the functional slot of a block V_lam carries the dual
module, so an act_f-highest vector in that block is reported with the weight
-w0(lam) next to its block label lam; dimension checks are label-independent
because dim V_lam = dim V_{-w0(lam)}.
"""

from __future__ import annotations

from . import cartan
from .calculus import (Calculus, act_f_orbit_rows, gamma_crosscheck, z_power,
                       zbar_power)
from .cartan import FlagSpec
from .coordring import (QuadraticAlgebraSpec, abstract_graded_dimension,
                        central_element_checks, mixed_commutation_check,
                        monomial_spans, quadratic_relations,
                        relations_annihilate_realized)
from .errors import ConventionError, QflagError, TruncationError
from .linalg import SpanBasis
from .peterweyl import PWAlgebra, element_doc
from .reps import lowest_index

SCHEMA_VERSION = 1

DEFAULT_FLAGS = ("A1/1", "A2/1", "A2/2", "A3/2", "B2/1", "C2/2")
DEFAULT_DEPTH = {"A1/1": 5, "A2/1": 4, "A2/2": 4, "A3/2": 3, "B2/1": 3,
                 "C2/2": 3}
DEFAULT_KMAX = {"A1/1": 4, "A2/1": 3, "A2/2": 3, "A3/2": 2, "B2/1": 1,
                "C2/2": 1}
DEFAULT_KMIN = {"A1/1": -3, "A2/1": -2, "A2/2": -2, "A3/2": -1, "B2/1": -1,
                "C2/2": -1}
DEFAULT_DMAX = {"A1/1": 3, "A2/1": 3, "A2/2": 3, "A3/2": 2, "B2/1": 2,
                "C2/2": 2}


def default_depth(flag: FlagSpec) -> int:
    return DEFAULT_DEPTH.get(str(flag), 3)


def within_depth(name: str, degree: int, depth: int) -> None:
    """Refuse a degree whose predicted module lies outside the truncation
    sum(lam) <= depth (the block k w_x has sum k)."""
    if degree > depth:
        raise QflagError(f"{name} = {degree} exceeds the depth {depth}: the "
                         "truncation cannot hold the predicted module")


def report_header(kind: str, ctx=None) -> dict:
    """The schema fields of a report of this kind and, given a context, its
    arithmetic conventions."""
    out = {"schema": "qflag-report", "schema_version": SCHEMA_VERSION,
           "kind": kind}
    if ctx is not None:
        d = ctx.describe()
        out.update({"L": d["L"], "s_meaning": f"s = q^(1/{d['L']})",
                    "mode": d["mode"]})
    return out


def _meta(algebra: PWAlgebra, flag: FlagSpec, kind: str, word=None) -> dict:
    """The header of a flag's report; the word defaults to the longest."""
    if word is None:
        word = cartan.longest_word(algebra.lie)
    return {**report_header(kind, algebra.ctx), "flag": str(flag),
            "name": flag.name(), "word": list(word)}


def borel_weil_report(algebra: PWAlgebra, flag: FlagSpec, kmax: int,
                      depth: int, kmin: int = 0, opposite: bool = False,
                      word=None) -> dict:
    """Dimensions, vanishing, and orbit equality for the line modules.

    For the (0,1) side: h0(k) must have dimension dim V_{k w_x} for k >= 0,
    equal the act_f-orbit span of z^k, and vanish for k < 0.  The opposite
    side mirrors the roles of positive and negative k with zbar powers.
    """
    calc = Calculus(algebra, flag, word=word)
    chir = "10" if opposite else "01"
    lie = algebra.lie
    lam = flag.crossed_weight
    ks = list(range(kmin, kmax + 1))
    rows = []
    ok = True
    normalization = str(algebra.generators(flag).normalization)
    for k in ks:
        res = calc.h0(k, depth, chirality=chir)
        keff = -k if opposite else k
        if keff >= 0:
            expected = cartan.weyl_dim(lie, tuple(keff * x for x in lam))
        else:
            expected = 0
        row = {"k": k, "dim": res.dim, "expected": expected,
               "blocks": [list(b) for b in res.block_weights()],
               "highest_weights": sorted(
                   [list(cartan.minus_w0(lie, b)) for b, cols in res.blocks
                    for _ in cols])}
        row_ok = res.dim == expected
        if keff > 0 and expected:
            if opposite:
                gen_block = tuple(keff * x for x in
                                  cartan.minus_w0(lie, lam))
                power = zbar_power(algebra, flag, keff)
                extreme = lowest_index(algebra.module(gen_block))
                if extreme is None:
                    raise TruncationError("lowest weight space is not simple")
            else:
                gen_block = tuple(keff * x for x in lam)
                power = z_power(algebra, flag, keff)
                extreme = algebra.module(gen_block).highest_index
            contains = calc.h0_contains(res, power)
            row["contains_generator_power"] = contains
            block_ok = (res.block_weights() == (gen_block,)
                        and len(res.blocks[0][1]) == 1)
            col_ok = False
            if block_ok:
                kcol = res.blocks[0][1][0]
                col_ok = set(kcol) == {extreme}
            rowvec = {r: val for (_, r, _), val in power.items()}
            orbit = act_f_orbit_rows(algebra, gen_block, rowvec)
            orbit_ok = orbit.dim == expected
            row["orbit_dim"] = orbit.dim
            row["kernel_equals_orbit"] = bool(block_ok and col_ok and
                                              orbit_ok and contains)
            row_ok = row_ok and row["kernel_equals_orbit"]
        row["ok"] = row_ok
        ok = ok and row_ok
        rows.append(row)
    out = _meta(algebra, flag, "borel_weil", calc.word)
    out.update({"opposite": opposite, "depth": depth,
                "zbar_normalization": normalization, "rows": rows, "ok": ok})
    return out


def liouville_report(algebra: PWAlgebra, flag: FlagSpec, depth: int,
                     word=None) -> dict:
    calc = Calculus(algebra, flag, word=word)
    rep = calc.liouville_check(depth)
    out = _meta(algebra, flag, rep["kind"], calc.word)
    out.update(rep)
    return out


def coordinate_ring_equality(algebra: PWAlgebra, flag: FlagSpec, dmax: int,
                             depth: int) -> dict:
    """Degreewise subspace equality of z-monomial spans and h0(d)."""
    calc = Calculus(algebra, flag)
    rows = []
    ok = True
    for d, mono_span in enumerate(monomial_spans(algebra, flag, dmax)):
        h0_span = SpanBasis()
        for e in algebra.slice_elements(calc.h0(d, depth)):
            h0_span.insert(e)
        both = mono_span.equals(h0_span)
        witness = None
        if not both:
            for v in mono_span.vectors():
                if not h0_span.contains(v):
                    witness = {"direction": "monomial not holomorphic",
                               "vector": element_doc(v)}
                    break
            else:
                for v in h0_span.vectors():
                    if not mono_span.contains(v):
                        witness = {"direction": "holomorphic not in span",
                                   "vector": element_doc(v)}
                        break
        rows.append({"d": d, "monomial_dim": mono_span.dim,
                     "h0_dim": h0_span.dim, "equal": both,
                     **({"witness": witness} if witness else {})})
        ok = ok and both
    out = _meta(algebra, flag, "coordinate_ring_equality", calc.word)
    out.update({"depth": depth, "dmax": dmax, "rows": rows, "ok": ok})
    return out


def spherical_report(algebra: PWAlgebra, flag: FlagSpec, depth: int) -> dict:
    """Multiplicity-free Levi invariants (the degree-0 graded component)
    matching the spherical-weight monoid."""
    found = [(lam, len(cols)) for lam, cols in
             algebra.graded_component(flag, 0, depth).blocks]
    mult_ok = all(m == 1 for _, m in found)
    gens = cartan.spherical_weights(flag)
    monoid = cartan.monoid_truncation(gens, depth)
    set_ok = [w for w, _ in found] == monoid
    out = _meta(algebra, flag, "spherical_decomposition")
    out.update({
        "depth": depth,
        "spherical_weights": [list(w) for w in gens],
        "found": [{"weight": list(w), "multiplicity": m} for w, m in found],
        "monoid": [list(w) for w in monoid],
        "multiplicity_free": mult_ok,
        "monoid_equal": set_ok,
        "ok": mult_ok and set_ok,
    })
    return out


def quadratic_flatness(algebra: PWAlgebra, flag: FlagSpec,
                       dmax: int = 3) -> dict:
    """Abstract vs realized vs Weyl graded dimensions through degree dmax."""
    return flatness_report(algebra, flag, quadratic_relations(algebra, flag),
                           dmax)


def flatness_report(algebra: PWAlgebra, flag: FlagSpec,
                    spec: QuadraticAlgebraSpec, dmax: int) -> dict:
    """The quadratic_flatness report for the flag's relation space spec."""
    lam = flag.crossed_weight
    annihilates = relations_annihilate_realized(algebra, flag, spec)
    # One span of z-monomials gives every realized dimension.  The relations
    # are independent (spec holds their RREF, as the d = 2 count of
    # abstract_graded_dimension assumes); once they annihilate the realized
    # products they lie in the degree-2 kernel, of dimension n^2 -
    # realized(2); so they span it exactly when the two counts agree.
    spans = monomial_spans(algebra, flag, max(dmax, 2))
    kernel_match = (annihilates and
                    len(spec.relations) == spec.n ** 2 - spans[2].dim)
    rows = []
    ok = kernel_match
    for d in range(0, dmax + 1):
        ad = abstract_graded_dimension(algebra.ctx, spec, d)
        rd = spans[d].dim
        wd = cartan.weyl_dim(algebra.lie, tuple(d * x for x in lam))
        good = ad == rd == wd
        rows.append({"d": d, "abstract": ad, "realized": rd, "weyl": wd,
                     "equal": good})
        ok = ok and good
    out = _meta(algebra, flag, "quadratic_flatness")
    out.update({"generators": spec.n,
                "relation_dim": len(spec.relations),
                "relations_annihilate": annihilates,
                "realized_kernel_matches": kernel_match,
                "rows": rows, "ok": ok})
    return out


def highest_weight_audit(algebra: PWAlgebra, flag: FlagSpec, k: int,
                         depth: int) -> dict:
    """Every act_f-highest element of the truncated E_k factors through z^k,
    and the block labels of E_k are those of E_0 shifted by k w_x.

    Under the right action on the functional slot the raising and lowering
    roles flip, so the highest elements of a block V_lam are the top-row
    coefficients c_{hw, v} (killed by every act_f F_i), with torus label lam;
    relabelling blocks by -w0 turns the shift law "+ k w_x on block labels"
    into the "- k w0(w_x) on highest weights" form.  Both labels are
    reported; the shift law and the b.z^k factorization are asserted.
    """
    if k < 1:
        raise ValueError("audit expects k >= 1")
    lam = flag.crossed_weight
    sl0 = algebra.graded_component(flag, 0, depth)
    slk = algebra.graded_component(flag, k, depth)
    shift = {}
    for (mu, cols) in sl0.blocks:
        target = tuple(a + k * b for a, b in zip(mu, lam))
        if sum(target) <= depth:
            shift[target] = len(cols)
    blocks_k = {bl: len(cols) for (bl, cols) in slk.blocks}
    shift_ok = shift == blocks_k
    zk = z_power(algebra, flag, k)
    # A product b.z^k of a degree-0 element on row r of V_mu lies on rows of
    # weight wt_mu(r) + wt(z^k) (the CG embeddings preserve weight), and a
    # span of row-homogeneous elements is the sum of its homogeneous parts;
    # so a top-row element of block bl is tested against the products with
    # wt_mu(r) = bl - wt(z^k) alone.
    zk_weights = {algebra.module(nu).weights[r] for (nu, r, _) in zk}
    if len(zk_weights) != 1:
        raise ConventionError("z^k is not on rows of one weight")
    (zk_weight,) = zk_weights
    wanted = {tuple(a - b for a, b in zip(bl, zk_weight))
              for bl, _ in slk.blocks}
    prod_span = SpanBasis()
    for b in algebra.slice_elements(sl0):
        mu, r, _ = next(iter(b))
        if algebra.module(mu).weights[r] in wanted:
            prod_span.insert(algebra.multiply(b, zk))
    factor_rows = []
    factor_ok = True
    for (bl, cols) in slk.blocks:
        top = algebra.module(bl).highest_index
        for col in cols:
            hw_elem = {(bl, top, c): v for c, v in col.items()}
            member = prod_span.contains(hw_elem)
            factor_ok = factor_ok and member
            factor_rows.append({
                "block": list(bl),
                "dual_label": list(cartan.minus_w0(algebra.lie, bl)),
                "factors_through_z_power": member,
            })
    out = _meta(algebra, flag, "highest_weight_audit")
    out.update({
        "k": k, "depth": depth,
        "block_shift_law": shift_ok,
        "blocks_expected": sorted([list(b) for b in shift]),
        "blocks_found": sorted([list(b) for b in blocks_k]),
        "elements": factor_rows,
        "ok": shift_ok and factor_ok,
    })
    return out


SUITES = ("liouville", "borel-weil", "coordring", "spherical", "relations",
          "mixed", "central", "gamma", "audit")


def verify_suite(flag: FlagSpec, suites, depth: int | None = None,
                 algebra: PWAlgebra | None = None, word=None) -> dict:
    """Run the named suites against one flag; ok iff every report passes.
    An unknown suite, or an audit below depth 1, is refused before any runs."""
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
    if depth is None:
        depth = default_depth(flag)
    if "audit" in suites:
        # the audit tests degree 1, whose blocks k w_x have sum 1
        within_depth("the audit degree", 1, depth)
    if algebra is None:
        algebra = PWAlgebra(flag.lie)
    name = str(flag)
    # the predicted module of the top degree must fit inside the truncation
    kmax = min(DEFAULT_KMAX.get(name, 1), depth)
    kmin = DEFAULT_KMIN.get(name, -1)
    reports = []
    for suite in suites:
        if suite == "liouville":
            reports.append(liouville_report(algebra, flag, depth, word=word))
        elif suite == "borel-weil":
            reports.append(borel_weil_report(
                algebra, flag, kmax, depth, kmin=kmin, word=word))
        elif suite == "coordring":
            reports.append(coordinate_ring_equality(
                algebra, flag, min(DEFAULT_DMAX.get(name, 2), depth), depth))
        elif suite == "spherical":
            reports.append(spherical_report(algebra, flag, depth))
        elif suite == "relations":
            reports.append(quadratic_flatness(algebra, flag))
        elif suite == "mixed":
            rep = mixed_commutation_check(algebra, flag)
            rep.update(_meta(algebra, flag, rep["kind"]))
            reports.append(rep)
        elif suite == "central":
            rep = central_element_checks(algebra, flag)
            rep.update(_meta(algebra, flag, rep["kind"]))
            reports.append(rep)
        elif suite == "gamma":
            try:
                rep = gamma_crosscheck(algebra, flag)
            except TruncationError as exc:
                rep = {"kind": "gamma_crosscheck", "flag": name, "ok": False,
                       "error": str(exc)}
            reports.append(rep)
        else:  # "audit", the one name left
            reports.append(highest_weight_audit(algebra, flag, 1, depth))
    ok = all(r.get("ok") for r in reports)
    return {
        **report_header("verify"),
        "flag": name,
        "depth": depth,
        "suites": list(suites),
        "reports": reports,
        "ok": ok,
    }
