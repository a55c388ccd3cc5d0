"""Command-line interface.

Machine-readable JSON goes to standard output (and, with --json PATH, to a
file); progress notes go to standard error.  Identical invocations produce
byte-identical output: reports carry no timestamps and all containers are
emitted with sorted keys.

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import cartan, verify
from .calculus import gamma_crosscheck, gamma_relation_operator
from .cartan import FlagSpec, LieType
from .coordring import ABSTRACT_DMAX, quadratic_relations
from .errors import QflagError
from .linalg import dv_add_scaled
from .peterweyl import PWAlgebra
from .reps import DEFAULT_GUARD, build_irreducible
from .rmatrix import braiding, ybe_check
from .scalars import QContext, exact_root


def _emit(doc, args) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _context(args, lie: LieType) -> QContext:
    L = cartan.lattice_denominator(lie)
    if args.q == "symbolic":
        return QContext(L)
    try:
        q0 = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise QflagError(f"--q {args.q!r} is not a rational number") from None
    s0 = exact_root(q0, L)  # raises SpecializationError without an exact root
    return QContext(L, s0=s0)


def _algebra(args, lie: LieType) -> PWAlgebra:
    return PWAlgebra(lie, ctx=_context(args, lie), guard=args.guard)


def _non_negative(text: str) -> int:
    """The argparse type of --depth, --maxdeg and --max-rank."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """The argparse type of --guard: every module has dimension >= 1."""
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _writable(path: str) -> str:
    """The argparse type of --json: a path that a file can be written to."""
    if os.path.isdir(path) or not os.access(
            path if os.path.exists(path) else os.path.dirname(path) or ".",
            os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}")
    return path


def _parse_krange(text: str):
    try:
        if ":" in text:
            a, _, b = text.partition(":")
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise QflagError(f"--k {text!r} is not an integer range a:b") from None
    if lo > hi:
        raise QflagError(f"empty k range {text!r}")
    return lo, hi


def _parse_weight(text: str, rank: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank or not all(p.lstrip("-").isdigit() for p in parts):
        raise QflagError(f"weight {text!r} does not match rank {rank}")
    return tuple(int(p) for p in parts)


def _row_dims(rep) -> list:
    return [r["dim"] for r in rep["rows"]]


def _word_check(rep, flag: FlagSpec, dims, rerun, key=None) -> None:
    """Record whether the reversed longest word gives the same dimensions.

    ``dims`` are the dimensions found with the default word and
    ``rerun(word)`` returns those found with another reduced word; with
    ``key`` the latter are reported under that key.
    """
    alt = tuple(reversed(cartan.longest_word(flag.lie)))
    got = rerun(alt)
    check = {"word": list(alt), "agree": got == dims}
    if key is not None:
        check[key] = got
    rep["word_check"] = check
    rep["ok"] = rep["ok"] and check["agree"]


def cmd_catalog(args) -> int:
    doc = {
        **verify.report_header("catalog"),
        "max_rank": args.max_rank,
        "entries": cartan.catalog(args.max_rank),
    }
    _emit(doc, args)
    return 0


def cmd_rep(args) -> int:
    lie = LieType.parse(args.type)
    lam = _parse_weight(args.weight, lie.rank)
    ctx = _context(args, lie)
    m = build_irreducible(ctx, lie, lam, guard=args.guard)
    doc = {
        **verify.report_header("module", ctx),
        "type": str(lie),
        "lambda": list(lam),
        "dim": m.dim,
        "weights": [list(w) for w in m.weights],
        "matrices": {
            f"{kind}_{i}": [[r, c, str(v)] for (r, c), v in
                            m.gen_matrix(kind, i).entries_sorted()]
            for kind in ("E", "F") for i in range(1, lie.rank + 1)
        },
        "k_exponents": [list(k) for k in m.k_exps],
    }
    _emit(doc, args)
    return 0


def cmd_rmatrix(args) -> int:
    flag = FlagSpec.parse(args.flag)
    alg = _algebra(args, flag.lie)
    lam = flag.crossed_weight
    v = alg.module(lam)
    _progress(f"computing braiding on V_{lam} (dim {v.dim})")
    br = braiding(v, v)
    ok = ybe_check(v, br)
    doc = {
        **verify.report_header("rmatrix", alg.ctx),
        "flag": str(flag),
        "lambda": list(lam),
        "dim": v.dim,
        "convention": "R(e_i (x) f_j) = sum R^kl_ij f_k (x) e_l; "
                      "lower terms strictly below wt(f_j) in both slots",
        "entries": [[r // v.dim, r % v.dim, c // v.dim, c % v.dim, str(val)]
                    for (r, c), val in br.matrix.entries_sorted()],
        "ybe": ok,
        "ok": ok,
    }
    _emit(doc, args)
    return 0 if ok else 1


def cmd_relations(args) -> int:
    flag = FlagSpec.parse(args.flag)
    if args.maxdeg > ABSTRACT_DMAX:
        raise QflagError(f"--maxdeg = {args.maxdeg} exceeds {ABSTRACT_DMAX}, "
                         "the largest degree of the abstract dimensions")
    alg = _algebra(args, flag.lie)
    spec = quadratic_relations(alg, flag)
    rep = verify.flatness_report(alg, flag, spec, args.maxdeg)
    rep["relation_vectors"] = [
        sorted([[k, l, str(v)] for (k, l), v in rel.items()])
        for rel in spec.relations
    ]
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_liouville(args) -> int:
    flag = FlagSpec.parse(args.flag)
    alg = _algebra(args, flag.lie)
    depth = args.depth if args.depth is not None else verify.default_depth(flag)
    rep = verify.liouville_report(alg, flag, depth)
    if args.word_check:
        _word_check(rep, flag, rep["dim"], lambda word: verify.liouville_report(
            alg, flag, depth, word=word)["dim"], key="dim")
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_borel_weil(args) -> int:
    flag = FlagSpec.parse(args.flag)
    depth = args.depth if args.depth is not None else verify.default_depth(flag)
    kmin, kmax = _parse_krange(args.k)
    if args.opposite:
        verify.within_depth("-k", -kmin, depth)
    else:
        verify.within_depth("k", kmax, depth)
    alg = _algebra(args, flag.lie)
    _progress(f"borel-weil {flag} depth {depth} k {kmin}..{kmax}")
    rep = verify.borel_weil_report(alg, flag, kmax=kmax, depth=depth,
                                   kmin=kmin, opposite=args.opposite)
    if args.word_check:
        _word_check(rep, flag, _row_dims(rep), lambda word: _row_dims(
            verify.borel_weil_report(alg, flag, kmax=kmax, depth=depth,
                                     kmin=kmin, opposite=args.opposite,
                                     word=word)),
                    key="dims")
    if args.crosscheck:
        rep["gamma_crosscheck"] = gamma_crosscheck(alg, flag)
        rep["ok"] = rep["ok"] and rep["gamma_crosscheck"]["ok"]
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_coordring(args) -> int:
    flag = FlagSpec.parse(args.flag)
    depth = args.depth if args.depth is not None else verify.default_depth(flag)
    verify.within_depth("maxdeg", args.maxdeg, depth)
    alg = _algebra(args, flag.lie)
    rep = verify.coordinate_ring_equality(alg, flag, dmax=args.maxdeg,
                                          depth=depth)
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def cmd_spherical(args) -> int:
    flag = FlagSpec.parse(args.flag)
    alg = _algebra(args, flag.lie)
    depth = args.depth if args.depth is not None else verify.default_depth(flag)
    rep = verify.spherical_report(alg, flag, depth)
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def _property_samples(alg: PWAlgebra, flag: FlagSpec, seed: int) -> dict:
    """Seeded random exactness samples: associativity and the Leibniz rule."""
    rng = random.Random(seed)
    gens = alg.generators(flag)
    pool = list(gens.z) + list(gens.zbar)
    checks = []
    for _ in range(8):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assoc = alg.multiply(alg.multiply(a, b), c) == \
            alg.multiply(a, alg.multiply(b, c))
        checks.append({"property": "associativity", "ok": assoc})
    for _ in range(4):
        a, b = (rng.choice(pool) for _ in range(2))
        i = rng.randrange(1, flag.lie.rank + 1)
        lhs = alg.act_v(("E", i), alg.multiply(a, b))
        rhs = alg.multiply(alg.act_v(("E", i), a), alg.act_v(("K", i), b))
        dv_add_scaled(rhs, alg.multiply(a, alg.act_v(("E", i), b)), 1)
        checks.append({"property": "leibniz_E", "node": i, "ok": lhs == rhs})
    eps_ok = True
    for _ in range(4):
        a, b = (rng.choice(pool) for _ in range(2))
        eps_ok = eps_ok and (alg.counit(alg.multiply(a, b)) ==
                             alg.counit(a) * alg.counit(b))
    checks.append({"property": "counit_multiplicative", "ok": eps_ok})
    return {"kind": "properties", "flag": str(flag), "seed": seed,
            "checks": checks, "ok": all(c["ok"] for c in checks)}


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise ValueError("--suite names no suite")
    flag = FlagSpec.parse(args.flag)
    alg = _algebra(args, flag.lie)
    depth = args.depth
    _progress(f"verify {flag}: suites {suites}")
    # the library's suites run first, so that verify_suite refuses a request
    # it cannot answer before the CLI's own suites do any work
    rep = verify.verify_suite(
        flag, [s for s in suites if s not in ("properties", "gamma-operator")],
        depth=depth, algebra=alg)
    extra = []
    for s in suites:
        if s == "properties":
            extra.append(_property_samples(alg, flag, args.seed))
        elif s == "gamma-operator":
            op = gamma_relation_operator(alg, flag)
            op.pop("operator")
            op["ok"] = True
            extra.append(op)
    rep["reports"].extend(extra)
    rep["ok"] = rep["ok"] and all(r.get("ok") for r in extra)
    rep["seed"] = args.seed
    if args.word_check:
        def borel_weil(word=None):
            return verify.verify_suite(flag, ["borel-weil"], depth=depth,
                                       algebra=alg, word=word)["reports"][0]
        base = next((r for r in rep["reports"] if r["kind"] == "borel_weil"),
                    None) or borel_weil()
        _word_check(rep, flag, _row_dims(base),
                    lambda word: _row_dims(borel_weil(word)))
    _emit(rep, args)
    return 0 if rep["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qflag",
        description="Exact computations with quantized flag manifolds and "
                    "their first-order calculi.")
    p.add_argument("--q", default="symbolic", metavar="{symbolic|RATIONAL}",
                   help="arithmetic mode: fully symbolic over Q(s), or "
                        "specialized at an exact rational q (must have a "
                        "rational L-th root)")
    p.add_argument("--json", type=_writable, default=None, metavar="PATH",
                   help="also write the JSON report to PATH")
    p.add_argument("--guard", type=_positive, default=DEFAULT_GUARD,
                   help="module dimension guard")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="dump the flag catalog and spherical weights")
    c.add_argument("--max-rank", type=_non_negative, default=7)
    c.set_defaults(func=cmd_catalog)

    c = sub.add_parser("rep", help="build one irreducible module")
    c.add_argument("--type", required=True, metavar="A2")
    c.add_argument("--weight", required=True, metavar="1,0")
    c.set_defaults(func=cmd_rep)

    c = sub.add_parser("rmatrix", help="braiding of the crossed fundamental block")
    c.add_argument("--flag", required=True, metavar="A2/1")
    c.set_defaults(func=cmd_rmatrix)

    c = sub.add_parser("relations", help="quadratic relations and flatness")
    c.add_argument("--flag", required=True)
    c.add_argument("--maxdeg", type=_non_negative, default=3)
    c.set_defaults(func=cmd_relations)

    c = sub.add_parser("liouville", help="kernel of dbar on the flag algebra")
    c.add_argument("--flag", required=True)
    c.add_argument("--depth", type=_non_negative, default=None)
    c.set_defaults(func=cmd_liouville)

    c = sub.add_parser("borel-weil", help="holomorphic sections of line modules")
    c.add_argument("--flag", required=True)
    c.add_argument("--k", default="-1:1", metavar="a:b")
    c.add_argument("--depth", type=_non_negative, default=None)
    c.add_argument("--opposite", action="store_true")
    c.add_argument("--crosscheck", action="store_true",
                   help="also run the quotient-route cross-check")
    c.set_defaults(func=cmd_borel_weil)

    c = sub.add_parser("coordring", help="coordinate ring equality per degree")
    c.add_argument("--flag", required=True)
    c.add_argument("--maxdeg", type=_non_negative, default=2)
    c.add_argument("--depth", type=_non_negative, default=None)
    c.set_defaults(func=cmd_coordring)

    c = sub.add_parser("spherical", help="spherical decomposition check")
    c.add_argument("--flag", required=True)
    c.add_argument("--depth", type=_non_negative, default=None)
    c.set_defaults(func=cmd_spherical)

    c = sub.add_parser("verify", help="run verification suites")
    c.add_argument("--flag", required=True)
    c.add_argument("--suite",
                   default="liouville,borel-weil,coordring,spherical")
    c.add_argument("--depth", type=_non_negative, default=None)
    c.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property samples")
    c.set_defaults(func=cmd_verify)

    for name in ("liouville", "borel-weil", "verify"):
        sub.choices[name].add_argument(
            "--word-check", action="store_true",
            help="recompute span results with a second reduced word")
    return p


def _check_global_options(parser, argv) -> None:
    """Refuse an unknown option before the command by name (argparse takes
    the 2 of ``--jobs 2`` for the command); prefixes pass, as in argparse."""
    known = [o for a in parser._actions for o in a.option_strings]
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    for tok in argv:
        if tok in commands:
            return
        if tok.startswith("--") and not any(
                o.startswith(tok.split("=", 1)[0]) for o in known):
            parser.error(f"unrecognized arguments: {tok}")


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # glue '--k -2:3' into '--k=-2:3' so negative ranges parse
    for t in range(len(argv) - 1):
        if argv[t] == "--k" and argv[t + 1].startswith("-"):
            argv[t:t + 2] = [f"--k={argv[t + 1]}"]
            break
    _check_global_options(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QflagError as exc:
        print(f"qflag: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qflag: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
