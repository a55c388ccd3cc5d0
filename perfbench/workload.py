"""One benchmark workload of qflag, run in its own process.

``run.py`` starts this script with ``PYTHONPATH=src``; it can also be run by
hand from the repository root:

    PYTHONPATH=src python3 perfbench/workload.py --workload ring2 --seconds 5
    PYTHONPATH=src python3 perfbench/workload.py --workload ring2 --record

The process imports qflag, prepares its inputs (set-up), then repeats the
workload's pass until ``--seconds`` have been measured (at least one pass)
and reports the median pass.  Times are wall seconds scaled by the machine
speed that ``speed.py`` samples during the same pass or set-up; the raw wall
seconds are reported next to them.  qflag runs on the main thread; the
sampler is a second thread, and both are pinned to one CPU so that the
sampler times the CPU that runs qflag.

Every operation of a pass is one suite report or one ladder entry.  Its
outcome is reduced to canonical JSON and compared by sha256 with
``reference.json``, which holds the outcomes of the seed commit; ``--record``
writes that file instead of reading it.  Each operation runs under its own
timer, so a blowup is recorded as ``> T s`` and the run goes on.  A failed
operation (raised, timed out, or not matching the reference) makes the run's
result incorrect; a guard refusal recorded in the reference does not.

With ``--trace 1`` one more pass runs under the tracer of ``spans.py`` and the
per-layer numbers are reported.  The last line of standard output is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from speed import Speedometer, burst_scale

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Fixed exact inputs.  Each verify workload is (flag, depth) pairs plus the
# module dimension guard; depth None means the flag's default depth.
VERIFY = {
    "default6": ((("A1/1", None), ("A2/1", None), ("A2/2", None),
                  ("A3/2", None), ("B2/1", None), ("C2/2", None)), 64),
    "ring2": ((("A4/2", 2), ("D4/1", 2)), 400),
    "warm_cg": ((("A4/2", 2),), 400),
}
LADDER_GUARD = 400
LADDER_BUILDS = (("A4", (0, 2, 1, 0)), ("D4", (0, 2, 0, 0)), ("C3", (0, 0, 3)))
LADDER_BRAIDS = (("A4", (0, 1, 0, 0)), ("C3", (0, 0, 1)), ("A5", (0, 0, 1, 0, 0)))
WORKLOADS = ("default6", "ring2", "warm_cg", "ladder")
# Per-operation limit in seconds, several times the slowest entry seen.
ENTRY_TIMEOUT = {"default6": 20, "ring2": 60, "warm_cg": 60, "ladder": 90}

COORDRING_FNS = ("quadratic_relations", "relations_annihilate_realized",
                 "realized_degree2_kernel", "realized_graded_dimension",
                 "abstract_graded_dimension", "mixed_commutation_check",
                 "central_element_checks")


class EntryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler eats it."""


def _on_alarm(signum, frame):
    raise EntryTimeout()


class Op:
    """One operation of a pass and what came of it."""

    __slots__ = ("op_id", "seconds", "value", "error", "timeout")

    def __init__(self, op_id):
        self.op_id = op_id
        self.seconds = 0.0
        self.value = None
        self.error = None
        self.timeout = None


def canonical_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _entries(mat):
    return [[r, c, str(v)] for (r, c), v in mat.entries_sorted()]


def module_doc(m) -> dict:
    return {"dim": m.dim, "highest": list(m.highest),
            "weights": [list(w) for w in m.weights],
            "e": [_entries(x) for x in m.e_mats],
            "f": [_entries(x) for x in m.f_mats],
            "k_exps": [list(k) for k in m.k_exps],
            "fwords": [list(w) for w in m.fwords],
            "parents": [list(p) if p else None for p in m.parents]}


class Workload:
    """Inputs and passes of one workload."""

    def __init__(self, name: str, work_dir: str | None):
        from qflag.cartan import FlagSpec, LieType
        from qflag.reps import build_irreducible, context_for
        from qflag.verify import default_depth
        self.name = name
        self.cache_dir = None
        if name in VERIFY:
            flags, self.guard = VERIFY[name]
            self.flags = []
            for text, depth in flags:
                flag = FlagSpec.parse(text)
                self.flags.append((flag, depth or default_depth(flag)))
            if name == "warm_cg":
                self.cache_dir = os.path.join(work_dir, "cg")
        else:
            self.builds = []
            for typ, lam in LADDER_BUILDS:
                lie = LieType.parse(typ)
                self.builds.append((typ, lie, context_for(lie), lam))
            self.braids = []
            for typ, lam in LADDER_BRAIDS:
                lie = LieType.parse(typ)
                self.braids.append((typ, lam, build_irreducible(
                    context_for(lie), lie, lam)))

    def run_pass(self, runner) -> list:
        if self.name in VERIFY:
            return self._verify_pass(runner)
        return self._ladder_pass(runner)

    def _verify_pass(self, runner):
        from qflag.peterweyl import PWAlgebra
        from qflag.verify import SUITES, verify_suite
        ops = []
        for flag, depth in self.flags:
            alg = PWAlgebra(flag.lie, guard=self.guard, cache_dir=self.cache_dir)
            for suite in SUITES:
                op_id = f"verify {flag} depth={depth} guard={self.guard} {suite}"
                ops.append(runner(op_id, f"verify.{suite}", lambda: verify_suite(
                    flag, [suite], depth=depth, algebra=alg)["reports"][0]))
        return ops

    def _ladder_pass(self, runner):
        from qflag import reps, rmatrix
        ops = []
        for typ, lie, ctx, lam in self.builds:
            ops.append(runner(
                f"build {typ} {list(lam)} guard={LADDER_GUARD}", None,
                lambda: reps.build_irreducible(ctx, lie, lam, guard=LADDER_GUARD)))
        for typ, lam, v in self.braids:
            def braid():
                br = rmatrix.braiding(v, v)
                return br, rmatrix.ybe_check(v, br)
            ops.append(runner(f"braiding {typ} {list(lam)}", None, braid))
        return ops

    def outcome(self, op: Op):
        """(canonical document, report ok) of a finished operation."""
        if op.error is not None:
            return {"raised": type(op.error).__name__,
                    "message": str(op.error)}, True
        if op.op_id.startswith("verify "):
            return op.value, op.value.get("ok") is True
        if op.op_id.startswith("build "):
            return module_doc(op.value), True
        br, ybe = op.value
        return {"dim": br.v.dim, "matrix": _entries(br.matrix), "ybe": ybe}, ybe is True

    def relations_error(self, op: Op):
        """Why a built ladder module fails its defining relations, or None.

        Runs outside the timed region, when recording and when a module's
        digest differs from the reference; a matching digest means the very
        module whose relations held when the reference was recorded.
        """
        from qflag.reps import check_defining_relations
        if not op.op_id.startswith("build ") or op.value is None:
            return None
        try:
            check_defining_relations(op.value)
        except Exception as exc:  # a failed check is a wrong output
            return f"{op.op_id}: relations fail: {exc!r}"
        return None


class Runner:
    """Runs operations under a per-operation timer and an overall deadline."""

    def __init__(self, limit: float, deadline: float, tracer=None):
        self.limit = limit
        self.deadline = deadline
        self.tracer = tracer

    def __call__(self, op_id, span, fn) -> Op:
        op = Op(op_id)
        budget = min(self.limit, self.deadline - time.time())
        if budget <= 0:
            op.timeout = 0.0
            return op
        t0 = time.perf_counter()
        try:
            # The timer is stopped inside the outer try, so an alarm that
            # lands while it is being stopped is still caught below.
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                if self.tracer is not None and span:
                    with self.tracer.span(span):
                        op.value = fn()
                else:
                    op.value = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except EntryTimeout:
            op.timeout = budget
            op.value = None
        except Exception as exc:  # recorded and compared with the reference
            op.error = exc
        op.seconds = time.perf_counter() - t0
        return op


class Checker:
    """Compares outcomes with the reference digests and tallies failures.

    Every failed operation (a timeout, one skipped at the deadline, a raise
    or a report that differs from the reference) makes the run incorrect.
    Only an outcome equal to the reference passes, a recorded guard refusal
    included.
    """

    def __init__(self, workload: Workload, record: bool):
        self.workload = workload
        self.record = record
        self.reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                self.reference = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.notes = []
        self.refusals = 0

    def check(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.timeout is not None:
                self.failed += 1
                self.wrong.append(f"{op.op_id}: > {op.timeout:.1f} s")
                continue
            doc, ok = self.workload.outcome(op)
            digest = canonical_digest(doc)
            want = self.reference.get(op.op_id)
            if self.record or digest != want:
                bad = self.workload.relations_error(op)
                if bad:
                    self.wrong.append(bad)
            if self.record:
                self.reference[op.op_id] = digest
                continue
            if digest == want and ok:
                if op.error is not None:
                    self.refusals += 1
                    self.notes.append(f"{op.op_id}: {type(op.error).__name__} "
                                      f"as in the reference: {op.error}")
                continue
            self.failed += 1
            if op.error is not None:
                self.wrong.append(f"{op.op_id}: raised {op.error!r}")
            else:
                self.wrong.append(f"{op.op_id}: ok={ok}, digest {digest[:12]} "
                                  f"!= reference {str(want)[:12]}")

    def save(self) -> None:
        with open(REFERENCE, "w") as fh:
            json.dump(self.reference, fh, sort_keys=True, indent=1)
            fh.write("\n")


def cache_snapshot(path):
    if not path or not os.path.isdir(path):
        return {}
    out = {}
    for name in os.listdir(path):
        if name.startswith("cg_") and name.endswith(".json"):
            st = os.stat(os.path.join(path, name))
            out[name] = (st.st_ino, st.st_mtime_ns)
    return out


def install_tracer(tracer):
    """Wrap each layer's public functions.

    Returns the scanned modules and the sets of (type, lambda, mu) pairs
    asked of ``PWAlgebra.cg`` and of those among them that ran ``decompose``.
    """
    from qflag import (_kernel, calculus, coordring, linalg, peterweyl, reps,
                       rmatrix)
    from qflag.errors import DimensionGuardError
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qflag" or n.startswith("qflag."))]
    spans = tracer.spans

    def cells(name, rows_at, cols_at):
        def before(args):
            rows = args[rows_at]
            ncols = len(rows) if cols_at is None else args[cols_at]
            tracer.add(name + ".cells", len(rows) * ncols)
        return before

    def after_build(token, args, result, exc):
        if result is not None:
            tracer.add("reps.build_irreducible.dim_sum", result.dim)
        elif isinstance(exc, DimensionGuardError):
            tracer.add("guard.refusals", 1)

    def after_profile(token, args, result, exc):
        if result is not None and tracer.parent() == "reps.build_irreducible":
            tracer.add("rank.candidates", args[1])
            tracer.add("rank.selected", len(result))

    pairs, decomposed = set(), set()

    def before_cg(args):
        return spans.get("reps.decompose", (0,))[0]

    def after_cg(token, args, result, exc):
        key = (str(args[0].lie), tuple(args[1]), tuple(args[2]))
        pairs.add(key)
        if spans.get("reps.decompose", (0,))[0] != token:
            decomposed.add(key)

    functions = [
        ("reps.build_irreducible", reps.build_irreducible, None, after_build),
        ("reps.decompose", reps.decompose, None, None),
        ("reps.tensor", reps.tensor, None, None),
        ("linalg.column_rank_profile", linalg.column_rank_profile,
         cells("linalg.column_rank_profile", 0, 1), after_profile),
        ("linalg.invert_dense", linalg.invert_dense,
         cells("linalg.invert_dense", 0, None), None),
        ("linalg.nullspace", linalg.nullspace,
         cells("linalg.nullspace", 0, 1), None),
        ("linalg.solve_unique", linalg.solve_unique,
         cells("linalg.solve_unique", 0, 2), None),
        ("rmatrix.braiding", rmatrix.braiding, None, None),
        ("rmatrix.ybe_check", rmatrix.ybe_check, None, None),
        ("calculus.gamma_crosscheck", calculus.gamma_crosscheck, None, None),
    ] + [(f"coordring.{fn}", getattr(coordring, fn), None, None)
         for fn in COORDRING_FNS]
    methods = [
        ("reps.root_operator", reps.LusztigOperators, "root_operator", None, None),
        ("reps.theta", reps.LusztigOperators, "theta", None, None),
        ("peterweyl.multiply", peterweyl.PWAlgebra, "multiply", None, None),
        ("peterweyl.cg", peterweyl.PWAlgebra, "cg", before_cg, after_cg),
        ("calculus.h0", calculus.Calculus, "h0", None, None),
    ]
    for name, fn, before, after in functions:
        tracer.spans.setdefault(name, [0, 0.0, 0.0])
        tracer.patch_function(tracer.wrap_span(name, fn, before, after), fn, mods)
    for name, cls, attr, before, after in methods:
        tracer.spans.setdefault(name, [0, 0.0, 0.0])
        tracer.patch_method(cls, attr, tracer.wrap_span(
            name, cls.__dict__[attr], before, after))
    from spans import KERNEL_OPS
    for op in KERNEL_OPS:
        fn = getattr(_kernel, op)
        users = [m for m in mods if m.__name__ != fn.__module__]
        tracer.patch_function(tracer.wrap_kernel(op, fn), fn, users)
    return mods, (pairs, decomposed)


def layer_metrics(tracer, cg_pairs, traced_wall, overhead, rates,
                  files_written):
    from qflag.verify import SUITES
    from spans import KERNEL_OPS, RATE_OPS
    out = {f"verify.{suite}.wall_s": 0.0 for suite in SUITES}
    for op in KERNEL_OPS:
        out[f"kernel.{op}.calls"] = tracer.kernel_calls[op]
    for op in RATE_OPS:
        out[f"kernel.{op}.per_s"] = rates[op]
    out["kernel.max_terms"] = tracer.top[0]
    out["kernel.max_coeff_bits"] = tracer.top[1].bit_length()
    counts = tracer.counts
    coord_calls, coord_self = 0, 0.0
    for name, (calls, self_s, total_s) in sorted(tracer.spans.items()):
        layer = name.split(".")[0]
        if layer == "verify":
            out[f"{name}.wall_s"] = total_s
        elif layer == "coordring":
            coord_calls += calls
            coord_self += self_s
        elif layer == "linalg":
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.cells"] = counts.get(name + ".cells", 0)
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
    out["verify.self_s"] = sum(st[1] for n, st in tracer.spans.items()
                               if n.startswith("verify."))
    out["coordring.calls"] = coord_calls
    out["coordring.self_s"] = coord_self
    out["reps.build_irreducible.dim_sum"] = counts.get(
        "reps.build_irreducible.dim_sum", 0)
    cand = counts.get("rank.candidates", 0)
    out["linalg.rank_keep_ratio"] = counts.get("rank.selected", 0) / cand if cand else 0.0
    pairs, decomposed = cg_pairs
    out["peterweyl.cg.disk_hit_ratio"] = (
        len(pairs - decomposed) / len(pairs) if pairs else 0.0)
    out["peterweyl.cg.files_written"] = files_written
    out["guard.refusals"] = counts.get("guard.refusals", 0)
    out["trace.wall_s"] = traced_wall
    out["trace.outside_s"] = traced_wall - tracer.self_total()
    out["trace.overhead_frac"] = overhead
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, default=None,
                   help="wall-clock time at which the parent started this process")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock time by which all work must end")
    p.add_argument("--work", default=None, help="working directory, holds the CG cache of warm_cg")
    p.add_argument("--probe", action="store_true",
                   help="only import and prepare the inputs")
    p.add_argument("--record", action="store_true",
                   help="write the outcome digests of one pass to reference.json")
    args = p.parse_args(argv)
    t0 = time.time() if args.t0 is None else args.t0
    deadline = args.deadline or time.time() + 600
    if args.workload == "warm_cg" and not args.work:
        p.error("warm_cg needs --work")

    import qflag
    workload = Workload(args.workload, args.work)
    setup_raw = time.time() - t0
    setup = {"setup_s": setup_raw * burst_scale(), "setup_raw_s": setup_raw}
    if args.probe:
        print(json.dumps(setup))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(ENTRY_TIMEOUT[args.workload], deadline - 5)
    checker = Checker(workload, args.record)
    out = {"workload": args.workload, "backend": qflag.kernel_backend,
           "cold_s": 0.0, "cold_raw_s": 0.0, **setup}
    # One CPU for both threads, so the sampler times the CPU that runs qflag.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speedometer = Speedometer()
    speedometer.start()

    def timed_pass():
        mark = speedometer.mark()
        ops = workload.run_pass(runner)
        raw = sum(op.seconds for op in ops)
        return ops, raw, raw * speedometer.scale(mark)

    if workload.cache_dir:
        # Set-up of warm_cg: one cold pass fills the CG cache.
        ops, out["cold_raw_s"], out["cold_s"] = timed_pass()
        checker.check(ops)

    raws, walls = [], []
    while True:
        ops, raw, scaled = timed_pass()
        raws.append(raw)
        walls.append(scaled)
        checker.check(ops)
        del ops
        left = deadline - 5 - time.time()
        if args.record or sum(raws) >= args.seconds or raws[-1] * 1.5 > left:
            break
    out["passes_raw"] = raws
    out["passes"] = walls
    out["wall_s"] = statistics.median(walls)
    out["wall_raw_s"] = statistics.median(raws)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        from qflag import _kernel
        from spans import Tracer, selfcheck
        selfcheck()
        tracer = Tracer(seed=args.seed)
        before = cache_snapshot(workload.cache_dir)
        mods, cg_pairs = install_tracer(tracer)
        try:
            runner.tracer = tracer
            ops, traced_raw, traced_scaled = timed_pass()
        finally:
            runner.tracer = None
            tracer.uninstall(mods)
    speedometer.stop()

    if args.trace:
        after = cache_snapshot(workload.cache_dir)
        written = sum(1 for k, v in after.items() if before.get(k) != v)
        checker.check(ops)
        del ops
        rates = tracer.replay_rates(_kernel)
        out["layers"] = layer_metrics(tracer, cg_pairs, traced_raw,
                                      traced_scaled / out["wall_s"] - 1.0,
                                      rates, written)

    if args.record:
        checker.save()
    out.update(attempted=checker.attempted, failed=checker.failed,
               correct=checker.failed == 0 and not checker.wrong,
               notes=checker.notes + checker.wrong, refusals=checker.refusals)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
