"""Spans and counters recorded from outside the qflag package.

A ``Tracer`` replaces public qflag functions and methods with wrappers and
puts every original back on ``uninstall``.  Nothing under ``src/`` knows
about it.  A function is rebound in every scanned module that holds it, so a
name imported with ``from .linalg import nullspace`` is traced as well as the
defining module's attribute (local imports inside functions read the module
attribute at call time and need nothing more).

Span wrappers record calls, self time and total time.  Self time is the
span's duration minus the time of the spans it caused; total time counts
only the outermost call of a recursive span.  Kernel wrappers only count:
timing each of millions of scalar operations would cost more than the
operations.  They also keep the largest scalar produced and a seeded
reservoir sample of operand pairs, which ``replay_rates`` times afterwards.
"""

from __future__ import annotations

import random
import time
import types
from contextlib import contextmanager

KERNEL_OPS = ("fadd", "fsub", "fmul", "fdiv")
RATE_OPS = ("fadd", "fmul", "fdiv")
SAMPLE_CAP = 400
_MARK = "__perfbench_wrapper__"


class Tracer:
    """In-memory spans and counters; install, run the work, uninstall."""

    def __init__(self, seed: int = 0, clock=time.perf_counter):
        self.clock = clock
        self.seed = seed
        self.spans = {}           # name -> [calls, self_s, total_s]
        self.counts = {}          # name -> number, filled by span hooks
        self.kernel_calls = {op: 0 for op in KERNEL_OPS}
        self.samples = {op: [] for op in KERNEL_OPS}
        self.top = [0, 0]         # most terms, largest |coefficient|
        self._stack = []          # per open span: [name, child seconds]
        self._open = {}           # name -> open depth, for total_s
        self._patches = []        # (owner, attr, original)

    # -- spans -----------------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def parent(self):
        """Name of the span that is open around the current call, or None."""
        return self._stack[-1][0] if self._stack else None

    def _enter(self, name):
        self.spans.setdefault(name, [0, 0.0, 0.0])
        self._open[name] = self._open.get(name, 0) + 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, self.clock()

    def _exit(self, name, frame, t0):
        dt = self.clock() - t0
        self._stack.pop()
        st = self.spans[name]
        st[0] += 1
        st[1] += dt - frame[1]
        depth = self._open[name] - 1
        self._open[name] = depth
        if depth == 0:
            st[2] += dt
        if self._stack:
            self._stack[-1][1] += dt

    @contextmanager
    def span(self, name: str):
        frame, t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame, t0)

    def wrap_span(self, name: str, fn, before=None, after=None):
        """Wrapper timing ``fn`` as span ``name``.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(token, args, result, exc)``; both run outside the span, so
        their time lands in the caller's self time.
        """
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            frame, t0 = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(name, frame, t0)
                if after:
                    after(token, args, None, exc)
                raise
            leave(name, frame, t0)
            if after:
                after(token, args, result, None)
            return result

        return _mark(wrapper, fn)

    # -- kernel counters -----------------------------------------------------

    def wrap_kernel(self, op: str, fn):
        calls = self.kernel_calls
        sample = self.samples[op]
        rnd = random.Random(f"{self.seed}:{op}").random
        top = self.top

        def wrapper(a, b):
            r = fn(a, b)
            c = calls[op] = calls[op] + 1
            if c <= SAMPLE_CAP:
                sample.append((a, b))
            else:
                j = int(rnd() * c)
                if j < SAMPLE_CAP:
                    sample[j] = (a, b)
            (_, _, nc), (_, _, dc) = r
            t = len(nc) + len(dc)
            if t > top[0]:
                top[0] = t
            if nc:
                m = max(max(nc), -min(nc), max(dc), -min(dc))
                if m > top[1]:
                    top[1] = m
            return r

        return _mark(wrapper, fn)

    # -- installing ------------------------------------------------------------

    def patch_function(self, wrapper, original, modules) -> int:
        """Rebind ``original`` to ``wrapper`` in every module that holds it."""
        n = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    n += 1
        return n

    def patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self, modules) -> None:
        """Put every original back and prove no wrapper is left behind."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}"
                for o, a, orig in self._patches if vars(o)[a] is not orig]
        for mod in modules:
            for attr, val in vars(mod).items():
                if getattr(val, _MARK, False):
                    left.append(f"{mod.__name__}.{attr}")
                elif isinstance(val, type):
                    left.extend(f"{mod.__name__}.{val.__name__}.{a}"
                                for a, v in vars(val).items()
                                if getattr(v, _MARK, False))
        self._patches = []
        if left:
            raise RuntimeError(f"wrapped names not restored: {sorted(set(left))}")

    # -- results ---------------------------------------------------------------

    def self_total(self) -> float:
        return sum(st[1] for st in self.spans.values())

    def replay_rates(self, kernel_module, seconds: float = 0.25) -> dict:
        """Operations per second of the original kernel on the sampled pairs."""
        out = {}
        for op in RATE_OPS:
            fn = getattr(kernel_module, op)
            pairs = self.samples[op]
            if not pairs:
                out[op] = 0.0
                continue
            n = 0
            t0 = time.perf_counter()
            while True:
                for a, b in pairs:
                    fn(a, b)
                n += len(pairs)
                dt = time.perf_counter() - t0
                if dt >= seconds:
                    break
            out[op] = n / dt
        return out


def _mark(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    setattr(wrapper, _MARK, True)
    return wrapper


_SELFCHECK_SRC = """
def inner(n):
    tick(2.0)
    if n:
        inner(n - 1)

def outer():
    tick(1.0)
    inner(1)
    tick(4.0)
"""


def selfcheck() -> None:
    """Exact self and total times on a nested synthetic call, then restore.

    A fake clock advances only inside the synthetic functions, so the
    expected numbers are exact: ``outer`` spends 1 + 4 s itself and calls
    ``inner``, which spends 2 s and recurses once.  A second module imports
    ``inner`` by name and must see the wrapper while installed and the
    original afterwards.
    """
    now = [0.0]

    def tick(dt):
        now[0] += dt

    mod = types.ModuleType("perfbench_selfcheck")
    mod.tick = tick
    exec(_SELFCHECK_SRC, vars(mod))
    other = types.ModuleType("perfbench_selfcheck_user")
    other.inner = mod.inner
    orig_inner, orig_outer = mod.inner, mod.outer
    mods = [mod, other]

    tr = Tracer(clock=lambda: now[0])
    n_inner = tr.patch_function(tr.wrap_span("inner", orig_inner), orig_inner, mods)
    n_outer = tr.patch_function(tr.wrap_span("outer", orig_outer), orig_outer, mods)
    if (n_inner, n_outer) != (2, 1) or not getattr(other.inner, _MARK, False):
        raise RuntimeError("selfcheck: a by-name import was not rebound")
    mod.outer()
    mod.outer()
    want = {"outer": [2, 10.0, 18.0], "inner": [4, 8.0, 8.0]}
    if tr.spans != want:
        raise RuntimeError(f"selfcheck: spans {tr.spans} != {want}")
    tr.uninstall(mods)
    if (mod.inner, other.inner, mod.outer) != (orig_inner, orig_inner, orig_outer):
        raise RuntimeError("selfcheck: originals not restored")
