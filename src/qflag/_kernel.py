"""Kernel backend selection.

Prefers the compiled extension ``qflag._poly_cy`` and falls back to the pure
Python twin ``qflag._poly_py``.  Set ``QFLAG_PURE=1`` to force the fallback
(used by the parity tests, and to compare the backends with perfbench).
"""

import os

if os.environ.get("QFLAG_PURE"):
    from . import _poly_py as impl
else:
    try:
        from . import _poly_cy as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _poly_py as impl

KERNEL = impl.KERNEL
P_ZERO = impl.P_ZERO
P_ONE = impl.P_ONE
F_ZERO = impl.F_ZERO
F_ONE = impl.F_ONE

pcanon = impl.pcanon
pis_zero = impl.pis_zero
pdeg = impl.pdeg
pval = impl.pval
pconst = impl.pconst
pmono = impl.pmono
pneg = impl.pneg
pscale = impl.pscale
padd = impl.padd
psub = impl.psub
pmul = impl.pmul
pcontent = impl.pcontent
pgcd = impl.pgcd
pdivexact = impl.pdivexact
fmake = impl.fmake
fis_zero = impl.fis_zero
fneg = impl.fneg
fadd = impl.fadd
fsub = impl.fsub
fmul = impl.fmul
fdiv = impl.fdiv
