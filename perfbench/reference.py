"""A fixed piece of reference work that measures how fast the machine runs right now.

On a shared virtual machine the CPU seconds of identical work move with the
host's load: on the reference machine a certify pass took from 4.5 to 11 CPU
seconds within one hour, in slow and fast spells minutes long.  The
benchmark therefore runs ``run_slice`` after every job and scales each pass's
CPU seconds by ``SLICE_S`` over the mean CPU seconds of its slices: figures
are CPU seconds at the speed at which one slice takes ``SLICE_S``.

The slice does what upbkit's hot paths do, without upbkit: Python loops of
scalar arithmetic, 2x2 Hermitian eigensolves, small einsums, 8x8
eigensolves and a JSON dump.  A change to the program cannot change the
slice, so it moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import json
import time

import numpy as np

SLICE_S = 1.0e-3    # nominal CPU seconds of one slice; sets the scale of every reported time

_rng = np.random.default_rng(20040404)
_M2 = [m + m.conj().T for m in _rng.standard_normal((96, 2, 2)) + 1j * _rng.standard_normal((96, 2, 2))]
_M8 = [m + m.conj().T for m in _rng.standard_normal((4, 8, 8)) + 1j * _rng.standard_normal((4, 8, 8))]
_T = _rng.standard_normal((2, 2, 2)) + 1j * _rng.standard_normal((2, 2, 2))


def run_slice() -> float:
    """Run one slice; return its CPU seconds."""
    started = time.process_time()
    acc = 0.0
    for m in _M2:
        _, vecs = np.linalg.eigh(m)
        v = vecs[:, 0]
        acc += float(np.einsum("abc,a,b->c", _T, v, v.conj())[0].real)
        c, s = float(m[0, 1].real), float(m[1, 1].real)
        for _ in range(40):
            c, s = 0.6 * c - 0.8 * s, 0.8 * c + 0.6 * s
        acc += c
    for m in _M8:
        acc += float(np.linalg.eigvalsh(m)[0])
    json.dumps({"acc": acc})
    return time.process_time() - started
