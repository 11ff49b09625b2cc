import os
import pathlib

import numpy as np
import pytest

from upbkit import upb
from upbkit.linalg import DEFAULT_TOL
from upbkit import (
    build_upb_witness,
    certify_unextendible,
    seesaw_max_product_overlap,
    shifts_family,
    upb_state,
)

CERT_SEED = 20240801
CERT_RESTARTS = 256

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def kernel_vectors(h: np.ndarray) -> list[np.ndarray]:
    """Orthonormal kernel basis of a Hermitian matrix: numpy's eigenvectors with |eigenvalue| < DEFAULT_TOL."""
    vals, vecs = np.linalg.eigh(h)
    return list(vecs[:, np.abs(vals) < DEFAULT_TOL].T)


def lower_top_eigenvalue(monkeypatch, at_call: int, restart: int) -> None:
    """Make the ``at_call``-th seesaw local update report a far lower maximum for one restart.

    Counts the Bloch updates of qubit parties and the stacked eigensolves of
    the others alike, so the guard trips on either path.  An update writes its
    maxima in place into ``out``, its fourth argument (after the operator, the
    product ``w`` and the states), and the wrapper lowers them there; the
    buffers after ``out`` pass through.
    """
    calls = []

    def lowered(real_update):
        def update(op, w, state, out, *buffers):
            real_update(op, w, state, out, *buffers)
            calls.append(None)
            if len(calls) == at_call:
                out[restart] -= 10.0
        return update

    for name in ("_bloch_update", "_eigh_update"):
        monkeypatch.setattr(upb, name, lowered(getattr(upb, name)))


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of ``upb.<name>``, which still returns what it returns."""
    calls = []
    real = getattr(upb, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(upb, name, counted)
    return calls


@pytest.fixture
def seesaw_calls(monkeypatch):
    """The hunt's seesaw runs."""
    return count_calls(monkeypatch, "_seesaw")


@pytest.fixture
def polish_calls(monkeypatch):
    """The hunt's Gauss-Newton polishes."""
    return count_calls(monkeypatch, "_polish")


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """CLI tests run ``python -m upbkit`` in a child process; let it import this checkout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def pi4_params():
    return (np.pi / 4,) * 3


@pytest.fixture(scope="session")
def pi4_upb(pi4_params):
    return shifts_family(pi4_params)


@pytest.fixture(scope="session")
def pi4_state(pi4_upb):
    return upb_state(pi4_upb)


@pytest.fixture(scope="session")
def pi4_cert(pi4_upb):
    return certify_unextendible(pi4_upb, restarts=CERT_RESTARTS, seed=CERT_SEED)


@pytest.fixture(scope="session")
def pi4_witness(pi4_upb, pi4_cert):
    return build_upb_witness(pi4_upb, pi4_cert)


@pytest.fixture(scope="session")
def ten_seed_certs(pi4_upb):
    """Certificates at 256 restarts for ten distinct seeds (stability checks)."""
    proj = pi4_upb.complement_projector
    return [
        seesaw_max_product_overlap(proj, pi4_upb.local_dims, restarts=CERT_RESTARTS, seed=seed)
        for seed in range(10)
    ]
