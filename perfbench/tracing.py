"""Spans and counters around upbkit's public functions, for the traced run.

``Tracer.install()`` replaces every public function of the traced modules,
wherever upbkit holds a reference to it (module attributes and the CLI's
command table), with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans sit in flat arrays until the run ends.
A layer's self time is its span's duration less the durations of its child
spans, which are nested and sequential because jobs run one at a time.

Counters are read at the same boundaries: the size of every matrix handed to
``hermitian_eig`` (one span name per size bucket), the restarts requested of
the seesaw entry points, the product vectors a hunt returns and the bytes the
report emitter writes.

The untraced run never calls ``install``, so it runs the program unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "states", "upb", "perturbation", "witness", "reporting", "cli")
EIG = "linalg.hermitian_eig"
EIG_BUCKETS = ("n2", "n4", "n8", "n3-7", "n9plus")
SEESAW_ENTRIES = ("upb.seesaw_max_product_overlap", "upb.subspace_product_hunt")
JOB = "bench.job"


def eig_bucket(n: int) -> str:
    """Size bucket of an n x n eigensolve; n3-7 also takes the rare n = 1."""
    if n in (2, 4, 8):
        return f"n{n}"
    return "n9plus" if n >= 9 else "n3-7"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.restarts = 0
        self.hits = 0
        self.report_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self):
        """The benchmark's own span around one job; every span of the job nests in it."""
        idx = self._open(self._id(JOB))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        if name == EIG:
            ids = {b: self._id(f"{EIG}.{b}") for b in EIG_BUCKETS}

            def pick(args, kwargs):
                return ids[eig_bucket(len(kwargs.get("matrix", args[0] if args else ())))]
        else:
            nid = self._id(name)

            def pick(args, kwargs):
                return nid

        after = self._counter(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(pick(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, name: str):
        if name in SEESAW_ENTRIES:
            signature = inspect.signature(fn)

            def count_restarts(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.restarts += int(bound.arguments["restarts"])
                if name == "upb.subspace_product_hunt":
                    self.hits += len(result.vectors)

            return count_restarts
        if name == "reporting.dumps_canonical":
            def count_bytes(args, kwargs, result):
                self.report_bytes += len(result)

            return count_bytes
        return None

    def install(self) -> None:
        """Wrap the public functions of the traced modules, wherever upbkit refers to them."""
        wrapped: dict[int, tuple] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"upbkit.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))

        def replacement(obj):
            entry = wrapped.get(id(obj))
            return entry[1] if entry is not None and entry[0] is obj else None

        for modname, module in list(sys.modules.items()):
            if modname != "upbkit" and not modname.startswith("upbkit."):
                continue
            for attr, obj in list(vars(module).items()):
                new = replacement(obj)
                if new is not None:
                    setattr(module, attr, new)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = replacement(value)
                        if new is not None:
                            obj[key] = new

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, each per pass of the job list."""
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        self_time = duration - child
        width = len(self.names)
        calls_by = np.bincount(name, minlength=width)
        self_by = np.bincount(name, weights=self_time, minlength=width)

        def calls(*spans):
            return sum(int(calls_by[self._ids[s]]) for s in spans if s in self._ids) / passes

        def self_s(*spans):
            return sum(float(self_by[self._ids[s]]) for s in spans if s in self._ids) / passes

        out: dict[str, tuple[float, str]] = {}
        for b in EIG_BUCKETS:
            out[f"linalg.eig.calls.{b}"] = (calls(f"{EIG}.{b}"), "count")
            out[f"linalg.eig.self_s.{b}"] = (self_s(f"{EIG}.{b}"), "s")
        out["linalg.as_hermitian.self_s"] = (self_s("linalg.as_hermitian"), "s")
        out["linalg.partial_transpose.calls"] = (calls("linalg.partial_transpose"), "count")
        out["linalg.partial_transpose.self_s"] = (self_s("linalg.partial_transpose"), "s")
        out["states.min_pt_eigenvalue.self_s"] = (self_s("states.min_pt_eigenvalue"), "s")
        out["states.basis_projector.calls"] = (calls("states.basis_projector"), "count")
        out["states.basis_projector.self_s"] = (self_s("states.basis_projector"), "s")
        out["perturbation.kernel_compression.calls"] = (calls("perturbation.kernel_compression"), "count")
        out["perturbation.kernel_compression.self_s"] = (self_s("perturbation.kernel_compression"), "s")
        out["perturbation.perturb_mix.self_s"] = (self_s("perturbation.perturb_mix"), "s")
        out["perturbation.perturb_local.calls"] = (calls("perturbation.perturb_local"), "count")
        out["perturbation.perturb_local.self_s"] = (self_s("perturbation.perturb_local"), "s")

        seesaw_ids = [self._ids[s] for s in SEESAW_ENTRIES if s in self._ids]
        n2 = self._ids.get(f"{EIG}.n2")
        seesaw_n2 = 0
        if n2 is not None and seesaw_ids:
            mask = (name == n2) & nested
            seesaw_n2 = int(np.isin(name[parent[mask]], seesaw_ids).sum())
        out["upb.seesaw.restarts"] = (self.restarts / passes, "count")
        out["upb.seesaw.sweeps_per_restart"] = (
            seesaw_n2 / (3 * self.restarts) if self.restarts else 0.0, "sweeps")
        out["upb.seesaw.self_s"] = (self_s(*SEESAW_ENTRIES), "s")
        out["upb.hunt.hits"] = (self.hits / passes, "count")
        out["upb.hunt.self_s"] = (self_s("upb.subspace_product_hunt"), "s")
        out["witness.robustness_radius.self_s"] = (self_s("witness.robustness_radius"), "s")
        out["reporting.render.self_s"] = (self_s("reporting.dumps_canonical", "reporting.format_float"), "s")
        out["reporting.validate_report.self_s"] = (self_s("reporting.validate_report"), "s")
        out["reporting.report_bytes"] = (self.report_bytes / passes, "bytes")
        out["cli.parse_config.self_s"] = (self_s("cli.parse_config"), "s")
        return out
