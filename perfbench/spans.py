"""Outside-in tracing: spans around the calls into the package's layers.

Nothing under ``src/`` is edited.  ``Tracer.install`` wraps each named public
function and rebinds the wrapper at every name a module binds to that
function, so ``squeezing.is_density`` is traced as well as
``linalg.is_density``.  Each call records one span (name, start, end, parent
span, job id) into flat arrays kept in memory; ``save`` writes them when the
run ends.  Spans recorded in forked pool children stay in the children and
are lost, so traced passes run sweeps at one worker.
"""

import contextlib
import functools
import time
from array import array

import numpy as np

# The package's modules, in dependency order; these are the benchmark's layers.
LAYERS = ("linalg", "model", "propagators", "thermo", "squeezing", "sweep",
          "presets", "validation", "cli")

JOB = "job"


class Tracer:
    """Span recorder for the named "<layer>.<function>" entries of a package.

    A name the package no longer defines is skipped; its metrics read 0.
    """

    def __init__(self, package, names):
        self.names = [JOB]
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = -1
        wrappers = {}
        for name in names:
            layer, attr = name.split(".")
            fn = getattr(getattr(package, layer, None), attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(name, fn)
        self._bindings = [
            (module, attr, obj, wrappers[id(obj)])
            for module in [package] + [getattr(package, layer) for layer in LAYERS]
            for attr, obj in vars(module).items()
            if id(obj) in wrappers
        ]

    def _open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, t0, clock())

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers at every name that bound a traced function."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) under a root span for one job."""
        self._job = job_id
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())
            self._job = -1

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Per-span self time: the span's duration minus its direct children's.

    Spans on one thread nest, so the direct children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    duration = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def summarize(names, name_id, start, end, parent, job) -> dict:
    """{name: (calls, total_s, self_s)} over the spans recorded inside a job."""
    inside = np.asarray(job) >= 0
    name_id = np.asarray(name_id)[inside]
    duration = (np.asarray(end, dtype=float) - np.asarray(start, dtype=float))[inside]
    own = self_times(start, end, parent)[inside]
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=duration, minlength=n)
    self_s = np.bincount(name_id, weights=own, minlength=n)
    return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(names)}


def calls_per_job(names, name_id, job, name: str, jobs: int) -> np.ndarray:
    """Calls of `name` inside each of the jobs 0 .. jobs-1."""
    if name not in names:
        return np.zeros(jobs, dtype=int)
    job = np.asarray(job)
    mask = (np.asarray(name_id) == names.index(name)) & (job >= 0)
    return np.bincount(job[mask], minlength=jobs)
