"""Reference seconds: durations scaled by a fixed kernel timed next to them.

Other tenants of a shared host slow this process by up to 2x for tens of
seconds at a time.  On a 2-vCPU VM the median of a 20-second window of one
fixed job moved by 27% (quartile spread over a few minutes) while the ratio of
that job's time to this kernel's time, timed back to back, moved by 2%.  Every
duration the benchmark reports is therefore in reference seconds:

    measured seconds * REFERENCE_S / (kernel seconds around the measurement)

where the kernel time is the mean of the runs just before and just after.
The kernel does the kind of work the program does (4x4 complex matrices
through numpy, scalar math in Python) but none of the program's code, so a
change to the program cannot move it.

Imports follow that kernel poorly: scaled by it, the set-up time spread more
than unscaled.  Set-up time is instead scaled by the import, in the same fresh
interpreter just before, of standard-library modules the program never
imports; that cut the spread of 9-import medians from 12% to 7%.
"""

import math
import time

import numpy as np

# Kernel and import-kernel times on the reference host (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4); they only fix the unit, so they never change.
REFERENCE_S = 0.006
IMPORT_REFERENCE_S = 0.035

IMPORT_KERNEL = ("decimal", "json", "sqlite3", "xml.etree.ElementTree", "email.parser",
                 "csv", "difflib", "fractions", "html.parser")

_STEPS = 150


def kernel() -> float:
    h = (np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)) * 0.01
    h = h + h.conj().T
    two = np.eye(2, dtype=complex)
    total = 0.0
    for i in range(_STEPS):
        x = 0.001 * i
        m = np.kron(two * math.cos(x), two) + h
        w = np.linalg.eigvalsh(m)
        total += float(np.trace(m @ h @ m.conj().T).real) + float(w.min()) + math.hypot(x, 1.0)
    return total


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reference_seconds(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))


def import_reference_seconds(seconds: float, import_kernel: float) -> float:
    return seconds * IMPORT_REFERENCE_S / import_kernel
