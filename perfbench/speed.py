"""A fixed speed probe that scales measured times to one reference speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes (the same op took 2.5 s and 4.6 s in two runs a
minute apart on a 2-vCPU Xeon). The probe times a fixed mix of interpreter
and NumPy fancy-index work that never touches blochsim. Run between ops, it
samples the speed each op got: an op's time is multiplied by
``PROBE_REF_S`` over the median of the probes on either side of it. Raw
wall times are kept too.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: median probe time, by probe state size in qubits, on the reference machine
#: (2-vCPU Intel Xeon, Python 3.11, NumPy 2.4, one BLAS thread); scaled times
#: equal wall times at that machine's usual speed
PROBE_REF_S = {8: 0.040, 16: 0.040}
#: one probe per this much op time (at least one after every op)
PROBE_EVERY_S = 0.5
#: pair updates per probe, by state size, so that each probe takes about PROBE_REF_S
_UPDATES = {8: 1500, 16: 36}


def probe(bits: int) -> float:
    """Seconds taken right now by a fixed interpreter loop plus pair updates
    on a 2**bits complex array, the two kinds of work the workloads do."""
    index = np.arange(1 << bits)
    x = np.random.default_rng(0).standard_normal(1 << bits) + 0j
    start = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i * i
    for k in range(_UPDATES[bits]):
        bit = k % bits
        i0 = np.nonzero(((index >> bit) & 1) == 0)[0]
        i1 = i0 | (1 << bit)
        a0 = x[i0]
        x[i0] = 0.6 * a0 + 0.8 * x[i1]
        x[i1] = 0.8 * a0 - 0.6 * x[i1]
    return time.perf_counter() - start


def probe_median(bits: int, repeats: int = 3) -> float:
    return statistics.median(probe(bits) for _ in range(repeats))
