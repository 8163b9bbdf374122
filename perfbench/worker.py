"""One workload process: set up, run ops in a closed loop, check each op.

Started by ``run.py`` with the thread caps in its environment and the
checkout's ``src`` on ``PYTHONPATH``. Prints one JSON line: with
``--setup-only`` just the set-up time (raw and probe-scaled), otherwise
every op's duration and verdict, the speed probes, the traced ops'
per-layer metrics, and the process's peak RSS.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import blochsim
from speed import PROBE_EVERY_S, PROBE_REF_S, probe, probe_median
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed

#: ops that run after the deadline (seconds from process start) are not started,
#: so a slow machine still lets the launcher exit within its time limit
DEADLINE_S = 150.0


def _numpy_facts() -> dict:
    facts = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    return facts


def measure(workload, seconds: float, trace: bool, min_ops: int, deadline: float) -> dict:
    """Run ops until ``seconds`` of timed op time; in a traced run every other op is traced.

    The speed probe runs before the first op and after each op's check, about
    once per ``PROBE_EVERY_S`` of op time. Each op time is scaled by
    ``PROBE_REF_S`` over the median of the probes just before and just after it.
    """
    bits = workload.probe_bits
    tracer = Tracer() if trace else None
    probe_groups = [[probe(bits)]]
    durations: list[float] = []
    traced: list[bool] = []
    errors: list[str] = []
    layers: list[dict] = []
    failed = 0
    while (len(durations) < min_ops or sum(durations) < seconds) and time.monotonic() < deadline:
        is_traced = trace and len(durations) % 2 == 1
        if is_traced:
            tracer.begin_op()
        start = time.perf_counter()
        error = None
        try:
            out = workload.op()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            error = f"op raised {exc!r}"
        elapsed = time.perf_counter() - start
        layer = tracer.end_op(elapsed) if is_traced else None
        values: dict = {}
        if error is None:
            try:
                values = workload.check(out)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
                error = f"check raised {exc!r}"
        if error is not None:
            failed += 1
            errors.append(f"op {len(durations)}: {error}")
        durations.append(elapsed)
        traced.append(is_traced)
        if layer is not None:
            layer.update(values)
            layers.append(layer)
        probe_groups.append([probe(bits) for _ in range(max(1, round(elapsed / PROBE_EVERY_S)))])
    scaled = [d * PROBE_REF_S[bits] / statistics.median(before + after)
              for d, before, after in zip(durations, probe_groups, probe_groups[1:])]
    result = {"attempted": len(durations), "failed": failed, "errors": errors[:5],
              "durations": durations, "scaled": scaled, "probes": probe_groups, "traced": traced,
              "steps_per_op": workload.steps_per_op}
    if trace:
        result["layer"] = {key: statistics.median(row.get(key, 0.0) for row in layers)
                           for key in (layers[0] if layers else {})}
        result["tracer"] = tracer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the launcher just before it started this process")
    parser.add_argument("--root", required=True, help="checkout whose src/ must be imported")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here (.npz)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    if not Path(blochsim.__file__).resolve().is_relative_to(src):
        print(f"error: blochsim imported from {blochsim.__file__}, not from {src}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    bits = workload.probe_bits
    setup = {"setup_s": setup_s,
             "setup_scaled_s": setup_s * PROBE_REF_S[bits] / probe_median(bits)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    min_ops = 4 if args.trace else 3
    deadline = args.t0 + DEADLINE_S
    result = measure(workload, args.seconds, bool(args.trace), min_ops, deadline)
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.save(Path(args.spans))
    result.update(setup)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["facts"] = _numpy_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
