"""blochsim benchmark launcher.

    python3 perfbench/run.py --workload static-big --seed 1 --seconds 20 --trace 0

Runs one workload (static-big, driven-cli, two-particle, lower-verify) in
fresh worker processes against the blochsim sources in ``src/`` next to
this directory, then prints each metric by name with its unit, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run. Detailed results, with the machine
facts, go to ``.perfbench_out/``. See NOTES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static-big", "driven-cli", "two-particle", "lower-verify")
#: BLAS/OpenMP threads per process; 1 keeps eigh timings off the scheduler
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
#: fresh processes timed for setup_s, besides the measuring one
SETUP_SAMPLES = {"full": 4, "tiny": 1}
#: the whole command must end within this many seconds
LIMIT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii", errors="replace").strip()
    except OSError:
        return ""


def _cpu_facts() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    return {"cpu_model": model, "caches": caches}


def _source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _worker(args, workdir: Path, env: dict, setup_only: bool, timeout: float, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--root", str(ROOT), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="timed op time to accumulate (at least 3 ops run; 4 when traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "blochsim" / "__init__.py").is_file():
        print(f"error: no blochsim sources at {ROOT / 'src' / 'blochsim'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    spans = out_dir / f"{tag}.spans.npz" if args.trace else None
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.size]):
                setups.append(_worker(args, workdir, env, True, 60.0))
        remaining = LIMIT_S - (time.monotonic() - started)
        result = _worker(args, workdir, env, False, remaining, spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    setups.append({key: result[key] for key in ("setup_s", "setup_scaled_s")})

    durations = result["scaled"]
    plain = [d for d, traced in zip(durations, result["traced"]) if not traced]
    plain_wall = [d for d, traced in zip(result["durations"], result["traced"]) if not traced]
    attempted, failed = result["attempted"], result["failed"]
    op_p50 = statistics.median(plain)
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP, "python": platform.python_version(),
        **result["facts"], **_cpu_facts(), **_source_facts(),
    }
    lines = [f"facts {json.dumps(facts, sort_keys=True)}"]
    if args.trace:
        layer = dict(result["layer"])
        layer["trace.overhead_ratio"] = statistics.median(
            d for d, traced in zip(durations, result["traced"]) if traced) / op_p50
        metrics = {name: _metric(float(layer.get(name, 0.0)), unit)
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
            "op_p50_s": op_p50,
            "steps_per_s": result["steps_per_op"] * len(plain) / sum(plain),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"op_samples {len(plain)} count")
    for q in (99, 90):
        if len(plain) * (100 - q) >= 1000:  # at least ten samples beyond the percentile
            lines.append(f"op_p{q}_s {statistics.quantiles(plain, n=100)[q - 1]:.6g} s")
            break
    lines.append(f"fail_frac {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    lines.append(f"wall_op_p50_s {statistics.median(plain_wall):.6g} s (unscaled)")
    lines.append(f"wall_setup_s {statistics.median(s['setup_s'] for s in setups):.6g} s (unscaled)")
    probes = [t for group in result["probes"] for t in group]
    lines.append(f"speed_probe_p50_s {statistics.median(probes):.6g} s")
    for error in result["errors"]:
        lines.append(f"failure {error}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = dict(summary, facts=facts, fail_frac=failed / attempted,
                  wall_s=result["durations"], scaled_s=durations, probes_s=result["probes"],
                  traced=result["traced"], setups=setups, errors=result["errors"])
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
