"""funcavg benchmark: one workload, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload sim-desk --seed 1 --seconds 50 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the last
stdout line carries every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Details (every timing sample, report digests, environment, load
averages, tracing overhead) go to ``.perfbench-out/`` next to
``BENCHMARK.json``; spans of a traced run go there too.

The program is run from ``src`` with BLAS limited to one thread.
``setup_s`` times ``import funcavg.cli`` in fresh interpreters; the
workload itself then runs in this process, whose peak RSS is
``peak_rss_mb``.
The benchmark stops with exit code 2, printing no result, when ``src``
is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "funcavg"
OUT_DIR = ROOT / ".perfbench-out"
WORK_PARENT = ROOT / ".perfbench-work"
WORKLOADS = ("sim-desk", "cli")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
IMPORTTIME_MODULES = ("funcavg", "funcavg.regression", "funcavg.distributions",
                      "funcavg.cli")
SINGLE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def program_env() -> dict:
    """Environment of the child interpreters that import the program."""
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict) -> list[float]:
    """Wall time of a fresh interpreter's ``import funcavg.cli``, repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import funcavg.cli"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def import_times(env: dict) -> dict[str, float]:
    """Median cumulative ``-X importtime`` seconds of the traced modules.

    Importing ``funcavg.cli`` imports the package first, inside the
    submodule's own entry, so ``cli.import_s`` subtracts the package's
    cumulative time and keeps click plus the module body.
    """
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import funcavg.cli"], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples.append({
            "regression.import_s": cumulative["funcavg.regression"],
            "distributions.import_s": cumulative["funcavg.distributions"],
            "cli.import_s": cumulative["funcavg.cli"] - cumulative["funcavg"]})
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def source_state() -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funcavg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, which ``import worker``
    # below does.
    os.environ.update(SINGLE_THREAD)
    env = program_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{tag}-spans.tsv"
    spans.unlink(missing_ok=True)
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    load_before = os.getloadavg()
    try:
        if args.trace:
            setup = None
            metrics = import_times(env)
        else:
            setup = setup_seconds(env)
            metrics = {"setup_s": statistics.median(setup)}
        sys.path.insert(0, str(ROOT / "src"))
        import worker
        result = worker.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    attempted, failed = result.pop("attempted"), result.pop("failed")
    metrics.update(result.pop("metrics"))
    if not args.trace:
        metrics["ok_share"] = (attempted - failed) / attempted
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in units["per_layer" if args.trace else "end_to_end"]}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "loadavg_before": load_before, "loadavg_after": load_after,
              "setup_samples": setup, **source_state(), **result}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if result["errors"]:
        print("\n".join(result["errors"]), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in unit_of.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
