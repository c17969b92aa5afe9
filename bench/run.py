"""Benchmark of the pingpong package, driven only through its public entry
points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs the
workload once untraced and once under ``tracer.Tracer`` and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Temporary files live under
``.bench_work/`` and the span dump of a traced run is written to
``.bench_out/spans-<workload>.npz``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed, scale

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep-canonical", "report-mix", "cli-session")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


def machine() -> dict:
    """Machine and software the result was measured on."""
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_setups(name: str, seed: int, workdir: Path, repeats: int, speed: HostSpeed) -> tuple[float, float]:
    """Median time from a fresh interpreter to a set-up workload: raw and
    normalized (see hostspeed), in seconds."""
    import workloads

    env = workloads.child_env(workdir)
    raw, normalized = [], []
    before = speed.probe()
    for i in range(repeats):
        target = workdir / f"setup{i}"
        target.mkdir()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys, workloads; workloads.setup_only(*sys.argv[1:])",
             name, str(seed), str(target)],
            env=env, cwd=workdir, check=True, capture_output=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        raw.append(time.perf_counter() - t0)
        after = speed.probe()
        normalized.append(raw[-1] * scale([before, after]))
        before = after
    return statistics.median(raw), statistics.median(normalized)


def import_times(workdir: Path, repeats: int) -> dict[str, tuple[float, str]]:
    """Cumulative import time of pingpong and scipy.optimize (median, s)."""
    import workloads

    found: dict[str, list[float]] = {"pingpong": [], "scipy.optimize": []}
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pingpong"],
            env=workloads.child_env(workdir), cwd=workdir, check=True,
            capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        for line in done.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented name>"
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {
        "setup.import_pingpong_s": (statistics.median(found["pingpong"]), "s"),
        "setup.import_scipy_optimize_s": (statistics.median(found["scipy.optimize"]), "s"),
    }


@dataclasses.dataclass
class Phase:
    """Operations of one measured phase: (label, raw s, normalized s)."""

    ops: list[tuple[str, float, float]]
    attempted: int
    failed: int
    probes: list[float]

    def raw(self) -> list[tuple[str, float]]:
        return [(label, raw) for label, raw, _ in self.ops]

    def normalized(self) -> list[float]:
        return [norm for _, _, norm in self.ops]


def run_phase(workload, seconds: float, in_process: bool, speed: HostSpeed) -> Phase:
    """Operations until the next cycle would overrun ``seconds`` (at least
    one cycle and the workload's minimum operation count), with a probe
    before the first operation and after every ``workload.block``.

    Each operation is normalized by the mean of the probes on either side
    of its block and of any probes taken inside the block's operations.
    """
    phase = Phase([], 0, 0, [speed.probe()])
    pending: list[tuple[str, float]] = []
    inner: list[float] = []

    def flush() -> None:
        before = phase.probes[-1]
        phase.probes += [*inner, speed.probe()]
        factor = scale([before, *inner, phase.probes[-1]])
        phase.ops.extend((label, raw, raw * factor) for label, raw in pending)
        pending.clear()
        inner.clear()

    start = time.perf_counter()
    last_cycle = 0.0
    i = 0
    while i < workload.min_ops or time.perf_counter() - start + last_cycle < seconds:
        t0 = time.perf_counter()
        for _ in range(workload.cycle):
            op = workload.op(i, in_process)
            i += 1
            pending.append((op.label, op.seconds))
            inner.extend(op.probes)
            phase.attempted += op.attempted
            phase.failed += op.failed
            if len(pending) == workload.block:
                flush()
        last_cycle = time.perf_counter() - t0
    if pending:
        flush()
    return phase


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run.  Returns the result object, the figures printed
    above it (name -> (value, unit)) and the machine description.

    ``small`` shrinks the workload and the repeat counts to their minimum,
    for the benchmark's own smoke test.
    """
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    # The verify suites write temporary files; keep them in the checkout.
    tempfile.tempdir = str(workdir)
    # The host's speed regimes differ between CPUs, so the probe must run on
    # the CPU that runs the work: pin this process and its children to one.
    host = machine()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    host["pinned_cpu"] = min(cpus)
    try:
        speed = HostSpeed()
        if trace:
            from tracer import Tracer

            workload = workloads.WORKLOADS[name](seed, workdir, small)
            plain = run_phase(workload, seconds / 2, True, speed)
            tracer = Tracer()
            workload.tracer = tracer
            tracer.install()
            try:
                traced = run_phase(workload, seconds / 2, True, speed)
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics(ops=len(traced.ops))
            values["search.frontier_gap_bits"] = (getattr(workload, "gap_bits", 0.0), "bits")
            values["trace.overhead_frac"] = (
                statistics.fmean(traced.normalized()) / statistics.fmean(plain.normalized()) - 1, "ratio")
            values.update(import_times(workdir, 1 if small else IMPORTTIME_REPEATS))
            tracer.write(OUT / f"spans-{name}.npz", host)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            details = {}
        else:
            setup_raw, setup_s = time_setups(name, seed, workdir, 1 if small else SETUP_REPEATS, speed)
            workload = workloads.WORKLOADS[name](seed, workdir, small)
            workload.speed = speed
            phase = run_phase(workload, seconds, False, speed)
            values = {
                "setup_s": (setup_s, "s"),
                "op_mean_norm_ms": (statistics.fmean(phase.normalized()) * 1e3, "ms"),
                "op_p50_norm_ms": (statistics.median(phase.normalized()) * 1e3, "ms"),
            }
            attempted, failed = phase.attempted, phase.failed
            details = {"setup_raw_s": (setup_raw, "s"),
                       "probe_ms": (statistics.median(phase.probes) * 1e3, "ms"),
                       **workload.details(phase.raw())}
    finally:
        tempfile.tempdir = None
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    details["error_rate"] = (failed / attempted, f"of {attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()},
    }
    return result, details, host


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pingpong" / "__init__.py").is_file():
        print(f"no pingpong source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, details, host = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, (value, unit) in details.items():
        print(f"  {key} = {value:.6g} {unit}")
    for key, entry in result["metrics"].items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
