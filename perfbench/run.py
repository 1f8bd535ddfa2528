"""Outside-in benchmark of uncertainty-lab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-qutrit --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One process, one closed-loop client: each request starts when the previous
one has returned.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it replays a fixed prefix of the workload alternately
without and with the span tracer and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
benchmark measures the package under ``src/`` of the checkout it sits in and
exits with an error, printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import json
from array import array
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("scan-qutrit", "scan-d64", "report-fresh", "find-sweep")

# Set-up time is measured on pairs of fresh interpreters started back to back:
# one sets up the program (see Workload.setup_code), the other only starts
# Python and imports what the program imports from outside itself.  One more
# pair runs first, untimed, to warm the file cache, as a user's next start
# finds it.
SETUP_PAIRS = 9
BASELINE_CODE = "import argparse, dataclasses, datetime, enum, json, logging, typing\nimport numpy\n"
# The baseline interpreter's median start time on the machine the benchmark
# was built on (see README.md); setup_s is given at that machine speed.
BASELINE_START_S = 0.15
CHILD_TIMEOUT_S = 120.0
# The single client runs on one core.  BLAS helper threads only spin at the
# sizes used here (d <= 64: same wall time, twice the CPU time) and would
# contend with the client for the second core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The reference kernel (see Reference) is timed at most every
# REFERENCE_INTERVAL_S seconds, in a burst of REFERENCE_SHARE of the time
# since the last burst (at least one kernel): about 3% of a run.
REFERENCE_INTERVAL_S = 0.1
REFERENCE_SHARE = 0.03
REFERENCE_LOOPS = 150

# Per-layer metrics other than <function>.calls_per_op (count) and
# <function>.self_us_per_op (us).
LAYER_UNITS = {
    "finder.restarts_per_find": "count",
    "finder.iters_per_find": "count",
    "finder.converged_per_restart": "ratio",
    "cli.csv_bytes_per_row": "B",
    "cli.input_load_share": "ratio",
    "trace.untraced_us_per_op": "us",
    "trace.traced_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "trace.reference_us": "us",
}
END_TO_END_UNITS = {
    "op_ref_p50": "ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_package() -> None:
    """Import uncertainty_lab from this checkout's src/, or raise SystemExit."""
    if not os.path.isfile(os.path.join(SRC, "uncertainty_lab", "__init__.py")):
        raise SystemExit(f"perfbench: no uncertainty_lab package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import uncertainty_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(uncertainty_lab.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported {uncertainty_lab.__file__}, not the one under {SRC}")


def _percentile(values: array, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.frombuffer(values), q))


def _child(code: str, workdir: str) -> tuple[float, float]:
    """Run ``code`` in a fresh interpreter: its wall time in seconds and its
    peak resident set in MB.  Raises if it exits nonzero or runs too long."""
    err_path = os.path.join(workdir, "child.err")
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it gives this child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path, "rb") as err:
            tail = err.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"child exited {proc.returncode}: {tail}")
    return wall, usage.ru_maxrss / 1024.0


def setup_ratios(wl) -> tuple[list[float], list[float]]:
    """Wall times of set-up interpreters over those of the baseline
    interpreters started right after them, and the set-up wall times."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n" + wl.setup_code()
    ratios, walls = [], []
    for i in range(SETUP_PAIRS + 1):
        wall = _child(code, wl.workdir)[0]
        baseline = _child(BASELINE_CODE, wl.workdir)[0]
        if i:
            ratios.append(wall / baseline)
            walls.append(wall)
    return ratios, walls


def peak_rss_mb(wl) -> float:
    """Peak resident set of a fresh interpreter that serves the workload's
    probe requests (Workload.probe_requests) and nothing else."""
    probe_dir = os.path.join(wl.workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    code = (
        f"import sys\nsys.path[:0] = [{SRC!r}, {ROOT!r}]\n"
        "from perfbench.workloads import WORKLOADS\n"
        f"wl = WORKLOADS[{wl.name!r}]({wl.seed!r}, {probe_dir!r})\n"
        "for req in wl.probe_requests():\n"
        "    wl.run(req)\n"
    )
    return _child(code, wl.workdir)[1]


class Reference:
    """Times a fixed kernel of the program's own kind of work (interpreted
    Python around small complex numpy calls) between requests.

    The machine's speed drifts by tens of percent within seconds when other
    tenants load it, and the kernel slows down and speeds up with the
    program.  A request's time divided by the kernel's timing around it
    ("ref" units) cancels that drift.  A timing is the mean kernel time of a
    burst: a long request is followed by a long burst, which samples the
    machine's mix of fast and slow moments as the request did.  The kernel
    is the benchmark's own code, so no change to the program can move it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._m = (np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)) / 9.0
        self._v = np.ones(3, dtype=np.complex128) / np.sqrt(3.0)
        self._big = np.exp(1j * np.arange(1024.0)).reshape(32, 32) / 32.0
        self.wall_us: list[float] = []
        self.cpu_us: list[float] = []
        self._due = float("-inf")
        self._last = None

    def _kernel(self) -> float:
        np, m, v, big, acc = self._np, self._m, self._v, self._big, 0.0
        for i in range(REFERENCE_LOOPS):
            w = m @ v
            acc += float(np.vdot(v, w).real) + float(np.linalg.norm(w))
            acc += abs(complex((big @ big[i % 32])[i % 32]))
            acc += len(repr(acc)) * 1e-9
        return acc

    def latest(self) -> tuple[float, float]:
        """The kernel's (wall, CPU) time in us, timed anew when the last
        timing is REFERENCE_INTERVAL_S old."""
        now = time.perf_counter()
        if now >= self._due:
            burst_end = now + (REFERENCE_SHARE * (now - self._last) if self._last else 0.0)
            walls, cpus = [], []
            while not walls or time.perf_counter() < burst_end:
                t0, c0 = time.perf_counter_ns(), time.process_time_ns()
                self._kernel()
                walls.append((time.perf_counter_ns() - t0) * 1e-3)
                cpus.append((time.process_time_ns() - c0) * 1e-3)
            self.wall_us.append(statistics.fmean(walls))
            self.cpu_us.append(statistics.fmean(cpus))
            self._last = time.perf_counter()
            self._due = self._last + REFERENCE_INTERVAL_S
        return self.wall_us[-1], self.cpu_us[-1]


class Runner:
    """Times the requests of one workload; an op that raises is a failed op."""

    def __init__(self, wl):
        self.wl = wl
        self.errors = 0

    def one(self, req):
        """(wall seconds, CPU seconds, Outcome) for one request.

        Only ``wl.run`` is timed; reading back and checking the output is not.
        """
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            raw = self.wl.run(req)
        except Exception:
            raw = None
            self._report_error()
        wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
        if raw is None:
            return wall * 1e-9, cpu * 1e-9, self.wl.failure(req)
        try:
            outcome = self.wl.finish(req, raw)
        except Exception:  # output the check cannot even read
            self._report_error()
            outcome = self.wl.failure(req)
        return wall * 1e-9, cpu * 1e-9, outcome

    def _report_error(self) -> None:
        self.errors += 1
        if self.errors <= 3:
            traceback.print_exc(file=sys.stderr)


def measure(wl, seconds: float) -> tuple[dict, dict]:
    """The end-to-end run: set-up and peak-RSS children, warm-up, then
    requests for ``seconds``.

    A request starts only while one as long as the previous one would still
    end by the deadline.  Latencies are per op: a request's time divided by
    its ops and by the mean of the reference kernel timings taken just before
    and just after it; the median is taken in wall time.  The 99th
    percentile is printed, in wall and in process CPU time, but is not part
    of the result: on a shared machine the wall-time tail is set by
    preemption from other tenants, and the normalized CPU tail by how noisy
    the machine is at the moment.
    """
    ratios, setup_walls = setup_ratios(wl)
    rss_mb = peak_rss_mb(wl)
    runner = Runner(wl)
    reference = Reference()
    for req in wl.warmup():
        runner.one(req)
    ops = failed = unconverged = 0
    busy = 0.0
    wall_us, cpu_us, wall_ref, cpu_ref = (array("d") for _ in range(4))
    k = 0
    last = 0.0
    deadline = time.perf_counter() + seconds
    while k == 0 or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        ref_wall, ref_cpu = reference.latest()
        wall, cpu, outcome = runner.one(wl.request(k))
        after_wall, after_cpu = reference.latest()
        k += 1
        busy += wall
        ops += outcome.ops
        failed += outcome.failed
        unconverged += outcome.unconverged
        wall_us.append(wall * 1e6 / outcome.ops)
        cpu_us.append(cpu * 1e6 / outcome.ops)
        wall_ref.append(wall_us[-1] * 2 / (ref_wall + after_wall))
        cpu_ref.append(cpu_us[-1] * 2 / (ref_cpu + after_cpu))
        last = time.perf_counter() - began
    metrics = {
        "op_ref_p50": _percentile(wall_ref, 50),
        "ok_frac": 1.0 - (failed + unconverged) / ops,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(ratios) * BASELINE_START_S,
    }
    info = {
        "attempted": ops,
        "failed": failed,
        "unconverged": unconverged,
        "requests": k,
        "busy_s": busy,
        "ops_per_s": ops / busy,
        "op_us_p50": _percentile(wall_us, 50),
        "op_us_p99": _percentile(wall_us, 99),
        "op_cpu_us_p50": _percentile(cpu_us, 50),
        "op_cpu_us_p99": _percentile(cpu_us, 99),
        "op_cpu_ref_p50": _percentile(cpu_ref, 50),
        "op_cpu_ref_p99": _percentile(cpu_ref, 99),
        "reference_us_p50": statistics.median(reference.wall_us),
        "reference_cpu_us_p50": statistics.median(reference.cpu_us),
        "reference_timings": len(reference.wall_us),
        "setup_wall_s_p50": statistics.median(setup_walls),
        "setup_ratios": ratios,
    }
    return metrics, info


def traced(wl, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """Replay a fixed prefix of ``wl.trace_requests`` requests, untraced then
    traced, and repeat the pair while the next one fits in ``seconds``.

    Call counts and finder/CLI counters come from the first traced pass and
    must repeat in every later one; self times and the overhead are medians
    over the passes.  Outputs of every pass must equal the first untraced
    pass.  The first traced pass's spans are written to ``spans_path``.
    """
    import numpy as np

    from perfbench.tracer import FUNCTIONS, Tracer

    runner = Runner(wl)
    reference = Reference()
    for req in wl.warmup():
        runner.one(req)
    prefix = [wl.request(k) for k in range(wl.trace_requests)]
    ops = sum(wl.ops_in(r) for r in prefix)
    tracer = Tracer()
    attempted = failed = unconverged = 0
    expected = None
    counts: dict[str, float] = {}
    calls = None
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    self_ns: list[np.ndarray] = []
    load_share: list[float] = []
    output_mismatches = count_mismatches = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for with_trace in (False, True):
            tracer.clear()
            total = 0.0
            outcomes = []
            if with_trace:
                tracer.install()
            try:
                for i, req in enumerate(prefix):
                    reference.latest()
                    tracer.op = i
                    wall, _, outcome = runner.one(req)
                    total += wall
                    outcomes.append(outcome)
            finally:
                tracer.uninstall()
            pass_s[with_trace].append(total)
            attempted += ops
            failed += sum(o.failed for o in outcomes)
            unconverged += sum(o.unconverged for o in outcomes)
            if expected is None:
                expected = [o.fingerprint for o in outcomes]
                for o in outcomes:
                    for key, v in o.counts.items():
                        counts[key] = counts.get(key, 0) + v
            else:
                for j, o in enumerate(outcomes):
                    if o.fingerprint != expected[j]:
                        output_mismatches += 1
                        failed += o.ops - o.failed
            if with_trace:
                pass_calls, pass_self = tracer.summary()
                self_ns.append(pass_self)
                load_share.append(tracer.lead_share("cli.main", "state_sets.membership_scan"))
                if calls is None:
                    calls = pass_calls
                    tracer.write(spans_path)
                elif not np.array_equal(calls, pass_calls):
                    count_mismatches += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    self_med = np.median(np.vstack(self_ns), axis=0)
    metrics: dict[str, float] = {}
    for idx, fn in enumerate(FUNCTIONS):
        metrics[f"{fn}.calls_per_op"] = float(calls[idx]) / ops
        metrics[f"{fn}.self_us_per_op"] = float(self_med[idx]) / ops * 1e-3
    finds = counts.get("finds", 0)
    restarts = counts.get("restarts", 0)
    metrics["finder.restarts_per_find"] = restarts / finds if finds else 0.0
    metrics["finder.iters_per_find"] = counts.get("iterations", 0) / finds if finds else 0.0
    metrics["finder.converged_per_restart"] = counts.get("converged", 0) / restarts if restarts else 0.0
    metrics["cli.csv_bytes_per_row"] = counts.get("csv_bytes", 0) / ops
    metrics["cli.input_load_share"] = statistics.median(load_share)
    untraced_us = statistics.median(pass_s[False]) / ops * 1e6
    traced_us = statistics.median(pass_s[True]) / ops * 1e6
    metrics["trace.untraced_us_per_op"] = untraced_us
    metrics["trace.traced_us_per_op"] = traced_us
    metrics["trace.overhead_ratio"] = traced_us / untraced_us
    metrics["trace.reference_us"] = statistics.median(reference.wall_us)
    info = {
        "attempted": attempted,
        "failed": failed,
        "unconverged": unconverged,
        "prefix_requests": len(prefix),
        "prefix_ops": ops,
        "passes": len(self_ns),
        "output_mismatches": output_mismatches,
        "count_mismatches": count_mismatches,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info


def _unit(key: str) -> str:
    if key in END_TO_END_UNITS:
        return END_TO_END_UNITS[key]
    if key in LAYER_UNITS:
        return LAYER_UNITS[key]
    return "count" if key.endswith(".calls_per_op") else "us"


def _described_names(name: str, info: dict, metrics: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end numbers under the names the workload descriptions use."""
    out: dict[str, tuple[float, str]] = {}
    if name.startswith("scan"):
        out["samples_per_s"] = (info["ops_per_s"], "1/s")
    elif name == "report-fresh":
        out["reports_per_s"] = (info["ops_per_s"], "1/s")
        out["report_us_p50"] = (info["op_us_p50"], "us")
        out["report_us_p99"] = (info["op_us_p99"], "us")
    else:
        out["find_ms_p50"] = (info["op_us_p50"] * 1e-3, "ms")
        out["find_ms_p99"] = (info["op_us_p99"] * 1e-3, "ms")
        out["unconverged_frac"] = (info["unconverged"] / info["attempted"], "ratio")
    out["fail_frac"] = (info["failed"] / info["attempted"], "ratio")
    out["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    out["setup_s"] = (metrics["setup_s"], "s")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _import_package()
    from perfbench.envinfo import environment
    from perfbench.workloads import WORKLOADS

    env = environment()
    env["load_start"] = os.getloadavg()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, workdir)
        if trace:
            metrics, info = traced(wl, seconds, os.path.join(OUT_DIR, f"spans-{name}.tsv"))
        else:
            metrics, info = measure(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["load_end"] = os.getloadavg()
    correct = info["failed"] == 0 and not info.get("output_mismatches") and not info.get("count_mismatches")

    print(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)} op={wl.op_unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>16.6f} {_unit(key)}")
    if not trace:
        print("  as named in the workload descriptions:")
        for key, (value, unit) in _described_names(name, info, metrics).items():
            print(f"    {key:<42} {value:>16.6f} {unit}")
    print(
        f"  correct = {correct}  failed = {info['failed']}/{info['attempted']}"
        f"  unconverged = {info['unconverged']}"
    )
    result = {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {key: {"value": value, "unit": _unit(key)} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = status or 1
    print(json.dumps({"workloads": results}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
