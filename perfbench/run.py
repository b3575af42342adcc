"""cmiplab benchmark: closed-loop workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from `src/`.
One process with one caller runs whole rounds of a workload's operations until
`--seconds` have passed.  Every output is checked (see checks.py); an
operation whose output fails a check counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: operations per
second, median operation time, set-up time (median over fresh processes
spread over the run) and peak resident memory.  The times are rescaled to a
reference machine speed read from a gauge between operations (Gauge).  The
line before the result gives the sample counts.  --trace 1 spends half the
time untraced and half with every cmiplab layer wrapped (tracer.py), and
prints the per-layer metrics plus the tracing overhead.

The last line of standard output is the result object.  A copy goes to
perfbench/out/results/, with the raw operation and set-up times of a --trace 0
run next to it; a --trace 1 run writes its spans to perfbench/out/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# A 1e6-pulse session faulted in about 84 MB of fresh memory (21 500 page
# faults, 53 ms of system time) while the allocator handed freed arrays back
# to the kernel, and on the virtual machine this was tuned on what a fault
# costs moves with the host's state (README, "How the bounds were set").  So
# glibc keeps freed memory for reuse instead of unmapping blocks of up to
# 32 MB and trimming the heap, and numpy's huge-page advice for arrays of
# 4 MB or more is off (whether the kernel honours it depends on the host
# too).  Set before the first numpy import, here and in the set-up probes.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
try:
    _libc = ctypes.CDLL("libc.so.6")
except OSError:  # not glibc: its allocator keeps its own policy
    pass
else:
    _libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    _libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)

import workloads  # noqa: E402
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
# Interpreter start plus `import numpy` in a fresh process, and its time at
# the reference speed; see SetupProbes and StartGauge.
START_ARGV = [sys.executable, "-c", "import numpy"]
START_REF_S = 0.20


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cmiplab" / "__init__.py").is_file():
        fail(f"no cmiplab sources under {SRC}; run from a source checkout")
    try:
        return json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read {spec_path}: {exc}")


def set_up(workload: str, seed: int, scratch: Path):
    """Import, input generation and one warm-up call per layer."""
    sys.path.insert(0, str(SRC))
    scratch.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[workload](seed, scratch)
    workloads.warm_up(scratch)
    return ops


def run_process(argv) -> float:
    """Wall time of a child process, from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"{argv[1:3]} exited {proc.returncode}: "
             f"{proc.stderr.decode(errors='replace').strip()}")
    return elapsed


class Gauge:
    """Reads the machine's current speed from a fixed piece of work.

    The work, a pure-Python loop and numpy sorts that stay in a core's 4 MB
    L2 cache, touches no cmiplab code, so a change to the program cannot
    move it; only the machine can.  It is read between operations, and each
    operation's time is rescaled by REF_S over the mean of the readings
    before and after it.  The host this was tuned on switches between speed
    states about 1.5 times apart; the rescaled times follow the program, not
    the state (README, "How the bounds were set").
    """

    # the median reading on the machine behind the README's reference
    # figures; times are reported as if it had run at that speed throughout
    REF_S = 0.0215

    def __init__(self):
        import numpy as np
        self.np = np
        self.keys = np.random.default_rng(0).random(200_000)
        self.readings: list[float] = []
        self.read()

    def work(self):
        acc = 0
        for i in range(40_000):
            acc += i * i
        for _ in range(10):
            self.np.sort(self.keys)

    def read(self) -> float:
        t0 = time.perf_counter()
        self.work()
        self.readings.append(time.perf_counter() - t0)
        return self.readings[-1]

    def rescale(self, seconds: float, before: float) -> float:
        """`seconds`, measured since the reading `before`, at the reference
        speed; takes a new reading for the end of the interval."""
        return seconds * self.REF_S / ((before + self.read()) / 2.0)


class StartGauge(Gauge):
    """The gauge for 1e6-pulse sessions: a fresh `python3 -c "import numpy"`.

    Sessions and that process sped up and slowed down together, by a third,
    with a state of the host that neither the L2-bound gauge nor numpy draws
    over 8 MB arrays in this process followed.  A reading takes about 0.2 s.
    """

    REF_S = START_REF_S

    def __init__(self):
        self.readings: list[float] = []
        self.read()

    def work(self):
        run_process(START_ARGV)


GAUGES = {"paper_figures": Gauge, "qkd_sessions": StartGauge, "verify_gate": Gauge}


class SetupProbes:
    """Fresh-process set-ups, spread evenly over the measured loop.

    Each probe runs `run.py --setup-probe` (import, inputs, one warm-up call
    per layer) and is timed from spawn to exit, so interpreter start counts.
    Spreading the probes over the run exposes them to the same machine noise
    as the operations, rather than to the first few seconds only.

    Interpreter start and `import numpy` are about two thirds of a probe.
    They map shared libraries, so their time follows the host's page-fault
    cost, which the gauge does not see: it moved them by a quarter while the
    rest of the probe stayed put.  So each probe is paired with a fresh
    `python3 -c "import numpy"` started just before it, and START_REF_S
    stands in for that part: set-up time is START_REF_S plus the median of
    probe minus reference.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed = workload, seed
        self.due = [seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.times: list[float] = []
        self.ref_times: list[float] = []

    def __call__(self, elapsed: float):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.probe()

    def probe(self):
        scratch = OUT / f"probe-{os.getpid()}-{len(self.times)}"
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
                self.workload, "--seed", str(self.seed), "--scratch", str(scratch)]
        self.ref_times.append(run_process(START_ARGV))
        self.times.append(run_process(argv))
        shutil.rmtree(scratch, ignore_errors=True)

    def median(self) -> float:
        self(math.inf)  # any probe the loop did not reach yet
        return START_REF_S + statistics.median(
            p - r for p, r in zip(self.times, self.ref_times))


class Loop:
    """Runs whole rounds of operations and keeps their times and outcomes."""

    def __init__(self, ops, gauge: Gauge, tracer=None):
        from cmiplab import cli
        self.main = cli.main
        self.ops = ops
        self.gauge = gauge
        self.tracer = tracer
        self.times: list[float] = []    # as measured
        self.scaled: list[float] = []   # at the reference speed
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def run_op(self, op):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        buf = io.StringIO()
        before = self.gauge.readings[-1]
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rcs = [self.main(argv) for argv in op.calls]
            dt = time.perf_counter() - t0
            texts = {p.name: p.read_text(encoding="utf-8") for p in op.outputs}
        except Exception as exc:  # a crash in the program is a failed operation
            print(f"perfbench: {op.label} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed += 1
            self.gauge.read()
            return
        self.times.append(dt)
        self.scaled.append(self.gauge.rescale(dt, before))
        stdout = buf.getvalue()
        self.output_bytes += len(stdout) + sum(len(t) for t in texts.values())
        try:
            op.check(rcs, stdout, texts)
        except (CheckFailed, ValueError, TypeError, KeyError, IndexError) as exc:
            print(f"perfbench: {op.label} failed its check: {exc}", file=sys.stderr)
            self.failed += 1

    def run(self, seconds: float, between=None):
        """Whole rounds until `seconds` of wall time have passed; `between`
        is called with the elapsed time before each operation."""
        start = time.perf_counter()
        while True:
            for op in self.ops:
                if between is not None:
                    between(time.perf_counter() - start)
                self.run_op(op)
            if time.perf_counter() - start >= seconds:
                return

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self) -> float:
        return self.completed / sum(self.scaled)

    def op_p50_ms(self) -> float:
        return statistics.median(self.scaled) * 1e3


def result_line(spec_metrics, values: dict, loop_attempted: int, loop_failed: int):
    metrics = {}
    for m in spec_metrics:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": loop_failed == 0, "attempted": loop_attempted,
            "failed": loop_failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scratch", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.scratch))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"scratch-{tag}-{os.getpid()}"
    try:
        ops = set_up(args.workload, args.seed, scratch)
        if args.trace == 0:
            gauge = GAUGES[args.workload]()
            probes = SetupProbes(args.workload, args.seed, args.seconds)
            loop = Loop(ops, gauge)
            loop.run(args.seconds, between=probes)
            setup_s = probes.median()
            if not loop.times:
                fail("no operation completed")
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "ops_per_s": (loop.ops_per_s(), "ops/s"),
                "op_p50_ms": (loop.op_p50_ms(), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            result = result_line(spec["end_to_end"], values, loop.attempted, loop.failed)
            print(f"{args.workload}: {loop.attempted} operations, {loop.failed} failed; "
                  f"op_p50_ms over {len(loop.times)} samples; setup_s median of "
                  f"{SETUP_PROBES} fresh processes; gauge median "
                  f"{statistics.median(gauge.readings) * 1e3:.2f} ms, reference "
                  f"{gauge.REF_S * 1e3:.2f} ms")
        else:
            from tracer import Tracer
            gauge = GAUGES[args.workload]()
            plain = Loop(ops, gauge)
            plain.run(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = Loop(ops, gauge, tracer)
            traced.run(args.seconds / 2)
            if not plain.times or not traced.times:
                fail("no operation completed")
            checks = [m["name"][len("verify.check."):-len(".ms")]
                      for m in spec["per_layer"] if m["name"].startswith("verify.check.")]
            values = tracer.layer_metrics(traced.completed, checks, traced.output_bytes)
            overhead = (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0
            values["trace.overhead_pct"] = (overhead, "%")
            values["trace.ops"] = (traced.completed, "count")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            result = result_line(spec["per_layer"], values, attempted, failed)
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / "traces" / f"{tag}.json",
                         {"workload": args.workload, "seed": args.seed,
                          "traced_ops": traced.completed})
            print(f"{args.workload}: {plain.attempted} untraced and {traced.attempted} "
                  f"traced operations, {failed} failed; tracing overhead "
                  f"{overhead:.1f}% on ops_per_s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    (OUT / "results" / f"{tag}.json").write_text(line + "\n", encoding="utf-8")
    if args.trace == 0:
        (OUT / "results" / f"{tag}.times.json").write_text(json.dumps(
            {"op_s": loop.times, "op_scaled_s": loop.scaled, "setup_s": probes.times,
             "start_ref_s": probes.ref_times, "gauge_s": gauge.readings}) + "\n",
            encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
