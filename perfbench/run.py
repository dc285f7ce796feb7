"""alphadiv benchmark.

    python3 perfbench/run.py --workload {verify,sweep,recover} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``.  Inputs are generated from ``--seed``; every output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment.  Outputs, the full record and the
spans of a traced run are written under ``.bench_out/``.  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify", "sweep", "recover")

# Times are reported at a reference speed: the speed at which the
# calibration kernel below takes exactly REFERENCE_KERNEL_S.  On a shared
# virtual machine the speed of the same code drifts by up to 2.5x over tens
# of seconds; scaling every piece of a timed section by the kernel's time
# measured around it removes most of that drift from the figures (see Run).
REFERENCE_KERNEL_S = 0.0025
SAMPLE_INTERVAL_S = 0.25
NEAREST_CALIBRATIONS = 5
MIN_PASSES = 2
TRACED_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="alphadiv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


_KERNEL_P = np.linspace(0.5, 3.0, 6)
_KERNEL_Q = _KERNEL_P[::-1].copy()
_KERNEL_V = np.exp(1j * np.outer(np.arange(12), np.arange(12)) / 12.0) / np.sqrt(12.0)
_KERNEL_M = np.stack([np.eye(12) * (1.0 + k) + 0.1 * (_KERNEL_V + _KERNEL_V.conj().T) for k in range(8)])
_KERNEL_H = np.array([[1.5, 0.2 - 0.1j], [0.2 + 0.1j, 1.0]])


def _kernel():
    """Fixed work shaped like the program's and independent of it, in three
    parts of similar length: validated small-vector arithmetic, small
    Hermitian eigendecompositions with a matrix power, and batched ones."""
    acc = 0.0
    for i in range(40):
        a = -0.885 + 0.044 * i
        p = np.asarray(_KERNEL_P, dtype=float)
        if not (np.all(np.isfinite(p)) and np.all(p > 0.0)):
            raise ValueError("calibration input")
        acc += float(
            np.sum(
                2.0 / (1.0 - a) * _KERNEL_Q
                + 2.0 / (1.0 + a) * p
                - 4.0 / (1.0 - a * a) * _KERNEL_Q ** ((1.0 + a) / 2.0) * p ** ((1.0 - a) / 2.0)
            )
        )
    for i in range(30):
        w, u = np.linalg.eigh(_KERNEL_H + 0.01 * i)
        acc += float(np.trace((u * w ** 0.7) @ u.conj().T).real)
    for _ in range(3):
        acc += float(np.linalg.eigh(_KERNEL_M)[0].sum())
    return acc


def calibrate():
    """Median of three timings of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_program():
    """Import the program afresh from the checkout and return its modules."""
    for name in [m for m in sys.modules if m == "alphadiv" or m.startswith("alphadiv.")]:
        del sys.modules[name]
    return {short: importlib.import_module(f"alphadiv.{short}") for short in tracing.MODULES}


class _SpeedSampler:
    """Cuts a timed section into segments, calibrating between them.

    With a ``calibrate`` callback, a SIGALRM handler calls it every
    SAMPLE_INTERVAL_S while the section runs, between two of its bytecodes;
    the handler's own time falls between segments, outside the section.
    Without one the section is a single segment.
    """

    def __init__(self, calibrate=None):
        self._calibrate = calibrate
        self._done = False
        self.segments = []  # (start, seconds)

    def __enter__(self):
        self._start = time.perf_counter()
        if self._calibrate:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        if self._done:  # a signal that arrived while the section was ending
            return
        self.segments.append((self._start, time.perf_counter() - self._start))
        self._calibrate()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __exit__(self, *exc):
        self._done = True
        end = time.perf_counter()
        if self._calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.segments.append((self._start, end - self._start))
        return False


class Run:
    """Set-ups and passes of one workload, with their operation counts,
    problems, output digests and times.

    Every pass starts with a fresh set-up, so set-up times are sampled
    across the whole run like the passes are.  Calibrations run between
    timed sections and every SAMPLE_INTERVAL_S inside them; each segment of
    a section counts at reference speed as its measured time times
    REFERENCE_KERNEL_S over the median of the NEAREST_CALIBRATIONS
    calibrations closest to it in time.
    """

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.io = workload, seed, workdir / "io"
        self.setup_s = []
        self.record = {"set-up": []}
        self.kernel_s = []  # (time, seconds) of every calibration
        self.inputs = {}
        self.attempted = 0
        self.failed = 0
        self.known_misses = 0
        self.problems = []
        self.digests = {}

    def miss_ratio(self):
        """Share of operations that failed or missed their tolerance through
        a known defect."""
        return (self.failed + self.known_misses) / self.attempted

    def _calibrate(self):
        seconds = calibrate()
        self.kernel_s.append((time.perf_counter(), seconds))

    def _timed(self, fn, tracer=None):
        """Run fn(); returns (result or raised exception, segments).

        Traced sections are not sampled: the kernel would add spans."""
        sampler = _SpeedSampler(None if tracer else self._calibrate)
        try:
            with sampler, tracing.installed(tracer) if tracer else contextlib.nullcontext():
                result = fn()
        except Exception as exc:  # a raising job is a failed operation, not a crash
            result = exc
        self._calibrate()
        return result, sampler.segments

    def _seconds(self, name, segments):
        """(measured, at reference speed) seconds of a section; records both."""
        measured = scaled = 0.0
        for start, seconds in segments:
            middle = start + 0.5 * seconds
            nearest = sorted(self.kernel_s, key=lambda tk: abs(tk[0] - middle))[:NEAREST_CALIBRATIONS]
            measured += seconds
            scaled += seconds * REFERENCE_KERNEL_S / statistics.median(k for _, k in nearest)
        self.record.setdefault(name, []).append(
            {"measured_s": measured, "scaled_s": scaled, "segments": len(segments)}
        )
        return measured, scaled

    def _set_up(self):
        """Import the program afresh, generate the inputs and warm up.

        Warm-up is one run of the workload's first job.
        """
        modules = import_program()
        shutil.rmtree(self.io, ignore_errors=True)
        self.io.mkdir(parents=True)
        jobs, self.inputs = workloads.build(self.workload, modules, self.seed, self.io)
        jobs[0].run()
        return jobs

    def set_up(self):
        """One set-up, timed; returns its jobs and segments."""
        self._calibrate()
        jobs, segments = self._timed(self._set_up)
        if isinstance(jobs, Exception):
            raise jobs
        return jobs, segments

    def run_pass(self, label, tracer=None):
        """Set up, run every job once in order, then check the outputs.

        Returns the pass's measured seconds and {job: (kind, [seconds at
        reference speed of each run])}.
        """
        jobs, setup_segments = self.set_up()
        runs = [(job, [self._timed(job.run, tracer) for _ in range(job.repeats)]) for job in jobs]
        self.setup_s.append(self._seconds("set-up", setup_segments)[1])
        times, measured = {}, 0.0
        for job, repeats in runs:
            scaled = []
            for result, segments in repeats:
                seconds, at_reference = self._seconds(job.name + (" (traced)" if tracer else ""), segments)
                measured += seconds
                scaled.append(at_reference)
            times[job.name] = (job.kind, scaled)
            if isinstance(result, Exception):
                outcome = workloads.Outcome(
                    job.ops, job.ops, "", [f"{job.name}: raised {type(result).__name__}: {result}"]
                )
            else:
                outcome = job.check(result)
            if outcome.digest != self.digests.setdefault(job.name, outcome.digest):
                self.problems.append(f"{job.name}: output of {label} differs from the first pass")
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.known_misses += outcome.known_misses
            self.problems.extend(outcome.problems)
        return measured, times


def _typical(passes, kind=None):
    """Sum over jobs (of one kind) of each job's median time over its runs."""
    samples = {}
    for times in passes:
        for name, (job_kind, seconds) in times.items():
            if kind is None or job_kind == kind:
                samples.setdefault(name, []).extend(seconds)
    return sum(statistics.median(v) for v in samples.values())


def measure(run, seconds):
    """Repeat the job list until the next pass would overrun ``seconds``."""
    run.set_up()  # the first set-up, not counted, compiles the program's bytecode
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        wall, times = run.run_pass(f"pass {len(passes) + 1}")
        passes.append(times)
        walls.append(wall)
        typical = statistics.median(walls) + statistics.median(run.setup_s)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            break
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "wall_s": (_typical(passes), "s"),
        "classical_s": (_typical(passes, "classical"), "s"),
        "quantum_s": (_typical(passes, "quantum"), "s"),
        "ok_ratio": (1.0 - run.miss_ratio(), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(passes)


def measure_traced(run, workdir):
    """Untraced passes, then traced ones; per-layer figures and overhead."""
    untraced = [run.run_pass(f"untraced pass {i + 1}")[1] for i in range(TRACED_PASSES)]
    run.problems.extend(f"known count: {p}" for p in tracing.check_known_counts())
    tracers, traced = [], []
    for i in range(TRACED_PASSES):
        tracer = tracing.Tracer()
        traced.append(run.run_pass(f"traced pass {i + 1}", tracer)[1])
        tracers.append(tracer)
    if len({t.count_signature() for t in tracers}) != 1:
        run.problems.append("layer counts differ between traced passes")
    tracers[-1].write(workdir / "spans.npz")
    per_pass = [tracing.layer_metrics(t) for t in tracers]
    # counts repeat exactly (checked above); times are medians over the passes
    metrics = {
        name: (value if unit == "count" else statistics.median(p[name][0] for p in per_pass), unit)
        for name, (value, unit) in per_pass[-1].items()
    }
    metrics["trace.overhead_s"] = (_typical(traced) - _typical(untraced), "s")
    metrics["fail_ratio"] = (run.miss_ratio(), "ratio")
    return metrics, 2 * TRACED_PASSES


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def environment(args, inputs):
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "alphadiv").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **inputs,
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("alphadiv")
    if spec is None or not Path(spec.origin).resolve().is_relative_to(SRC):
        print(f"error: no alphadiv package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    run = Run(args.workload, args.seed, workdir)
    if args.trace:
        metrics, passes = measure_traced(run, workdir)
    else:
        metrics, passes = measure(run, args.seconds)

    outputs = hashlib.sha256("".join(f"{k}={v};" for k, v in sorted(run.digests.items())).encode())
    env = {
        **environment(args, run.inputs),
        "passes": passes,
        "set_ups": len(run.setup_s),
        # equal for two runs of one seed: outputs are byte-identical across runs
        "outputs_sha256": outputs.hexdigest(),
    }
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    record = {
        "environment": env,
        "problems": run.problems,
        "known_misses": run.known_misses,
        "timed_sections": run.record,
        "calibrations": run.kernel_s,
        **result,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in dict.fromkeys(run.problems):
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
