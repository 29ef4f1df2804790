"""pencilab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each operation starts when the
previous one has finished.  The run sets up the workload, computes the
reference outputs, then repeats passes over the workload's operations until
--seconds have gone by (at least one pass), checking every output outside
the timed region.  With --trace 0 it prints the end-to-end metrics, their
times scaled to a reference host speed (see calibrate.py); with
--trace 1 it repeats the measurement with every public pencilab function
wrapped and prints the per-layer metrics.  `attempted` and `failed` count
distinct operations of the list, not timed calls: an operation fails when any
of its passes fails a check, so both counts depend on the seed alone and not
on how many passes fit in --seconds.  The last line of standard output is
the JSON result; the line before it holds provenance and sample counts.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
import workloads
from tracer import LAYERS, TRACED, Tracer

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 4                 # fresh interpreters, besides this process
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "ops_per_s": "1/s"}
# Failure kind -> per-layer metric counting the operations that had it.
CHECK_METRICS = {"wrong_verdict": "check.wrong_verdicts",
                 "norm_miss": "check.norm_misses",
                 "boundary_defect": "check.boundary_defects",
                 "bad_grouping": "check.bad_groupings",
                 "csv_mismatch": "check.csv_mismatches",
                 "error": "check.errors"}

# Layers the workload design says a workload never reaches.
ZERO_CALLS = {
    "certify": (),
    "ellipticity": tuple(f"halfline.{f}" for f in LAYERS["halfline"])
    + tuple(f"weights.{f}" for f in LAYERS["weights"]),
    "halfline-points": ("pencil.eval_symbol", "pencil.check_lemma21",
                        "pencil.remark22_checks")
    + tuple(f"weights.{f}" for f in LAYERS["weights"]),
}


class Tally:
    """Latencies, pass times and check outcomes of one measurement loop.

    Outcomes are kept per operation: the failure kinds seen in any of its
    passes.  The counts below are over operations, so they do not change
    with the number of passes.
    """

    def __init__(self, ops: int):
        self.latencies = [[] for _ in range(ops)]    # per operation, per pass
        self.windows = [[] for _ in range(ops)]      # (start, end) of each
        self.calibrations = []
        self.outcomes = [set() for _ in range(ops)]  # failure kinds seen
        self.unexpected_ops = set()
        self.errors = []

    @property
    def pass_times(self) -> list:
        return [sum(times) for times in zip(*self.latencies)]

    @property
    def calls(self) -> int:
        return sum(len(times) for times in self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(bool(kinds) for kinds in self.outcomes)

    @property
    def kinds(self) -> Counter:
        """Failure kind -> operations that had it in some pass."""
        return Counter(k for kinds in self.outcomes for k in kinds)

    def known(self, ops) -> Counter:
        """Known defect -> operations that failed only through it."""
        return Counter(ops[i].known[k]
                       for i, kinds in enumerate(self.outcomes)
                       if i not in self.unexpected_ops for k in kinds)

    def record(self, i, op, result, error) -> None:
        if error is None:
            try:
                kinds = op.check(result)
            except Exception as exc:         # output the check cannot read
                error = exc
        if error is not None:
            kinds = ["error"]
            if len(self.errors) < 5:
                where = traceback.extract_tb(error.__traceback__)[-1]
                self.errors.append(f"{op.name}: {type(error).__name__}: {error} "
                                   f"({where.filename}:{where.lineno})")
        self.outcomes[i].update(kinds)
        if any(k not in op.known for k in kinds):
            self.unexpected_ops.add(i)


def measure(wl, seconds: float, tracer: Tracer | None = None) -> Tally:
    tally = Tally(len(wl.ops))
    clock = time.perf_counter
    calibrator = calibrate.Calibrator(enabled=tracer is None)
    if tracer is not None:
        tracer.install()
    try:
        with calibrator:
            start = clock()
            while True:
                for i, op in enumerate(wl.ops):
                    error = result = None
                    t0, stolen = clock(), calibrator.stolen
                    try:
                        result = op.run()
                    except Exception as exc:    # an operation that raises fails
                        error = exc
                    t1 = clock()
                    dt = t1 - t0 - (calibrator.stolen - stolen)
                    tally.latencies[i].append(dt)
                    tally.windows[i].append((t0, t1))
                    tally.record(i, op, result, error)
                if clock() - start >= seconds:
                    break
    finally:
        if tracer is not None:
            tracer.restore()
    tally.calibrations = calibrator.samples
    return tally


def setup_probe(name: str, seed: int, small: bool) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) from a fresh interpreter."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    done = subprocess.run(argv + (["small"] if small else []), check=True,
                          capture_output=True, text=True, timeout=170)
    setup_s, kernel_s = done.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


def git_commit(root: Path) -> str | None:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(wl) -> dict:
    # Imported here: set-up must be the first to import numpy and pencilab.
    import mpmath
    import numpy
    import scipy
    import pencilab

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "pencilab": pencilab.__version__,
        "git_commit": git_commit(workloads.ROOT),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": wl.seed, "inputs": wl.inputs,
    }


def end_to_end(tally: Tally, setups: list) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same figures unscaled.

    Each operation's time is scaled to the host speed at which the
    calibration kernel takes calibrate.REF_S, by the kernel's mean time
    over the samples taken while the operation ran, or, for an operation
    too short to hold calibrate.MIN_INSIDE of them, within
    calibrate.WINDOW_S of it.  The mean, not the median: the operation's
    time adds up the host's slow moments, and so does the mean.  Each
    set-up is scaled by the burst timed right after it in the same
    process.  Latency percentiles are taken over the operations of the
    list, each at its median over the passes: every operation weighs the
    same, and a slow moment of the host moves one pass, not the percentile.
    """
    stamps = [t for t, _ in tally.calibrations]
    kernel = [d for _, d in tally.calibrations]

    def scale(start: float, end: float) -> float:
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_right(stamps, end)
        if hi - lo < calibrate.MIN_INSIDE:
            lo = bisect.bisect_left(stamps, start - calibrate.WINDOW_S)
            hi = bisect.bisect_right(stamps, end + calibrate.WINDOW_S)
        return calibrate.REF_S / statistics.fmean(kernel[lo:hi] or kernel)

    def figures(latencies, setup_times):
        per_op = [statistics.median(times) for times in latencies]
        passes = [sum(times) for times in zip(*latencies)]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(passes),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_p90_ms": 1e3 * statistics.quantiles(per_op, n=10,
                                                    method="inclusive")[8],
            "ops_per_s": tally.calls / sum(passes),
        }

    scaled = [[dt * scale(*w) for dt, w in zip(times, windows)]
              for times, windows in zip(tally.latencies, tally.windows)]
    scaled_setups = [t * calibrate.REF_S / k for t, k in setups]
    metrics = {name: (value, UNITS[name])
               for name, value in figures(scaled, scaled_setups).items()}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    return metrics, figures(tally.latencies, [t for t, _ in setups])


def per_layer(name: str, plain: Tally, traced: Tally, tracer: Tracer) -> dict:
    """Per-pass calls, self time and counts.  Every pass makes the same
    calls, so a count per pass repeats exactly from run to run.  A check
    count is the number of operations of the list that had that failure,
    averaged over the untraced and the traced loop."""
    out = {}
    passes = len(traced.pass_times)
    functions = tracer.per_function()
    for fn in TRACED:
        calls, self_s = functions[fn]
        out[f"{fn}.calls"] = (calls / passes, "count")
        out[f"{fn}.self_s"] = (self_s / passes, "s")
    solutions = tracer.counts["halfline.solutions"]
    fallbacks = tracer.counts["halfline.fallbacks"]
    out["halfline.solutions"] = (solutions / passes, "count")
    out["halfline.fallbacks"] = (fallbacks / passes, "count")
    out["halfline.fallback_ratio"] = (fallbacks / solutions if solutions else 0.0,
                                      "ratio")
    out["halfline.clustered"] = (tracer.counts["halfline.clustered"] / passes,
                                 "count")
    out["pencil.ambiguous_groupings"] = (
        tracer.counts["pencil.ambiguous_groupings"] / passes, "count")
    out["pencil.real_axis_rejections"] = (
        tracer.raised["pencil.tau_roots", "EllipticityError"] / passes, "count")
    kinds = plain.kinds + traced.kinds
    for kind, metric in CHECK_METRICS.items():
        out[metric] = (kinds[kind] / 2, "count")
    out["fail_frac"] = ((plain.failed + traced.failed)
                        / (plain.attempted + traced.attempted), "ratio")
    out["trace.overhead_s"] = (statistics.median(traced.pass_times)
                               - statistics.median(plain.pass_times), "s")
    out["trace.zero_call_violations"] = (
        sum(functions[fn][0] > 0 for fn in ZERO_CALLS[name]), "count")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, small: bool = False) -> int:
    """Run one workload; `small` shrinks its inputs for the smoke tests."""
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        t0 = time.perf_counter()
        wl = workloads.setup(args.workload, args.seed, small)
        setups = [(time.perf_counter() - t0, calibrate.burst())]
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        if not args.trace:
            setups += [setup_probe(args.workload, args.seed, small)
                       for _ in range(SETUP_PROBES)]
        if wl.reference is not None:
            wl.reference()
        plain = measure(wl, args.seconds)
        if args.trace:
            tracer = Tracer()
            traced = measure(wl, args.seconds, tracer)
            metrics = per_layer(args.workload, plain, traced, tracer)
            tallies = (plain, traced)
        else:
            metrics, unscaled = end_to_end(plain, setups)
            tallies = (plain,)
        detail = provenance(wl)
    finally:
        wl.close()

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    detail.update({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "passes": [len(t.pass_times) for t in tallies],
        "op_samples": [t.calls for t in tallies],
        "setup_samples": setups,
        "failures_by_kind": dict(sum((t.kinds for t in tallies), Counter())),
        "known_defect_failures": dict(sum((t.known(wl.ops) for t in tallies),
                                          Counter())),
        "unexpected_failures": sum(len(t.unexpected_ops) for t in tallies),
        "first_errors": [e for t in tallies for e in t.errors][:5],
        "calibration_s": statistics.median(d for _, d in plain.calibrations),
        "calibration_samples": len(plain.calibrations),
    })
    if args.trace:
        detail["zero_call_violations"] = [
            fn for fn in ZERO_CALLS[args.workload]
            if metrics[f"{fn}.calls"][0] > 0]
    else:
        detail["unscaled"] = unscaled
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": detail["unexpected_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
