"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> [small]

Prints the set-up seconds (import pencilab, load pencils, build inputs, one
warm-up) and then a calibration burst's median kernel seconds, for scaling
the first to the reference host speed.  run.py starts several of these per
run and reports the median scaled set-up as `setup_s`.
"""

import sys
import time

import calibrate
import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    wl = workloads.setup(name, seed, small=sys.argv[3:] == ["small"])
    elapsed = time.perf_counter() - t0
    wl.close()
    print(repr(elapsed), repr(calibrate.burst()))
