"""Self-test of the benchmark: seeded inputs and deterministic counts repeat.

    python3 perfbench/selftest.py

For every workload, builds pass 0's op list twice from one seed and requires
identical inputs, and requires pass 1's list to differ from it. Then runs
the traced pass twice in this process and requires every deterministic
count (root-finder evaluations, phi calls, RK4 sweeps, minimizer
iterations, ...) to match exactly. Also requires minimize(0.4, 256) to take
the same number of iterations on two calls. Exits non-zero on any mismatch.
"""

from __future__ import annotations

import sys
import tempfile

import run

SEED = 7


def traced_counts(workload, ops):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(workload, ops)
    finally:
        tracer.uninstall()
    return tracer.deterministic_counts("op")


def main() -> int:
    run.load_library()
    from workloads import WORKLOADS
    from soapfilm import direct_min

    failures = 0
    first, second = (direct_min.minimize(0.4, 256, "cylinder").iterations for _ in range(2))
    print(f"minimize(0.4, 256) iterations: {first}, {second}")
    failures += first != second
    with tempfile.TemporaryDirectory(dir=run.ROOT) as scratch:
        for name, make in WORKLOADS.items():
            a, b = make(SEED, scratch), make(SEED, scratch)
            ops = a.ops_for(0)
            if ops != b.ops_for(0) or ops == a.ops_for(1):
                print(f"{name}: pass 0 inputs differ between two builds from seed {SEED},"
                      " or equal pass 1's")
                failures += 1
                continue
            counts = [traced_counts(a, ops), traced_counts(a, ops)]
            for key in counts[0]:
                same = counts[0][key] == counts[1][key]
                failures += not same
                print(f"{name:9s} {key:32s} {counts[0][key]:>12} {counts[1][key]:>12}"
                      f"  {'ok' if same else 'MISMATCH'}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
