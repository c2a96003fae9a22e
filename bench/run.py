"""Benchmark of the matpolyeq solver on planted instances.

    python3 bench/run.py --workload uni-enum --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last line of standard output
is the result object.  Per-instance rows (and spans, when tracing) are
written under ``bench/out/``.
"""

import os

# BLAS and OpenMP read these once, when numpy loads: pin one thread first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "matpolyeq", "__init__.py")
    if not os.path.isfile(package):
        print(f"run.py: no matpolyeq sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"run.py: unknown workload {args.workload!r};"
            f" choose from {', '.join(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out = harness.run(
        harness.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        os.path.join(HERE, "out"),
    )
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
