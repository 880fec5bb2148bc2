"""wellprobe benchmark: one workload per process, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Workloads
are estimator, evolution, survey and cli (see workloads.py and README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (throughput of checked operations,
median and tail latency, peak resident memory, set-up time).  With
``--trace 1`` the run measures S/2 seconds untraced, then the same
operations for S/2 seconds with span wrappers installed, and reports
per-layer metrics, the tracing overhead, and whether the outputs of both
halves are bit-identical.  The line before it is a JSON report with the
provenance, the generated input sizes, latency quantiles, set-up samples,
failures and known defects; it is also written to .perfbench_out/.
"""

import argparse
import os
import sys
import time

OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["estimator", "evolution", "survey", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up in this fresh interpreter and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wellprobe", "__init__.py")):
        print("perfbench: ./src/wellprobe not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    # set-up: a fresh interpreter from before `import wellprobe` until the
    # workload has expanded every distinct (state, basis size) it uses
    start = time.perf_counter()
    import wellprobe

    if os.path.dirname(os.path.abspath(wellprobe.__file__)) != os.path.join(src, "wellprobe"):
        print(f"perfbench: imported {wellprobe.__file__}, not ./src", file=sys.stderr)
        return 2
    import warnings

    import workloads

    wl = workloads.make(args.workload, args.seed, root)
    tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        wl.warm()
    setup_s = time.perf_counter() - start

    import json

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import harness

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    if tracer is None:
        result = harness.run_plain(wl, args, root, setup_s)
    else:
        result = harness.run_traced(wl, args, root, tracer, os.path.join(root, OUT_DIR))
    report, line = result
    path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
