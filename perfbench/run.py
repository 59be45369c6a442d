"""The PS2 reproduction's benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload lr-train --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``lr-train``, ``ps-storm`` and ``serve-chain``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with every tracer off; ``--trace 1`` runs the per-layer traced
repetitions and the program-traced critical-path repetition instead.
The report is printed as a table, and its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before measuring anything.
"""

import os
import sys

# One process, one thread: pin the BLAS/OpenMP pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lr-train", "ps-storm", "serve-chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s"
              % (src, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: imported the program from %s, not from %s"
              % (repro.__file__, src), file=sys.stderr)
        return 2

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    report = harness.run_benchmark(
        workload, args.seed, args.seconds, args.trace,
        span_dir=os.path.join(HERE, "out"))

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        workload.name, args.seed, args.seconds, args.trace))
    print("  workload: %s" % workload.describe())
    print("  %-24s %14s  %-9s %-8s %s" % ("metric", "value", "unit", "kind",
                                        "note"))
    for name, unit, kind in harness.REPORTED:
        print("  %-24s %14s  %-9s %-8s %s" % (
            name, _fmt(report.metrics.get(name)), unit, kind,
            report.notes.get(name, "")))
    if report.layer is not None:
        print("  per layer (per traced repetition):")
        for name, unit in harness.PER_LAYER:
            print("  %-36s %14s  %s" % (name, _fmt(report.layer[name]), unit))
        print("  %s" % report.notes["spans"])
    correct = True
    for name, ok, detail in report.checks:
        correct = correct and bool(ok)
        print("  check %-4s %s%s" % ("ok" if ok else "FAIL", name,
                                     " (%s)" % detail if detail else ""))

    if args.trace:
        chosen = {name: {"value": report.layer[name], "unit": unit}
                  for name, unit in harness.PER_LAYER}
    else:
        chosen = {name: {"value": report.metrics[name], "unit": unit}
                  for name, unit, _kind in harness.END_TO_END}
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": chosen}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
