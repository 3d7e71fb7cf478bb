"""Seeded benchmark for minq: end-to-end metrics, or per-layer ones with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload search-short --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1                  # every workload, one process each

A run prints one line per metric (value, unit, sample count), the workload
properties and the result digest, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
It exits 1 when any operation failed or any check mismatched, 2 when the
program cannot be imported from ``src/``.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("search-short", "search-long")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "minq", "__init__.py")):
        print(f"bench: no minq package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import minq

    if not os.path.abspath(minq.__file__).startswith(os.path.join(src, "")):
        print(f"bench: imported minq from {minq.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    _import_program()
    if args.workload is None:
        return _run_all(args)

    import workloads

    spec = workloads.SPECS[args.workload]
    table = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    workdir = os.path.join(ROOT, ".bench_work", f"{spec.name}-{os.getpid()}")
    spans = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{spec.name}-seed{args.seed}.jsonl")
    try:
        report = workloads.run_workload(spec, args.seed, args.seconds, bool(args.trace),
                                        workdir, spans)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    failures = report["failures"]
    attempted = report["attempted"]
    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, samples) in report["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {table[name][0]:6s} {samples}")
    failed = report["failed"]
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted}")
    print("properties " + json.dumps(report["properties"], sort_keys=True))
    print(f"digest {report['digest']}")
    if spans:
        print(f"spans {os.path.relpath(spans, ROOT)}")
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, (value, _) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
