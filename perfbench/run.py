#!/usr/bin/env python3
"""Builds and runs the probsyn end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload refresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the library and the benchmark into
.bench_build/ (Release); later runs rebuild only what changed. Build output
goes to standard error; the last line of standard output is the JSON result,
which must hold exactly the metrics BENCHMARK.json lists for the mode.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT}")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                            *generator], stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    return BUILD / "perfbench"


def manifest_mismatch(output, trace):
    """Why the result line does not list BENCHMARK.json's metrics, or None."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return None
    listed = json.loads(manifest.read_text())["per_layer" if trace else "end_to_end"]
    want = {metric["name"]: metric["unit"] for metric in listed}
    try:
        result = json.loads(output.strip().splitlines()[-1])
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError) as error:
        return f"no result line: {error}"
    if got == want:
        return None
    return (f"result metrics differ from BENCHMARK.json: missing "
            f"{sorted(want.keys() - got.keys())}, extra "
            f"{sorted(got.keys() - want.keys())}, other unit "
            f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["refresh", "bulk", "serve", "ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check catches a changed "
                             "reference")
    parser.add_argument("--record", action="store_true",
                        help="print recorded_costs.h for the current library")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record):
        parser.error("one of --workload, --self-test or --record is required")

    binary = build()
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    command = [str(binary), "--work-dir", str(work)]
    if args.self_test:
        command.append("--self-test")
    elif args.record:
        command.append("--record")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode == 0 and args.workload:
        mismatch = manifest_mismatch(result.stdout, args.trace)
        if mismatch:
            sys.exit(f"perfbench: {mismatch}")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
