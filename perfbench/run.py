#!/usr/bin/env python3
"""Build and run the session benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/session.exe with dune (into _build/, no shared cache),
runs it with default GC settings and relays its output: the last line of
stdout is the JSON result. Store directories and temporary files go under
.perfbench_work/ and are removed afterwards. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORK = ".perfbench_work"
EXE = os.path.join("_build", "default", "perfbench", "session.exe")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    # Compiler temporaries and store files stay inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.abspath(tmp)
    env.pop("OCAMLRUNPARAM", None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/session.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        shutil.rmtree(WORK, ignore_errors=True)
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        run = subprocess.run(
            [
                EXE,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--work", WORK,
            ],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
