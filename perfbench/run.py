#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record      # rewrite reference/digests.txt

The benchmark is compiled from the repository sources into .bench_build/
on first use. The last line of standard output is the run's JSON result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
SCRATCH = Path(".bench_build") / "run"
REFS = HERE.relative_to(ROOT) / "reference" / "digests.txt"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the driver's own budget is far below this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    for needed in ("src/api/engine.h", "tools/spmwcet_cli.cpp"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from a checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (ROOT / BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *targets], cwd=ROOT, stdout=sys.stderr, check=True)


def run(cmd):
    """Runs `cmd` in its own process group, so a timeout also stops the
    serve processes it started; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    finally:
        # A driver that died abnormally may leave a serve process behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[section]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    declared = declared_metrics(trace)
    if declared is not None and sorted(result["metrics"]) != sorted(declared):
        fail("measured metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(declared))}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_selftest", "spmwcet_cli"])
        code, out = run([str(BUILD / "perfbench_selftest"), "--cli",
                         str(BUILD / "spmwcet_cli"), "--refs", str(REFS),
                         "--scratch", str(SCRATCH)])
        print(out, end="")
        sys.exit(code)
    if args.record:
        build(["perfbench"])
        code, out = run([str(BUILD / "perfbench"), "--record", str(REFS)])
        print(out, end="")
        sys.exit(code)
    if not args.workload:
        fail("--workload is required")

    build(["perfbench", "spmwcet_cli"])
    code, out = run([str(BUILD / "perfbench"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--cli",
                     str(BUILD / "spmwcet_cli"), "--refs", str(REFS),
                     "--scratch", str(SCRATCH)])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"driver exited with code {code}")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
