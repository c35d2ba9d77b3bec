#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds the measuring program (perfbench.cc, against the library in src/)
into .bench_build/perfbench, makes the workload's inputs for the seed,
measures for about T seconds, checks every output, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it names the digest of the graph, queries, counts and
split the run measured (`inputs sha256:<hex>`); compare.py uses it to pair
only runs of the same inputs. With --trace 0 the metrics are
BENCHMARK.json's end-to-end ones, with --trace 1 its per-layer ones.
Progress and build output go to standard error. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def threads():
    return len(os.sched_getaffinity(0))


def run(cmd, timeout, env=None):
    """Runs cmd with its output on stderr; on timeout the child is killed
    and reaped before TimeoutExpired propagates."""
    subprocess.run([str(c) for c in cmd], check=True, timeout=timeout,
                   env=env, stdout=sys.stderr, stderr=sys.stderr)


def build():
    run(["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", threads()],
        timeout=1200)
    return BUILD / "perfbench"


def child_env():
    """The library reads NEURSC_* settings from the environment; a run uses
    only its own: one worker thread, default tracing and metrics, no
    scaling. On a host whose cores other tenants share, a parallel region
    waits for its slowest thread, so timings at more threads measured the
    neighbours' load as much as the program (README.md, Environment)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEURSC_")}
    env["NEURSC_THREADS"] = "1"
    return env


def make_inputs(binary, workload, seed, inputs, env):
    """Writes the inputs of one run to `inputs`: the workload's fixed data
    graph, queries, split and checkpoint, generated once per build of the
    program and then reused, plus the seed's issue order (order.txt)."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    fixed = BUILD / "inputs" / f"{workload}-{digest}"
    if not fixed.exists():
        partial = fixed.with_name(f"{fixed.name}.partial{os.getpid()}")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        run([binary, "gen", "--workload", workload, "--out", partial],
            timeout=150, env=env)
        try:
            partial.rename(fixed)
        except OSError:  # another run finished first
            shutil.rmtree(partial, ignore_errors=True)
    shutil.copytree(fixed, inputs)
    with open(inputs / "examples.tsv") as f:
        order = list(range(sum(1 for _ in f) - 1))
    random.Random(seed).shuffle(order)
    (inputs / "order.txt").write_text("".join(f"{q}\n" for q in order))


# The generator's files that fix what is measured: the data graph, the
# queries, and their exact counts and train/test split.
DIGESTED = ("data.nscg", "queries.txt", "examples.tsv")


def inputs_digest(inputs):
    h = hashlib.sha256()
    for name in DIGESTED:
        h.update((inputs / name).read_bytes())
    return h.hexdigest()


def load_bench():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def declared_units(trace):
    metrics = load_bench()["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def measure(args, binary, work):
    env = child_env()
    inputs = work / "inputs"
    make_inputs(binary, args.workload, args.seed, inputs, env)
    out = work / "result.json"
    trace = work / "chrome_trace.json"
    cmd = [binary, "measure", "--workload", args.workload, "--inputs", inputs,
           "--seconds", args.seconds, "--trace", args.trace, "--out", out]
    if args.trace:
        cmd += ["--trace-out", trace]
    run(cmd, timeout=args.seconds + 120, env=env)

    result = json.loads(out.read_text())
    examples = report.read_examples(inputs / "examples.tsv")
    names = report.trace_span_names(trace) if args.trace else None
    attempted, failed, problems = report.check_outputs(result, examples, names)
    for kind, count in problems.items():
        print(f"perfbench: check failed {count}x: {kind}", file=sys.stderr)
    if args.trace:
        values = report.layer_metrics(result)
    else:
        values = report.end_to_end_metrics(result, examples)
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return inputs_digest(inputs), {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_bench()["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    work = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        binary = build()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        digest, line = measure(args, binary, work)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"inputs sha256:{digest}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
