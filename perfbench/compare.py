#!/usr/bin/env python3
"""Records sets of benchmark runs and compares them.

    python3 perfbench/compare.py record --parent CHECKOUT --change CHECKOUT
            --out DIR [--seeds 1-10] [--workloads a,b] [--trace 0|1]
        Runs perfbench/run.py in both checkouts once per workload and seed,
        alternating the sides: the parent first on even seeds, the change
        first on odd ones, so that a drift of the host lands on both sides
        alike. Saves each result line, with the digest of the inputs it
        measured, as DIR/<side>/<workload>/seed<N>.trace<T>.json.
    python3 perfbench/compare.py spread DIR/<side>
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the metric's
        bound (setup_s is exempt from the spread rule).
    python3 perfbench/compare.py diff DIR
        Pairs the parent's and the change's runs by workload, seed and trace
        flag, and reports per metric each side's median and quartiles, the
        pairs the change won, and a verdict (see verdict()). Refuses, with
        exit code 1, a workload whose paired runs measured different inputs.

Passing the same checkout as both sides records two sets of the same code,
which shows how far the benchmark's own noise reaches.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import load_bench

# A change must win at least this share of the pairs to count as improved.
WIN_SHARE = 0.9


def metric_specs(bench):
    """name -> (better, bound or None) for every metric."""
    specs = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from runs paired by index.

    improved:   the change wins at least WIN_SHARE of the pairs (ties count
                for neither side) and the medians differ by more than the
                parent's quartile spread;
    worse:      the change's median is worse than the parent's by more than
                the bound (by the mirror of the improved rule when the metric
                has no bound);
    unresolved: the parent's quartile spread is wider than the bound, unless
                every change run reads better than every parent run;
    unchanged:  otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved", wins
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "worse", wins
        return "unchanged", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    everyone_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound * abs(pm) and not everyone_better:
        return "unresolved", wins
    return "unchanged", wins


def read_runs(directory):
    """{(workload, trace): {seed: (inputs digest, metrics)}} from one side of
    a `record` directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*/seed*.trace*.json")):
        seed, trace = path.name[len("seed"):-len(".json")].split(".trace")
        line = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        runs.setdefault((path.parent.name, int(trace)), {})[int(seed)] = (
            line["inputs_sha256"], metrics)
    return runs


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def side_order(seed):
    """The order in which the two sides run for a seed."""
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def run_once(checkout, workload, seed, seconds, trace):
    """Runs run.py in `checkout`; returns its result line with the digest of
    the inputs it measured."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    prefix = "inputs sha256:"
    if len(lines) < 2 or not lines[-2].startswith(prefix):
        raise RuntimeError(f"{checkout}: no inputs digest before the result")
    return {"inputs_sha256": lines[-2][len(prefix):], **json.loads(lines[-1])}


def cmd_record(args):
    bench = load_bench()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            for side in side_order(seed):
                line = run_once(checkouts[side], workload, seed,
                                bench["run_seconds"], args.trace)
                out = Path(args.out) / side / workload
                out.mkdir(parents=True, exist_ok=True)
                path = out / f"seed{seed}.trace{args.trace}.json"
                path.write_text(json.dumps(line) + "\n")
                print(f"{workload} seed {seed} {side}: correct="
                      f"{line['correct']}", flush=True)


def cmd_spread(args):
    bench = load_bench()
    ok = True
    for (workload, trace), by_seed in sorted(read_runs(args.dir).items()):
        if trace:
            continue
        print(f"{workload} ({len(by_seed)} runs)")
        for m in bench["end_to_end"]:
            values = [metrics[m["name"]] for _, metrics in by_seed.values()]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            exempt = m["name"] == "setup_s"
            flag = ("exempt" if exempt else
                    "ok" if share <= m["bound"] / 3 else
                    "within bound" if share <= m["bound"] else "TOO WIDE")
            ok = ok and (exempt or share <= m["bound"])
            print(f"  {m['name']:22} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {share:7.2%} / bound "
                  f"{m['bound']:.0%}  {flag}")
    return 0 if ok else 1


def mismatched_inputs(parent_runs, change_runs, seeds):
    """Seeds whose parent and change runs measured different inputs."""
    return [s for s in seeds if parent_runs[s][0] != change_runs[s][0]]


def cmd_diff(args):
    specs = metric_specs(load_bench())
    parent_runs = read_runs(Path(args.dir) / "parent")
    change_runs = read_runs(Path(args.dir) / "change")
    status = 0
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        seeds = sorted(set(parent_runs[key]) & set(change_runs[key]))
        print(f"{workload} trace={trace} ({len(seeds)} paired runs)")
        mismatched = mismatched_inputs(parent_runs[key], change_runs[key],
                                       seeds)
        if mismatched:
            print(f"  REFUSED: the sides measured different graphs, queries "
                  f"or splits (seeds {mismatched}); no verdicts")
            status = 1
            continue
        for name, (better, bound) in specs.items():
            if name not in parent_runs[key][seeds[0]][1]:
                continue
            parent = [parent_runs[key][s][1][name] for s in seeds]
            change = [change_runs[key][s][1][name] for s in seeds]
            result, wins = verdict(parent, change, better, bound)
            p = quartiles(parent)
            c = quartiles(change)
            print(f"  {name:34} parent {p[1]:11.5g} [{p[0]:.5g}, {p[2]:.5g}]"
                  f"  change {c[1]:11.5g} [{c[0]:.5g}, {c[2]:.5g}]"
                  f"  won {wins}/{len(seeds)}  {result}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record")
    record.add_argument("--parent", required=True)
    record.add_argument("--change", required=True)
    record.add_argument("--out", required=True)
    record.add_argument("--seeds", default="1-10")
    record.add_argument("--workloads")
    record.add_argument("--trace", type=int, choices=(0, 1), default=0)
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    diff = sub.add_parser("diff")
    diff.add_argument("dir")
    args = parser.parse_args()
    return {"record": cmd_record, "spread": cmd_spread,
            "diff": cmd_diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
