#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs every workload once per seed, untraced, and records for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. Writes the record, with the machine facts and each workload's
input hashes, to perfbench/steadiness.json.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --seeds 5 --workloads data-verify --out -
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        runs, hashes = [], {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            p = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(p.stdout[-2000:], p.stderr[-2000:], file=sys.stderr)
                sys.exit("%s seed %d failed with exit code %d" % (wl, seed, p.returncode))
            res = json.loads(lines[-1])
            head = re.search(r"inputs=(\S+) nproc=(\d+) GOMAXPROCS=(\d+) (\S+)", p.stdout)
            hashes[str(seed)] = head.group(1)
            record["machine"] = {"nproc": int(head.group(2)), "GOMAXPROCS": int(head.group(3)),
                                 "go": head.group(4), "python": platform.python_version()}
            runs.append(res)
            print(wl, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}), flush=True)
        metrics = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            metrics[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                             "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            if flag:
                ok = False
            print("  %-22s median %-12.6g spread %.4f (bound %.2f)%s" % (name, med, spread, bounds[name], flag))
        record["workloads"][wl] = {"seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                                   "input_hashes": hashes, "metrics": metrics}
    text = json.dumps(record, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
