#!/usr/bin/env python3
"""Collect one run set: every workload of BENCHMARK.json, `--trace 0` on each
seed given and `--trace 1` on the first, through the command BENCHMARK.json
names. Writes the set as JSON and prints, per workload and end-to-end metric,
the median and the spread the driver computes (interquartile distance over the
median, `statistics.quantiles(values, n=4)`).

    python3 perfbench/runs/collect.py perfbench/runs/set-a.json 1,2,3,4,5,6,7,8,9,10

Run it from the repository root, on an otherwise idle host.
"""
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    detailed, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(detailed), json.loads(result)


def main():
    out_path, seeds = sys.argv[1], [int(s) for s in sys.argv[2].split(",")]
    bench = json.load(open("BENCHMARK.json"))
    run_set = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {"end_to_end": [], "per_layer": None}
        for seed in seeds:
            detailed, result = run(bench["command"], workload, seed, bench["run_seconds"], 0)
            fingerprint = run_set.setdefault("fingerprint", detailed["fingerprint"])
            # The pinned install must decide the same in every process.
            assert detailed["fingerprint"]["artifact_hash"] == fingerprint["artifact_hash"]
            entry["end_to_end"].append({"seed": seed, **result})
        detailed, result = run(bench["command"], workload, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {"seed": seeds[0], **result, "detail": detailed["metrics"]}
        run_set["workloads"][workload] = entry

        print(workload)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in entry["end_to_end"]]
            line = f"  {metric['name']:18s} median {statistics.median(values):14.4f}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  spread {(q3 - q1) / statistics.median(values):6.3f}  bound {metric['bound']}"
            print(line)
        failed = sum(r["failed"] for r in entry["end_to_end"]) + entry["per_layer"]["failed"]
        print(f"  failed {failed}")
    with open(out_path, "w") as out:
        json.dump(run_set, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
