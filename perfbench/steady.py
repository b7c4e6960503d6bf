#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared per metric.

    python3 perfbench/steady.py

For every workload of BENCHMARK.json, set A runs seeds 1..10 and set B
seeds 101..110, each through run.py with --trace 0 for BENCHMARK.json's
run_seconds. For each workload x end-to-end metric it prints both sets'
median and quartiles, each set's spread (quartile distance over median),
and whether the sets agree within the metric's bound from BENCHMARK.json:

  * each set's spread is within the bound (setup_s is exempt: it is a
    median of several set-ups inside one run and is judged on medians);
  * the two medians differ by at most the bound, as a share of set A's
    median, in either direction;
  * the share of failed operations is exactly the same in both sets.

The table, the host fingerprint and every raw result are written to
<build dir>/perfbench/steady-<time>.json. Exits 0 iff everything agrees.
Run it from the root of a checkout.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import time

from run import build_root

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = r.stdout.strip().splitlines()
    host = None
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": r.returncode, "wall_s": wall, "host": host, "result": result}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {"runs": RUNS, "seconds": seconds, "host": None, "workloads": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = {}
        for label, base in (("A", 0), ("B", 100)):
            runs = []
            for i in range(1, RUNS + 1):
                r = run_once(w, base + i, seconds)
                report["host"] = report["host"] or r["host"]
                runs.append(r)
                res = r["result"]
                print("%-10s set %s seed %3d exit %d %5.1fs %s" % (
                    w, label, r["seed"], r["exit"], r["wall_s"],
                    "correct=%s attempted=%s failed=%s" % (
                        res["correct"], res["attempted"], res["failed"]) if res else "NO RESULT"),
                    flush=True)
            sets[label] = runs
        rows = []
        failures = []
        for label, runs in sets.items():
            if any(r["exit"] != 0 or not r["result"] or not r["result"]["correct"] for r in runs):
                failures.append("set %s has a failed run" % label)
        shares = {label: sorted({(r["result"]["failed"] / r["result"]["attempted"])
                                 for r in runs if r["result"]})
                  for label, runs in sets.items()}
        if len(shares["A"]) != 1 or shares["A"] != shares["B"]:
            failures.append("failed shares differ: %s" % shares)
        for m in spec["end_to_end"]:
            vals = {label: [r["result"]["metrics"][m["name"]]["value"]
                            for r in runs if r["result"]] for label, runs in sets.items()}
            if any(len(v) < 2 for v in vals.values()):
                failures.append("%s: too few results" % m["name"])
                continue
            a, b = summary(vals["A"]), summary(vals["B"])
            diff = (b["median"] - a["median"]) / a["median"]
            agree = abs(diff) <= m["bound"]
            steady = m["name"] == "setup_s" or (a["spread"] <= m["bound"] and
                                                b["spread"] <= m["bound"])
            if not (agree and steady):
                failures.append(m["name"])
            rows.append({"metric": m["name"], "unit": m["unit"], "bound": m["bound"],
                         "A": a, "B": b, "b_minus_a": diff, "agree": agree, "steady": steady})
        print("\n%s  (failed share A=%s B=%s)" % (w, shares["A"], shares["B"]))
        print("  %-17s %-8s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %5s" % (
            "metric", "unit", "A.median", "A.q1", "A.q3", "A.sprd",
            "B.median", "B.q1", "B.q3", "B.sprd", "B-A", "bound"))
        for row in rows:
            a, b = row["A"], row["B"]
            print("  %-17s %-8s %12.6g %12.6g %12.6g %6.1f%% | %12.6g %12.6g %12.6g %6.1f%% | "
                  "%6.1f%% %5.2f %s" % (
                      row["metric"], row["unit"], a["median"], a["q1"], a["q3"], 100 * a["spread"],
                      b["median"], b["q1"], b["q3"], 100 * b["spread"], 100 * row["b_minus_a"],
                      row["bound"], "ok" if row["agree"] and row["steady"] else "DISAGREE"))
        print("  verdict: %s\n" % ("AGREE" if not failures else "DISAGREE: " + ", ".join(failures)),
              flush=True)
        ok &= not failures
        report["workloads"][w] = {"rows": rows, "failures": failures, "runs": sets}

    out = build_root() / ("steady-%d.json" % int(time.time()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("host: %s" % json.dumps(report["host"], sort_keys=True))
    print("written to %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
