"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steady.py --seeds 1-10 --tag A [--workload encode-256 ...]
    python3 bench/steady.py --compare A B

The first form runs each workload untraced once per seed, seeds in the
outer loop, and prints per metric the median, the quartiles and the
spread (q3 - q1) / median beside the metric's bound from
BENCHMARK.json. Results go to bench/out/steady-<tag>.json. The second
form compares the medians of two such sets, as share of the first, in
the direction that is worse.
"""

import argparse
import json
import statistics
import sys

from run import OUT, SPEC, launch

BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs):
    out = {}
    for name in BOUNDS:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    out["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return out


def collect(seeds, workloads, seconds, tag):
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = launch(w, seed, seconds, 0)
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: outputs failed their checks")
            runs[w].append(res)
    report = {w: {"seeds": seeds, "runs": r, "summary": summarize(r)} for w, r in runs.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{tag}.json").write_text(json.dumps(report, indent=1))
    print(f"| workload | metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|")
    for w, rep in report.items():
        for name, s in rep["summary"].items():
            if name == "failed_share":
                continue
            print(f"| {w} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
                  f"| {s['spread']:.3f} | {BOUNDS[name]['bound']} |")
    return report


def compare(tag_a, tag_b):
    a = json.loads((OUT / f"steady-{tag_a}.json").read_text())
    b = json.loads((OUT / f"steady-{tag_b}.json").read_text())
    ok = True
    print(f"| workload | metric | median {tag_a} | median {tag_b} | worse by | bound |\n"
          f"|---|---|---|---|---|---|")
    for w in a.keys() & b.keys():
        sa, sb = a[w]["summary"], b[w]["summary"]
        ok &= sa["failed_share"] == sb["failed_share"]
        for name, spec in BOUNDS.items():
            ma, mb = sa[name]["median"], sb[name]["median"]
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            ok &= worse <= spec["bound"]
            print(f"| {w} | {name} | {ma:.4g} | {mb:.4g} | {worse:+.3f} | {spec['bound']} |")
    print("medians agree within bounds" if ok else "medians DIFFER beyond a bound")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--tag", default="A")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    collect(args.seeds, workloads, args.seconds, args.tag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
