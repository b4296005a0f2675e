"""Repeat the benchmark over several seeds and summarise the spread.

    python3 benchmarks/sweep.py --workloads catalog,longplay,stagewise \
        --seeds 1-10 --seconds 42 [--trace-seeds 1] [--out sweep.json] \
        [--against earlier.json]

Runs ``benchmarks/run.py`` once per workload and seed, one run at a time,
from the current directory (the root of a checkout), and reads each run's
``detail:`` line. For every end-to-end metric, the bounded ones and the
raw CPU and wall times run.py prints beside them, it prints the median,
the quartiles and the spread (quartile distance over median) across seeds;
traced runs add the median of each per-layer metric. ``--against`` takes
the JSON of an earlier sweep (say, of the parent commit, or of the same
code an hour before) and adds, per workload and bounded metric, how much
worse this sweep's median is than the earlier one, as a share of it, and
whether that stays within the metric's bound. ``--out`` writes the same
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(ln.split(": ", 1)[1]) for ln in lines
                   if ln.startswith("detail: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(exit_status=proc.returncode, detail=detail)
    return result


def _spread(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def _against(bench: dict, now: dict, before: dict, workload: str) -> dict:
    """Per bounded metric: this median's change from the earlier one."""
    out = {}
    for m in bench["end_to_end"]:
        if m["name"] not in now or m["name"] not in before:
            continue
        old, new = before[m["name"]]["median"], now[m["name"]]["median"]
        worse = (new - old) / old if m["better"] == "lower" else \
            (old - new) / old
        out[m["name"]] = {"earlier_median": old, "worse_by": worse,
                          "within_bound": worse <= m["bound"]}
        print(f"  {workload:<10} {m['name']:<20} vs earlier {old:<12.6g} "
              f"worse by {worse:+.4f} (bound {m['bound']})", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace-seeds", default="",
                        help="seeds for an extra traced run per workload")
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None,
                        help="an earlier sweep's JSON to compare medians with")
    args = parser.parse_args(argv)
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))
               if args.against else None)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    summary: dict = {"about": __doc__.split("\n\n")[2].replace("\n", " "),
                     "bounds": {m["name"]: m["bound"]
                                for m in bench["end_to_end"]},
                     "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, args.seconds, 0)
            runs.append(result)
            ok = ok and result["correct"] and result["exit_status"] == 0
            detail = result["detail"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" sha256={','.join(detail.get('hierarchy_sha256', []))} "
                  + " ".join(f"{k}={v:.6g}" for k, v in
                             detail.get("end_to_end", {}).items())
                  + "".join(f" | FAILED {f}" for f in detail.get(
                      "failures", [])), flush=True)
        values: dict[str, list[float]] = {}
        for r in runs:
            for name, value in r["detail"].get("end_to_end", {}).items():
                values.setdefault(name, []).append(value)
        end_to_end = {n: _spread(v) for n, v in sorted(values.items())}
        traced = []
        for seed in _seeds(args.trace_seeds):
            result = _run(workload, seed, args.seconds, 1)
            traced.append(result)
            ok = ok and result["correct"] and result["exit_status"] == 0
        layers = [r["detail"].get("per_layer", {}) for r in traced]
        per_layer = {n: statistics.median(m[n] for m in layers if n in m)
                     for n in sorted({n for m in layers for n in m})}
        summary["environment"] = (runs or traced)[-1]["detail"].get(
            "environment")
        summary["workloads"][workload] = {
            "why": whys.get(workload), "hierarchy_sha256": sorted(
                {h for r in runs for h in r["detail"].get(
                    "hierarchy_sha256", [])}),
            "seeds": _seeds(args.seeds),
            "trace_seeds": _seeds(args.trace_seeds),
            "seconds": args.seconds,
            "executions": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end, "per_layer": per_layer,
            "absent": sorted({n for r in traced
                              for n in r["detail"].get("absent", [])})}
        for name, s in end_to_end.items():
            print(f"  {workload:<10} {name:<20} median {s['median']:<12.6g} "
                  f"quartiles {s['q1']:.6g} / {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}  n={s['n']}", flush=True)
        if earlier and workload in earlier["workloads"]:
            summary["workloads"][workload]["against"] = _against(
                bench, end_to_end,
                earlier["workloads"][workload]["end_to_end"], workload)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2,
                                             sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
