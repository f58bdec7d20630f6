"""Summarise benchmark run records into before/after tables.

    python3 perfbench/baseline.py [RECORDS_DIR] [--write OUT.json]

Reads every record ``run.py`` wrote (default ``.perfbench_out/records``) and
prints, per workload, each end-to-end metric's median, quartiles and
quartile spread as a share of the median (the spread the benchmark's bounds
are checked against), and each per-layer metric of the traced runs. A count
that differs between traced runs of one workload is reported, because counts
must repeat exactly. ``--write`` saves the same summary as JSON, as
``perfbench/baseline.json`` was saved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(records):
    out = {"end_to_end": {}, "per_layer": {}, "runs": {}, "env": None,
           "probe_ms": []}
    for rec in records:
        wl, trace = rec["workload"], rec["trace"]
        out["env"] = out["env"] or rec["env"]
        out["probe_ms"].append(rec["probe_ms"])
        out["runs"].setdefault(wl, []).append(
            {"seed": rec["seed"], "trace": trace, "correct": rec["correct"],
             "attempted": rec["attempted"], "failed": rec["failed"],
             "probe_ms": rec["probe_ms"], "elapsed_s": rec["elapsed_s"]})
        table = out["per_layer" if trace else "end_to_end"].setdefault(wl, {})
        for name, value in rec["metrics"].items():
            table.setdefault(name, []).append(value)
    for wl, table in out["end_to_end"].items():
        for name, values in table.items():
            q1, med, q3 = _quartiles(values)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0,
                           "runs": len(values)}
    for wl, table in out["per_layer"].items():
        for name, values in table.items():
            exact = run.PER_LAYER.get(name) in ("count", "bytes", "ratio")
            table[name] = {"median": statistics.median(values),
                           "runs": len(values)}
            if exact and len(set(values)) > 1:
                table[name]["differs"] = sorted(set(values))
    return out


def print_summary(summary):
    for wl, table in summary["end_to_end"].items():
        print(f"{wl}: end to end")
        for name, s in table.items():
            print(f"  {name:<24} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}  (runs={s['runs']})")
    for wl, table in summary["per_layer"].items():
        print(f"{wl}: per layer (traced)")
        for name, s in table.items():
            flag = f"  DIFFERS {s['differs']}" if "differs" in s else ""
            print(f"  {name:<40} {s['median']:<14.6g}"
                  f"{run.PER_LAYER.get(name, '')}{flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="?", default=str(run.OUT / "records"))
    parser.add_argument("--write", help="save the summary as JSON")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.records).glob("*.json"))
    if not paths:
        print(f"no records in {args.records}", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    summary = summarise(records)
    print_summary(summary)
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
