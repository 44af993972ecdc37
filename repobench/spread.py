"""Measure the run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed and workload, each in a fresh process,
then reports for every metric the median and the distance between the
first and third quartiles as a share of the median (``iqr_share``) — the
statistic the bounds in BENCHMARK.json are set against.  The first seed
runs once more at the end: its simulated metrics must repeat exactly.

    python3 repobench/spread.py --seeds 1-10 --label set-a [--workload NAME ...]

Writes ``repobench/results/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> typing.Dict[str, typing.Any]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: typing.Sequence[float]) -> typing.Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median}


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    report: typing.Dict[str, typing.Any] = {"run_seconds": seconds, "seeds": seeds}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        repeat = run_once(workload, seeds[0], seconds)
        failed = sum(run["failed"] for run in runs + [repeat])
        rows = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            rows[name] = dict(spread(values), values=values)
        repeat_exact = all(
            repeat["metrics"][name]["value"] == runs[0]["metrics"][name]["value"]
            for name in rows if name.startswith("sim_")
        )
        walls = [run["wall_s"] for run in runs + [repeat]]
        report[workload] = {"failed": failed, "sim_repeat_exact": repeat_exact,
                            "max_wall_s": max(walls), "metrics": rows}
        print(f"{workload}: failed={failed} sim_repeat_exact={repeat_exact} "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        for name, row in rows.items():
            print(f"  {name:22s} median {row['median']:12.6g}  iqr/median {row['iqr_share']:.4f}")
    out = HERE / "results" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
