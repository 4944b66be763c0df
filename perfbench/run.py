"""Benchmark for the abusenet package: train-short, score-long and cv-pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out perfbench/BASELINE.json
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out perfbench/BASELINE.json

For each workload this process writes seeded inputs under ``.perfbench_work/``
and then measures the workload in a fresh child process, so that the peak
RSS it reports belongs to that workload alone. The child imports the package
from ``src/`` of the checkout. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate traced run that reports the per-layer metrics.
Human-readable lines (environment record, every metric under its own name
with unit and better-direction) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every operation and check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-short", "score-long", "cv-pipeline")
CHILD_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="merge the records into this JSON file")
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source() -> Path:
    src = Path.cwd() / "src"
    if not (src / "abusenet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no abusenet sources under {src}; run from the root of a checkout")
    return src


def child_main(job_path: str) -> int:
    """Measure one workload in this (fresh) process and write its record."""
    job = json.loads(Path(job_path).read_text())
    from common import Run, environment

    run = Run()
    run.facts.update(job["facts"])
    work = Path(job["work"])
    try:
        if job["trace"]:
            from traced import TRACED

            TRACED[job["workload"]](work, job["seed"], job["seconds"], run)
        else:
            from workloads import RUNNERS

            RUNNERS[job["workload"]](work, job["seed"], job["seconds"], run)
    except Exception as exc:  # the record must say which operation failed
        import traceback

        traceback.print_exc()
        run.op()
        run.failed += 1
        run.failures.append(f"{type(exc).__name__}: {exc}")
    record = {"workload": job["workload"], "trace": job["trace"], "env": environment(job["seed"]),
              **run.to_dict()}
    Path(job["result"]).write_text(json.dumps(record, indent=1))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: int, src: Path) -> dict:
    """Generate inputs, run the child, return its record; the inputs are removed."""
    work = Path.cwd() / ".perfbench_work" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        from gen import generate

        facts = generate(workload, seed, work)
        if workload == "score-long":
            from workloads import make_score_inputs

            facts.update(make_score_inputs(work, seed))
        job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "work": str(work), "facts": facts,
               "result": str(work / "result.json")}
        (work / "job.json").write_text(json.dumps(job))
        # one BLAS thread: with two, a step's speed follows how busy the
        # shared host keeps the second core, not the program
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--child", str(work / "job.json")],
                       env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=sys.stderr)
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def print_record(rec: dict, why: dict[str, str]) -> None:
    print(f"# workload {rec['workload']} (trace {rec['trace']}): {why.get(rec['workload'], '')}")
    print("# environment: " + json.dumps(rec["env"], sort_keys=True))
    print("# inputs: " + json.dumps(rec["facts"], sort_keys=True))
    for line in rec["report"]:
        value = line["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        better = f" ({line['better']} is better)" if line["better"] else ""
        note = f"  [{line['note']}]" if line["note"] else ""
        print(f"{line['name']:<34} {shown:>12} {line['unit']}{better}{note}")
    for failure in rec["failures"]:
        print(f"# FAILED: {failure}")


def write_records(path: Path, records: list[dict]) -> None:
    """Merge records into ``path``, replacing those of the same workload and mode."""
    fresh = {(r["workload"], r["trace"]) for r in records}
    kept = [r for r in (json.loads(path.read_text()) if path.exists() else [])
            if (r["workload"], r["trace"]) not in fresh]
    merged = sorted(kept + records, key=lambda r: (r["trace"], WORKLOADS.index(r["workload"])))
    path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args.child)
    src = require_source()
    sys.path.insert(0, str(src))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    bench = Path.cwd() / "BENCHMARK.json"
    why = {w["name"]: w["why"] for w in json.loads(bench.read_text())["workloads"]} \
        if bench.is_file() else {}
    records = []
    for name in names:
        rec = measure(name, args.seed, args.seconds, args.trace, src)
        print_record(rec, why)
        records.append(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.out:
        write_records(Path(args.out), records)
    if args.workload == "all":
        metrics = {r["workload"]: r["metrics"] for r in records}
    else:
        metrics = records[0]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
