"""Regenerate the baseline: every workload, end to end and traced, at one seed.

Usage, from the root of a checkout:

    python3 steerbench/baseline.py [--seed 0]

Runs ``run.py`` for each workload in BENCHMARK.json with ``--trace 0`` and
``--trace 1`` for ``run_seconds`` each, prints every metric by name with
its unit, and writes the metrics, the output-check counts and the
environment (Python, numpy and scipy versions, nproc, CPU model) to
``steerbench/baseline.json``. Exits with code 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    doc = {"seed": args.seed, "seconds": bench["run_seconds"], "env": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = doc["workloads"][workload] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            print(f"# {workload} --trace {trace}")
            print("\n".join(lines[:-1]), flush=True)
            doc["env"] = json.loads(lines[0].removeprefix("env "))
            result = json.loads(lines[-1])
            entry[kind] = result["metrics"]
            for key in ("correct", "attempted", "failed"):
                entry[f"{kind}_{key}"] = result[key]

    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    ok = all(entry[f"{kind}_correct"] for entry in doc["workloads"].values()
             for kind in ("end_to_end", "per_layer"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
