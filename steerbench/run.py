"""steerlab benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 steerbench/run.py --workload jm-certify --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (time of
one pass over the workload's calls in a warmed process, as the sum of each
call's median over the passes of the run), ``setup_s`` (median time from a
fresh interpreter until the workload is ready to time), ``peak_rss_mb`` and
``pass_frac`` (calls that returned and passed their output check, over calls
attempted). With ``--trace 1`` it reports per-layer self times and counts
from spans recorded around steerlab's public functions, the import times of
the set-up process from ``python -X importtime``, and the tracing overhead.
The workloads and metrics are those BENCHMARK.json declares.

Every process it starts gets ``src`` on ``PYTHONPATH``, two Monte Carlo
workers and at most two BLAS threads, so the load does not grow with the
host. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 5
#: ``-X importtime`` profiles per traced run; medians are reported.
IMPORT_SAMPLES = 3
#: A child still running after this many seconds is killed.
CHILD_TIMEOUT = 170.0

MC_WORKERS = "2"
BLAS_THREADS_MAX = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(BLAS_THREADS_MAX, nproc())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["STEERLAB_THREADS"] = MC_WORKERS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker_argv(args, mode: str, seconds: float = 0.0) -> list[str]:
    return [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--mode", mode, "--tmp", str(ROOT / ".steerbench")]


def timed_worker(args, mode: str, seconds: float = 0.0) -> tuple[float, str]:
    """Start a worker; return its set-up time and the rest of its output."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable] + worker_argv(args, mode, seconds),
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"{args.workload} worker ({mode}) failed with code {proc.returncode}")
    return setup, rest


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def in_packages(*names):
    return lambda module: any(module == n or module.startswith(n + ".") for n in names)


def outermost_cumulative(lines: list[tuple[int, int, str]], match, within=None) -> float:
    """Seconds of the imports of modules satisfying ``match`` that no import
    of a module satisfying ``within`` (default: ``match``) encloses.

    ``lines`` are (depth, cumulative us, module) in ``-X importtime`` order,
    which lists a module after the modules it imported.
    """
    within = within or match
    total = 0
    inside: list[tuple[int, bool]] = []  # (depth, enclosed by a ``within`` import)
    for depth, cumulative, module in reversed(lines):
        while inside and inside[-1][0] >= depth:
            inside.pop()
        enclosed = bool(inside) and inside[-1][1]
        if match(module) and not enclosed:
            total += cumulative
        inside.append((depth, enclosed or within(module)))
    return total / 1e6


def import_profile(args) -> dict:
    """Import times of one set-up process, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime"] + worker_argv(args, "setup"),
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} import profile failed: {proc.stderr[-2000:]}")
    lines = [(len(m.group(3)) // 2, int(m.group(2)), m.group(4))
             for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]

    # numpy modules that scipy pulls in count as scipy's import
    return {
        "init.import_s": outermost_cumulative(lines, in_packages("steerlab")),
        "init.scipy_import_s": outermost_cumulative(lines, in_packages("scipy")),
        "init.numpy_import_s": outermost_cumulative(lines, in_packages("numpy"),
                                                    in_packages("numpy", "scipy")),
    }


def end_to_end(args) -> tuple[dict, dict]:
    setups = [timed_worker(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, rest = timed_worker(args, "measure", args.seconds)
    setups.append(setup)
    result = json.loads(rest.splitlines()[-1])
    values = {
        "wall_s": result["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    return result, {m["name"]: (values[m["name"]], m["unit"]) for m in declared("end_to_end")}


def per_layer(args) -> tuple[dict, dict]:
    profiles = [import_profile(args) for _ in range(IMPORT_SAMPLES)]
    _, rest = timed_worker(args, "trace", args.seconds)
    result = json.loads(rest.splitlines()[-1])
    values = {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
    values.update(result["layers"])
    values["trace.overhead_s"] = result["traced_wall_s"] - result["wall_s"]
    return result, {m["name"]: (values[m["name"]], m["unit"]) for m in declared("per_layer")}


def declared(kind: str) -> list[dict]:
    """The workloads or metrics BENCHMARK.json declares under ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in declared("workloads")], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steerlab" / "__init__.py").is_file():
        print(f"error: no steerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".steerbench").mkdir(exist_ok=True)

    result, metrics = per_layer(args) if args.trace else end_to_end(args)
    env = {**result["versions"], "nproc": nproc(), "cpu": cpu_model(),
           "blas_threads": blas_threads(), "mc_workers": int(MC_WORKERS)}
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = result["failed"] == 0 and result.get("counts_stable", True)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
