"""su2ladders benchmark: time to a full certificate, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration runs the workload in a fresh
interpreter (bench/worker.py) with ``src`` on PYTHONPATH and BLAS pinned to
one thread, one iteration after another (closed loop, one client).  Before
each iteration two fresh ``import su2ladders`` starts are timed for setup_s,
so set-up samples are spread over the whole run like the workload's.  With
--trace 0 iterations repeat until another one would end past S seconds (at
least one runs) and the end-to-end metrics are medians over them.  With
--trace 1 one untraced and two traced iterations run and the per-layer
metrics come from the traced ones.  The last line of stdout is the result
JSON; the line before it records the environment, the samples and any failed
gate.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

#: every workload run.py can run; BENCHMARK.json names the ones steady enough
#: on a shared 2-CPU host to gate on (see bench/README.md)
WORKLOADS = ("verify-ladder", "verify-s5", "build-s5n5", "exact-ladders")
#: fresh `import su2ladders` starts timed before each iteration
SETUP_SAMPLES = 2
TIMEOUT_S = 170
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
PYTHON = sys.executable
IMPORT_PROBE = "import time, su2ladders; print(repr(time.monotonic()))"


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(cmd, env, root):
    return subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def setup_times(env, root) -> list[float]:
    """Fresh interpreter start until `import su2ladders` is done, in s.

    Called after probe.py has imported the package once, so the bytecode
    cache is written and every sample is a warm start, as users see it.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = run([PYTHON, "-c", IMPORT_PROBE], env, root)
        proc.check_returncode()
        samples.append(float(proc.stdout) - start)
    return samples


def iterate(args, env, root, trace: int, index: int) -> dict:
    out = os.path.join(OUT, f"{args.workload}-{index}.json")
    proc = run([PYTHON, os.path.join(BENCH, "worker.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--trace", str(trace),
                "--out", out], env, root)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def source_key(root: str, env_info: dict) -> str:
    digest = hashlib.sha256()
    for key in ("python", "numpy", "scipy"):
        digest.update(env_info[key].encode())
    for path in sorted(glob.glob(os.path.join(root, "src", "su2ladders", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def report_gates(results, env, root, state_key) -> list[tuple[str, bool]]:
    """Reports repeat byte for byte, and the CLI prints the same report.

    The CLI runs once per verify config per checkout and source; its digest is
    kept in bench/out/parity.json and later runs compare against it.
    """
    path = os.path.join(OUT, "parity.json")
    state = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    known = state.setdefault(state_key, {})
    gates = []
    for key in results[0]["reports"]:
        digests = {r["reports"][key] for r in results}
        gates.append((f"{key}: report repeats byte for byte", len(digests) == 1))
        digest = min(digests)
        if key not in known:
            spins, n_max = key.split("@")
            proc = run([PYTHON, "-m", "su2ladders", "verify", "--spin", spins,
                        "--nmax", n_max], env, root)
            cli = hashlib.sha256(proc.stdout.encode()).hexdigest()
            if proc.returncode == 0 and cli == digest:
                known[key] = digest
            gates.append((f"{key}: CLI exit 0 and stdout equal to to_json()",
                          key in known))
        else:
            gates.append((f"{key}: report equal to the CLI-checked one",
                          known[key] == digest))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1)
    return gates


def trace_metrics(untraced, traced) -> tuple[dict, list[tuple[str, bool]]]:
    first, second = (r["per_layer"] for r in traced)
    counts = [k for k in first if not k.endswith("_s")]
    gates = [("counts repeat exactly across two traced runs",
              all(first[k] == second[k] for k in counts))]
    metrics = {}
    for key in first:
        unit = "s" if key.endswith("_s") else (
            "fraction" if key == "bruteforce.yield" else "count")
        value = (statistics.median([first[key], second[key]])
                 if unit == "s" else first[key])
        metrics[key] = {"value": value, "unit": unit}
    traced_wall = statistics.median(r["traced_wall_s"] for r in traced)
    untraced_wall = untraced["wall_s"]
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                   "unit": "s"}
    for k, r in enumerate(traced):
        self_sum = sum(v for key, v in r["per_layer"].items()
                       if key.endswith("_s"))
        gates.append((f"traced run {k}: self times sum to its wall time",
                      abs(self_sum - r["traced_wall_s"]) < 1e-6 * r["traced_wall_s"]))
    return metrics, gates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    package = os.path.join(root, "src", "su2ladders")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no su2ladders source under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env(root)

    probe = run([PYTHON, os.path.join(BENCH, "probe.py")], env, root)
    probe.check_returncode()
    env_info = json.loads(probe.stdout)
    env_info["seed"] = args.seed
    gates = [("su2ladders imported from this checkout",
              os.path.samefile(env_info["package"], package)),
             ("BLAS runs one thread", env_info["blas_threads"] in (1, None))]
    setup, results = [], []
    start = time.monotonic()
    for k, trace in enumerate((0, 1, 1) if args.trace else itertools.repeat(0)):
        cycle_start = time.monotonic()
        setup += setup_times(env, root)
        results.append(iterate(args, env, root, trace, k))
        now = time.monotonic()
        if not args.trace and now - start + (now - cycle_start) > args.seconds:
            break

    if results[0]["reports"]:
        gates += report_gates(results, env, root, source_key(root, env_info))
    for r in results:
        gates += [(f"iteration: {name}", ok) for name, ok in r["gates"]]
    if args.trace:
        metrics, trace_gates = trace_metrics(results[0], results[1:])
        gates += trace_gates
    attempted = len(gates) + sum(r["checks"] for r in results)
    failed = (sum(not ok for _name, ok in gates)
              + sum(r["checks_failed"] for r in results))

    if not args.trace:
        def median(key):
            return statistics.median(r[key] for r in results)
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "cpu_s": {"value": median("cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed / attempted,
                          "unit": "fraction"},
        }

    print(json.dumps({
        "workload": args.workload, "env": env_info,
        "iterations": len(results),
        "samples": {"setup_s": setup,
                    "wall_s": [r["wall_s"] for r in results],
                    "cpu_s": [r["cpu_s"] for r in results],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in results]},
        "base": "attempted = checks and certificates run + gates evaluated",
        "failed_gates": [name for name, ok in gates if not ok],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
