"""Sanity check of the benchmark itself.

For every workload: two different seeds run clean (correct, nothing
failed), and two traced runs of one seed report identical operation counts
(`linalg.spd_factor.calls`, `gee.iterations` and the other counts), which
per-layer comparisons between commits rely on.  Run from the checkout root:

    python3 perfbench/check.py

Exits 0 when every check holds and 1 otherwise.
"""

import json
import subprocess
import sys

# Per-layer metrics that are counts, so must repeat exactly for one seed.
EXACT = (
    "glm.irls_fit.calls", "gee.fit_gee.calls", "gee.estimate_alpha.calls",
    "gee.realize_correlation.calls", "gee.iterations", "gee.warnings",
    "linalg.spd_factor.calls", "linalg.spd_factor.mean_n", "linalg.spd_solve.calls",
    "linalg.factor_flops", "select.candidates", "select.unique_candidates",
    "select.failed_candidates", "simulate.generate.calls",
)
WORKLOADS = ("coverage", "cli_fit", "select", "ingest")
SEEDS = (1, 2)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def main():
    problems = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            result, error = run(workload, seed, 0)
            if error or not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: {error or result}")
        traced = [run(workload, SEEDS[0], 1) for _ in range(2)]
        errors = [e for _, e in traced if e]
        if errors:
            problems.append(f"{workload} traced: {errors[0]}")
            continue
        first, second = (r["metrics"] for r, _ in traced)
        for name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload} {name}: {first[name]['value']} then "
                                f"{second[name]['value']}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
