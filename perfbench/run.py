"""geeclust benchmark: one workload, one closed loop, metrics as JSON.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 25 --trace 0

The program under test is imported from ./src, never from an installed
copy; without ./src/geeclust the run fails before measuring anything.  The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The line before it describes the environment and the latency sample.
Results and spans are also written under perfbench/out/.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fewest operations a run measures, so that op_tail_s, which needs 10
# samples beyond it, is at least the 75th percentile.
MIN_OPS = 40
TAIL_BEYOND = 10


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def environment(seed, workload):
    import numpy as np
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(os.getcwd()),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_ok": all(v is None or int(v) <= nproc for v in threads.values()),
    }


def run_op(w, i, failures):
    """Time op i (tracing state is the caller's), then check it untimed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            out, error = w.op(i), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, exc
        elapsed = time.perf_counter() - start
    extra = {}
    if error is None:
        try:
            extra = w.check(i, out)
        except Exception as exc:  # includes oracles.CheckFailed
            error = exc
    if error is not None:
        failures.append(i)
        if len(failures) <= 3:
            print(f"operation {i} failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
    n_warn = sum(1 for m in caught if m.category.__name__ == "UnderdeterminedLag")
    return elapsed, extra, n_warn


def keep_going(i, start, seconds, cycle, minimum):
    return (i < minimum or time.perf_counter() - start < seconds) or i % cycle != 0


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(w, seconds):
    latencies, failures = [], []
    start = time.perf_counter()
    i = 0
    while keep_going(i, start, seconds, getattr(w, "cycle", 1), MIN_OPS):
        latencies.append(run_op(w, i, failures)[0])
        i += 1
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "throughput_ops_s": (len(latencies) - len(failures)) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"ops": len(latencies), "tail_percentile": tail_pct,
            "tail_samples_beyond": TAIL_BEYOND,
            "error_rate": len(failures) / len(latencies),
            "wall_s": time.perf_counter() - start}
    return metrics, info, latencies, failures


def measure_traced(w, seconds, out_dir, tag):
    """Alternate untraced and traced runs of each op; per-layer metrics."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    failures, pairs, warn, extras = [], [], {}, {}
    start = time.perf_counter()
    i = 0
    while keep_going(i, start, seconds, getattr(w, "cycle", 1), w.count_ops):
        timing = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                undo = tracer.install()
                try:
                    timing[True], extras[i], warn[i] = run_op(w, i, failures)
                finally:
                    tracer.uninstall(undo)
                    tracer.op = None
            else:
                timing[False] = run_op(w, i, failures)[0]
        pairs.append((timing[False], timing[True]))
        i += 1
    count_ops = range(w.count_ops)
    metrics = layer_metrics(tracer.spans, count_ops, range(i), warn,
                            [extras[k]["report"] for k in count_ops if "report" in extras[k]])
    overhead = statistics.median(t - u for u, t in pairs)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(u for u, _ in pairs)
    tracer.write(os.path.join(out_dir, f"spans-{tag}.jsonl.gz"), count_ops)
    info = {"pairs": i, "count_ops": w.count_ops, "wall_s": time.perf_counter() - start}
    return metrics, info, [t for pair in pairs for t in pair], failures


def main():
    args = parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "geeclust", "__init__.py")):
        print("error: run from a geeclust checkout: ./src/geeclust is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, src)
    import geeclust

    import_s = time.perf_counter() - PROCESS_T0
    if not os.path.abspath(geeclust.__file__).startswith(src + os.sep):
        print(f"error: imported geeclust from {geeclust.__file__}, not ./src",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = WORKLOADS[args.workload]()
        w.setup(args.seed, workdir)
        # the first timed operation starts now
        setup_s = time.perf_counter() - PROCESS_T0
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, info, latencies, failures = measure_traced(
                w, args.seconds, out_dir, tag)
            wanted = spec["per_layer"]
        else:
            metrics, info, latencies, failures = measure(w, args.seconds)
            metrics["setup_s"] = setup_s
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({"import_s": import_s, "setup_s": setup_s,
                 "environment": environment(args.seed, args.workload)})
    result = {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "info": info, "latencies_s": latencies}, handle,
                  indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
