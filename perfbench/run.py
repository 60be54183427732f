"""Fixed-work benchmark for p3dist.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload vfields --seed 1 --seconds 14 --trace 0

The workload's inputs are generated from the seed in this process.  The run
then analyses every input once in each of a few passes.  Each pass is a
fresh single-threaded worker process (perfbench/worker.py) importing p3dist
from ./src, and passes run one after another.  Each workload is sized so
that a pass takes about PASS_S seconds; the number of passes is --seconds
over PASS_S, and at least 3.  Every input's time is scaled to a reference
CPU speed (see scaled_times), and a timing metric takes each input's median
scaled time over the passes.

Every output is checked (perfbench/checks.py).  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the passes run with the
layer boundaries wrapped (perfbench/tracing.py) and the metrics are
per-layer sums over the inputs.  Details of the run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 3
PASS_S = 4.5         # each workload is sized so that one pass takes about this
SETUP_PROBES = 2     # import-only processes after each pass
RUN_TIMEOUT_S = 170  # whole run, so it ends inside 180 s
# On a shared machine the CPU's speed can change by a factor of two from one
# second to the next, so a time is scaled to a fixed speed: the speed at
# which worker.reference_time() takes REFERENCE_S seconds.
REFERENCE_S = 0.005


def _vfields(rng):
    return inputs.gen_vfields(rng, n_random=52, n_per_jordan=4)


def _sparse_forms(rng):
    return inputs.gen_sparse_forms(rng, [1] * 30)


def _dense_forms(rng):
    return inputs.corpus_oneforms(Path.cwd()) + inputs.gen_log_types(rng, per_type=3)


def _sections(rng):
    return inputs.gen_dense_forms(rng, [2] * 4)


WORKLOADS = {
    "vfields": _vfields,
    "sparse-forms": _sparse_forms,
    "dense-forms": _dense_forms,
    "sections": _sections,
}


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # import from the bytecode cache, as users do, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pass(request, deadline):
    """One worker process over the given request; returns its result."""
    spawn = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), repr(spawn)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(),
    ) as proc:
        try:
            out, _ = proc.communicate(
                json.dumps(request).encode(), timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError("a pass ran past the time limit of the run")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out)


def build_items(workload, seed):
    items = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    for item in items:
        if "corpus" in item["expect"]:
            item["coeffs"] = [checks.parse_source(s) for s in item["doc"]["coeffs"]]
    return items


def scaled_times(result):
    """Per-input times at reference CPU speed: each time is multiplied by
    REFERENCE_S over the mean of the reference computations timed just
    before and just after the input in the same process."""
    ref = result["ref_times"]
    return [t * REFERENCE_S * 2 / (ref[i] + ref[i + 1]) for i, t in enumerate(result["times"])]


def measure(workload, seed, seconds, trace, limit=None):
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    items = build_items(workload, seed)
    generated = time.monotonic()
    if limit:
        items = items[:limit]
    passes = 1 if limit else max(MIN_PASSES, int(seconds // PASS_S))
    request = {
        "trace": bool(trace),
        "inputs": [(item["kind"], json.dumps(item["doc"])) for item in items],
    }
    probe = {"trace": False, "inputs": []}
    # fills the bytecode cache, which users do not pay for on every run
    run_pass(probe, deadline)
    results, setups, refs = [], [], []
    for _ in range(passes):
        results.append(run_pass(request, deadline))
        for r in [results[-1]] + [run_pass(probe, deadline) for _ in range(SETUP_PROBES)]:
            setups.append(r["setup_s"])
            refs += r["ref_times"]

    measured = time.monotonic()
    points = checks.rational_points(seed)
    verdicts = {}
    attempted = failed = 0
    wrong = False
    scaled = [scaled_times(r) for r in results]
    typical = [None] * len(items)
    typical_pass = [None] * len(items)
    for index, item in enumerate(items):
        outputs = {r["outputs"][index] for r in results}
        ok = []
        for p, r in enumerate(results):
            attempted += 1
            out, err = r["outputs"][index], r["errors"][index]
            if err is None and len(outputs) > 1:
                err = "output differs between passes"
            if err is None:
                if out not in verdicts:
                    verdicts[out] = checks.check_output(item["kind"], out, item, points)
                err = verdicts[out]
                wrong = wrong or err is not None
            if err is not None:
                failed += 1
                r["errors"][index] = err
            else:
                ok.append((scaled[p][index], p))
        if ok:
            typical[index], typical_pass[index] = statistics.median_low(ok)

    timed = [t for t in typical if t is not None]
    if not timed:
        raise BenchError("every operation failed")
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "passes": passes,
        "inputs": [item["doc"] for item in items],
        "typical_scaled_s": typical,
        "pass_times_s": [r["times"] for r in results],
        "reference_times_s": [r["ref_times"] for r in results],
        "setup_samples_s": setups,
        "phase_s": {"generate": generated - started, "passes": measured - generated,
                    "check": time.monotonic() - measured},
        "errors": sorted({(i, e) for r in results for i, e in enumerate(r["errors"]) if e}),
    }
    if trace:
        # per input, the layer times of the pass that gave its typical time
        chosen = _chosen_spans(results, typical_pass)
        scale = [1.0 if p is None else scaled[p][i] / results[p]["times"][i]
                 for i, p in enumerate(typical_pass)]
        totals = tracing.span_totals(chosen, scale)
        metrics = tracing.layer_metrics(totals)
        detail["span_totals"] = totals
        detail["spans"] = chosen
    else:
        metrics = {
            "analyses_per_s": {"value": len(timed) / sum(timed), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(timed) * 1000, "unit": "ms"},
            # set-ups are too short to scale one by one; the run's median
            # reference timing scales their median
            "setup_s": {"value": statistics.median(setups) * REFERENCE_S / statistics.median(refs),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in results) / 1024, "unit": "MB"},
        }
    summary = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail["summary"] = summary
    return summary, detail


def _chosen_spans(results, chosen_pass):
    """The spans of each input from its chosen pass, in one list with the
    parent links renumbered to match."""
    out = []
    for p, r in enumerate(results):
        renumber = {}
        for idx, (name, start, end, parent, index, extra) in enumerate(r["spans"]):
            if index is None or chosen_pass[index] != p:
                continue
            renumber[idx] = len(out)
            out.append([name, start, end, renumber.get(parent, -1), index, extra])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", type=int, default=0, metavar="N",
                        help="smoke test: the first N inputs, one pass")
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "p3dist" / "__init__.py").is_file():
        print("run from the root of a p3dist checkout (src/p3dist not found)", file=sys.stderr)
        return 2
    try:
        summary, detail = measure(args.workload, args.seed, args.seconds, args.trace, args.short)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
