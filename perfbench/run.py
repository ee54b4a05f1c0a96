"""Compile-service benchmark: one workload through the async server.

Run from the repository root::

    python3 perfbench/run.py --workload suite-warm-read --seed 1 \
        --seconds 20 --trace 0

Each run is a fresh process with BLAS threads pinned to one. It builds the
workload's service stack cold several times (the median build-and-connect
time is ``setup_s``), keeps its own build, and drives it with closed-loop TCP
clients for ``--seconds``. Every answer is checked; a wrong one makes the
command exit 1. The last stdout line is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
whose layer entry points are wrapped by :mod:`pb_trace`. The lines before
it are the human-readable report: every metric with its unit, the tail
percentile and its sample count, the machine fingerprint and, when traced,
each layer's share of the median request.

Per-layer time metrics are per-request mean self times in ms; counts are
per request unless they are ratios or per-solve figures.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread per process, set before numpy loads; numpy already
    loaded means the setting can no longer take effect, so refuse."""
    if "numpy" in sys.modules:
        raise SystemExit(
            "perfbench: numpy was imported before BLAS threads were pinned"
        )
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


if __name__ == "__main__":
    pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Sequence, Tuple  # noqa: E402

# The benchmark's own modules import nothing from numpy or the program at
# import time; the program is imported when the first stack is built.
import pb_client  # noqa: E402
import pb_requests  # noqa: E402
import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Stack builds per run; ``setup_s`` is their median. Each build is cold —
#: in a fresh child process, or the run's own first build — so it pays the
#: imports and lazy initialisation a started service pays; that is most of
#: a VQE set-up. A warm rebuild takes milliseconds, mostly thread wake-ups,
#: whose cost swung by half from process to process. On a shared 2-vCPU
#: virtual machine cold builds also slow by up to 1.45x in phases lasting
#: from seconds to minutes, which samples within one run cannot average
#: out; the median damps only the short bursts.
SETUPS = 5

#: Answers of a VQE run whose latencies are recomputed one-shot after the
#: measured interval (a seeded sample); named programs check every answer
#: against references computed during set-up.
REFERENCE_SAMPLE = 24

#: Share groups of the layer table: first matching prefix wins.
LAYER_GROUPS = (
    ("front_end", ("circuits.", "mapping.", "grouping.", "pipeline.")),
    ("core", ("core.",)),
    ("qoc", ("qoc.",)),
    ("latency", ("latency.",)),
    ("service.store", ("service.store.",)),
    ("service.planner", ("service.planner.",)),
    ("service.executor", ("service.executor.",)),
    ("service.fabric", ("service.fabric.",)),
    ("service.asyncserve", ("service.asyncserve.", "wait.")),
)


def layer_group(name: str) -> str:
    for group, prefixes in LAYER_GROUPS:
        if name.startswith(prefixes):
            return group
    return "other"


def fingerprint() -> Dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas_vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from its own ``.git`` (``unknown`` in an
    exported tree); never looks above the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build_and_connect(workload, root: str):
    stack = pb_workloads.build_stack(workload, root)
    try:
        conns = pb_client.connect(stack.port, workload.clients)
    except BaseException:
        stack.close()
        raise
    return stack, conns


def check_answers(stack, answers, seed: int, perturb: bool) -> Dict:
    """Oracles; returns failure counts by kind and the failed answers."""
    failed = set()
    kinds = {"not_ok": 0, "reference": 0, "census": 0, "pulse": 0}
    for i, answer in enumerate(answers):
        if answer.reply is None or not answer.reply.get("ok"):
            kinds["not_ok"] += 1
            failed.add(i)
    sample = [i for i in range(len(answers)) if i not in failed]
    if stack.workload.vqe is not None and len(sample) > REFERENCE_SAMPLE:
        sample = sorted(random.Random(seed).sample(sample, REFERENCE_SAMPLE))
    if perturb and sample:  # test hook: one wrong answer must fail the run
        answers[sample[-1]].reply["overall_latency_ns"] += 1.0
    census_rows = []
    census_index = []
    for i, answer in enumerate(answers):
        if i in failed:
            continue
        reply = answer.reply
        outcome = (
            reply["overall_latency_ns"],
            reply["gate_based_latency_ns"],
            reply["n_groups"],
            reply["n_unique"],
        )
        census_rows.append((pb_requests.request_key(answer.request), outcome))
        census_index.append(i)
    for row in pb_stats.census(census_rows):
        kinds["census"] += 1
        failed.add(census_index[row])
    references = pb_workloads.reference_latencies(
        stack, [answers[i].request for i in sample]
    )
    for i, expected in zip(sample, references):
        reply = answers[i].reply
        got = (reply["overall_latency_ns"], reply["gate_based_latency_ns"])
        if got != expected:
            kinds["reference"] += 1
            failed.add(i)
    return {"kinds": kinds, "failed": failed, "referenced": len(sample)}


def end_to_end(answers, start: float, setup_times: Sequence[float], failed) -> Dict:
    good = [a for i, a in enumerate(answers) if i not in failed]
    latencies = [a.latency_s * 1e3 for a in good]
    end = max(a.received for a in answers)
    tail_q, beyond = pb_stats.tail_percentile(len(latencies))
    ratios = [
        a.reply["gate_based_latency_ns"] / a.reply["overall_latency_ns"]
        for a in good
        if a.reply["overall_latency_ns"] > 0
    ]
    return {
        "throughput_rps": len(good) / (end - start),
        "latency_p50_ms": pb_stats.percentile(latencies, 50.0),
        "latency_tail_ms": pb_stats.percentile(latencies, tail_q),
        "tail_percentile": tail_q,
        "tail_beyond": beyond,
        "samples": len(latencies),
        "pulse_latency_reduction": pb_stats.geomean(ratios),
        "iterations_per_request": statistics.fmean(
            a.reply["compile_iterations"] for a in good
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def median_band(answers) -> List:
    """Answers whose latency lies in the middle fifth (40th-60th
    percentile): the 'median request', averaged to steady it."""
    ordered = sorted(answers, key=lambda a: a.latency_s)
    n = len(ordered)
    lo, hi = int(n * 0.4), max(int(n * 0.6), int(n * 0.4) + 1)
    return ordered[lo:hi]


def traced_layers(tracer, answers, good_ids, stack, lookups_before) -> Dict:
    """Per-layer metrics and the median request's layer shares."""
    self_of = pb_trace.self_times(tracer.spans)
    totals: Dict[str, float] = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + self_of[span.sid]
    good = [a for a in answers if a.request["id"] in good_ids]
    n = max(len(good), 1)

    batch_of = {}
    for bid, info in tracer.batches.items():
        for rid in info.requests:
            batch_of[rid] = bid
    per_request = {}
    for a in good:
        rid = a.request["id"]
        info = tracer.batches[batch_of[rid]]
        queue = info.start - tracer.line_start[rid]
        batch = info.end - info.start
        per_request[rid] = (queue, batch, a.latency_s - queue - batch)

    c = tracer.counts
    searches = c.get("qoc.searches", 0)
    solves = c.get("core.solves", 0)
    dedup_groups = c.get("grouping.dedup_groups", 0)
    fe_calls = c.get("pipeline.front_end_calls", 0)
    store_stats = stack.service.store.stats
    hits = store_stats.hits - lookups_before[0]
    lookups = hits + store_stats.misses - lookups_before[1]

    def ms(*names: str) -> float:
        return sum(totals.get(name, 0.0) for name in names) * 1e3 / n

    def per_req(name: str) -> float:
        return c.get(name, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "circuits.parse_qasm_ms": ms("circuits.parse_qasm"),
        "circuits.build_ms": ms("circuits.build"),
        "circuits.decompose_ms": ms("circuits.decompose"),
        "mapping.astar_ms": ms("mapping.astar"),
        "mapping.swaps": per_req("mapping.swaps"),
        "mapping.gate_based_ms": ms("mapping.gate_based"),
        "grouping.group_ms": ms("grouping.group"),
        "grouping.groups": per_req("grouping.groups"),
        "grouping.dedup_ms": ms("grouping.dedup"),
        "grouping.unique_ratio": ratio(
            c.get("grouping.dedup_unique", 0), dedup_groups
        ),
        "pipeline.front_end_ms": ms("pipeline.front_end", "circuits.request"),
        "pipeline.front_end_hit_ratio": ratio(
            c.get("pipeline.front_end_hits", 0), fe_calls
        ),
        "core.simgraph_ms": ms("core.simgraph"),
        "core.simgraph_vertices": ratio(
            c.get("core.simgraph_vertices", 0), c.get("core.simgraph_calls", 0)
        ),
        "core.prim_ms": ms("core.prim"),
        "core.partition_ms": ms("core.partition"),
        "core.parts": per_req("core.parts"),
        "core.seed_ms": ms("core.seed"),
        "core.solves": per_req("core.solves"),
        "core.solve_ms": ms("core.solve"),
        "core.warm_started_ratio": ratio(c.get("core.warm_started", 0), solves),
        "core.iterations_per_request": statistics.fmean(
            a.reply["compile_iterations"] for a in good
        ) if good else 0.0,
        "qoc.grape_evals_per_solve": ratio(c.get("qoc.grape_evals", 0), searches),
        "qoc.grape_eval_ms": ms("qoc.grape_eval"),
        "qoc.optimizer_ms": ms("qoc.grape", "qoc.binary_search"),
        "qoc.grape_iterations_per_solve": ratio(
            c.get("qoc.grape_iterations", 0), searches
        ),
        "qoc.probes_per_solve": ratio(c.get("qoc.probes", 0), searches),
        "qoc.converged_ratio": ratio(c.get("qoc.converged", 0), searches),
        "latency.schedule_ms": ms("latency.schedule"),
        "latency.gate_based_ms": ms("latency.gate_based"),
        "service.store.snapshot_ms": ms("service.store.snapshot"),
        "service.store.get_many_ms": ms("service.store.get_many"),
        "service.store.get_many_keys": per_req("service.store.get_many_keys"),
        "service.store.put_ms": ms("service.store.put"),
        "service.store.puts": per_req("service.store.puts"),
        "service.store.flush_ms": ms("service.store.flush"),
        "service.store.hit_ratio": ratio(hits, lookups),
        "service.planner.plan_ms": sum(
            s.end - s.start for s in tracer.spans
            if s.name == "service.planner.plan"
        ) * 1e3 / n,
        "service.executor.execute_ms": ms(
            "service.executor.execute",
            "service.executor.map_parts",
            "service.executor.run_part",
        ),
        "service.fabric.wire_ms": ms("service.fabric.map_parts"),
        "service.coalesced_ratio": ratio(
            sum(b.n_coalesced for b in tracer.batches.values()),
            sum(b.n_coalesced + b.n_compiled for b in tracer.batches.values()),
        ),
        "service.asyncserve.batch_ms": statistics.fmean(
            v[1] for v in per_request.values()
        ) * 1e3 if per_request else 0.0,
        "service.asyncserve.batch_requests": ratio(
            sum(len(b.requests) for b in tracer.batches.values()),
            len(tracer.batches),
        ),
        "service.asyncserve.queue_wait_ms": statistics.fmean(
            v[0] for v in per_request.values()
        ) * 1e3 if per_request else 0.0,
        "service.asyncserve.overhead_ms": statistics.fmean(
            v[2] for v in per_request.values()
        ) * 1e3 if per_request else 0.0,
    }
    metrics.update(_remote_metrics(stack, n))

    # Layer shares of the median request: pre-batch spans, pure queue
    # wait, the batch's wall time split among its innermost spans, and
    # the rest of the client latency (wire, JSON, event loop).
    spans_of_batch: Dict[int, List] = {}
    spans_of_request: Dict[str, List] = {}
    for span in tracer.spans:
        if span.batch is not None:
            spans_of_batch.setdefault(span.batch, []).append(span)
        elif span.request is not None:
            spans_of_request.setdefault(span.request, []).append(span)
    band = median_band(good)
    shares: Dict[str, float] = {}
    for a in band:
        rid = a.request["id"]
        queue, _, overhead = per_request[rid]
        parts: Dict[str, float] = {}
        pre = 0.0
        for span in spans_of_request.get(rid, ()):
            parts[span.name] = parts.get(span.name, 0.0) + self_of[span.sid]
            pre += self_of[span.sid]
        parts["wait.queue"] = queue - pre
        parts["wait.overhead"] = overhead
        wall = pb_trace.wall_attribution(spans_of_batch.get(batch_of[rid], []))
        for name, seconds in wall.items():
            parts[name] = parts.get(name, 0.0) + seconds
        for name, seconds in parts.items():
            shares[name] = shares.get(name, 0.0) + seconds / a.latency_s / len(band)
    glue = shares.get("service.asyncserve.batch", 0.0)
    metrics["trace.accounted_ratio"] = 1.0 - glue
    groups: Dict[str, float] = {}
    for name, share in shares.items():
        group = layer_group(name)
        groups[group] = groups.get(group, 0.0) + share
    return {
        "metrics": metrics,
        "shares": {
            "median_latency_ms": statistics.median(a.latency_s for a in band) * 1e3,
            "band_requests": len(band),
            "by_layer": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "by_group": dict(sorted(groups.items(), key=lambda kv: -kv[1])),
        },
    }


def _remote_metrics(stack, n: int) -> Dict[str, float]:
    """``service.remote.*`` from the remote store client's public surfaces:
    its perf recorder (RPC timers and per-verb counters) and its stats."""
    perf = stack.store_perf
    if perf is None:
        return {
            "service.fabric.steals": 0.0,
            "service.remote.rpcs": 0.0,
            "service.remote.rpc_ms": 0.0,
            "service.remote.retries_or_degraded": 0.0,
        }
    report = perf.report()
    rpcs = sum(v for k, v in report.counters.items() if ".ops." in k)
    rpc_s = sum(
        s.total_s for s in report.stages if s.name.endswith(("rpc", "batched_rpc"))
    )
    stats = stack.service.store.stats
    return {
        "service.fabric.steals": float(stack.service.backend.n_steals),
        "service.remote.rpcs": rpcs / n,
        "service.remote.rpc_ms": rpc_s * 1e3 / n,
        "service.remote.retries_or_degraded": float(
            stats.degraded + stats.retry_exhausted
        ),
    }


def child_setup(args) -> float:
    """One cold stack build in a fresh process (``--setup-only``)."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "setup_s":
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(lines[1])


def run(args, units: Tuple[Dict[str, str], Dict[str, str]]) -> int:
    e2e_units, layer_units = units
    workload = pb_workloads.WORKLOADS[args.workload]
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{os.getpid()}")
    stack = conns = None
    try:
        # A traced run reports no setup_s: its own build is enough.
        setup_times = [
            child_setup(args)
            for _ in range(0 if args.setup_only or args.trace else SETUPS - 1)
        ]
        began = time.perf_counter()
        stack, conns = build_and_connect(workload, os.path.join(scratch, "stack"))
        setup_times.append(time.perf_counter() - began)
        if args.setup_only:
            print(f"setup_s {setup_times[-1]!r}")
            return 0
        stats = stack.service.store.stats
        lookups_before = (stats.hits, stats.misses)
        tracer = None
        if args.trace:
            tracer = pb_trace.Tracer(delays=dict(args.inject_delay or ()))
            pb_trace.install(tracer, stack.service)
        try:
            start, answers = pb_client.drive(
                conns,
                pb_workloads.request_streams(workload, args.seed),
                args.seconds,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        checked = check_answers(stack, answers, args.seed, args.perturb)
        pulses_checked = pulse_failures = 0
        if workload.engine == "grape":
            pulses_checked, bad = pb_workloads.stored_pulses_check(stack)
            pulse_failures = len(bad)
            checked["kinds"]["pulse"] = pulse_failures
        failed = checked["failed"]
        e2e = end_to_end(answers, start, setup_times, failed)
        layers = None
        if tracer is not None:
            good_ids = {
                a.request["id"] for i, a in enumerate(answers) if i not in failed
            }
            layers = traced_layers(tracer, answers, good_ids, stack, lookups_before)
            layers["metrics"]["trace.throughput_rps"] = e2e["throughput_rps"]
    finally:
        if conns is not None:
            pb_client.hang_up(conns)
        if stack is not None:
            stack.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run's scratch is still there

    attempted = len(answers)
    n_failed = min(attempted, len(failed) + pulse_failures)
    e2e["answered_ratio"] = (attempted - n_failed) / attempted
    correct = n_failed == 0

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"answers {attempted}  failed {n_failed}  "
          f"failures {json.dumps(checked['kinds'], sort_keys=True)}"
          f"  referenced {checked['referenced']}"
          + (f"  pulses_checked {pulses_checked}" if workload.engine == "grape" else ""))
    print(f"answers_digest {answers_digest(answers)}")
    print(f"setup_runs_s {' '.join(f'{s:.5f}' for s in setup_times)}")
    for name, unit in e2e_units.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{e2e['tail_percentile']:g}, {e2e['tail_beyond']}"
                     f" of {e2e['samples']} samples beyond)")
        print(f"  {name:<28} {e2e[name]:>14.6g} {unit}{extra}")
    print(f"  {'iterations_per_request':<28} "
          f"{e2e['iterations_per_request']:>14.6g} count")
    if layers is not None:
        for name, value in layers["metrics"].items():
            print(f"  {name:<36} {value:>14.6g} {layer_units.get(name, '')}")
        print("shares " + json.dumps(layers["shares"]))
        metrics = {
            name: {"value": layers["metrics"][name], "unit": unit}
            for name, unit in layer_units.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in e2e_units.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def answers_digest(answers, first: int = 16) -> str:
    """Digest of the outcomes of client 0's first answers: equal across
    two runs with the same seed when batch composition is fixed."""
    import hashlib

    rows = [
        {k: (a.reply or {}).get(k) for k in (
            "ok", "overall_latency_ns", "gate_based_latency_ns",
            "compile_iterations")}
        for a in answers if a.client == 0
    ][:first]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-delay", nargs=2, action="append", metavar=("SPAN", "SECONDS"),
        type=str, help="self-check hook: sleep inside every SPAN (traced runs)",
    )
    parser.add_argument(
        "--perturb", action="store_true",
        help="test hook: alter one answer before it is checked",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the stack once, print its set-up time and exit "
             "(the cold set-up samples of a run)",
    )
    args = parser.parse_args(argv)
    if args.inject_delay:
        args.inject_delay = [(name, float(s)) for name, s in args.inject_delay]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in pb_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"have {sorted(pb_workloads.WORKLOADS)}"
        )
    return run(args, metric_units())


if __name__ == "__main__":
    sys.exit(main())
