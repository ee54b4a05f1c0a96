"""Tests of the benchmark's own helpers and of its failure paths.

Run from the repository root: ``python3 -m pytest perfbench -q``. The
tests after the entry-point section run the benchmark command itself
(about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import pb_requests
import pb_stats
import pb_trace
from pb_trace import Span

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


# --------------------------------------------------------------- statistics
@pytest.mark.parametrize(
    "n, expected",
    [
        (1, (50.0, 0)),
        (15, (50.0, 7)),
        (21, (50.0, 10)),
        (37, (50.0, 18)),
        (38, (75.0, 10)),
        (100, (90.0, 10)),
        (1000, (99.0, 10)),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert pb_stats.tail_percentile(n) == expected


def test_samples_beyond_matches_a_count():
    values = list(range(200))
    for q in pb_stats.TAIL_LADDER:
        cut = pb_stats.percentile(values, q)
        assert pb_stats.samples_beyond(len(values), q) == sum(v > cut for v in values)


def test_percentile_interpolates_like_numpy():
    assert pb_stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert pb_stats.percentile([5.0], 99) == 5.0
    assert pb_stats.percentile([3.0, 1.0, 2.0], 100) == 3.0


def test_geomean():
    assert pb_stats.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert pb_stats.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        pb_stats.geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        pb_stats.geomean([])


def test_census_flags_the_minority_answers():
    answers = [("a", 1), ("a", 1), ("a", 2), ("b", 3), ("b", 3), ("c", 5)]
    assert pb_stats.census(answers) == [2]
    assert pb_stats.census([("a", 1), ("a", 2)]) == [1]  # tie: first wins
    assert pb_stats.census([]) == []


# ------------------------------------------------------------------- spans
def _span(sid, start, end, parent=None, thread=1, name="x", batch=1):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent,
                thread=thread, batch=batch)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 5.0, parent=1),
        _span(3, 3.0, 4.0, parent=2),
        _span(4, 6.0, 7.0, parent=1),
    ]
    assert pb_trace.self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_of_cross_thread_children():
    # A batch thread waits on two parts running in two pool threads; the
    # parts overlap, so the parent loses their union, not their sum, and a
    # child outliving its parent is clipped.
    spans = [
        _span(1, 0.0, 10.0, thread=1),
        _span(2, 1.0, 6.0, parent=1, thread=2),
        _span(3, 4.0, 9.0, parent=1, thread=3),
        _span(4, 9.5, 11.0, parent=1, thread=2),
    ]
    self_of = pb_trace.self_times(spans)
    assert self_of[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert self_of[2] == 5.0 and self_of[3] == 5.0


def test_wall_attribution_splits_concurrent_leaves():
    spans = [
        _span(1, 0.0, 10.0, name="batch"),
        _span(2, 1.0, 6.0, parent=1, thread=2, name="part"),
        _span(3, 4.0, 9.0, parent=1, thread=3, name="part"),
        _span(4, 2.0, 3.0, parent=2, thread=2, name="solve"),
    ]
    wall = pb_trace.wall_attribution(spans)
    assert wall["batch"] == pytest.approx(2.0)
    assert wall["solve"] == pytest.approx(1.0)
    assert wall["part"] == pytest.approx(7.0)
    assert sum(wall.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_entry_points():
    from repro.service import planner

    original = planner.build_similarity_graph
    tracer = pb_trace.Tracer()
    tracer.wrap(planner, "build_similarity_graph", "core.simgraph")
    assert planner.build_similarity_graph is not original
    outer = tracer.open("outer", batch=7)
    tracer.close(tracer.open("inner"))
    tracer.close(outer)
    tracer.uninstall()
    assert planner.build_similarity_graph is original
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.sid and inner.batch == 7


# -------------------------------------------------------------- requests
def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_vqe_requests_are_byte_identical_per_seed():
    first = _take(pb_requests.vqe_requests(11, 0, 3, 2), 20)
    again = _take(pb_requests.vqe_requests(11, 0, 3, 2), 20)
    assert json.dumps(first) == json.dumps(again)
    other_seed = _take(pb_requests.vqe_requests(12, 0, 3, 2), 20)
    other_client = _take(pb_requests.vqe_requests(11, 1, 3, 2), 20)
    assert first != other_seed and first != other_client
    assert len({r["qasm"] for r in first}) == 20  # fresh angles per request


def test_vqe_requests_parse_into_the_ansatz():
    from repro.circuits.qasm import parse_qasm

    request = next(pb_requests.vqe_requests(3, 0, 4, 3))
    circuit = parse_qasm(request["qasm"])
    names = [gate.name for gate in circuit]
    assert circuit.n_qubits == 4
    assert names.count("ry") == 12 and names.count("rz") == 9
    assert names.count("cx") == 18


def test_named_requests_deal_the_mix_exactly():
    mix = [("qft_4", 3.0), ("qft_5", 2.0), ("ex2", 1.0)]
    stream = pb_requests.named_requests(5, 0, 1, mix)
    for _ in range(4):
        hand = [r["name"] for r in _take(stream, 6)]
        assert sorted(hand) == sorted(["qft_4"] * 3 + ["qft_5"] * 2 + ["ex2"])
    replay = pb_requests.named_requests(5, 0, 1, mix)
    assert _take(replay, 24) == _take(pb_requests.named_requests(5, 0, 1, mix), 24)


def test_two_clients_are_dealt_every_pair_once_per_deck():
    mix = [("qft_4", 2.0), ("ex2", 1.0)]  # deck of 3, 9 pairs
    first = [r["name"] for r in _take(pb_requests.named_requests(9, 0, 2, mix), 9)]
    second = [r["name"] for r in _take(pb_requests.named_requests(9, 1, 2, mix), 9)]
    pairs = sorted(zip(first, second))
    deck = ["qft_4", "qft_4", "ex2"]
    assert pairs == sorted((a, b) for a in deck for b in deck)


def test_vqe_angles_are_a_balanced_comb():
    import math
    import re

    request = next(pb_requests.vqe_requests(8, 0, 3, 2))
    angles = sorted(
        float(a) for a in re.findall(r"r[yz]\(([-0-9.]+)\)", request["qasm"])
    )
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    assert len(angles) == 10
    assert all(abs(g - 2 * math.pi / 10) < 1e-5 for g in gaps)


# ------------------------------------------------------------ entry point
def test_entry_point_refuses_when_numpy_is_loaded():
    import numpy  # noqa: F401

    import run

    with pytest.raises(SystemExit):
        run.pin_blas_threads()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _metrics(proc):
    return {k: v["value"] for k, v in json.loads(
        proc.stdout.strip().splitlines()[-1])["metrics"].items()}


def test_without_program_source_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "suite-warm-read", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "workload", ["suite-warm-read", "vqe-model-fabric", "vqe-grape-cold"]
)
def test_a_perturbed_answer_fails_the_command(workload):
    proc = _bench("--workload", workload, "--seed", "2",
                  "--seconds", "2", "--trace", "0", "--perturb")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_attribution_self_check():
    """A fixed delay injected into one layer's wrapper moves that layer's
    self time, and no other layer's beyond the benchmark's largest bound
    (or 2% of the median request, for layers too small to resolve).

    Plain and delayed runs alternate, three of each, and their medians are
    compared: between two single runs every layer's time swung by up to
    15% together on a shared 2-vCPU host, and one layer by up to 44%.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bound = max(m["bound"] for m in spec["end_to_end"] if m["name"] != "setup_s")
    # Small enough that the slowed run answers nearly the same prefix of
    # the request sequence, so the other layers see the same programs.
    layer, delay_s = "latency.gate_based", 0.005
    common = ("--workload", "suite-warm-read", "--seed", "3",
              "--seconds", "8", "--trace", "1")
    delay = ("--inject-delay", layer, str(delay_s))
    base, slow = [], []
    for _ in range(3):
        base.append(_bench(*common))
        slow.append(_bench(*common, *delay))
    for proc in base + slow:
        assert proc.returncode == 0, proc.stderr
    before, after = _median_metrics(base), _median_metrics(slow)
    # one gate-based pricing per request
    assert after[layer + "_ms"] - before[layer + "_ms"] >= 0.8 * delay_s * 1e3
    floor_ms = 0.02 * statistics.median(_median_latency_ms(p) for p in base)
    waits = ("service.asyncserve.", "trace.")
    for name, value in before.items():
        if name == layer + "_ms" or not name.endswith("_ms") or name.startswith(waits):
            continue
        moved = abs(after[name] - value)
        assert moved <= max(bound * value, floor_ms), (name, value, after[name])


def _median_metrics(procs):
    runs = [_metrics(proc) for proc in procs]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def _median_latency_ms(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("shares "):
            return json.loads(line[len("shares "):])["median_latency_ms"]
    raise AssertionError("no shares line")
