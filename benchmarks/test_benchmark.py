"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""

import json
import sys

import pytest

import run
import tracing
from jobs import check_output, digest, digest_key
from workloads import WORKLOADS, job_list, shape_count

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


def test_shape_count_small_cases():
    # partitions of 5 into at most 2 parts: 5, 41, 32
    assert shape_count(5, 2) == 3
    assert shape_count(6, 6) == 11


def test_corrupted_stdout_counts_as_failure():
    argv = ["max-weights", "--n", "5", "--k", "3", "--s", "1", "--format", "json"]
    code, out = tracing.run_in_process(argv)
    digests = {digest_key(argv): digest(out)}
    assert check_output(argv, code, out, digests) is None
    corrupted = out.replace(b"1", b"2", 1)
    assert check_output(argv, code, corrupted, digests) == "stdout differs from the recorded digest"

    checker = run.Checker(digests)
    checker.check(argv, code, out)
    checker.check(argv, code, corrupted)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert not checker.result({})["correct"]


def test_disagreement_fails_without_a_digest():
    argv = ["count", "--n", "9", "--k", "4"]
    good = b"n\tk\ts\tcount\tformula\tagree\n9\t4\t0\t55\t55\ttrue\n"
    assert check_output(argv, 0, good, {}) is None
    assert check_output(argv, 0, good.replace(b"55\ttrue", b"54\ttrue"), {}) is not None
    assert check_output(argv, 2, good, {}) == "exit code 2"
    assert check_output(argv, None, good, {}) == "timed out"


def test_self_time_on_a_synthetic_tree():
    # span 0 [0, 10] has children 1 [1, 3] and 2 [2, 4] (overlapping, so
    # they cover [1, 4]) and 3 [8, 12] (clipped to [8, 10]); span 4 [1.5, 2]
    # is a grandchild under span 1 and does not count against span 0
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 4.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([5.0, 1.5, 2.0, 4.0, 0.5])


def _traced(jobs, monkeypatch, layers=tracing.LAYERS):
    monkeypatch.setenv("KACMAX_THREADS", "1")
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    notes = []
    for argv in jobs:
        code, _, _, missing = tracing.run_fresh(argv, tracer)
        assert code == 0, argv
        notes += missing
    return tracer, notes


def test_tiny_traced_job_list_spans_every_layer(monkeypatch):
    jobs = [
        ["max-weights", "--n", "5", "--k", "3", "--s", "1"],
        ["verify", "--conjecture", "count", "--n-max", "4", "--k-max", "3"],
        ["multiplicity", "--ell", "3", "--k", "3", "--check-all"],
    ]
    tracer, notes = _traced(jobs, monkeypatch)
    assert notes == []
    metrics, fixed, never = tracing.layer_metrics(tracer, passes=1)
    assert never == []
    spans = set(tracer.names[i] for i in tracer.name)
    assert {layer.span for layer in tracing.LAYERS} - {"tuple_sets.enumerate_M"} <= spans
    assert any(s.startswith("tuple_sets.enumerate_M.f") for s in spans)
    assert metrics["cli.main.calls"] == (3, "count")
    assert 0 < metrics["cli.self_s"][0] < metrics["cli.main.s"][0]
    assert fixed["patterns.shapes"] == (shape_count(3, 3), "count")
    # every rebinding is undone afterwards
    import kacmax.cli
    import kacmax.maximal_weights
    assert not hasattr(kacmax.cli.main, "__wrapped__")
    assert not hasattr(kacmax.maximal_weights.enumerate_M, "__wrapped__")


def test_each_job_gets_fresh_modules(monkeypatch):
    # a module-level cache left by one job must not be there for the next
    monkeypatch.setenv("KACMAX_THREADS", "1")
    tracing.run_fresh(["count", "--n", "4", "--k", "2"])
    sys.modules["kacmax.tuple_sets"].left_behind = {}
    tracing.run_fresh(["count", "--n", "4", "--k", "2"], tracing.Tracer())
    assert not hasattr(sys.modules["kacmax.tuple_sets"], "left_behind")


def test_missing_layer_reports_zero_calls(monkeypatch):
    layers = tracing.LAYERS + (tracing.Layer("kacmax.lattice_paths", "gone", "lattice_paths.gone"),
                               tracing.Layer("kacmax.nowhere", "f", "nowhere.f"))
    tracer, notes = _traced([["count", "--n", "4", "--k", "2"]], monkeypatch, layers)
    assert any("lattice_paths.gone" in n for n in notes)
    assert any("nowhere.f" in n for n in notes)
    metrics, _, never = tracing.layer_metrics(tracer, passes=1)
    assert metrics["lattice_paths.count_T.calls"] == (0, "count")
    assert any(n.startswith("lattice_paths.count_T") for n in never)


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    jobs = [
        ["table", "--oracle", "paths", "--ell-max", "3", "--k-max", "3"],
        ["max-weights", "--n", "4", "--k", "2", "--s", "1"],
    ]
    monkeypatch.setenv("KACMAX_THREADS", "1")
    monkeypatch.setattr(run, "job_list", lambda workload, seed: jobs)
    checker = run.Checker({})
    metrics = run.traced_run("grid", 0, 0.0, checker)
    assert checker.failed == 0
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert metrics["cli.pool.wall_s"]["value"] > 0
