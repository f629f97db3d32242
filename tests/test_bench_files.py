"""The committed BENCH_*.json files: one schema, and every gated metric on
every workload of the benchmark, from runs that were correct and did not
fail.  These tests only read files."""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
SHARED_KEYS = {"what", "command", "sides", "method", "summary", "runs"}
SIDES = ("parent", "change")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_shared_keys(path):
    bench = load(path)
    assert SHARED_KEYS <= set(bench), SHARED_KEYS - set(bench)
    assert set(bench["sides"]) == set(SIDES)
    assert isinstance(bench["runs"], list) and bench["runs"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_trace0_gated_metrics(path):
    trace0 = load(path)["summary"]["trace0"]
    assert set(trace0) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload, entry in trace0.items():
        for side in SIDES:
            assert entry["correct"][side] is True, (workload, side)
            assert entry["failed"][side] == 0, (workload, side)
        for metric in BENCHMARK["end_to_end"]:
            got = entry["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric["name"])
            for side in SIDES:
                median = got[side]["median"]
                assert isinstance(median, (int, float)) and median > 0, (
                    workload, metric["name"], side)
