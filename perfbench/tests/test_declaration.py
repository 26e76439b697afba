"""BENCHMARK.json stays within the limits the benchmark promises."""

import json
import pathlib
import re

from perfbench import common, run

DECLARATION = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_counts():
    e2e, layers = DECLARATION["end_to_end"], DECLARATION["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for metric in e2e + layers:
        assert NAME.match(metric["name"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in DECLARATION["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(bounds.values())


def test_workloads_match_the_runner():
    names = [w["name"] for w in DECLARATION["workloads"]]
    assert tuple(names) == run.WORKLOADS
    for workload in DECLARATION["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_doc_page_covers_every_metric():
    page = (pathlib.Path(run.__file__).with_name("README.md")).read_text()
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert f"`{metric['name']}`" in page, metric["name"]
    for workload in run.WORKLOADS:
        assert f"`{workload}`" in page
