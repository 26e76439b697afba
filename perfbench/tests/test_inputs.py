"""Generated inputs are a pure function of the seed."""

import json
from collections import Counter

import pytest

from perfbench import inputs

WORKLOADS = ("figures_hot", "figures_cold", "memsys_sim", "design_sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert inputs.canonical_bytes(workload, 7, 12) == inputs.canonical_bytes(workload, 7, 12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_bytes(workload):
    assert inputs.canonical_bytes(workload, 7, 12) != inputs.canonical_bytes(workload, 8, 12)


def test_mix_is_stratified_across_seeds():
    def key_counts(seed):
        requests = inputs.hot_inputs(seed, 12)["steps"][0]["requests"]
        return sorted(Counter(json.dumps(spec, sort_keys=True) for _, spec in requests).values())

    def experiments(seed):
        requests = inputs.cold_inputs(seed, 12)["steps"][0]["requests"]
        return [spec["experiment"] for _, spec in requests]

    # figures_hot: the same number of requests per popularity rank.
    assert key_counts(1) == key_counts(2)
    # figures_cold: the same experiment at every position.
    assert experiments(1) == experiments(2)


def test_cold_identities_are_fresh_or_reused_across_experiments():
    generated = inputs.cold_inputs(3, 12)
    seen = {}
    for step in generated["steps"]:
        for _, spec in step["requests"]:
            identity = (spec["seed"], spec["fault_rate"])
            assert spec["experiment"] not in seen.get(identity, set())
            seen.setdefault(identity, set()).add(spec["experiment"])
    assert 0.15 <= generated["reuse_share"] <= 0.3


def test_prefill_grid_has_unique_identities():
    columns = inputs.sweep_prefill(1)
    identity = ("config_hash", "experiment", "technique", "solver", "fault_set", "seed", "cell")
    keys = set(zip(*(columns[name].tolist() for name in identity)))
    assert len(keys) == len(columns["seed"]) == 100_000
