"""The workload generators are pure functions of the seed."""

import numpy as np
import pytest

import oracles
import workloads

GENERATORS = (
    workloads.paper_report_inputs,
    lambda seed: workloads.field_sweep_inputs(seed, count=64),
    lambda seed: workloads.flow_witness_inputs(seed, count=64),
)


@pytest.mark.parametrize("make", GENERATORS)
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_field_sweep_tables_follow_the_recipe():
    for table in workloads.field_sweep_inputs(3, count=200):
        concs = np.array(table["concentrations"])
        values = np.array(table["values"])
        assert 3 <= len(concs) <= 6 and np.all(np.diff(concs) > 0)
        assert np.all((concs >= 0.1) & (concs <= 3.5))
        u = values[:, 0] / concs
        assert np.all((u >= -0.05) & (u <= 0.15))
        noise = values[:, 1:] / (np.array(workloads.SURVEY_ROW_333) * concs[:, None] / 3.33)
        assert np.all(noise > 0)


def test_field_sweep_mix_of_sign_changes():
    per, changes = workloads.SWEEP_SIGN_CHANGE_MIX
    tables = workloads.field_sweep_inputs(4, count=5 * per)
    flags = [
        oracles.slope_changes_sign(
            oracles.fit_field(t["concentrations"], oracles.STAGE_NODES, t["values"])[0],
            1.0, 5.0)
        for t in tables
    ]
    for k in range(5):
        assert sum(flags[k * per:(k + 1) * per]) == changes


def test_flow_prefixes_cover_the_domain_and_steps():
    inputs = workloads.flow_witness_inputs(5, count=90)
    t0, t1, c0, c1 = oracles.DOMAIN
    for (t, c), step in inputs:
        assert t0 <= t <= t1 and c0 <= c <= c1 and step in workloads.FLOW_STEPS
    first = inputs[:30]
    assert {step for _, step in first} == set(workloads.FLOW_STEPS)
    # Every quarter of the stage range holds some of the first 30 starts.
    quarters = {int((t - t0) / (t1 - t0) * 4) for (t, _), _ in first}
    assert quarters == {0, 1, 2, 3}
