"""The benchmark's timed and traced ops on a few seed-1 inputs of each
workload, so that a library name the benchmark uses (a function, a method
or a report field) cannot disappear unnoticed until the benchmark runs."""

import sys
from pathlib import Path

import pytest

import finitary
import finitary.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import inputs  # noqa: E402
from workloads import WORKLOADS, Tracer  # noqa: E402

OPS_PER_WORKLOAD = 5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_and_traced_op_pass_their_check_and_agree(name, tmp_path):
    wl = WORKLOADS[name]
    items = inputs.generate(finitary, name, 1, tmp_path / name)[:OPS_PER_WORKLOAD]
    for item in items:
        parsed = wl.parse(finitary, item)
        plain = wl.op(finitary, item, parsed)
        traced = wl.traced(finitary, Tracer(), item, parsed)
        assert wl.check(item, plain)
        assert wl.check(item, traced)
        assert plain == traced
