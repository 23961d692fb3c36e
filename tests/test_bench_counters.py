"""The benchmark's lambda counters at seed 1, pinned.

One traced pass of each workload in `bench/workloads.py`, its spans summed
by `bench/run.py`'s own `layer_metrics`.  Counters do not depend on the
machine, so any change to them is a change of the work the library does
and must show up here as an edited expectation.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = ("tangles.enumerate_lam", "closure.classes_lam", "flowers.seed_lam",
          "trees.build_lam", "trees.verify_lam", "oracle.certify_lam",
          "oracle.differential_lam", "core.lam")

SEED_1 = {
    "daisy-cycles": (0, 200, 8, 326, 63, 4925, 0, 5514),
    "anemone-uniform": (0, 764, 8, 230, 51, 2311, 0, 3356),
    "oracle-graphs": (0, 352, 0, 1847, 385, 473, 60269, 63326),
    "tangle-search": (0, 0, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("workload", sorted(SEED_1))
def test_seed_1_lam_counters(workload):
    workloads, run = _load("workloads"), _load("run")
    tracer = workloads.Tracer()
    _, failures = workloads.run_pass(workload, workloads.make_inputs(workload, 1), tracer)
    assert failures == []
    metrics, _, _ = run.layer_metrics(tracer, [tracer.pass_index], [0.0], [0.0])
    assert sorted(name for name in metrics if name.endswith("lam")) == sorted(LAYERS)
    assert tuple(metrics[name][0] for name in LAYERS) == SEED_1[workload]
