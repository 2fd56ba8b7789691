"""What the benchmark's traced pass relies on in the library.

``perfbench/tracer.py`` wraps library functions and methods by name and
observes ``SumBuckets.buckets``; ``perfbench/run.py`` reads one ``dt < X``
wall-clock gate from the source of every catalog criterion.  A refactor that
renames or reshapes any of these makes every traced criterion read as
missing, so the contract is pinned here.  ``run.py`` rewrites the BLAS
thread variables at import, so it is imported with the environment restored.
"""

import importlib
import inspect
import os
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qthermo import cli, subadd
from qthermo.shift import Potential
from qthermo.variational import q_pressure_scan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

A_CONST = Potential.constant(2, 1.0)
A_01 = Potential(d=2, memory=1, values=np.array([0.0, 1.0]))


def _library_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and name.startswith("qthermo")
    }


def test_every_traced_target_exists():
    for owner, attr, name, _, _ in tracer.targets():
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_run_records_subadd_and_restores_originals():
    targets = tracer.targets()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    namespaces = _library_namespaces()
    tr = tracer.Tracer()
    tr.install(targets)
    try:
        # q = 0.6 (p = 2.5) takes the bucket DP; integer p takes the moment recursion
        subadd.frak_L_n(A_01, 0.6, (), 5)
        subadd.asymptotic_pressure(A_CONST, 0.6, (), 20)
    finally:
        tr.uninstall()
    summary = tr.summary()
    assert summary["names"]["subadd.step"]["calls"] == 5 + 20
    # frak_L_n is the last term of the sequence, which evaluates every term
    assert summary["names"]["subadd.log_value"]["calls"] == 5 + 20
    # A_01 after 5 steps: one bucket per count of 2-symbols
    assert summary["counters"]["subadd.buckets_max"] == 6
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, f"{attr} not restored"
    after = _library_namespaces()
    for name, ns in namespaces.items():
        for attr, value in ns.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


@pytest.mark.parametrize("fn", cli.ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_each_criterion_has_one_wall_clock_gate(fn):
    source = inspect.getsource(fn.__wrapped__)
    assert len(re.findall(r"\bdt < ([0-9.eE+-]+)", source)) == 1


def test_gate_bounds_are_pinned():
    with mock.patch.dict(os.environ):
        run = importlib.import_module("run")
    assert run._gate_bounds() == {
        1: 1e-3, 2: 1.0, 3: 2.0, 4: 1.0, 5: 60.0, 6: 60.0, 7: 5.0, 8: 10.0, 9: 30.0,
        10: 5.0, 11: 5.0, 12: 5.0, 13: 2.0, 14: 5.0,
    }


def test_scan_keeps_the_call_shape_the_workload_uses():
    # perfbench/workloads.py passes the grid size positionally and the tracer
    # counts res.refined; the scan no longer grids, but both stay readable
    res = q_pressure_scan(A_01, 0.5, 8)
    assert res.grid_n == 8
    assert type(res.refined) is bool
