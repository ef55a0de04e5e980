"""The benchmark's tracing hooks still find what they wrap.

Each `perfbench/wl_*.py` workload wraps archc functions by name in its
`install_tracing`, so a renamed function would fail only in a traced
benchmark run. Here each workload's modules (`IMPORTS`) are imported and
its hooks registered, which looks every wrapped name up; the hooks are
not installed, so nothing is patched."""

import glob
import importlib
import os

import pytest

from conftest import ROOT

BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = sorted(os.path.basename(p)[:-3] for p in glob.glob(os.path.join(BENCH, "wl_*.py")))


def test_every_workload_is_found():
    assert WORKLOADS == ["wl_build", "wl_formal", "wl_sim"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_hooks_find_their_targets(name, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    workload = importlib.import_module(name)
    for module in workload.IMPORTS:
        importlib.import_module(module)
    import archc
    from tracing import Tracer
    tracer = Tracer()
    workload.install_tracing(archc, tracer)  # AttributeError on a renamed target
    assert tracer._patches
