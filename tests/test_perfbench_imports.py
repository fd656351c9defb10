"""The benchmark harness under ``perfbench/`` keeps importing this tree.

``perfbench/`` reaches into ``repro`` from outside: it imports names,
reads module attributes and patches methods by name.  It is changed only
together with the benchmark, so a deletion in ``repro`` that it still
relies on must fail here first.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """``hostspans``, ``perlayer`` and ``cases`` loaded by file path under
    their bare names (``perlayer`` imports ``hostspans`` by that name)."""
    modules = {}
    for name in ("hostspans", "perlayer", "cases"):
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / f"{name}.py")
        module = modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return modules


def _repro_uses(path):
    """``(module, name)`` for every ``repro`` name ``path`` imports, and
    for every attribute it reads off an imported ``repro`` module."""
    tree = ast.parse(path.read_text())
    uses, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                uses.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module),
                                alias.name, None)
                if isinstance(value, types.ModuleType):
                    aliases[alias.asname or alias.name] = value.__name__
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            uses.append((aliases[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_repro_name_the_harness_uses_resolves(path):
    for module, name in _repro_uses(path):
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name} uses {module}.{name}, which no longer exists"


def test_harness_modules_load_and_install_every_probe(harness):
    perlayer, hostspans = harness["perlayer"], harness["hostspans"]
    with hostspans.HostTracer() as tracer:
        perlayer.install_probes(tracer)
    assert tracer.calls == {}


def test_rate_search_probes_through_the_module_rate_sweep(monkeypatch):
    """``cases.ServeHbm4.run`` captures each probe by patching
    ``driver.rate_sweep``: the search must call that module global once
    per executed probe, with the probe's result at element ``[0]``."""
    from repro.sim.bench import sustainable_rate_spec
    from repro.workloads import driver

    calls = []
    original = driver.rate_sweep

    def counting(*args, **kwargs):
        results = original(*args, **kwargs)
        calls.append(results)
        return results

    monkeypatch.setattr(driver, "rate_sweep", counting)
    search = driver.find_max_sustainable_rate(
        sustainable_rate_spec("rome"), 50_000.0, 5_000_000.0, probes=4)
    assert len(calls) == search.executed_probes == len(search.probes) == 4
    assert [results[0].goodput_per_s for results in calls] \
        == [probe.goodput_per_s for probe in search.probes]


def test_trace_cache_stub_keeps_the_harness_api():
    from repro.trace_cache import reset_trace_cache, trace_cache_stats

    assert reset_trace_cache() is None
    stats = trace_cache_stats()
    assert (stats.hits, stats.misses, stats.hit_rate) == (0, 0, 0.0)
