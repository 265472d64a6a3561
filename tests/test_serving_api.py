"""API-surface pin: refactors must not drop public names.

The serving engine lives in the ``repro.serving.engine`` package and is
re-exported by ``repro.serving``; these tests freeze both import
contracts so downstream code (and the goldens) keep working.
"""

import importlib

import pytest

SCHEDULER_EXPORTS = (
    "ENGINES",
    "CacheEntry",
    "PrefixCache",
    "ServingConfig",
    "RequestRecord",
    "RankStats",
    "ServingResult",
    "simulate_trace",
)

PACKAGE_EXPORTS = SCHEDULER_EXPORTS + (
    # trace + policy layers
    "Request",
    "TraceSpec",
    "SCENARIOS",
    "generate_trace",
    "trace_rows",
    "rows_to_trace",
    "POLICIES",
    "SchedulingPolicy",
    "get_policy",
    # routing layer
    "ROUTERS",
    "RoutingPolicy",
    "RoundRobinRouter",
    "LeastKvRouter",
    "P2cRouter",
    "SloAffinityRouter",
    "get_router",
    # cluster layer
    "Deployment",
    "DeploymentResult",
    "Cluster",
    "ClusterResult",
    "simulate_cluster",
    "Autoscaler",
    "AutoscalerConfig",
    # metrics + CLI
    "record_rows",
    "metrics_table",
    "summary",
    "cluster_rows",
    "cluster_summary",
    "build_parser",
    "main",
)


@pytest.mark.parametrize("name", SCHEDULER_EXPORTS)
def test_scheduler_shim_exports(name):
    """The engine package exports every name the removed
    ``repro.serving.scheduler`` shim did."""
    module = importlib.import_module("repro.serving.engine")
    assert hasattr(module, name)
    assert name in module.__all__


@pytest.mark.parametrize("name", PACKAGE_EXPORTS)
def test_package_exports(name):
    module = importlib.import_module("repro.serving")
    assert hasattr(module, name)
    assert name in module.__all__


def test_engine_package_layout():
    for submodule in ("cache", "config", "costs", "driver", "records",
                      "rank_engine"):
        importlib.import_module(f"repro.serving.engine.{submodule}")


def test_private_engine_names_still_reachable():
    # The experiment layer and tests reach for the private spine.
    engine = importlib.import_module("repro.serving.engine")
    for name in ("_CostCache", "_RankEngine", "_RequestState"):
        assert hasattr(engine, name)
