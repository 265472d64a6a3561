"""Routing policies: legacy bit-identity, registry contract, per-policy
selection behavior."""

import pytest

from repro.serving import (
    Request,
    ROUTERS,
    RoundRobinRouter,
    ServingConfig,
    TraceSpec,
    generate_trace,
    get_router,
    simulate_trace,
)


def _request(i, arrival=None, session=-1, priority=0):
    return Request(
        req_id=i,
        arrival_s=float(i) if arrival is None else arrival,
        prompt_tokens=16,
        gen_tokens=4,
        session_id=session,
        priority=priority,
    )


class _Target:
    """Duck-typed routing target with fixed observables."""

    def __init__(self, depth=0, occupancy=0.0, tier=0):
        self._depth = depth
        self._occupancy = occupancy
        self.tier = tier

    def queue_depth(self, t):
        return self._depth

    def kv_occupancy(self, t):
        return self._occupancy


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_names():
    assert sorted(ROUTERS) == ["least_kv", "p2c", "round_robin",
                               "slo_affinity"]


def test_get_router_fresh_instances():
    a, b = get_router("round_robin"), get_router("round_robin")
    assert a is not b


def test_get_router_unknown_name():
    with pytest.raises(ValueError, match="unknown routing policy"):
        get_router("bogus")


def test_get_router_bad_options():
    with pytest.raises(ValueError, match="bad options"):
        get_router("round_robin", seed=3)


def test_get_router_forwards_options():
    assert get_router("p2c", seed=7) is not None


# ---------------------------------------------------------------------------
# round robin: legacy sharding bit-identity
# ---------------------------------------------------------------------------

def test_round_robin_matches_legacy_modulo():
    router = RoundRobinRouter()
    picks = [router.select(_request(i), [[], [], []]) for i in range(9)]
    assert picks == [i % 3 for i in range(9)]


def test_round_robin_session_affinity_consumes_counter():
    # Legacy rule: session turns land on session_id % n but still
    # advance the enumerate counter for everyone after them.
    router = RoundRobinRouter()
    picks = [
        router.select(_request(0, session=5), [[], [], []]),  # 5 % 3 = 2
        router.select(_request(1), [[], [], []]),             # counter 1
        router.select(_request(2), [[], [], []]),             # counter 2
    ]
    assert picks == [2, 1, 2]


def _sharding_case_id(case):
    scenario, engine, num_ranks = case
    if (engine, num_ranks) == ("event", 3):
        return scenario
    return f"{scenario}-{engine}-{num_ranks}"


@pytest.mark.parametrize(
    "case",
    [(scenario, engine, num_ranks)
     for scenario in ("bursty", "conversational")
     for engine in ("event", "loop")
     for num_ranks in (1, 3, 4)],
    ids=_sharding_case_id,
)
def test_round_robin_reproduces_simulate_trace_sharding(case):
    # The driver shards with a vectorized form of RoundRobinRouter's
    # rule; record.rank must equal both the explicit legacy loop and a
    # fresh router's pick, for every engine.
    scenario, engine, num_ranks = case
    spec = TraceSpec(num_requests=48, seed=11, scenario=scenario)
    trace = generate_trace(spec)
    config = ServingConfig(model="gpt-125m", num_ranks=num_ranks,
                           engine=engine)
    result = simulate_trace(trace, config)
    ordered = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
    expected = {}
    router = RoundRobinRouter()
    targets = [[] for _ in range(num_ranks)]
    picks = {}
    for i, request in enumerate(ordered):
        if request.session_id >= 0:
            expected[request.req_id] = request.session_id % num_ranks
        else:
            expected[request.req_id] = i % num_ranks
        picks[request.req_id] = router.select(request, targets)
    assert len(result.records) == len(trace)
    for record in result.records:
        assert record.rank == expected[record.req_id]
        assert record.rank == picks[record.req_id]


# ---------------------------------------------------------------------------
# state-aware policies
# ---------------------------------------------------------------------------

def test_least_kv_picks_lowest_occupancy():
    router = get_router("least_kv")
    targets = [_Target(occupancy=0.8), _Target(occupancy=0.2),
               _Target(occupancy=0.5)]
    assert router.select(_request(0), targets) == 1


def test_least_kv_ties_break_low_index():
    router = get_router("least_kv")
    targets = [_Target(occupancy=0.4), _Target(occupancy=0.4)]
    assert router.select(_request(0), targets) == 0


def test_p2c_prefers_shallower_queue():
    router = get_router("p2c", seed=0)
    deep, shallow = _Target(depth=50), _Target(depth=1)
    # Regardless of which two indices the RNG samples, a pick must never
    # be strictly worse than both candidates over many draws.
    picks = [router.select(_request(i), [deep, shallow]) for i in range(64)]
    assert picks.count(1) > picks.count(0)


def test_p2c_deterministic_given_seed():
    seq_a = [get_router("p2c", seed=3).select(_request(i), [_Target(), _Target(), _Target()])
             for i in range(16)]
    seq_b = [get_router("p2c", seed=3).select(_request(i), [_Target(), _Target(), _Target()])
             for i in range(16)]
    assert seq_a == seq_b


def test_slo_affinity_routes_tier_to_matching_pool():
    router = get_router("slo_affinity")
    targets = [_Target(tier=0), _Target(tier=1), _Target(tier=1)]
    assert router.select(_request(0, priority=0), targets) == 0
    picks = {router.select(_request(i, priority=1), targets)
             for i in range(1, 5)}
    assert picks <= {1, 2}


def test_slo_affinity_falls_back_to_all_targets():
    router = get_router("slo_affinity")
    targets = [_Target(tier=0), _Target(tier=0)]
    picks = {router.select(_request(i, priority=9), targets)
             for i in range(4)}
    assert picks == {0, 1}


def test_base_policy_is_abstract():
    from repro.serving.routing import RoutingPolicy

    with pytest.raises(NotImplementedError):
        RoutingPolicy().select(_request(0), [_Target()])
