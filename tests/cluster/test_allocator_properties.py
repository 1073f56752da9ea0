"""Allocator invariants under randomised retarget sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocator import NodeAllocator
from repro.cluster.rack import ServerRack
from repro.cluster.server import ServerState
from repro.sim.clock import Clock


@given(
    targets=st.lists(st.integers(0, 8), min_size=1, max_size=12),
    settle_minutes=st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_allocator_invariants(targets, settle_minutes):
    rack = ServerRack(server_count=4)
    allocator = NodeAllocator(rack)
    clock = Clock(dt=60.0)

    for target in targets:
        allocator.set_target(target)
        for _ in range(settle_minutes):
            rack.step(clock)
            clock.advance()
        allocator.sync()

        # Invariants that must hold at every instant:
        # 1. Placement never exceeds slot capacity.
        for server in rack.servers:
            assert len(server.vms) <= server.profile.vm_slots
        # 2. Running VMs only on ON servers.
        for server in rack.servers:
            if server.state is not ServerState.ON:
                assert server.running_vms() == []
        # 3. Running count never exceeds the target.
        assert rack.running_vm_count() <= max(targets[: targets.index(target) + 1])

    # After a long settle, the final target is met exactly.
    final = targets[-1]
    allocator.sync()
    for _ in range(40):
        rack.step(clock)
        clock.advance()
    allocator.sync()
    for _ in range(40):
        rack.step(clock)
        clock.advance()
    assert rack.running_vm_count() == final


@given(targets=st.lists(st.integers(0, 8), min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_vm_ctrl_ops_count_only_changes(targets):
    rack = ServerRack(server_count=4)
    allocator = NodeAllocator(rack)
    distinct_changes = sum(
        1 for previous, current in zip([0] + targets, targets, strict=False)
        if previous != current
    )
    # A retarget counts exactly once per actual change (other vm_ctrl
    # ops come from placements, counted separately).
    retargets = sum(allocator.set_target(target) for target in targets)
    assert retargets == distinct_changes


_RACK_OPS = st.one_of(
    st.tuples(st.just("set_target"), st.integers(0, 8)),
    st.tuples(st.just("sync"), st.none()),
    st.tuples(st.just("step"), st.integers(1, 20)),
    st.tuples(st.just("set_duty"), st.sampled_from([0.3, 0.6, 1.0])),
    st.tuples(st.just("emergency_shed"), st.none()),
    st.tuples(st.just("graceful_stop_all"), st.none()),
)


@given(ops=st.lists(_RACK_OPS, min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_rack_record_equals_a_fresh_build(ops):
    rack = ServerRack(server_count=4)
    allocator = NodeAllocator(rack)
    clock = Clock(dt=60.0)
    # Rebuild at every notification, as an eager owner would: a mutator
    # that tells the rack before its change is complete leaves a stale
    # record behind.
    for server in rack.servers:
        server.on_change = lambda: (rack._drop_record(), rack.record)
    for op, arg in ops:
        if op == "set_target":
            allocator.set_target(arg)
        elif op == "sync":
            allocator.sync()
        elif op == "step":
            for _ in range(arg):
                rack.step(clock)
                clock.advance()
        elif op == "set_duty":
            rack.set_duty(arg)
        else:
            getattr(rack, op)()
        assert rack.record == rack._build_record()
