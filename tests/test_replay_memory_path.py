"""The core's memory path: latency-only accesses, one body with the
functional API, and the pins on what replay does (and does not) touch.

The core calls ``load_latency``/``store_latency``/``arm_latency``/
``disarm_latency``; library callers use ``read``/``write``/``arm``/
``disarm``.  Both run the same bodies, so on identical hierarchies they
must agree on every latency, path flag, exception and counter.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import MemoryHierarchy
from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import AccessResult, HierarchyConfig
from repro.core import Mode, RestException, Token, TokenConfigRegister
from repro.core.exceptions import InvalidRestInstructionError, RestFaultKind
from repro.core.modes import PrivilegeLevel
from repro.cpu import OutOfOrderCore
from repro.cpu.isa import alu, arm_op, store
from repro.cpu.smp import SmpSystem
from repro.harness.bench import BENCH_MODES, bench_specs
from repro.harness.configs import SimulationConfig
from repro.harness.experiment import _make_hierarchy, build_trace
from repro.mem.backing import BackingStore
from repro.obs.tracer import RingTracer, attach_tracer
from repro.runtime.machine import Machine
from repro.workloads.spec import profile_by_name
from tests.test_pipeline_properties import assert_memory_ops_issue_in_order

SLOTS = [64 * i for i in range(24)]  # spans several sets of a tiny L1

operation = st.tuples(
    st.sampled_from(["load", "store", "arm", "disarm", "flush"]),
    # A few hot slots make accesses meet armed tokens often; the rest
    # force evictions to the L2 and memory.
    st.one_of(st.sampled_from(SLOTS[:3]), st.sampled_from(SLOTS)),
    # In-line offset and size: offset + size past 64 crosses a line.
    st.integers(min_value=0, max_value=63),
    st.sampled_from([1, 4, 8, 16]),
    st.sampled_from([PrivilegeLevel.USER, PrivilegeLevel.SUPERVISOR]),
)


def _hierarchy(mode, staging, masked, width):
    register = TokenConfigRegister(Token.random(width, seed=3), mode=mode)
    if masked:
        register.set_exception_mask(True, PrivilegeLevel.SUPERVISOR)
    config = HierarchyConfig(
        l1d=CacheConfig(name="L1-D", size=512, associativity=2),
        l2=CacheConfig(name="L2", size=1024, associativity=2, hit_latency=20),
        token_staging_entries=staging,
    )
    return MemoryHierarchy(config=config, token_config=register)


def _counters(h):
    return {
        "hierarchy": asdict(h.stats),
        "l1d": asdict(h.l1d.stats),
        "l2": asdict(h.l2.stats),
        "wb": (h.l1d.write_buffer.inserts, h.l1d.write_buffer.full_stalls),
        "detector": (
            h.detector.fills_checked,
            h.detector.beat_compares,
            h.detector.matches_found,
        ),
        "dram": asdict(h.dram.stats),
        "staging": list(h._staging),
    }


def _outcome(call):
    """(value, exception fingerprint) of one access."""
    try:
        return call(), None
    except RestException as error:
        return None, (error.kind, error.address, error.precise, error.cycle)
    except InvalidRestInstructionError as error:
        return None, (error.address, error.width, error.op)


class TestOneBody:
    @given(
        operations=st.lists(operation, min_size=1, max_size=60),
        mode=st.sampled_from([Mode.SECURE, Mode.DEBUG]),
        staging=st.sampled_from([0, 2]),
        masked=st.booleans(),
        width=st.sampled_from([16, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_functional_and_core_forms_agree(
        self, operations, mode, staging, masked, width
    ):
        functional = _hierarchy(mode, staging, masked, width)
        core = _hierarchy(mode, staging, masked, width)
        for cycle, (action, slot, offset, size, privilege) in enumerate(
            operations
        ):
            address = slot + offset
            if action == "flush":
                functional.writeback_all()
                core.writeback_all()
                continue
            # Positional arguments: each form must take them in the
            # same order as its functional sibling.
            if action == "load":
                left = _outcome(
                    lambda: functional.read(address, size, privilege, cycle)[1]
                )
                right = _outcome(
                    lambda: core.load_latency(address, size, privilege, cycle)
                )
            elif action == "store":
                left = _outcome(
                    lambda: functional.write(
                        address, bytes(size), privilege, cycle
                    )
                )
                right = _outcome(
                    lambda: core.store_latency(address, size, privilege, cycle)
                )
            else:
                # Token ops take the slot itself, or an unaligned address.
                address = slot + (offset if offset % 3 == 0 else 0)
                left = _outcome(
                    lambda: getattr(functional, action)(address, cycle)
                )
                right = _outcome(
                    lambda: getattr(core, f"{action}_latency")(address, cycle)
                )
            result, left_error = left
            latency, right_error = right
            assert left_error == right_error
            if result is not None:
                assert isinstance(result, AccessResult)
                assert result.latency == latency
                assert result.went_to_memory == core.went_to_memory
                assert result.l2_hit == core.l2_hit
                assert result.token_bit_seen == core.token_bit_seen
            assert _counters(functional) == _counters(core)
        for slot in SLOTS:
            assert functional.is_armed(slot) == core.is_armed(slot)

    @pytest.mark.parametrize("action", ["load", "store"])
    def test_latency_forms_take_privilege_before_cycle(self, action):
        """``PrivilegeLevel`` is an ``IntEnum``, so a swapped order would
        pass silently; a syscall touching a token tells them apart."""
        hierarchy = _hierarchy(Mode.SECURE, 0, False, 64)
        hierarchy.arm(0)
        call = getattr(hierarchy, f"{action}_latency")
        with pytest.raises(RestException) as info:
            call(0, 8, PrivilegeLevel.SUPERVISOR, 7)
        assert info.value.kind is RestFaultKind.SYSCALL_TOUCHED_TOKEN
        assert info.value.cycle == 7


machine_operation = st.tuples(
    st.sampled_from(["load", "store", "arm", "disarm"]),
    st.one_of(st.sampled_from(SLOTS[:3]), st.sampled_from(SLOTS)),
    st.integers(min_value=0, max_value=63),
    st.sampled_from([1, 4, 8, 16]),
)


class TestMachineFunctionalPath:
    """``Machine`` calls the latency forms and reads the backing store
    itself; it must see what the :class:`AccessResult` API gives."""

    @given(
        operations=st.lists(machine_operation, min_size=1, max_size=60),
        mode=st.sampled_from([Mode.SECURE, Mode.DEBUG]),
        width=st.sampled_from([16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_machine_matches_the_access_result_api(
        self, operations, mode, width
    ):
        reference = _hierarchy(mode, 0, False, width)
        machine = Machine(hierarchy=_hierarchy(mode, 0, False, width))
        cycles = 0
        # Every sequence ends in a fault: a load of an armed token.
        operations = operations + [("arm", 0, 0, 8), ("load", 0, 0, 8)]
        for action, slot, offset, size in operations:
            address = slot + offset
            payload = bytes(range(1, size + 1))
            if action == "load":
                left = _outcome(lambda: reference.read(address, size))
                right = _outcome(lambda: machine.load(address, size))
                data, result = left[0] or (None, None)
                assert (data, left[1]) == right
            elif action == "store":
                left = _outcome(lambda: reference.write(address, payload))
                right = _outcome(lambda: machine.store(address, payload))
                result = left[0]
                assert left[1] == right[1]
            else:
                left = _outcome(lambda: getattr(reference, action)(slot))
                right = _outcome(lambda: getattr(machine, action)(slot))
                result = left[0]
                assert left[1] == right[1]
            if result is not None:
                cycles += result.latency
            assert machine.functional_cycles == cycles
            assert _counters(machine.hierarchy) == _counters(reference)
        assert right[1] is not None
        assert right[1][0] is RestFaultKind.LOAD_TOUCHED_TOKEN
        assert list(machine.hierarchy.backing.pages()) == list(
            reference.backing.pages()
        )

    def test_machine_builds_no_access_result(self, monkeypatch):
        def tripwire(*args, **kwargs):
            raise AssertionError("Machine built an AccessResult")

        monkeypatch.setattr(AccessResult, "__init__", tripwire)
        machine = Machine()
        machine.store(0x1000, b"\x05" * 8)
        assert machine.load(0x1000, 8) == b"\x05" * 8
        machine.arm(0x1040)
        machine.disarm(0x1040)
        assert machine.functional_cycles > 0


class TestLongStores:
    """A replayed store checks every byte it writes, as the functional
    ``write`` does: a 128-byte store whose second line holds a token
    faults in both."""

    def test_store_past_64_bytes_reaches_an_armed_line(self):
        functional = _hierarchy(Mode.SECURE, 0, False, 64)
        functional.arm(0x1040)
        with pytest.raises(RestException) as info:
            functional.write(0x1000, bytes(128))
        assert info.value.kind is RestFaultKind.STORE_TOUCHED_TOKEN

        core = OutOfOrderCore(_hierarchy(Mode.SECURE, 0, False, 64))
        trace = [arm_op(0x1040)] + [alu() for _ in range(50)]
        trace.append(store(0x1000, 128))
        with pytest.raises(RestException) as info:
            core.run(trace)
        assert info.value.kind is RestFaultKind.STORE_TOUCHED_TOKEN


class TestSmpRouting:
    """The core-facing forms must go through the snoop layer."""

    LINE = 0x40000

    def _owned_remotely(self):
        smp = SmpSystem(cores=2)
        smp.memory.write(1, self.LINE, bytes(8))  # core 1 holds it in M
        return smp, smp.cores[0].hierarchy

    def test_load_downgrades_a_remote_modified_line(self):
        smp, facade = self._owned_remotely()
        facade.load_latency(self.LINE, 8)
        remote = smp.memory.core(1).l1d.lookup(self.LINE, touch=False)
        assert smp.memory.stats.downgrades == 1
        assert remote is not None and not remote.dirty

    @pytest.mark.parametrize("method", ["store_latency", "arm_latency"])
    def test_ownership_invalidates_the_remote_copy(self, method):
        smp, facade = self._owned_remotely()
        if method == "store_latency":
            facade.store_latency(self.LINE, 8)
        else:
            facade.arm_latency(self.LINE)
        assert smp.memory.stats.invalidations == 1
        assert smp.memory.core(1).l1d.lookup(self.LINE, touch=False) is None

    def test_disarm_sees_a_token_armed_on_the_other_core(self):
        smp = SmpSystem(cores=2)
        smp.memory.arm(1, self.LINE)
        facade = smp.cores[0].hierarchy
        # Only a snoop materialises core 1's token bit for core 0's fill.
        facade.disarm_latency(self.LINE)
        assert smp.memory.stats.token_line_transfers == 1
        assert not smp.memory.is_armed(self.LINE)


def _replay(profile, mode_name, scale):
    spec = bench_specs()[mode_name]
    config = SimulationConfig(scale=scale, seed=1234)
    trace, _ = build_trace(profile_by_name(profile), spec, config)
    hierarchy = _make_hierarchy(spec, config)
    core = OutOfOrderCore(hierarchy, config=config.core)
    return core, trace


class TestReplayTouchesNoFunctionalPath:
    @pytest.mark.parametrize("mode_name", BENCH_MODES)
    def test_replay_builds_no_access_result_and_reads_no_bytes(
        self, mode_name, monkeypatch
    ):
        core, trace = _replay("xalancbmk", mode_name, 0.1)

        def tripwire(*args, **kwargs):
            raise AssertionError("replay took the functional memory path")

        monkeypatch.setattr(AccessResult, "__init__", tripwire)
        monkeypatch.setattr(BackingStore, "read", tripwire)
        stats = core.run(trace)
        assert stats.committed == len(trace)


class TestInOrderMemoryUnit:
    """Memory ops issue in program order, and each access's whole
    latency is charged at issue with its line installed at once.  No
    miss is tracked while in flight, so Table II's MSHR files (4 L1,
    20 L2 registers) are not modelled and never cap overlapping misses."""

    @pytest.mark.parametrize("profile", ["xalancbmk", "lbm", "sjeng"])
    def test_memory_ops_issue_in_order(self, profile):
        l1_mshrs = 4  # Table II
        for mode_name in BENCH_MODES:
            core, trace = _replay(profile, mode_name, 0.05)
            tracer = attach_tracer(core, RingTracer(capacity=1 << 20))
            core.run(trace)
            assert tracer.dropped == 0
            issued, done = {}, {}
            for event in tracer.events():
                if event["kind"] == "issue":
                    issued[event["seq"]] = event["cycle"]
                elif event["kind"] == "complete":
                    done[event["seq"]] = event["cycle"]
            assert len(issued) == len(trace)
            assert_memory_ops_issue_in_order(trace, issued)
            # Accesses that went past the L1-D overlap freely: more are
            # in flight at once than the L1 has MSHRs.
            beyond_l1 = core.hierarchy.config.l2.hit_latency
            edges = []
            for seq, cycle in issued.items():
                if trace[seq].op.is_memory and done[seq] - cycle >= beyond_l1:
                    edges += [(cycle, 1), (done[seq], -1)]
            in_flight = peak = 0
            for _, step in sorted(edges):
                in_flight += step
                peak = max(peak, in_flight)
            assert peak > l1_mshrs, (profile, mode_name, peak)
