"""Targeted tests for less-travelled paths across the stack."""

import pytest

from repro.cache import Cache, CacheConfig, MemoryHierarchy
from repro.core import Mode, RestException, Token, TokenConfigRegister
from repro.cpu import CoreConfig, OutOfOrderCore
from repro.cpu.isa import MicroOp, OpType, alu, arm_op, disarm_op, load, store
from repro.os import Kernel, TokenSwitchPolicy
from repro.runtime import ExecutionMode, Libc, Machine


class TestCacheEdges:
    def test_victim_address_reconstruction_all_sets(self):
        cache = Cache(CacheConfig(name="t", size=2048, associativity=2))
        stride = cache.config.num_sets * 64
        for set_index in range(cache.config.num_sets):
            base = set_index * 64
            cache.install(base)
            cache.install(base + stride)
            _, victim = cache.install(base + 2 * stride)
            assert victim is not None
            assert cache.victim_address(base + 2 * stride, victim) == base

    def test_token_eviction_stat(self):
        cache = Cache(CacheConfig(name="t", size=512, associativity=2))
        stride = cache.config.num_sets * 64
        cache.install(0, token_bits=1)
        cache.install(stride)
        cache.install(2 * stride)
        assert cache.stats.token_evictions == 1

    def test_install_counts_token_fills(self):
        cache = Cache(CacheConfig())
        cache.install(0x1000, token_bits=0b11)
        assert cache.stats.token_fills == 1


class TestHierarchyEdges:
    def test_three_line_spanning_write(self):
        h = MemoryHierarchy()
        data = bytes(range(130)) + b"\x00" * 30
        h.write(0x1030, data[:160])
        got, _ = h.read(0x1030, 160)
        assert got == data[:160]

    def test_narrow_token_disarm_zeroes_only_slot(self):
        register = TokenConfigRegister(Token.random(16, seed=2))
        h = MemoryHierarchy(token_config=register)
        h.write(0x1000, b"A" * 16)
        h.write(0x1020, b"C" * 16)
        h.arm(0x1010)
        h.disarm(0x1010)
        assert h.read(0x1000, 16)[0] == b"A" * 16
        assert h.read(0x1010, 16)[0] == b"\x00" * 16
        assert h.read(0x1020, 16)[0] == b"C" * 16

    def test_writeback_all_multiple_slots(self):
        register = TokenConfigRegister(Token.random(16, seed=2))
        h = MemoryHierarchy(token_config=register)
        h.arm(0x1000)
        h.arm(0x1030)
        h.writeback_all()
        token = register.token_for_hardware()
        assert h.backing.read(0x1000, 16) == token.value
        assert h.backing.read(0x1030, 16) == token.value
        assert h.backing.read(0x1010, 16) != token.value

    def test_l1i_stats_accumulate(self):
        h = MemoryHierarchy()
        assert h.fetch_line(0x400000) > 0  # cold miss stalls
        assert h.fetch_line(0x400004) == 0  # same line hits
        assert h.fetch_line(0x400040) == 0  # next line was prefetched
        assert h.l1i.stats.hits == 2
        assert h.l1i.stats.misses == 1


class TestPipelineEdges:
    def _core(self, **config_kwargs):
        config = CoreConfig(**config_kwargs) if config_kwargs else None
        return OutOfOrderCore(MemoryHierarchy(), config=config)

    def test_rob_full_counted_with_tiny_rob(self):
        core = self._core(rob_entries=4, iq_entries=64)
        # Long-latency loads back the tiny ROB up.
        trace = [load(0x100000 + 4096 * i, 8) for i in range(30)]
        trace += [alu() for _ in range(100)]
        stats = core.run(trace)
        assert stats.rob_full_cycles > 0

    def test_sq_full_counted(self):
        core = self._core(sq_entries=2, rob_entries=192)
        trace = [store(0x200000 + 4096 * i, 8) for i in range(40)]
        stats = core.run(trace)
        assert stats.sq_full_cycles > 0

    def test_lq_full_counted(self):
        core = self._core(lq_entries=2, rob_entries=192)
        trace = [load(0x300000 + 4096 * i, 8) for i in range(40)]
        stats = core.run(trace)
        assert stats.lq_full_cycles > 0

    def test_serialize_ablation_still_correct(self):
        """Serialized arm/disarm: slower, but token semantics intact."""
        from dataclasses import replace

        core = OutOfOrderCore(
            MemoryHierarchy(),
            config=replace(CoreConfig(), serialize_rest_ops=True),
        )
        trace = [arm_op(0x4000), alu(), alu(), disarm_op(0x4000), alu()]
        stats = core.run(trace)
        assert stats.committed == 5
        assert not core.hierarchy.is_armed(0x4000)

    def test_icache_stall_stat_populated(self):
        core = self._core()
        trace = [
            MicroOp(OpType.ALU, pc=0x400000 + 4 * i) for i in range(500)
        ]
        stats = core.run(trace)
        assert stats.icache_stall_cycles > 0

    def test_stats_merge(self):
        from repro.cpu.stats import CoreStats

        a = CoreStats(cycles=10, committed=5, op_counts={"alu": 5})
        b = CoreStats(cycles=20, committed=7, op_counts={"alu": 3, "load": 4})
        a.merge_from(b)
        assert a.cycles == 30 and a.committed == 12
        assert a.op_counts == {"alu": 8, "load": 4}


class TestKernelEdges:
    def test_single_policy_fork_does_not_rekey(self):
        kernel = Kernel(policy=TokenSwitchPolicy.SINGLE)
        parent = kernel.spawn()
        kernel.hierarchy.arm(parent.arena_base)
        child = kernel.fork(parent)
        assert child.token == parent.token
        kernel.switch_to(child)
        # Same token value system-wide: inherited token still trips.
        with pytest.raises(RestException):
            kernel.hierarchy.read(child.arena_base, 8)

    def test_single_policy_switch_is_cheap(self):
        kernel = Kernel(policy=TokenSwitchPolicy.SINGLE)
        a = kernel.spawn()
        b = kernel.spawn()
        register = kernel.hierarchy.token_config
        token_before = register.token_for_hardware()
        kernel.switch_to(a)
        assert register.token_for_hardware() == token_before


class TestLibcEdges:
    def test_memmove_backward_overlap(self):
        machine = Machine()
        libc = Libc(machine)
        machine.store(0x1000, b"abcdefghij")
        libc.memmove(0x0FFE, 0x1000, 10)  # dst < src: forward copy path
        assert machine.load(0x0FFE, 10) == b"abcdefghij"

    def test_memcmp_prefix_difference(self):
        machine = Machine()
        libc = Libc(machine)
        machine.store(0x1000, b"\x01" + b"Z" * 15)
        machine.store(0x2000, b"\x02" + b"Z" * 15)
        assert libc.memcmp(0x1000, 0x2000, 16) == -1

    def test_memset_zero_length(self):
        machine = Machine()
        Libc(machine).memset(0x1000, 0xFF, 0)
        assert machine.load(0x1000, 4) == b"\x00" * 4


class TestMachineEdges:
    def test_trace_mode_without_hierarchy(self):
        machine = Machine(mode=ExecutionMode.TRACE)
        assert machine.hierarchy is None
        assert machine.token_width == 64  # default without hardware

    def test_branch_uses_current_pc_by_default(self):
        machine = Machine(mode=ExecutionMode.TRACE)
        machine.set_pc(0x1234)
        machine.branch(True)
        assert machine.take_trace()[0].pc == 0x1234

    def test_pc_advances_per_emit(self):
        machine = Machine(mode=ExecutionMode.TRACE)
        machine.set_pc(0x1000)
        machine.compute(3)
        pcs = [u.pc for u in machine.take_trace()]
        assert pcs == [0x1000, 0x1004, 0x1008]


class TestRunAllDriver:
    def test_run_all_writes_outputs(self, tmp_path, monkeypatch):
        from repro.experiments import run_all as driver

        monkeypatch.setattr(
            driver, "EXPERIMENT_SCALES", {"table2": None, "table1": None}
        )
        out = driver.run_all(tmp_path / "results", scale=0.05)
        assert (out / "table2.txt").exists()
        assert (out / "table1.txt").exists()
        manifest = (out / "manifest.json").read_text()
        assert "table2" in manifest
