"""Microbenchmarks of the simulator substrates themselves.

These measure the throughput of the building blocks (detector scans,
cache accesses, LSQ searches, pipeline cycles) so regressions in the
simulation engine are visible independently of the figure benches.
"""

import random

from repro.cache import MemoryHierarchy
from repro.core import Token, TokenConfigRegister, TokenDetector
from repro.cpu import OutOfOrderCore
from repro.cpu.isa import alu, load, store
from repro.cpu.lsq import LoadStoreQueue, SqEntryKind


def test_detector_scan_throughput(benchmark):
    register = TokenConfigRegister(Token.random(64, seed=1))
    detector = TokenDetector(register)
    lines = [bytes([i % 256]) * 64 for i in range(256)]
    lines[128] = register.token_for_hardware().value

    def scan_all():
        hits = 0
        for line in lines:
            hits += detector.scan_line(line)
        return hits

    assert benchmark(scan_all) == 1


def test_hierarchy_read_hit_throughput(benchmark):
    hierarchy = MemoryHierarchy()
    hierarchy.read(0x1000, 8)  # warm the line

    def reads():
        for _ in range(1000):
            hierarchy.read(0x1000, 8)

    benchmark(reads)


def test_hierarchy_cold_stream_throughput(benchmark):
    """A fresh hierarchy streaming 4096 lines: construction plus the
    fill/evict path every cold simulation cell starts with."""

    def stream():
        hierarchy = MemoryHierarchy()
        for i in range(4096):
            hierarchy.read(0x100000 + 64 * i, 8)
        return hierarchy.l2.stats.misses

    assert benchmark(stream) == 4096


def test_hierarchy_arm_disarm_throughput(benchmark):
    hierarchy = MemoryHierarchy()

    def cycle():
        for i in range(100):
            address = 0x10000 + 64 * i
            hierarchy.arm(address)
            hierarchy.disarm(address)

    benchmark(cycle)


def test_lsq_search_throughput(benchmark):
    lsq = LoadStoreQueue()
    for i in range(24):
        lsq.dispatch_store_like(i, SqEntryKind.STORE, 0x1000 + 8 * i, 8)

    def searches():
        hits = 0
        for i in range(500):
            if lsq.search_for_load(100 + i, 0x1000 + 8 * (i % 24), 8):
                hits += 1
        return hits

    assert benchmark(searches) == 500


def test_pipeline_ipc_throughput(benchmark):
    rng = random.Random(7)

    def build_trace():
        ops = []
        for i in range(4000):
            roll = rng.random()
            if roll < 0.25:
                ops.append(load(0x100000 + (rng.randrange(4096) & ~7)))
            elif roll < 0.4:
                ops.append(store(0x100000 + (rng.randrange(4096) & ~7)))
            else:
                ops.append(alu())
        return ops

    trace = build_trace()

    def simulate():
        core = OutOfOrderCore(MemoryHierarchy())
        return core.run(list(trace)).cycles

    cycles = benchmark(simulate)
    assert cycles > 0
