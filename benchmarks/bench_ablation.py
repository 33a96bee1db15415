"""Ablations of the design choices DESIGN.md calls out.

1. **Deferred token write vs naive write-through**: the paper's arm
   only sets the token bit and defers the 64-byte value write to
   eviction, which is what lets arm complete in one cycle.  The naive
   alternative writes the full token immediately (eight 8-byte
   stores).
2. **LSQ matching logic vs serialized arm/disarm**: the paper rejects
   serialising arm/disarm (sole in-flight instruction) as too slow and
   adds a few gates to the LSQ instead.
3. **Quarantine budget vs temporal protection window**: temporal
   safety lasts until reallocation; a bigger quarantine keeps freed
   chunks blacklisted longer at the cost of memory.
4. **Relaxed free-pool invariant**: REST zeroes drained chunks instead
   of keeping everything blacklisted; re-arming a whole region on
   every map/unmap would add token stores proportional to region size.
"""

from dataclasses import replace

from repro.core import RestException
from repro.cpu.isa import MicroOp, OpType
from repro.cpu.pipeline import CoreConfig
from repro.defenses import RestDefense
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.runtime.machine import Machine
from repro.workloads.spec import profile_by_name

PROFILE = "xalancbmk"  # the allocator-heavy benchmark


def _naive_write_through(trace):
    """Model arm as an immediate full-width write: eight 8-byte store
    beats (the 64-byte value crossing the narrow data bus) followed by
    the token-bit set.  The paper's design replaces the eight beats
    with nothing — the value is materialised at eviction instead."""
    out = []
    for uop in trace:
        if uop.op is OpType.ARM:
            for beat in range(8):
                out.append(
                    MicroOp(
                        OpType.STORE,
                        pc=uop.pc,
                        address=uop.address + 8 * beat,
                        size=8,
                    )
                )
        out.append(uop)
    return out


def test_ablation_deferred_vs_write_through(benchmark, bench_scale):
    """Deferred arm (1-cycle) must not lose to naive write-through."""
    from repro.harness.experiment import (
        Machine as _,  # noqa: F401  (documentational)
    )
    from repro.harness.experiment import _make_hierarchy, build_defense
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.runtime.machine import ExecutionMode
    from repro.workloads.generator import SyntheticWorkload

    spec = DefenseSpec.rest("Secure Full")
    config = SimulationConfig(scale=bench_scale)

    def generate():
        machine = Machine(mode=ExecutionMode.TRACE)
        defense = build_defense(machine, spec)
        SyntheticWorkload(
            profile_by_name(PROFILE), defense, seed=config.seed,
            scale=config.scale, alloc_intensity=config.alloc_intensity,
        ).run()
        return machine.take_trace()

    def run_pair():
        trace = generate()
        deferred = OutOfOrderCore(_make_hierarchy(spec, config)).run(
            list(trace)
        )
        naive = OutOfOrderCore(_make_hierarchy(spec, config)).run(
            _naive_write_through(trace)
        )
        return deferred.cycles, naive.cycles

    deferred_cycles, naive_cycles = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    print(
        f"\nAblation 1 (arm write policy): deferred={deferred_cycles} "
        f"naive-write-through={naive_cycles} "
        f"({(naive_cycles / deferred_cycles - 1) * 100:+.1f}%)"
    )
    assert naive_cycles >= deferred_cycles


def test_ablation_serialized_rest_ops(benchmark, bench_scale):
    """The rejected serialising design must cost more than the LSQ fix."""
    spec = DefenseSpec.rest("Secure Full")
    config = SimulationConfig(scale=bench_scale)
    serialized_core = replace(CoreConfig(), serialize_rest_ops=True)

    def run_pair():
        profile = profile_by_name(PROFILE)
        lsq_design = run_benchmark(profile, spec, config)
        serialized = run_benchmark(
            profile, spec, replace(config, core=serialized_core)
        )
        return lsq_design.cycles, serialized.cycles

    lsq_cycles, serialized_cycles = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    print(
        f"\nAblation 2 (arm/disarm handling): lsq-matching={lsq_cycles} "
        f"serialized={serialized_cycles} "
        f"({(serialized_cycles / lsq_cycles - 1) * 100:+.1f}%)"
    )
    assert serialized_cycles > lsq_cycles


def test_ablation_quarantine_window(benchmark):
    """Bigger quarantine => longer temporal-protection window."""

    def protected_window(quarantine_bytes: int) -> int:
        defense = RestDefense(
            Machine(), protect_stack=False, quarantine_bytes=quarantine_bytes
        )
        victim = defense.malloc(64)
        defense.free(victim)
        churn = 0
        while defense.allocator.in_quarantine(victim) and churn < 500:
            filler = defense.malloc(64)
            defense.free(filler)
            churn += 1
        # The dangling pointer is still caught iff the chunk has not
        # been reallocated; confirm with an actual access.
        ptr = defense.malloc(64)
        caught = True
        if ptr == victim:
            try:
                defense.load(victim, 8)
                caught = False
            except RestException:
                caught = True
        return churn

    def sweep():
        return [protected_window(q) for q in (0, 1024, 8192, 65536)]

    windows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nAblation 3 (quarantine budget 0/1K/8K/64K): "
          f"protection window = {windows} frees")
    assert windows == sorted(windows)
    assert windows[0] <= 1 and windows[-1] >= 50


def test_ablation_relaxed_invariant(benchmark):
    """Cost of blacklisting a fresh region vs leaving it zeroed.

    ASan's original invariant blacklists newly mapped regions; REST
    relaxes it because storing tokens across a region costs one arm per
    token width.  Measure the arm count a 1 MiB mapping would need."""

    def arms_for_region():
        machine = Machine(mode=__import__(
            "repro.runtime.machine", fromlist=["ExecutionMode"]
        ).ExecutionMode.TRACE)
        region = 1 << 20
        for offset in range(0, region, machine.token_width):
            machine.arm(0x40000000 + offset)
        return len(machine.take_trace())

    arms = benchmark.pedantic(arms_for_region, rounds=1, iterations=1)
    print(f"\nAblation 4 (blacklist-everything invariant): arming a "
          f"fresh 1 MiB mapping costs {arms} arm instructions; the "
          f"relaxed invariant costs 0 (pages arrive zeroed).")
    assert arms == (1 << 20) // 64


def test_ablation_fast_rest_allocator(benchmark, bench_scale):
    """§VIII future work: the REST-native slab allocator vs the
    ASan-derived one the paper evaluated."""
    config = SimulationConfig(scale=max(0.25, bench_scale))
    profile = profile_by_name(PROFILE)

    def run_pair():
        plain = run_benchmark(profile, DefenseSpec.plain(), config)
        baseline = run_benchmark(
            profile, DefenseSpec.rest("Secure Full"), config
        )
        # The fast allocator is selected through the defense option;
        # clone the spec via build-time indirection.
        from repro.harness import experiment as _exp
        from repro.runtime.machine import ExecutionMode
        from repro.workloads.generator import SyntheticWorkload
        from repro.cpu.pipeline import OutOfOrderCore

        machine = Machine(mode=ExecutionMode.TRACE)
        defense = RestDefense(machine, protect_stack=True, allocator="fast")
        SyntheticWorkload(
            profile, defense, seed=config.seed, scale=config.scale,
            alloc_intensity=config.alloc_intensity,
        ).run()
        spec = DefenseSpec.rest("Secure Full (fast alloc)")
        fast_core = OutOfOrderCore(_exp._make_hierarchy(spec, config))
        fast = fast_core.run(machine.take_trace())
        return plain.cycles, baseline.cycles, fast.cycles

    plain_c, baseline_c, fast_c = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )
    base_ovh = (baseline_c / plain_c - 1) * 100
    fast_ovh = (fast_c / plain_c - 1) * 100
    print(f"\nAblation 5 (custom REST allocator, {PROFILE}): "
          f"asan-derived={base_ovh:+.2f}% fast-slab={fast_ovh:+.2f}%")
    assert fast_c <= baseline_c


def test_ablation_token_staging_buffer(benchmark, bench_scale):
    """§VIII future work: a dedicated REST-line structure cuts the
    debug-mode commit wait for token operations."""
    from dataclasses import replace as _replace
    from repro.cache.hierarchy import HierarchyConfig
    from repro.core.modes import Mode

    profile = profile_by_name(PROFILE)
    base_config = SimulationConfig(scale=max(0.25, bench_scale))
    staged_config = SimulationConfig(
        scale=base_config.scale,
        hierarchy=HierarchyConfig(token_staging_entries=8),
    )
    spec = DefenseSpec.rest("Debug Full", mode=Mode.DEBUG)

    def run_pair():
        without = run_benchmark(profile, spec, base_config)
        with_buffer = run_benchmark(profile, spec, staged_config)
        return without.cycles, with_buffer.cycles

    without_c, with_c = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print(f"\nAblation 6 (dedicated REST-line buffer, debug mode, "
          f"{PROFILE}): without={without_c} with={with_c} "
          f"({(with_c / without_c - 1) * 100:+.2f}%)")
    assert with_c <= without_c


def test_ablation_software_content_checks(benchmark, bench_scale):
    """The inverse limit study to PerfectHW: run REST's exact
    protection scheme with *no* hardware — every access checked by
    inlined software content comparison, arm/disarm as full-width
    store sequences.  The gap to hardware REST is the primitive's
    value; the gap to ASan shows why naive content checks lose even
    to shadow-byte schemes in software."""
    config = SimulationConfig(scale=max(0.2, bench_scale))
    profile = profile_by_name(PROFILE)

    def run_three():
        plain = run_benchmark(profile, DefenseSpec.plain(), config)
        hw = run_benchmark(profile, DefenseSpec.rest("Secure Full"), config)
        sw = run_benchmark(
            profile, DefenseSpec(name="SoftREST", defense="softrest"), config
        )
        asan = run_benchmark(profile, DefenseSpec.asan(), config)
        return plain.cycles, hw.cycles, asan.cycles, sw.cycles

    plain_c, hw_c, asan_c, sw_c = benchmark.pedantic(
        run_three, rounds=1, iterations=1
    )
    hw_ovh = (hw_c / plain_c - 1) * 100
    asan_ovh = (asan_c / plain_c - 1) * 100
    sw_ovh = (sw_c / plain_c - 1) * 100
    print(f"\nAblation 7 (content checks in software, {PROFILE}): "
          f"hw-rest={hw_ovh:+.1f}%  asan={asan_ovh:+.1f}%  "
          f"software-rest={sw_ovh:+.1f}%")
    assert hw_ovh < asan_ovh < sw_ovh
