"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments [names...] [--scale S] [--jobs N] [--timeout T] [--retries R]``
    Regenerate paper tables/figures (default: all of them) from
    ``run_all``'s registry and scale caps, so at the default scale 0.5
    each prints its committed ``results/`` artifact.  Fans out over N
    worker processes; ``--timeout``/``--retries`` activate the
    resilience layer (hung-worker kill, retry with backoff,
    quarantine).
``sweep [--seeds a b c] [--jobs N] [--cache DIR] [--live] ...``
    Multi-seed stability sweep of the Figure 7 configurations.
    ``--live`` streams per-cell sampler snapshots while cells run; a
    failed cell exits 1 with a structured ``uid: type: message`` error.
``serve [--state-dir DIR] [--slots N] [--max-jobs N] [--tcp HOST:PORT]``
    Run the persistent simulation job daemon on a Unix socket.
    SIGTERM/SIGINT drain gracefully: open jobs persist to queue.json
    and are resumed by the next daemon.
``submit <run_all|sweep> [--priority P] [--watch] ...``
    Submit a job to the daemon; duplicate submissions share executions
    (single-flight) and completed cells come from the shared cache.
``watch <job>`` / ``status <job>`` / ``jobs`` / ``shutdown``
    Follow a job's live event stream (sampler snapshots, unit/fault
    events), dump one job's JSON status, list all jobs, or drain the
    daemon.
``chaos [--outdir DIR] [--fault-seed F] [--permanent K] ...``
    Resilience proof: run the experiment sweep fault-free, re-run it
    under a seeded fault plan (hangs, crashes, transients, allocator
    failures, cache corruption) with timeouts+retries, and assert the
    degraded run's manifest/artifacts are byte-identical to the
    baseline for every non-quarantined unit.
``attack <name|all> [--defense MODE]``
    Run attack scenarios and print the outcome.  Here and in ``trace``
    and ``minic``, MODE is any mode or alias in the plugin registry
    (``repro.defenses.plugin.DEFENSE_MODES``); ``foundry --defenses``
    takes its canonical modes.  Unknown modes exit 2.
``foundry [--seed S] [--cases N] [--jobs N] [--defenses ...] ...``
    Generate a seeded adversarial corpus, execute it across defense
    modes through the parallel engine, and score a detection-coverage
    matrix; ``--golden``/``--strict`` gate CI on matrix drift and
    oracle mispredictions.
``bench [--out FILE] [--baseline FILE]``
    Simulate one benchmark per bench defense mode and record uops and
    cycles; ``--baseline`` exits 1 on any field that differs from a
    committed manifest.
``run --outdir DIR [--trace-out] [--o3] [--diff A B] [--sample-interval N]``
    Observed run: simulate each defense mode with the interval sampler
    (and optionally the event tracer / O3PipeView export) attached,
    writing a self-describing artifact directory; ``--diff`` also
    builds the trace-diff artifact for two of the modes.
``diff DIR [--a plain] [--b rest-debug] [--out FILE] [--top N]``
    Differential trace profile of two observed modes: align their
    committed instruction streams, attribute each mode's stall buckets
    to per-PC rows (sums match stalls exactly), and write the
    ``trace-diff/v1`` artifact.
``report DIR [--out FILE] [--html]``
    Render the observability dashboard (stall waterfalls, sparklines,
    event summaries, trace diffs) for a ``repro run`` directory or a
    ``run_all`` sweep directory.
``demo``
    The quickstart walkthrough.
``config``
    Print the Table II hardware configuration.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.run_all import (
    cache_directory,
    non_negative_int,
    positive_float,
    positive_int,
)


def _benchmark_name(text: str) -> str:
    """argparse type for benchmark names: reject unknown ones up front
    with the known-names message instead of a traceback mid-run."""
    from repro.workloads.spec import profile_by_name

    try:
        profile_by_name(text)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0])
    return text


def _bench_mode(text: str) -> str:
    """argparse type for the bench defense-mode names (``run --modes``,
    ``diff --mode``)."""
    from repro.harness.bench import bench_specs

    specs = bench_specs()
    if text not in specs:
        raise argparse.ArgumentTypeError(
            f"unknown mode {text!r}; known: {', '.join(specs)}"
        )
    return text


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import experiment_units
    from repro.harness.parallel import ResultCache, cell_cache, execute_units

    try:
        units = experiment_units(
            args.scale, args.seed, names=args.names or None
        )
    except ValueError as error:
        print(error)
        return 2
    cache = ResultCache(args.cache) if args.cache else None
    with cell_cache(args.cache or None):  # experiments share their cells
        results = execute_units(
            units,
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
        )
    status = 0
    for unit in units:  # print in request order whatever finished first
        result = results[unit.uid]
        print(f"\n{'=' * 72}\n{unit.uid}\n{'=' * 72}")
        if result.ok:
            print(result.value)
        else:
            after = (
                f" (after {result.attempts} attempts)"
                if result.attempts > 1
                else ""
            )
            print(f"FAILED: {result.error['type']}: "
                  f"{result.error['message']}{after}")
            status = 1
    return status


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.configs import figure7_specs
    from repro.harness.parallel import ResultCache
    from repro.harness.sweeps import SweepError, seed_sweep
    from repro.workloads.spec import ALL_PROFILES, profile_by_name

    profiles = (
        [profile_by_name(name) for name in args.benchmarks]
        if args.benchmarks
        else list(ALL_PROFILES)
    )
    cache = ResultCache(args.cache) if args.cache else None

    # --live: print one status line per sampler snapshot while cells run.
    def show_sample(kind: str, info: dict) -> None:
        if kind == "sample":
            print(
                f"  live {info.get('uid')}: "
                f"cycle {info.get('cycle'):>8,}  "
                f"ipc {info.get('ipc'):.2f}",
                flush=True,
            )

    try:
        sweep = seed_sweep(
            profiles,
            figure7_specs(),
            seeds=args.seeds,
            scale=args.scale,
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            live=args.live,
            on_progress=show_sample if args.live else None,
        )
    except SweepError as error:
        # Structured failure: name the cell and the worker's error type
        # so scripts can tell a failed simulation from a bad invocation.
        print(
            f"sweep failed: {error.uid}: {error.error['type']}: "
            f"{error.error['message']} "
            f"({error.count} cell(s), {error.attempts} attempt(s))"
        )
        return 1
    except (ValueError, RuntimeError) as error:
        print(f"sweep failed: {error}")
        return 2
    print(f"{'config':16s} {'mean%':>8s} {'stdev':>7s} {'spread':>7s}  "
          f"({len(args.seeds)} seeds, scale {args.scale})")
    for name, result in sweep.items():
        print(f"{name:16s} {result.mean:>8.2f} {result.stdev:>7.2f} "
              f"{result.spread:>7.2f}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.defenses import make_defense
    from repro.workloads import ATTACK_REGISTRY, UnknownAttackError, run_attack

    names = sorted(ATTACK_REGISTRY) if args.name == "all" else [args.name]
    for name in names:
        try:
            defense = make_defense(args.defense)
        except ValueError as error:
            print(str(error))
            return 2
        try:
            result = run_attack(name, defense)
        except UnknownAttackError as error:
            print(str(error))
            return 2
        print(f"{name:28s} [{args.defense:9s}] -> {result.outcome.value}"
              + (f" ({result.detected_by})" if result.detected_by else ""))
        if args.verbose and result.detail:
            print(f"    {result.detail}")
    return 0


def _cmd_foundry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.foundry.matrix import matrix_to_json, render_matrix_text
    from repro.foundry.primitives import FAMILIES, OracleViolation
    from repro.foundry.runner import FoundryExecutionError, run_foundry
    from repro.harness.parallel import ResultCache

    for family in args.families or ():
        if family not in FAMILIES:
            print(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
            return 2
    cache = ResultCache(args.cache) if args.cache else None
    try:
        matrix = run_foundry(
            args.seed,
            args.cases,
            defenses=args.defenses or None,
            families=args.families or None,
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
        )
    except OracleViolation as error:
        print(f"foundry failed: oracle violation in case {error.case_id}: "
              f"{error}")
        return 1
    except FoundryExecutionError as error:
        print(f"foundry failed: {error}")
        return 1
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(matrix_to_json(matrix))
        print(f"wrote {out}")
    print(render_matrix_text(matrix))
    status = 0
    if args.golden:
        try:
            golden = json.loads(Path(args.golden).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read golden {args.golden}: {error}")
            return 2
        if matrix != golden:
            print(f"GOLDEN MISMATCH vs {args.golden}:")
            for key in sorted(set(matrix) | set(golden)):
                if matrix.get(key) != golden.get(key):
                    print(f"  field {key!r} differs")
            status = 1
        else:
            print(f"matrix matches golden {args.golden}")
    if args.strict:
        if matrix["mispredictions"]:
            first = matrix["mispredictions"][0]
            print(
                f"STRICT: {len(matrix['mispredictions'])} oracle "
                f"misprediction(s); first: {first['case_id']} "
                f"[{first['defense']}] expected {first['expected']}, "
                f"got {first['actual']}"
            )
            status = 1
        missed = matrix["asan_expected_detect_missed"]
        if missed:
            print(
                f"STRICT: {len(missed)} sound-oracle case(s) ASan should "
                f"catch but missed: {', '.join(missed[:5])}"
            )
            status = 1
    return status


def _replay_recorded(trace, debug: bool):
    """Replay a recorded trace on the default hardware of a REST cell
    (secure, or debug mode); returns the core."""
    from repro.core.modes import Mode
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.harness.configs import DefenseSpec, SimulationConfig
    from repro.harness.experiment import _make_hierarchy

    spec = DefenseSpec.rest(
        "trace replay", mode=Mode.DEBUG if debug else Mode.SECURE
    )
    config = SimulationConfig()
    core = OutOfOrderCore(_make_hierarchy(spec, config), config=config.core)
    core.run(trace)
    return core


def _read_trace(path: str):
    """The decoded trace at ``path``, or None after a one-line error."""
    from repro.cpu.encoding import EncodingError, decode_trace

    try:
        with open(path, "rb") as handle:
            return decode_trace(handle.read())
    except OSError as error:
        print(f"cannot read trace {path}: {error.strerror or error}")
    except EncodingError as error:
        print(f"not a trace file: {path}: {error}")
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cpu.encoding import encode_trace

    if args.action == "record":
        from repro.defenses.plugin import canonical_mode
        from repro.harness.configs import DefenseSpec, SimulationConfig
        from repro.harness.experiment import build_trace
        from repro.workloads.spec import profile_by_name

        try:
            canonical_mode(args.defense)
        except ValueError as error:  # unknown mode, with suggestions
            print(str(error))
            return 2
        trace, _ = build_trace(
            profile_by_name(args.benchmark),
            DefenseSpec(name=args.defense, defense=args.defense),
            SimulationConfig(scale=args.scale),
        )
        data = encode_trace(trace)
        with open(args.file, "wb") as handle:
            handle.write(data)
        print(f"recorded {len(trace)} micro-ops "
              f"({len(data):,} bytes) to {args.file}")
        return 0

    if args.action == "stats":
        from collections import Counter

        trace = _read_trace(args.file)
        if trace is None:
            return 2
        counts = Counter(uop.op.value for uop in trace)
        data_lines = {
            uop.address >> 6 for uop in trace if uop.op.is_memory
        }
        code_lines = {uop.pc >> 6 for uop in trace}
        print(f"{args.file}: {len(trace):,} micro-ops")
        for name, count in counts.most_common():
            print(f"  {name:8s} {count:>8,}  ({count / len(trace):.1%})")
        print(f"  distinct data lines: {len(data_lines):,} "
              f"({len(data_lines) * 64 / 1024:.0f} KiB touched)")
        print(f"  distinct code lines: {len(code_lines):,}")
        if not args.no_replay:
            # A static trace has no cycles; replay it (secure mode, the
            # same default hardware and token as the replay action) to
            # attribute them.
            from repro.obs.stalls import format_stall_line

            stats = _replay_recorded(trace, debug=False).stats
            print(f"  replay (secure): {stats.cycles:,} cycles, "
                  f"IPC {stats.ipc:.2f}")
            print(f"  {format_stall_line(stats)}")
        return 0

    # replay
    trace = _read_trace(args.file)
    if trace is None:
        return 2
    core = _replay_recorded(trace, debug=args.debug)
    stats = core.stats
    print(f"replayed {stats.committed} micro-ops in {stats.cycles} "
          f"cycles (IPC {stats.ipc:.2f}); "
          f"arms={core.hierarchy.stats.arms} "
          f"disarms={core.hierarchy.stats.disarms}")
    from repro.obs.stalls import format_stall_line

    print(format_stall_line(stats))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core import RestException
    from repro.defenses import RestDefense
    from repro.runtime import Machine

    defense = RestDefense(Machine(), protect_stack=False)
    buffer = defense.malloc(100)
    print(f"malloc(100) -> 0x{buffer:x} with token redzones")
    defense.store(buffer, b"in bounds")
    print(f"in-bounds load: {defense.load(buffer, 9)!r}")
    try:
        defense.load(buffer + 128, 8)
    except RestException as error:
        print(f"over-read -> {error}")
    return 0


def _cmd_minic(args: argparse.Namespace) -> int:
    from repro.core import RestException
    from repro.defenses import make_defense
    from repro.lang import Interpreter, parse
    from repro.runtime.mte import MteViolation
    from repro.runtime.shadow import AsanViolation

    with open(args.file) as handle:
        program = parse(handle.read())

    if args.action == "run":
        try:
            defense = make_defense(args.defense)
        except ValueError as error:  # unknown mode, with suggestions
            print(str(error))
            return 2
        try:
            result = Interpreter(program, defense).run(*args.args)
            defense.flush_pending_faults()
        except (RestException, AsanViolation, MteViolation) as error:
            print(f"[{args.defense}] memory-safety violation: {error}")
            return 1
        print(f"[{args.defense}] main returned {result}")
        return 0

    # measure
    from repro.core.modes import Mode
    from repro.harness.configs import DefenseSpec
    from repro.lang.measure import compare_program

    specs = [
        DefenseSpec.asan(),
        DefenseSpec.rest("REST Secure Full"),
        DefenseSpec.rest("REST Debug Full", mode=Mode.DEBUG),
    ]
    results = compare_program(program, specs, args=tuple(args.args))
    plain = results["Plain"]
    print(f"{'config':18s} {'cycles':>10s} {'overhead':>9s} "
          f"{'instrs':>8s} {'arms':>6s}")
    for name, measurement in results.items():
        if measurement.faulted:
            print(f"{name:18s} FAULTED after {measurement.cycles:,} "
                  f"cycles: {measurement.faulted}")
            continue
        overhead = measurement.overhead_vs(plain)
        print(f"{name:18s} {measurement.cycles:>10,} {overhead:>8.1f}% "
              f"{measurement.instructions:>8,} {measurement.arms:>6}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FAULT_KINDS

    for kind in args.kinds:
        if kind not in FAULT_KINDS:
            print(f"unknown fault kind {kind!r}; known: "
                  f"{', '.join(FAULT_KINDS)}")
            return 2
    report = run_chaos(
        args.outdir,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        fault_seed=args.fault_seed,
        kinds=args.kinds,
        fraction=args.fraction,
        permanent=args.permanent,
        hang_seconds=args.hang_seconds,
    )
    return 0 if report.ok else 1


def _cmd_config(_args: argparse.Namespace) -> int:
    from repro.harness.configs import table2_text

    print(table2_text())
    return 0


#: Default daemon state directory (socket, cache, queue, job artifacts).
DEFAULT_STATE_DIR = "results/service"


def _endpoint(args: argparse.Namespace) -> dict:
    """Resolve client connection kwargs from --socket/--tcp/--state-dir."""
    from pathlib import Path

    from repro.service.protocol import parse_tcp

    if getattr(args, "tcp", None):
        return {"tcp": parse_tcp(args.tcp)}
    if getattr(args, "socket", None):
        return {"socket_path": args.socket}
    return {"socket_path": str(Path(args.state_dir) / "daemon.sock")}


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceConfig, serve
    from repro.service.protocol import parse_tcp

    config = ServiceConfig(
        state_dir=args.state_dir,
        socket_path=args.socket,
        tcp=parse_tcp(args.tcp) if args.tcp else None,
        slots=args.slots,
        max_jobs=args.max_jobs,
        timeout=args.timeout,
        retries=args.retries,
        drain_grace=args.drain_grace,
        coordinator=args.coordinator,
        heartbeat=args.heartbeat,
        miss_factor=args.miss_factor,
        unit_retries=args.unit_retries,
    )
    mode = (
        "coordinator (capacity from workers)"
        if args.coordinator
        else f"local, slots {args.slots}"
    )
    print(
        f"serving on {config.resolved_socket()} "
        f"(state {args.state_dir}, {mode}); SIGTERM drains"
    )
    serve(config)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.protocol import parse_tcp
    from repro.service.worker import WorkerConfig, serve_worker

    if (args.connect is None) == (args.tcp is None):
        print("worker needs exactly one of --connect SOCKET or "
              "--tcp HOST:PORT")
        return 2
    config = WorkerConfig(
        socket_path=args.connect,
        tcp=parse_tcp(args.tcp) if args.tcp else None,
        name=args.name,
        slots=args.slots,
        state_dir=args.state_dir,
        reconnect=not args.no_reconnect,
        reconnect_tries=args.reconnect_tries,
    )
    try:
        serve_worker(config)
    except ConnectionError as error:
        print(f"worker giving up: {error}")
        return 1
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(**_endpoint(args)) as client:
            view = client.workers()
    except ServiceError as error:
        print(f"workers failed: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    if not view.get("coordinator"):
        print("daemon is running in local mode (no worker fabric)")
        return 0
    print(f"{'name':12s} {'pid':>7s} {'slots':>5s} {'busy':>4s} "
          f"{'done':>5s}")
    for worker in view.get("workers", []):
        print(
            f"{worker['name']:12s} {worker['pid']:>7d} "
            f"{worker['slots']:>5d} {worker['inflight']:>4d} "
            f"{worker['completed']:>5d}"
        )
    fabric = view.get("fabric", {})
    print(
        f"{fabric.get('workers', 0)} worker(s), capacity "
        f"{fabric.get('capacity', 0)}; {fabric.get('redeemed', 0)} "
        f"redeemed, {fabric.get('reassignments', 0)} reassigned, "
        f"{fabric.get('lost_units', 0)} lost, "
        f"{fabric.get('workers_lost', 0)} worker(s) lost"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service.loadgen import (
        LoadgenOptions,
        compare_to_baseline,
        run_loadgen,
    )

    options = LoadgenOptions(
        out=args.dir,
        seed=args.seed,
        fault_seed=args.fault_seed,
        slots=args.slots,
        scale=args.scale,
        chaos_workers=args.chaos_workers,
        kills=args.kills,
        permanent=args.permanent,
        quiet=args.quiet,
    )
    bench = run_loadgen(options)
    out_path = Path(args.out or (Path(args.dir) / "BENCH_service.json"))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        json.dumps(bench, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {out_path}")
    problems = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        problems = compare_to_baseline(bench, baseline)
        for problem in problems:
            print(f"DRIFT: {problem}")
        if not problems:
            print("no drift against baseline")
    if not bench["chaos"]["identity"]:
        for mismatch in bench["chaos"]["mismatches"]:
            print(f"IDENTITY: {mismatch}")
        print("chaos identity FAILED")
        return 1
    return 1 if problems else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    params: dict = {}
    if args.kind == "run_all":
        if args.names:
            params["names"] = args.names
        if args.outdir:
            params["outdir"] = args.outdir
    else:
        if args.benchmarks:
            params["benchmarks"] = args.benchmarks
        if args.specs:
            params["specs"] = args.specs
        if args.seeds:
            params["seeds"] = args.seeds
        params["live"] = not args.no_live
        if args.sample_interval:
            params["sample_interval"] = args.sample_interval
    if args.scale is not None:
        params["scale"] = args.scale
    if args.kind == "run_all" and args.seed is not None:
        params["seed"] = args.seed
    try:
        with ServiceClient(**_endpoint(args)) as client:
            job = client.submit(args.kind, params, priority=args.priority)
    except ServiceError as error:
        print(f"submit rejected: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    units = job["units"]
    print(
        f"{job['id']} submitted: {units['total']} unit(s), "
        f"{units.get('cached', 0)} cached, "
        f"{job['dedup_hits']} deduplicated, priority {job['priority']}"
    )
    if args.watch:
        return _watch_job(args, job["id"])
    return 0


def _watch_job(args: argparse.Namespace, job_id: str) -> int:
    from repro.service.client import ServiceError, watch_resilient

    try:
        state = None
        for event in watch_resilient(job_id, **_endpoint(args)):
            if event.get("type") == "done":
                state = event.get("state")
                break
            if event.get("type") == "reconnected":
                print(
                    f"  {job_id} reconnected after "
                    f"{event.get('failures', 0)} attempt(s); "
                    f"replaying events",
                    flush=True,
                )
                continue
            if event.get("type") == "draining":
                print(f"  {job_id} daemon draining; job persisted, "
                      f"waiting for restart", flush=True)
                continue
            kind = event.get("kind", "")
            if kind == "sample":
                print(
                    f"  {job_id} {event.get('uid')}: "
                    f"cycle {event.get('cycle'):>8,}  "
                    f"ipc {event.get('ipc'):.2f}",
                    flush=True,
                )
            elif kind.startswith("unit."):
                detail = ""
                if event.get("error"):
                    detail = f" ({event['error']})"
                print(f"  {job_id} {event.get('uid')}: "
                      f"{kind.split('.', 1)[1]}{detail}", flush=True)
            elif kind.startswith("fault."):
                print(f"  {job_id} {event.get('uid')}: "
                      f"{kind}", flush=True)
            elif kind in ("job.done", "job.failed"):
                error = event.get("error")
                suffix = (
                    f": {error['type']}: {error['message']}"
                    if error
                    else ""
                )
                print(f"  {job_id} {kind.split('.', 1)[1]}{suffix}",
                      flush=True)
    except ServiceError as error:
        print(f"watch failed: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    print(f"{job_id} finished: {state}")
    return 0 if state == "done" else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    return _watch_job(args, args.job)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(**_endpoint(args)) as client:
            job = client.status(args.job)
    except ServiceError as error:
        print(f"status failed: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] != "failed" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(**_endpoint(args)) as client:
            listing = client.jobs()
            stats = client.ping()["stats"]
    except ServiceError as error:
        print(f"jobs failed: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    print(f"{'id':6s} {'kind':8s} {'prio':7s} {'state':8s} "
          f"{'units':>6s} {'dedup':>6s} {'fail':>5s}")
    for job in listing:
        print(
            f"{job['id']:6s} {job['kind']:8s} {job['priority']:7s} "
            f"{job['state']:8s} {job['units']['total']:>6d} "
            f"{job['dedup_hits']:>6d} {job['failures']:>5d}"
        )
    print(
        f"{len(listing)} job(s); {stats['executions']} execution(s), "
        f"{stats['dedup_hits']} dedup hit(s), draining={stats['draining']}"
    )
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(**_endpoint(args)) as client:
            client.shutdown()
    except ServiceError as error:
        print(f"shutdown failed: {error.code}: {error}")
        return 1
    except OSError as error:
        print(f"cannot reach daemon: {error}")
        return 2
    print("daemon draining (open jobs persist to queue.json)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.harness.bench import manifest_drift, run_bench

    baseline = None
    if args.baseline:
        try:
            baseline = json.loads(Path(args.baseline).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read baseline {args.baseline}: {error}")
            return 2
    manifest = run_bench(
        benchmark=args.benchmark,
        scale=args.scale,
        seed=args.seed,
        progress=print,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    if baseline is not None:
        problems = manifest_drift(baseline, manifest)
        for problem in problems:
            print(f"BENCH DRIFT: {problem}")
        if problems:
            return 1
        print(f"identical to baseline {args.baseline}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.runner import run_observed
    from repro.obs.sampler import DEFAULT_INTERVAL

    try:
        summary = run_observed(
            args.outdir,
            benchmark=args.benchmark,
            modes=args.modes or None,
            scale=args.scale,
            seed=args.seed,
            interval=args.sample_interval or DEFAULT_INTERVAL,
            ring_capacity=args.ring,
            events=args.trace_out,
            o3=args.o3,
            progress=print,
            diff=tuple(args.diff) if args.diff else None,
        )
    except ValueError as error:
        print(f"run failed: {error}")
        return 2
    print(f"wrote {len(summary['modes'])} mode(s) to {args.outdir}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.diff import build_trace_diff, render_diff_text, write_trace_diff

    try:
        artifact = build_trace_diff(args.dir, args.a, args.b, top=args.top)
    except (FileNotFoundError, ValueError) as error:
        print(f"diff failed: {error}")
        return 2
    out = args.out or str(Path(args.dir) / "trace-diff.json")
    write_trace_diff(artifact, out)
    print(f"wrote {out}")
    print("\n".join(render_diff_text(artifact)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    text = write_report(args.dir, out=args.out, html=args.html)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    from repro.defenses.plugin import DEFENSE_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="REST (ISCA 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("names", nargs="*", metavar="name")
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument("--seed", type=int, default=1234)
    p_exp.add_argument("--jobs", "-j", type=positive_int, default=1,
                       help="worker processes (1 = in-process)")
    p_exp.add_argument("--cache", type=cache_directory, default=None,
                       metavar="DIR",
                       help="reuse/populate a result cache directory")
    p_exp.add_argument("--timeout", type=positive_float, default=None,
                       metavar="SECONDS",
                       help="per-unit wall-clock timeout (hung workers "
                            "are killed and re-dispatched)")
    p_exp.add_argument("--retries", type=non_negative_int,
                       default=0, metavar="N",
                       help="extra attempts per failed unit before "
                            "quarantine")
    p_exp.set_defaults(handler=_cmd_experiments)

    p_sweep = sub.add_parser(
        "sweep", help="multi-seed stability sweep (Figure 7 configs)"
    )
    p_sweep.add_argument("--seeds", type=int, nargs="+",
                         default=[1, 2, 3, 4, 5])
    p_sweep.add_argument("--scale", type=float, default=0.1)
    p_sweep.add_argument("--jobs", "-j", type=positive_int, default=1)
    p_sweep.add_argument("--cache", type=cache_directory, default=None,
                         metavar="DIR")
    p_sweep.add_argument("--benchmarks", nargs="*", metavar="name",
                         type=_benchmark_name,
                         help="subset of benchmarks (default: all)")
    p_sweep.add_argument("--timeout", type=positive_float, default=None,
                         metavar="SECONDS",
                         help="per-cell wall-clock timeout")
    p_sweep.add_argument("--retries", type=non_negative_int,
                         default=0, metavar="N",
                         help="extra attempts per failed cell")
    p_sweep.add_argument("--live", action="store_true",
                         help="stream per-cell sampler snapshots while "
                              "cells run (results are unaffected)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injected sweep must match the fault-free baseline",
    )
    p_chaos.add_argument("--outdir", default="results/chaos", metavar="DIR")
    p_chaos.add_argument("--scale", type=float, default=0.35)
    p_chaos.add_argument("--seed", type=int, default=1234)
    p_chaos.add_argument("--jobs", "-j", type=positive_int, default=2)
    p_chaos.add_argument("--timeout", type=positive_float, default=60.0,
                         metavar="SECONDS",
                         help="per-unit timeout for the chaos run")
    p_chaos.add_argument("--retries", type=non_negative_int,
                         default=2, metavar="N")
    p_chaos.add_argument("--fault-seed", type=int, default=7,
                         help="seed of the fault plan (same seed, same "
                              "chaos)")
    p_chaos.add_argument("--kinds", nargs="*", metavar="kind",
                         default=["hang", "crash", "transient",
                                  "memory_error", "corrupt_cache"],
                         help="fault kinds to mix round-robin over the "
                              "faulted units")
    p_chaos.add_argument("--fraction", type=float, default=0.6,
                         help="fraction of units to fault")
    p_chaos.add_argument("--permanent", type=non_negative_int, default=0,
                         metavar="K",
                         help="make K planned faults unhealable "
                              "(exercises quarantine)")
    p_chaos.add_argument("--hang-seconds", type=float, default=300.0,
                         help="how long an injected hang sleeps (must "
                              "exceed --timeout)")
    p_chaos.set_defaults(handler=_cmd_chaos)

    p_att = sub.add_parser("attack", help="run attack scenarios")
    p_att.add_argument("name", help="attack name or 'all'")
    p_att.add_argument(
        "--defense",
        default="rest",
        metavar="MODE",
        help="any plugin-registered defense mode (unknown modes exit 2 "
             "with did-you-mean suggestions)",
    )
    p_att.add_argument("--verbose", "-v", action="store_true")
    p_att.set_defaults(handler=_cmd_attack)

    p_fnd = sub.add_parser(
        "foundry",
        help="seeded attack corpus scored as a detection-coverage matrix",
    )
    p_fnd.add_argument("--seed", type=int, default=7,
                       help="corpus seed (same seed, same matrix)")
    p_fnd.add_argument("--cases", type=positive_int, default=500,
                       help="corpus size, round-robin over families")
    p_fnd.add_argument("--jobs", "-j", type=positive_int, default=1)
    p_fnd.add_argument("--defenses", nargs="*", choices=DEFENSE_MODES,
                       metavar="mode",
                       help="defense modes (default: none asan rest "
                            "softrest mte mte-async)")
    p_fnd.add_argument("--families", nargs="*", metavar="family",
                       help="primitive families (default: all)")
    p_fnd.add_argument("--cache", type=cache_directory, default=None,
                       metavar="DIR",
                       help="reuse/populate a shard result cache")
    p_fnd.add_argument("--out", default=None, metavar="FILE",
                       help="write the matrix JSON here (name it "
                            "foundry_matrix.json for repro report)")
    p_fnd.add_argument("--golden", default=None, metavar="FILE",
                       help="fail (exit 1) unless the matrix equals this "
                            "committed golden")
    p_fnd.add_argument("--strict", action="store_true",
                       help="fail (exit 1) on oracle mispredictions or "
                            "sound-oracle ASan misses")
    p_fnd.add_argument("--timeout", type=positive_float, default=None,
                       metavar="SECONDS",
                       help="per-shard wall-clock timeout")
    p_fnd.add_argument("--retries", type=non_negative_int,
                       default=0, metavar="N",
                       help="extra attempts per failed shard")
    p_fnd.set_defaults(handler=_cmd_foundry)

    p_trace = sub.add_parser(
        "trace", help="record/replay binary micro-op traces"
    )
    p_trace.add_argument("action", choices=("record", "replay", "stats"))
    p_trace.add_argument("file")
    p_trace.add_argument("--benchmark", default="xalancbmk",
                         type=_benchmark_name)
    p_trace.add_argument("--defense", default="rest", metavar="MODE",
                         help="any plugin-registered defense mode")
    p_trace.add_argument("--scale", type=float, default=0.1)
    p_trace.add_argument("--debug", action="store_true",
                         help="replay in debug (precise) mode")
    p_trace.add_argument("--no-replay", action="store_true",
                         help="stats: skip the cycle-level replay "
                              "(and its stall breakdown)")
    p_trace.set_defaults(handler=_cmd_trace)

    p_demo = sub.add_parser("demo", help="30-second walkthrough")
    p_demo.set_defaults(handler=_cmd_demo)

    p_minic = sub.add_parser(
        "minic", help="run/measure a Mini-C source file under a defense"
    )
    p_minic.add_argument("action", choices=("run", "measure"))
    p_minic.add_argument("file")
    p_minic.add_argument("--defense", default="rest", metavar="MODE",
                         help="any plugin-registered defense mode")
    p_minic.add_argument(
        "args", nargs="*", type=int, help="integer arguments to main()"
    )
    p_minic.set_defaults(handler=_cmd_minic)

    p_bench = sub.add_parser(
        "bench",
        help="simulate each bench mode; --baseline checks the result is "
             "identical",
    )
    p_bench.add_argument("--benchmark", default="xalancbmk",
                         type=_benchmark_name)
    p_bench.add_argument("--scale", type=float, default=0.25)
    p_bench.add_argument("--seed", type=int, default=1234)
    p_bench.add_argument("--out", default=None, metavar="FILE",
                         help="write the manifest JSON here")
    p_bench.add_argument("--baseline", default=None, metavar="FILE",
                         help="exit 1 unless the run equals this "
                              "committed bench manifest")
    p_bench.set_defaults(handler=_cmd_bench)

    p_run = sub.add_parser(
        "run", help="observed run: sampler/tracer attached per mode"
    )
    p_run.add_argument("--outdir", required=True, metavar="DIR")
    p_run.add_argument("--benchmark", default="xalancbmk",
                       type=_benchmark_name)
    p_run.add_argument("--scale", type=float, default=0.2)
    p_run.add_argument("--seed", type=int, default=1234)
    p_run.add_argument("--modes", nargs="*", metavar="mode",
                       type=_bench_mode,
                       help="defense modes (default: plain asan "
                            "rest-secure rest-debug)")
    p_run.add_argument("--sample-interval", type=positive_int,
                       default=None, metavar="N",
                       help="cycles per time-series sample")
    p_run.add_argument("--ring", type=positive_int, default=1 << 16,
                       help="event ring-buffer capacity")
    p_run.add_argument("--trace-out", action="store_true",
                       help="export structured events as JSONL")
    p_run.add_argument("--o3", action="store_true",
                       help="export a gem5 O3PipeView trace per mode")
    p_run.add_argument("--diff", nargs=2, metavar=("A", "B"),
                       help="also build the trace-diff artifact for "
                            "these two modes (requires --trace-out)")
    p_run.set_defaults(handler=_cmd_run)

    p_diff = sub.add_parser(
        "diff", help="differential trace profile of two defense modes"
    )
    p_diff.add_argument("dir",
                        help="repro run outdir (with --trace-out events)")
    p_diff.add_argument("--a", default="plain", metavar="MODE",
                        help="baseline mode (default plain)")
    p_diff.add_argument("--b", default="rest-debug", metavar="MODE",
                        help="compared mode (default rest-debug)")
    p_diff.add_argument("--top", type=positive_int, default=20,
                        help="top delta PCs to keep")
    p_diff.add_argument("--out", default=None, metavar="FILE",
                        help="artifact path (default: "
                             "<dir>/trace-diff.json)")
    p_diff.set_defaults(handler=_cmd_diff)

    p_rep = sub.add_parser(
        "report", help="render the observability dashboard"
    )
    p_rep.add_argument("dir", help="repro run outdir or run_all sweep dir")
    p_rep.add_argument("--out", default=None, metavar="FILE",
                       help="write here instead of stdout")
    p_rep.add_argument("--html", action="store_true",
                       help="render self-contained HTML (requires --out)")
    p_rep.set_defaults(handler=_cmd_report)

    def add_endpoint_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--state-dir", default=DEFAULT_STATE_DIR,
                                metavar="DIR",
                                help="daemon state directory (socket lives "
                                     "at DIR/daemon.sock)")
        sub_parser.add_argument("--socket", default=None, metavar="PATH",
                                help="explicit Unix socket path")
        sub_parser.add_argument("--tcp", default=None, metavar="HOST:PORT",
                                help="TCP endpoint instead of the socket")

    p_serve = sub.add_parser(
        "serve", help="run the simulation job daemon (SIGTERM drains)"
    )
    add_endpoint_flags(p_serve)
    p_serve.add_argument("--slots", type=positive_int, default=2,
                         help="concurrent simulations")
    p_serve.add_argument("--max-jobs", type=positive_int, default=8,
                         help="open-job admission limit (excess submits "
                              "get a structured queue_full rejection)")
    p_serve.add_argument("--timeout", type=positive_float, default=None,
                         metavar="SECONDS",
                         help="per-unit wall-clock timeout")
    p_serve.add_argument("--retries", type=non_negative_int,
                         default=0, metavar="N",
                         help="extra attempts per failed unit")
    p_serve.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="SECONDS",
                         help="how long in-flight units get on shutdown")
    p_serve.add_argument("--coordinator", action="store_true",
                         help="run as fabric coordinator: units execute "
                              "on registered workers (repro worker), "
                              "capacity tracks the worker fleet")
    p_serve.add_argument("--heartbeat", type=float, default=1.0,
                         metavar="SECONDS",
                         help="coordinator: worker heartbeat interval")
    p_serve.add_argument("--miss-factor", type=float, default=3.0,
                         metavar="X",
                         help="coordinator: heartbeats a worker may miss "
                              "before its leases are revoked")
    p_serve.add_argument("--unit-retries", type=non_negative_int, default=2,
                         metavar="N",
                         help="coordinator: reassignments a unit gets "
                              "after worker deaths before quarantine")
    p_serve.set_defaults(handler=_cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="run one fabric worker against a coordinator"
    )
    p_worker.add_argument("--connect", default=None, metavar="SOCKET",
                          help="coordinator Unix socket path")
    p_worker.add_argument("--tcp", default=None, metavar="HOST:PORT",
                          help="coordinator TCP endpoint")
    p_worker.add_argument("--name", default=None,
                          help="worker name (default: coordinator assigns)")
    p_worker.add_argument("--slots", type=positive_int, default=2,
                          help="concurrent supervised simulations")
    p_worker.add_argument("--state-dir", default=None, metavar="DIR",
                          help="write worker.log here (default: stdout)")
    p_worker.add_argument("--no-reconnect", action="store_true",
                          help="exit instead of redialing a lost "
                               "coordinator")
    p_worker.add_argument("--reconnect-tries", type=positive_int,
                          default=30, metavar="N",
                          help="consecutive failed dials before giving up")
    p_worker.set_defaults(handler=_cmd_worker)

    p_workers = sub.add_parser(
        "workers", help="list the coordinator's registered workers"
    )
    add_endpoint_flags(p_workers)
    p_workers.set_defaults(handler=_cmd_workers)

    p_load = sub.add_parser(
        "loadgen",
        help="chaos identity proof for the fabric (writes "
             "BENCH_service.json)",
    )
    p_load.add_argument("dir", help="scratch/output directory")
    p_load.add_argument("--out", default=None, metavar="FILE",
                        help="bench JSON path (default: "
                             "<dir>/BENCH_service.json)")
    p_load.add_argument("--baseline", default=None, metavar="FILE",
                        help="committed bench to gate deterministic "
                             "fields against (exit 1 on drift)")
    p_load.add_argument("--seed", type=int, default=11)
    p_load.add_argument("--fault-seed", type=int, default=7)
    p_load.add_argument("--slots", type=positive_int, default=2,
                        help="slots per worker")
    p_load.add_argument("--scale", type=float, default=0.05)
    p_load.add_argument("--chaos-workers", type=positive_int, default=2)
    p_load.add_argument("--kills", type=non_negative_int, default=1,
                        help="seeded mid-flight worker SIGKILLs")
    p_load.add_argument("--permanent", type=non_negative_int, default=1,
                        help="unhealable faults (expected quarantine)")
    p_load.add_argument("--quiet", action="store_true")
    p_load.set_defaults(handler=_cmd_loadgen)

    p_sub = sub.add_parser(
        "submit", help="submit a job to the daemon"
    )
    add_endpoint_flags(p_sub)
    p_sub.add_argument("kind", choices=("run_all", "sweep"))
    p_sub.add_argument("--priority", choices=("high", "normal", "low"),
                       default="normal")
    p_sub.add_argument("--watch", action="store_true",
                       help="follow the job's live event stream")
    p_sub.add_argument("--scale", type=float, default=None)
    p_sub.add_argument("--seed", type=int, default=None,
                       help="run_all only")
    p_sub.add_argument("--names", nargs="*", metavar="name",
                       help="run_all: experiment subset")
    p_sub.add_argument("--outdir", default=None, metavar="DIR",
                       help="run_all: artifact directory (default: "
                            "<state-dir>/jobs/<job-id>)")
    p_sub.add_argument("--benchmarks", nargs="*", metavar="name",
                       help="sweep: benchmark subset")
    p_sub.add_argument("--specs", nargs="*", metavar="name",
                       help="sweep: Figure 7 spec subset")
    p_sub.add_argument("--seeds", type=int, nargs="*", metavar="N",
                       help="sweep: seeds (default 1..5)")
    p_sub.add_argument("--no-live", action="store_true",
                       help="sweep: skip live sampler streaming")
    p_sub.add_argument("--sample-interval", type=positive_int,
                       default=None, metavar="N",
                       help="sweep: cycles per live sample")
    p_sub.set_defaults(handler=_cmd_submit)

    p_watch = sub.add_parser(
        "watch", help="stream a job's live events (replay + follow)"
    )
    add_endpoint_flags(p_watch)
    p_watch.add_argument("job", help="job id, e.g. j0001")
    p_watch.set_defaults(handler=_cmd_watch)

    p_status = sub.add_parser("status", help="one job's status as JSON")
    add_endpoint_flags(p_status)
    p_status.add_argument("job", help="job id, e.g. j0001")
    p_status.set_defaults(handler=_cmd_status)

    p_jobs = sub.add_parser("jobs", help="list the daemon's jobs")
    add_endpoint_flags(p_jobs)
    p_jobs.set_defaults(handler=_cmd_jobs)

    p_down = sub.add_parser(
        "shutdown", help="gracefully drain and stop the daemon"
    )
    add_endpoint_flags(p_down)
    p_down.set_defaults(handler=_cmd_shutdown)

    p_cfg = sub.add_parser("config", help="print Table II configuration")
    p_cfg.set_defaults(handler=_cmd_config)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
