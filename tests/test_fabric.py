"""Distributed sweep fabric: leases, routing, liveness, chaos identity.

Three layers of test:

* pure-unit: wire marshalling, rendezvous routing, kill-plan seeding;
* dispatcher-level: a :class:`FabricDispatcher` driven directly with
  fake worker connections, so lease grant/revoke/redeem, bounded
  reassignment, late-result discard, and drain semantics are exercised
  without any sockets or subprocesses;
* end-to-end: a real coordinator daemon (in a thread) with real
  ``repro worker`` subprocesses over a Unix socket — including the
  headline chaos move, SIGKILLing a worker mid-sweep and requiring the
  job to finish correctly on the survivor.
"""

import asyncio
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.modes import Mode
from repro.harness.configs import DefenseSpec
from repro.harness.parallel import WorkUnit
from repro.faults.plan import WorkerKill, WorkerKillPlan
from repro.service import ServiceClient, ServiceError, wait_for_daemon
from repro.service import protocol
from repro.service.daemon import Daemon, ServiceConfig
from repro.service.fabric import (
    WORKER_LOST,
    FabricDispatcher,
    rendezvous_rank,
)


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_SALT", "fabric-test")


def make_unit(uid="bzip2/Secure Heap/1", **kwargs):
    return WorkUnit(
        uid=uid,
        module="repro.harness.sweeps",
        func="run_cell",
        kwargs=kwargs or {"seed": 1, "scale": 0.05},
        key_payload={"uid": uid},
    )


class TestWireMarshalling:
    def test_defense_spec_kwargs_round_trip(self):
        spec = DefenseSpec.rest("Secure Heap", mode=Mode.SECURE)
        unit = make_unit(profile="bzip2", spec=spec, scale=0.05, seed=1)
        wire = protocol.unit_to_wire(unit)
        # The wire form is honest JSON (no pickles hiding inside).
        decoded = protocol.unit_from_wire(
            json.loads(json.dumps(wire))
        )
        assert decoded.uid == unit.uid
        assert decoded.kwargs["spec"] == spec
        assert isinstance(decoded.kwargs["spec"].mode, Mode)
        assert decoded.kwargs["scale"] == 0.05

    def test_unmarshallable_kwargs_rejected_loudly(self):
        unit = make_unit(callback=lambda: None)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.unit_to_wire(unit)
        assert excinfo.value.code == "unmarshallable_unit"

    def test_plain_json_kwargs_pass_through_untouched(self):
        unit = make_unit(scale=0.1, seed=3, names=["a", "b"])
        wire = protocol.unit_to_wire(unit)
        assert wire["kwargs"] == {"scale": 0.1, "seed": 3,
                                  "names": ["a", "b"]}


class TestRendezvousRouting:
    def test_deterministic_and_order_independent(self):
        names = ["w0", "w1", "w2", "w3"]
        rank = rendezvous_rank("some-key", names)
        assert rendezvous_rank("some-key", list(reversed(names))) == rank
        assert rendezvous_rank("some-key", names) == rank

    def test_removing_a_loser_does_not_move_the_winner(self):
        """The HRW property that makes kill/rejoin churn cheap: only
        units on the dead worker move."""
        names = ["w0", "w1", "w2", "w3"]
        moved = 0
        for index in range(64):
            key = f"unit-{index}"
            winner = rendezvous_rank(key, names)[0]
            survivors = [name for name in names if name != "w3"]
            if winner != "w3":
                if rendezvous_rank(key, survivors)[0] != winner:
                    moved += 1
        assert moved == 0

    def test_keys_spread_over_workers(self):
        names = ["w0", "w1", "w2"]
        winners = {
            rendezvous_rank(f"unit-{index}", names)[0]
            for index in range(64)
        }
        assert winners == set(names)


class TestWorkerKillPlan:
    def test_same_seed_same_schedule(self):
        first = WorkerKillPlan.compile(
            seed=5, workers=3, kills=2, total_units=40
        )
        second = WorkerKillPlan.compile(
            seed=5, workers=3, kills=2, total_units=40
        )
        assert first.to_dict() == second.to_dict()
        third = WorkerKillPlan.compile(
            seed=6, workers=3, kills=2, total_units=40
        )
        assert first.to_dict() != third.to_dict()

    def test_triggers_land_mid_run(self):
        plan = WorkerKillPlan.compile(
            seed=1, workers=2, kills=4, total_units=100
        )
        for kill in plan.kills:
            assert 10 <= kill.after_results < 70
            assert kill.worker in (0, 1)

    def test_round_trips_through_json(self, tmp_path):
        plan = WorkerKillPlan.compile(
            seed=9, workers=2, kills=1, total_units=8
        )
        loaded = WorkerKillPlan.load(plan.write(tmp_path / "kills.json"))
        assert loaded.to_dict() == plan.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerKill(worker=-1, after_results=1)
        with pytest.raises(ValueError):
            WorkerKillPlan.compile(seed=1, workers=0, kills=1,
                                   total_units=8)


class FakeWriter:
    """Collects frames a coordinator writes to one fake worker."""

    def __init__(self):
        self.frames = []
        self.closed = False

    def write(self, data: bytes) -> None:
        for line in data.splitlines():
            if line.strip():
                self.frames.append(json.loads(line))

    def close(self) -> None:
        self.closed = True

    def frames_of(self, ftype):
        return [f for f in self.frames if f.get("type") == ftype]


def ok_result_wire(uid, value="fine"):
    return {
        "uid": uid, "ok": True, "value": value, "error": None,
        "cpu_seconds": 0.0, "wall_seconds": 0.0, "attempts": 1,
        "quarantined": False,
    }


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestFabricDispatcher:
    def test_register_assigns_names_and_capacity(self):
        async def scenario():
            fabric = FabricDispatcher()
            seen = []
            fabric.on_capacity_change = seen.append
            first = fabric.register({"slots": 2, "pid": 1}, FakeWriter())
            second = fabric.register(
                {"name": "bench-box", "slots": 3, "pid": 2}, FakeWriter()
            )
            assert first.name == "worker-001"
            assert second.name == "bench-box"
            assert fabric.capacity == 5
            assert seen == [2, 5]

        run_async(scenario())

    def test_unit_redeemed_by_result(self):
        async def scenario():
            fabric = FabricDispatcher()
            writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 2, "pid": 1}, writer)
            unit = make_unit()
            task = asyncio.ensure_future(fabric.run_unit(unit))
            await asyncio.sleep(0)  # let the grant happen
            [assign] = writer.frames_of("w.assign")
            assert assign["unit"]["uid"] == unit.uid
            fabric.redeem(assign["lease"], ok_result_wire(unit.uid))
            result = await task
            assert result.ok and result.value == "fine"
            assert fabric.redeemed == 1
            assert fabric.leases == {}
            assert fabric.workers["w0"].completed == 1

        run_async(scenario())

    def test_worker_death_reassigns_to_survivor(self):
        async def scenario():
            fabric = FabricDispatcher(unit_retries=2)
            writers = {
                name: FakeWriter() for name in ("w0", "w1")
            }
            for name, writer in writers.items():
                fabric.register(
                    {"name": name, "slots": 2, "pid": 1}, writer
                )
            unit = make_unit()
            events = []
            task = asyncio.ensure_future(
                fabric.run_unit(
                    unit, on_event=lambda kind, info: events.append(kind)
                )
            )
            await asyncio.sleep(0)
            first = next(
                name for name, writer in writers.items()
                if writer.frames_of("w.assign")
            )
            fabric.worker_lost(first, reason="test kill")
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            survivor = "w1" if first == "w0" else "w0"
            [assign] = writers[survivor].frames_of("w.assign")
            fabric.redeem(assign["lease"], ok_result_wire(unit.uid))
            result = await task
            assert result.ok
            assert result.attempts == 2
            assert fabric.reassignments == 1
            assert fabric.workers_lost == 1
            assert events == ["fabric.assign", "fabric.lost",
                              "fabric.assign"]

        run_async(scenario())

    def test_retry_budget_exhaustion_quarantines(self):
        async def scenario():
            fabric = FabricDispatcher(unit_retries=1)
            unit = make_unit()
            events = []
            task = asyncio.ensure_future(
                fabric.run_unit(
                    unit, on_event=lambda kind, info: events.append(kind)
                )
            )
            for round_number in range(2):  # initial + 1 retry
                writer = FakeWriter()
                fabric.register(
                    {"name": f"doomed-{round_number}", "slots": 1,
                     "pid": 1},
                    writer,
                )
                while not writer.frames_of("w.assign"):
                    await asyncio.sleep(0)
                fabric.worker_lost(f"doomed-{round_number}",
                                   reason="test kill")
            result = await task
            assert not result.ok
            assert result.quarantined
            assert result.error["type"] == WORKER_LOST
            assert result.attempts == 2
            assert fabric.lost_units == 1
            assert events.count("fault.quarantine") == 1

        run_async(scenario())

    def test_late_result_for_unknown_lease_discarded(self):
        async def scenario():
            fabric = FabricDispatcher()
            fabric.register(
                {"name": "w0", "slots": 1, "pid": 1}, FakeWriter()
            )
            fabric.redeem("L999999", ok_result_wire("ghost/unit/1"))
            assert fabric.redeemed == 0
            assert fabric.workers["w0"].completed == 0

        run_async(scenario())

    def test_unit_waits_for_first_worker(self):
        async def scenario():
            fabric = FabricDispatcher(heartbeat=0.05)
            unit = make_unit()
            task = asyncio.ensure_future(fabric.run_unit(unit))
            await asyncio.sleep(0.1)
            assert not task.done(), "no worker yet: the unit must queue"
            writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 1, "pid": 1}, writer)
            while not writer.frames_of("w.assign"):
                await asyncio.sleep(0)
            [assign] = writer.frames_of("w.assign")
            fabric.redeem(assign["lease"], ok_result_wire(unit.uid))
            assert (await task).ok

        run_async(scenario())

    def test_drain_aborts_pending_units_and_notifies_workers(self):
        async def scenario():
            fabric = FabricDispatcher()
            writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 1, "pid": 1}, writer)
            unit = make_unit()
            task = asyncio.ensure_future(fabric.run_unit(unit))
            await asyncio.sleep(0)
            fabric.begin_drain(grace=0.0)
            assert writer.frames_of("w.drain")
            # The monitor revokes leases once the grace expires.
            monitor = asyncio.ensure_future(fabric.monitor())
            result = await asyncio.wait_for(task, timeout=5)
            monitor.cancel()
            assert not result.ok
            assert result.error["type"] == "WorkerAborted"

        run_async(scenario())

    def test_monitor_expires_silent_worker(self):
        async def scenario():
            fabric = FabricDispatcher(heartbeat=0.05, miss_factor=2.0)
            writer = FakeWriter()
            handle = fabric.register(
                {"name": "w0", "slots": 1, "pid": 1}, writer
            )
            monitor = asyncio.ensure_future(fabric.monitor())
            handle.last_seen = time.monotonic() - 10.0
            deadline = time.monotonic() + 5
            while fabric.workers and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            monitor.cancel()
            assert fabric.workers == {}
            assert fabric.workers_lost == 1
            assert writer.closed

        run_async(scenario())

    def test_rejoin_replaces_stale_registration(self):
        async def scenario():
            fabric = FabricDispatcher()
            old_writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 2, "pid": 1},
                            old_writer)
            new_writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 2, "pid": 2},
                            new_writer)
            assert len(fabric.workers) == 1
            assert fabric.workers["w0"].pid == 2
            assert old_writer.closed
            assert fabric.workers_joined == 2
            assert fabric.workers_lost == 1

        run_async(scenario())

    def test_events_journal_records_lease_lifecycle(self, tmp_path):
        async def scenario():
            fabric = FabricDispatcher(
                events_path=tmp_path / "events.jsonl"
            )
            writer = FakeWriter()
            fabric.register({"name": "w0", "slots": 1, "pid": 1}, writer)
            unit = make_unit()
            task = asyncio.ensure_future(fabric.run_unit(unit))
            await asyncio.sleep(0)
            [assign] = writer.frames_of("w.assign")
            fabric.redeem(assign["lease"], ok_result_wire(unit.uid))
            await task

        run_async(scenario())
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert kinds == ["worker.join", "lease.grant", "lease.redeem"]


# -- end-to-end: real coordinator + real worker subprocesses ----------------


@contextmanager
def running_coordinator(state_dir=None, **overrides):
    own_dir = state_dir is None
    if own_dir:
        state_dir = tempfile.mkdtemp(prefix="fab", dir="/tmp")
    overrides.setdefault("coordinator", True)
    overrides.setdefault("heartbeat", 0.2)
    config = ServiceConfig(state_dir=str(state_dir), **overrides)
    daemon = Daemon(config)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run()), daemon=True
    )
    thread.start()
    socket_path = str(config.resolved_socket())
    wait_for_daemon(socket_path=socket_path)
    try:
        yield daemon, socket_path, Path(state_dir)
    finally:
        daemon.stop_threadsafe()
        thread.join(timeout=60)
        assert not thread.is_alive(), "coordinator failed to drain"
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)


def spawn_worker(socket_path, name, slots=2, fault_plan=None):
    src = str(Path(__file__).resolve().parents[1] / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = str(fault_plan)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", socket_path, "--name", name,
            "--slots", str(slots),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def wait_workers(socket_path, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServiceClient(socket_path=socket_path) as client:
            if client.workers()["fabric"]["workers"] >= count:
                return
        time.sleep(0.05)
    raise TimeoutError(f"fabric never reached {count} worker(s)")


SWEEP_PARAMS = {
    "benchmarks": ["bzip2"],
    "specs": ["Secure Heap"],
    "seeds": [1],
    "scale": 0.05,
    "live": False,
}


class TestFabricEndToEnd:
    def test_sweep_runs_on_remote_worker(self):
        with running_coordinator() as (daemon, socket_path, state):
            worker = spawn_worker(socket_path, "w0")
            try:
                wait_workers(socket_path, 1)
                with ServiceClient(socket_path=socket_path) as client:
                    view = client.workers()
                    assert view["coordinator"] is True
                    assert [w["name"] for w in view["workers"]] == ["w0"]
                    job = client.submit("sweep", dict(SWEEP_PARAMS))
                    final = client.wait(job["id"], poll=0.1)
                    stats = client.ping()["fabric"]
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "done"
        assert final["result"]["specs"]["Secure Heap"]["samples"]
        assert stats["redeemed"] == 2  # Plain + Secure Heap
        assert stats["lost_units"] == 0

    def test_units_queue_until_first_worker_joins(self):
        with running_coordinator() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit("sweep", dict(SWEEP_PARAMS))
                time.sleep(0.5)
                assert client.status(job["id"])["state"] in (
                    "queued", "running",
                )
            worker = spawn_worker(socket_path, "w0")
            try:
                with ServiceClient(socket_path=socket_path) as client:
                    final = client.wait(job["id"], poll=0.1)
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "done"

    def test_sigkilled_worker_is_reassigned_to_survivor(self):
        """The chaos headline at test scale: one worker dies mid-sweep,
        the unit is reassigned, the job completes with no lost work."""
        params = {
            "benchmarks": ["bzip2", "sjeng"],
            "specs": ["Secure Heap"],
            "seeds": [1, 2],
            "scale": 0.3,
            "live": False,
        }
        with running_coordinator(
            heartbeat=0.2, unit_retries=2
        ) as (daemon, socket_path, state):
            victim = spawn_worker(socket_path, "victim", slots=2)
            survivor = spawn_worker(socket_path, "survivor", slots=2)
            try:
                wait_workers(socket_path, 2)
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit("sweep", params)
                    # Wait until the victim actually holds a lease so
                    # the kill lands mid-unit, then SIGKILL it.
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        busy = [
                            w for w in client.workers()["workers"]
                            if w["name"] == "victim" and w["inflight"] > 0
                        ]
                        if busy:
                            break
                        time.sleep(0.02)
                    victim.send_signal(signal.SIGKILL)
                    victim.wait(timeout=10)
                    final = client.wait(job["id"], poll=0.1)
                    stats = client.ping()["fabric"]
            finally:
                for process in (victim, survivor):
                    if process.poll() is None:
                        process.terminate()
                        process.wait(timeout=10)
        assert final["state"] == "done"
        assert final["failures"] == 0
        assert stats["workers_lost"] >= 1
        assert stats["reassignments"] >= 1

    def test_overlapping_storm_executes_each_unit_once(self):
        """Single-flight dedup through the fabric: four clients racing
        overlapping sweeps over three seeds run every unit exactly
        once across two workers — one Secure Heap and one implicit
        Plain unit per distinct cell."""
        seed_sets = ([1, 2], [2, 3], [1, 3], [1, 2, 3])
        distinct_cells = len({seed for seeds in seed_sets for seed in seeds})
        finals, errors = [], []
        lock = threading.Lock()

        def storm(socket_path, offset):
            try:
                with ServiceClient(socket_path=socket_path) as client:
                    jobs = [
                        client.submit(
                            "sweep",
                            dict(SWEEP_PARAMS, seeds=seed_sets[
                                (offset + index) % len(seed_sets)
                            ]),
                        )
                        for index in range(len(seed_sets))
                    ]
                    done = [client.wait(job["id"], poll=0.05) for job in jobs]
                with lock:
                    finals.extend(done)
            except Exception as error:  # noqa: BLE001 — asserted below
                with lock:
                    errors.append(error)

        with running_coordinator(max_jobs=16) as (
            daemon, socket_path, state,
        ):
            workers = [spawn_worker(socket_path, f"w{i}") for i in range(2)]
            try:
                wait_workers(socket_path, 2)
                threads = [
                    threading.Thread(
                        target=storm, args=(socket_path, i), daemon=True
                    )
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive(), "client storm hung"
                with ServiceClient(socket_path=socket_path) as client:
                    pong = client.ping()
            finally:
                for worker in workers:
                    worker.terminate()
                    worker.wait(timeout=10)
        assert not errors, errors
        assert [final["state"] for final in finals] == ["done"] * 16
        assert pong["stats"]["executions"] == 2 * distinct_cells
        assert pong["fabric"]["lost_units"] == 0

    def test_worker_register_rejected_by_local_daemon(self):
        from tests.test_service import running_daemon

        with running_daemon() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                client._send(
                    protocol.request("w.register", name="w0", slots=1,
                                     pid=0)
                )
                reply = client._read_frame()
        assert reply["type"] == "error"
        assert reply["code"] == "not_coordinator"

    def test_workers_verb_on_local_daemon(self):
        from tests.test_service import running_daemon

        with running_daemon() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                view = client.workers()
        assert view["coordinator"] is False
        assert view["workers"] == []

    def test_fault_injection_composes_through_fabric(self, tmp_path):
        """A permanent crash plan in the worker's environment produces
        the same quarantine semantics as the local pool (PR 4)."""
        import os

        from repro.faults.plan import ALWAYS, FaultPlan, FaultSpec

        uid = "bzip2/Secure Heap/1"
        plan = FaultPlan(seed=1)
        plan.faults[uid] = FaultSpec(kind="crash", fail_attempts=ALWAYS)
        plan_path = plan.write(tmp_path / "plan.json")
        with running_coordinator(retries=1) as (
            daemon, socket_path, state,
        ):
            src = str(Path(__file__).resolve().parents[1] / "src")
            env = dict(os.environ)
            env["PYTHONPATH"] = src + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            env["REPRO_FAULT_PLAN"] = str(plan_path)
            worker = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", socket_path, "--name", "faulty",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
            try:
                wait_workers(socket_path, 1)
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit("sweep", dict(SWEEP_PARAMS))
                    final = client.wait(job["id"], poll=0.1)
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "failed"
        assert final["error"]["type"] == "SweepError"
        assert uid in final["error"]["message"]


def watch_events(socket_path, job_id):
    """Every event frame of one job's watch stream, up to ``done``."""
    events = []
    with ServiceClient(socket_path=socket_path) as client:
        for frame in client.watch(job_id):
            if frame.get("type") == "done":
                break
            events.append(frame)
        final = client.status(job_id)
    return events, final


class TestFabricProgress:
    """A remote unit's events reach the coordinator's watchers while
    the unit runs, exactly as a local daemon's do."""

    def test_live_samples_stream_from_a_remote_worker(self):
        with running_coordinator() as (daemon, socket_path, state):
            worker = spawn_worker(socket_path, "w0")
            try:
                wait_workers(socket_path, 1)
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit(
                        "sweep",
                        dict(SWEEP_PARAMS, live=True, sample_interval=500),
                    )
                events, final = watch_events(socket_path, job["id"])
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "done"
        kinds = [event["kind"] for event in events]
        samples = [event for event in events if event["kind"] == "sample"]
        assert samples
        assert all(
            sample["uid"].startswith("bzip2/") and sample["cycle"] > 0
            for sample in samples
        )
        last_sample = max(
            index for index, kind in enumerate(kinds) if kind == "sample"
        )
        assert last_sample < kinds.index("job.done")
        assert samples[0]["ts"] <= final["finished"]

    def test_worker_fault_events_reach_the_coordinators_watcher(
        self, tmp_path
    ):
        from repro.faults.plan import FaultPlan, FaultSpec

        uid = "bzip2/Secure Heap/1"
        plan = FaultPlan(seed=1)
        plan.faults[uid] = FaultSpec(kind="crash", fail_attempts=1)
        plan_path = plan.write(tmp_path / "plan.json")
        with running_coordinator(retries=1) as (
            daemon, socket_path, state,
        ):
            worker = spawn_worker(socket_path, "flaky", fault_plan=plan_path)
            try:
                wait_workers(socket_path, 1)
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit("sweep", dict(SWEEP_PARAMS))
                events, final = watch_events(socket_path, job["id"])
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "done"
        retries = [
            event for event in events if event["kind"] == "fault.retry"
        ]
        assert [(event["uid"], event["attempt"]) for event in retries] == [
            (uid, 1)
        ]
