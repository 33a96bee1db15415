"""Property tests for the ResultCache exclusive-create write path.

Two writer processes hammer the same key while the parent reads the
entry file continuously.  The exclusive-create protocol (full write to
an ``O_EXCL`` temp file, publication via hard link) must guarantee:

* a reader never observes partial JSON, no matter how the writers
  interleave;
* exactly one writer wins the initial publish — every later ``put``
  on the key counts as a lost race and leaves the entry untouched;
* a torn or mismatched entry on disk is healed (atomically replaced)
  by the next writer instead of being trusted or crashing it.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.harness.parallel import ResultCache, WorkUnit

UNIT = WorkUnit(
    uid="bzip2/Secure Heap/1",
    module="repro.harness.sweeps",
    func="run_cell",
    kwargs={"seed": 1},
    key_payload={"benchmark": "bzip2", "spec": "Secure Heap", "seed": 1},
)
KEY = "deadbeef" * 8  # fixed key: the test is about write races, not hashing
VALUE = {"ipc": 0.61, "cycles": 123456}
PUTS_PER_WRITER = 40


def _hammer(root, barrier, counts):
    cache = ResultCache(root)
    barrier.wait()
    for _ in range(PUTS_PER_WRITER):
        cache.put(KEY, UNIT, VALUE)
    counts.put({"races": cache.races, "stores": cache.stores})


class TestTwoProcessWriteRace:
    def test_one_winner_no_torn_reads(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(3)
        counts = context.Queue()
        writers = [
            context.Process(
                target=_hammer, args=(tmp_path, barrier, counts), daemon=True
            )
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()

        entry_path = ResultCache(tmp_path)._path(KEY)
        barrier.wait()  # release the writers, then read through the storm
        observed = 0
        while any(proc.is_alive() for proc in writers):
            try:
                raw = entry_path.read_text()
            except FileNotFoundError:
                continue  # before the first publish
            # The crux: whatever instant we read at, the entry is whole.
            entry = json.loads(raw)
            assert entry["uid"] == UNIT.uid
            assert entry["payload"] == UNIT.key_payload
            assert entry["value"] == VALUE
            observed += 1
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert observed > 0, "reader never saw the published entry"

        totals = [counts.get(timeout=10) for _ in writers]
        races = sum(total["races"] for total in totals)
        stores = sum(total["stores"] for total in totals)
        assert stores == 2 * PUTS_PER_WRITER
        # Exactly one put linked the entry into place; every other one
        # lost the race and left the winner's bytes alone.
        assert races == 2 * PUTS_PER_WRITER - 1

        # The survivor round-trips through the read path.
        cache = ResultCache(tmp_path)
        entry = cache.get(KEY, UNIT)
        assert entry is not None and entry["value"] == VALUE
        assert cache.hits == 1

    def test_no_stray_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(5):
            cache.put(KEY, UNIT, VALUE)
        leftovers = [
            name
            for name in os.listdir(ResultCache(tmp_path)._path(KEY).parent)
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestCorruptionHealing:
    def test_torn_entry_is_replaced_not_trusted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"uid": "bzip2/Secure Heap/1", "val')  # torn write
        assert cache.get(KEY, UNIT) is None  # torn entry reads as a miss
        cache.put(KEY, UNIT, VALUE)
        assert cache.races == 0  # healing is not a lost race
        entry = cache.get(KEY, UNIT)
        assert entry is not None and entry["value"] == VALUE

    def test_mismatched_entry_is_replaced(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = WorkUnit(
            uid="sjeng/Plain/2",
            module=UNIT.module,
            func=UNIT.func,
            key_payload={"benchmark": "sjeng", "spec": "Plain", "seed": 2},
        )
        cache.put(KEY, other, {"ipc": 9.99})
        # A colliding put for a *different* computation must not be
        # served to this unit, and the writer replaces it outright.
        assert cache.get(KEY, UNIT) is None
        assert cache.mismatches == 1
        cache.put(KEY, UNIT, VALUE)
        assert cache.get(KEY, UNIT)["value"] == VALUE


def _key(index):
    return f"{index:02d}" + "ab" * 31


class TestHealing:
    def test_heal_removes_torn_entries_and_stray_temps(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_key(0), UNIT, VALUE)
        torn = cache._path(_key(1))
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text('{"uid": "x", "val')
        stray = torn.parent / (torn.name + ".123.tmp")
        stray.write_text("half-written")
        # Crashed-writer debris is old; fresh temps are live publishes
        # and must be left alone, so age this one past the grace window.
        os.utime(stray, (0, 0))
        wrong_shape = cache._path(_key(2))
        wrong_shape.parent.mkdir(parents=True, exist_ok=True)
        wrong_shape.write_text('"just a string"')
        fresh = torn.parent / (torn.name + ".456.tmp")
        fresh.write_text("publish in flight")
        healed = cache.heal()
        assert healed == 3
        assert fresh.exists(), "live publishes must not be reaped"
        fresh.unlink()
        assert cache.healed == 3
        assert cache.get(_key(0), UNIT)["value"] == VALUE
        assert not torn.exists() and not stray.exists()
        assert not wrong_shape.exists()

    def test_heal_is_safe_under_concurrent_writers(self, tmp_path):
        """Healers racing writers on the same root: valid entries are
        never removed, and the store ends fully healed."""
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(3)

        def write_storm(root, barrier):
            cache = ResultCache(root)
            barrier.wait()
            for round_number in range(30):
                cache.put(_key(round_number % 8), UNIT, VALUE)

        def heal_storm(root, barrier):
            cache = ResultCache(root)
            barrier.wait()
            for _ in range(30):
                cache.heal()

        seed_cache = ResultCache(tmp_path)
        torn = seed_cache._path(_key(9))
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text('{"torn":')
        workers = [
            context.Process(target=write_storm, args=(tmp_path, barrier),
                            daemon=True),
            context.Process(target=heal_storm, args=(tmp_path, barrier),
                            daemon=True),
        ]
        for proc in workers:
            proc.start()
        barrier.wait()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        final = ResultCache(tmp_path)
        assert final.heal() == 0, "storm must end with a clean store"
        for index in range(8):
            assert final.get(_key(index), UNIT)["value"] == VALUE
        assert not torn.exists()
