"""Lazy package exports and import-before-fork.

Package ``__init__``s resolve their public names on first use, so a
warm ``run_all`` (every unit cached) loads the sweep engine and none of
the simulator, and ``execute_units`` loads the supervised-attempt
runner only when it has a unit to supervise; that runner imports a
unit's module in the parent before its worker forks, so the worker
inherits it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.parallel import WorkUnit, execute_units

SRC = Path(repro.__file__).resolve().parent.parent

#: What a warm ``run_all`` may load under ``repro``.
ENGINE_MODULES = {
    "repro",
    "repro.experiments",
    "repro.experiments.run_all",
    "repro.harness",
    "repro.harness.parallel",
}

#: Simulator packages a warm ``run_all`` must not touch.
SIMULATOR_PACKAGES = (
    "repro.cache", "repro.cpu", "repro.defenses", "repro.runtime",
    "repro.workloads",
)

#: What only running a unit (supervised, or failing) or parsing a
#: command line needs: a warm ``run_all`` loads none of it.
SUPERVISION_MODULES = (
    "multiprocessing", "asyncio", "traceback", "argparse",
    "repro.harness.supervision",
)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_SALT"] = "test-salt"
    env.pop("REPRO_FAULT_PLAN", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _all_modules():
    package = SRC / "repro"
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in package.rglob("*.py")
    )


def _packages():
    return [
        name for name in _all_modules()
        if (SRC / name.replace(".", "/") / "__init__.py").is_file()
    ]


_WARM_RUN = """
import sys
from repro.experiments.run_all import run_all
run_all(sys.argv[1], scale=0.05, jobs=2, cache_dir=sys.argv[2],
        names=["table1", "table2"])
print(sorted(m for m in sys.argv[3:] if m in sys.modules))
print(sorted(m for m in sys.modules if m.split(".")[0] == "repro"))
"""


def test_warm_run_all_loads_only_the_engine(tmp_path):
    cache = str(tmp_path / "cache")
    cold = _python(
        _WARM_RUN, str(tmp_path / "cold"), cache, *SUPERVISION_MODULES
    )
    assert cold.returncode == 0, cold.stderr
    warm = _python(
        _WARM_RUN, str(tmp_path / "warm"), cache, *SUPERVISION_MODULES
    )
    assert warm.returncode == 0, warm.stderr
    assert "(2 cached, 0 failed)" in warm.stdout
    *_, warm_supervision, warm_modules = warm.stdout.strip().splitlines()
    # Supervision (and its multiprocessing and asyncio) loads only when
    # a unit runs; argparse only when a command line is parsed.
    assert warm_supervision == "[]"
    # The cold run supervised both units.
    cold_supervision = cold.stdout.strip().splitlines()[-2]
    assert "repro.harness.supervision" in eval(cold_supervision)
    loaded = set(eval(warm_modules))
    assert loaded <= ENGINE_MODULES, sorted(loaded - ENGINE_MODULES)
    assert not [
        name for name in loaded
        if name.startswith(tuple(p + "." for p in SIMULATOR_PACKAGES))
        or name in SIMULATOR_PACKAGES
    ]
    cold_loaded = set(eval(cold.stdout.strip().splitlines()[-1]))
    # The cold parent imported the experiment modules before forking.
    assert {"repro.experiments.table1", "repro.experiments.table2"} <= (
        cold_loaded
    )


_ONE_CELL = """
import sys
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.workloads.spec import profile_by_name
run_benchmark(profile_by_name("sjeng"), DefenseSpec.plain(),
              SimulationConfig(scale=0.01))
print(sorted(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_one_cell_loads_no_supervision_and_no_attacks():
    """Setting up and running a cell needs neither the supervised-attempt
    runner nor the attack suite (only ``attack_outcomes`` loads it)."""
    result = _python(
        _ONE_CELL, "repro.harness.supervision", "repro.workloads.attacks",
        "repro.harness.experiment",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['repro.harness.experiment']"


_IMPORT_EACH = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + ": " + traceback.format_exc().splitlines()[-1])
print("\\n".join(failed))
"""


def test_every_module_imports_first():
    """A cycle that eager package imports used to mask fails here, such
    as ``core`` -> ``core.hwcost`` -> ``cache.hierarchy`` ->
    ``core.detector``, which broke ``import repro.experiments.table1``."""
    result = _python(_IMPORT_EACH, *_all_modules())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", ()):
        # What ``from package import name`` does: an attribute, or else
        # a submodule (``repro.experiments`` lists its modules).
        resolved = getattr(
            __import__(package, fromlist=[name]), name, None
        )
        assert resolved is not None, f"{package}.{name}"
    assert not hasattr(module, "no_such_export")


def test_lazy_name_is_the_defining_object():
    from repro import Machine, RestDefense
    from repro.defenses.rest import RestDefense as defined
    from repro.runtime.machine import Machine as machine

    assert RestDefense is defined and Machine is machine
    assert "RestDefense" in vars(repro)  # kept after the first read


@pytest.mark.parametrize(
    "options", [{"jobs": 2}, {"jobs": 2, "timeout": 60.0}],
    ids=["pool", "supervised"],
)
def test_execute_units_imports_pending_targets_first(
    options, monkeypatch
):
    name = "repro.experiments._selftest"
    monkeypatch.delitem(sys.modules, name, raising=False)
    units = [
        WorkUnit(uid=f"u{i}", module=name, func="regenerate",
                 kwargs={"seed": i})
        for i in range(2)
    ]
    results = execute_units(units, **options)
    assert all(result.ok for result in results.values())
    assert name in sys.modules


def test_unimportable_target_fails_in_its_worker():
    units = [
        WorkUnit(uid=f"u{i}", module="repro.no_such_module", func="f")
        for i in range(2)
    ]
    results = execute_units(units, jobs=2)
    assert {r.error["type"] for r in results.values()} == {
        "ModuleNotFoundError"
    }
