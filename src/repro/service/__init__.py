"""Simulation job service: daemon, fabric, scheduler, protocol, client.

See INTERNALS.md §10 (single-daemon service) and §14 (distributed
fabric) for the architecture.  Quick tour:

* :mod:`repro.service.protocol` — versioned JSON-lines wire format,
  including the v2 fabric frames (``w.register`` / ``w.assign`` /
  ``w.result`` / heartbeats).
* :mod:`repro.service.jobs` — job kinds (``run_all``, ``sweep``) and
  their decomposition into engine work units.
* :mod:`repro.service.scheduler` — priority classes, FIFO fairness,
  admission control, single-flight dedup, drain persistence.
* :mod:`repro.service.fabric` — coordinator-side worker registry,
  heartbeat-backed leases, rendezvous routing, bounded reassignment.
* :mod:`repro.service.worker` — the ``repro worker`` daemon: dials a
  coordinator, executes assignments, reconnects on loss.
* :mod:`repro.service.daemon` — the ``repro serve`` process (by
  default each unit awaits the engine's supervised-attempt runner,
  ``--coordinator`` runs units on the fabric's workers).
* :mod:`repro.service.client` — blocking client used by the CLI verbs
  (``submit``, ``status``, ``watch``, ``workers``, ``jobs``,
  ``shutdown``), plus :func:`watch_resilient` for restart-surviving
  watches.
* :mod:`repro.service.loadgen` — the fleet executor of the chaos proof
  (:mod:`repro.faults.chaos`) behind ``repro loadgen`` (worker SIGKILLs
  plus a fault plan against a real fleet, ``BENCH_service.json``).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.service.client": (
            "ServiceClient",
            "ServiceError",
            "wait_for_daemon",
            "watch_resilient",
        ),
        "repro.service.daemon": (
            "Daemon",
            "ServiceConfig",
            "StartupError",
            "serve",
        ),
        "repro.service.fabric": ("FabricDispatcher",),
        "repro.service.jobs": (
            "JOB_KINDS",
            "PRIORITIES",
            "Job",
            "JobParamsError",
        ),
        "repro.service.protocol": ("PROTOCOL_VERSION", "ProtocolError"),
        "repro.service.scheduler": ("AdmissionError", "Scheduler"),
        "repro.service.worker": (
            "WorkerConfig",
            "WorkerDaemon",
            "serve_worker",
        ),
    },
)
