"""Cycle-attributed observability: tracing, stall accounting, sampling.

Submodules:

* :mod:`repro.obs.tracer` — structured event tracer (null-object
  default, ring-buffered recorder, JSONL export)
* :mod:`repro.obs.stalls` — top-down CPI stall bucket decomposition
* :mod:`repro.obs.sampler` — per-interval time-series sampling
* :mod:`repro.obs.o3` — gem5 O3PipeView pipeline trace export
* :mod:`repro.obs.runner` — observed runs (``repro run``)
* :mod:`repro.obs.report` — text/HTML dashboards (``repro report``)

Attributes resolve lazily (PEP 562): the simulator hot paths import
``repro.obs.tracer`` directly while this package is being touched from
inside ``repro.cache``/``repro.cpu`` module initialisation, so eagerly
importing the stall/report layers here (which import the harness, which
imports the cpu package) would create an import cycle.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.obs.tracer": (
            "Tracer",
            "NULL_TRACER",
            "RingTracer",
            "attach_tracer",
            "attach_hierarchy_tracer",
            "write_jsonl",
            "read_jsonl",
        ),
        "repro.obs.stalls": (
            "STALL_BUCKETS",
            "BUCKET_LABELS",
            "stall_buckets",
            "format_stall_line",
            "verify_buckets",
        ),
        "repro.obs.sampler": ("DEFAULT_INTERVAL", "run_sampled", "series"),
        "repro.obs.o3": (
            "o3_records",
            "export_o3_pipeview",
            "validate_o3_trace",
        ),
        "repro.obs.runner": ("run_observed",),
        "repro.obs.report": ("render_text", "render_html", "write_report"),
    },
)
