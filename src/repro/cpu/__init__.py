"""Out-of-order core substrate.

A cycle-level model of the Table II core: 8-wide fetch/issue/writeback,
192-entry ROB, 64-entry issue queue, 32-entry load and store queues with
store-to-load forwarding, and an L-TAGE-class branch predictor stand-in.
The REST additions live in the LSQ (arm/disarm entries never forward,
and forwarding hits on them raise the privileged REST exception — paper
Figure 5) and in the commit policy (secure mode commits stores eagerly;
debug mode holds the ROB head until the write completes).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.cpu.isa": ("MicroOp", "OpType"),
        "repro.cpu.bpred": ("BranchPredictor",),
        "repro.cpu.lsq": ("LoadStoreQueue", "SqEntryKind"),
        "repro.cpu.rob": ("ReorderBuffer",),
        "repro.cpu.iq": ("IssueQueue",),
        "repro.cpu.stats": ("CoreStats",),
        "repro.cpu.pipeline": ("CoreConfig", "OutOfOrderCore"),
        "repro.cpu.smp": ("SmpSystem",),
    },
)
