"""System-level REST support (paper Section IV-B).

The paper sketches two system designs:

* a **single system-wide token**, rotated periodically (e.g. at
  reboot) — the default, needing no OS changes beyond the privileged
  rotation path;
* a **per-process token**, with the OS generating token values,
  swapping the token configuration register across context switches,
  and dealing with tokens when processes are cloned or communicate.

This package implements the second design as a small kernel model:
process objects with private tokens, a round-robin scheduler that
performs the privileged register swap (flushing derived token state),
fork semantics (the child inherits a *fresh* token and the parent's
armed map is re-armed under it), and pipe-style IPC that copies data
between address spaces without ever copying token values.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.os.kernel": ("Kernel", "Process", "TokenSwitchPolicy"),
    },
)
