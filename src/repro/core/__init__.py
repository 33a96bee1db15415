"""The REST primitive: tokens, operating modes, exceptions, detector.

This package implements the hardware-visible pieces of the paper's
contribution (Sections III and V-B): random embedded secret tokens, the
privileged token configuration register, the secure/debug operating
modes, the REST exception types, and the L1 fill-path token detector.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.exceptions": (
            "InvalidRestInstructionError",
            "PrivilegeError",
            "RestException",
            "RestFault",
        ),
        "repro.core.modes": ("Mode", "PrivilegeLevel"),
        "repro.core.token": (
            "TOKEN_WIDTHS",
            "Token",
            "TokenConfigRegister",
            "brute_force_years",
            "false_positive_probability",
            "max_aligned_chunks",
        ),
        "repro.core.detector": ("TokenDetector",),
        "repro.core.hwcost": ("HardwareCost", "rest_cost"),
    },
)
