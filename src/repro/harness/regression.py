"""Sweep-manifest comparison: do two ``run_all`` runs agree?"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.harness.parallel import strip_volatile


def manifests_equal(
    before: Union[str, Path, Dict], after: Union[str, Path, Dict]
) -> bool:
    """True when two ``run_all`` manifests describe the same sweep.

    Timing and run-circumstance fields (wall/CPU seconds, job count,
    cache hits — see :data:`repro.harness.parallel.VOLATILE_FIELDS`)
    are ignored: a serial run, a parallel run, and a cache-warm re-run
    of the same configuration must all compare equal.
    """
    def load(source) -> Dict:
        if isinstance(source, dict):
            return source
        return json.loads(Path(source).read_text())

    return strip_volatile(load(before)) == strip_volatile(load(after))
