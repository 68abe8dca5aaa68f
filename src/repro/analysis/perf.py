"""Machine-readable records for the script-style benchmarks.

Each ``benchmarks/bench_*.py`` script writes one JSON document per run
(``BENCH_<name>.json``) through :func:`write_bench_json`, stamped with the
:func:`environment_info` fingerprint of the machine it ran on; the
regression gate (``benchmarks/compare_bench.py``) reads them back.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Dict


def environment_info() -> Dict[str, str]:
    """A small fingerprint of the machine the numbers were taken on."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def write_bench_json(path, report: Dict) -> Path:
    """Write *report* as pretty-printed JSON; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target
