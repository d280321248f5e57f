"""The repository benchmark: three closed-loop TPNR workloads.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace 0|1``
measures one workload and prints one JSON result line;
``python3 -m bench --seed <n> --out <file>`` runs every workload, each
in a fresh single-threaded child process.  ``BENCHMARK.json`` at the
repository root names the workloads and metrics; ``bench/README.md``
explains them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere.

    Raises :class:`FileNotFoundError` when the checkout holds no source
    tree: the benchmark measures the code next to it or nothing.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro source tree under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
