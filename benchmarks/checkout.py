"""Locate the library inside the checkout that holds this benchmark.

The benchmark measures the source tree it sits in, never an installed copy:
``src/`` goes first on ``sys.path`` and the imported package must come from
there.  A directory without the library source ends the process with a
non-zero status before anything is measured.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qubitchaos"


def import_library():
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no library source at {PACKAGE}; run from a full checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import qubitchaos
    if Path(qubitchaos.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported qubitchaos from {qubitchaos.__file__}, not {init}")
    return qubitchaos
