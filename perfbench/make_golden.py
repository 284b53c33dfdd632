#!/usr/bin/env python3
"""Write golden.json: sha256 digests of the canonical renderings of w and
w^ell at each grid-sym point.  Run it from the repository root only on a
commit whose canonical forms are to be pinned:

    python3 perfbench/make_golden.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twisted_hecke import HeckeAlgebra  # noqa: E402
from workloads import GOLDEN_PATH, GRID_POINTS, golden_digests  # noqa: E402

if __name__ == "__main__":
    golden = {f"{n},{ell}": golden_digests(HeckeAlgebra(n, ell)) for n, ell in sorted(GRID_POINTS)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
