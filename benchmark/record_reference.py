"""Record the results the benchmark checks every pass against.

    python3 benchmark/record_reference.py

Writes ``benchmark/reference.json``: each study's verdict and per-level
(j, #E_j, log2 ratio), and the seed-independent exact results of
``certify``.  Re-record only in a change whose purpose is a new numerical
result, and say so there; a speed-up must reproduce the stored values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    wls = workloads.make_workloads(None)
    reference = {name: wls[name].observe(wls[name].setup(0)) for name in ("studies", "dense_times")}
    certify = wls["certify"]
    reference["certify"] = certify.observe_calculus(certify.setup(0))
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
