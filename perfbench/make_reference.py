"""Write reference.json: large-K estimates for the points without a closed form.

table2, table3 and table4 have no independent reference yet, so their
benchmark points are checked against one large-K run of the same estimator
at a seed that no workload uses (``point_seeds`` refuses a collision). This
is a regression reference, not an independent one.

    python3 perfbench/make_reference.py

It takes a few minutes on one core. Run it only to replace the reference on
purpose; the file records how it was made.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ruinlab  # noqa: E402
from ruinlab import engine  # noqa: E402

import workloads  # noqa: E402

REFERENCE_SEED = 20261017
K_REF_SHORT = 100_000
K_REF_TABLE4 = 50_000


def main() -> int:
    points = {}
    todo = [(p, K_REF_SHORT) for p in workloads.short_points() if p[4] is None]
    todo += [(p, K_REF_TABLE4) for p in workloads.table4_points()]
    for (label, m, pair, u, _), k in todo:
        rep = engine.estimate_psi(m, pair, engine.SimConfig(u=u, k=k, seed=REFERENCE_SEED))
        points[label] = {"estimate": rep.estimate, "std_error": rep.std_error, "k": k}
        print(f"{label}: {rep.estimate:.6g} +- {rep.std_error:.3g} ({rep.runtime_seconds:.1f} s)",
              flush=True)
    out = {
        "how": "engine.estimate_psi on the same model and tilt, one SimConfig per point "
               "with the seed below; workers=1",
        "seed": REFERENCE_SEED,
        "ruinlab": ruinlab.__version__,
        "numpy": np.__version__,
        "made": time.strftime("%Y-%m-%d"),
        "points": points,
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
