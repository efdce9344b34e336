"""Fresh-interpreter helper, started by run.py once per measurement.

    python3 perfbench/child.py setup RESULT WORKLOAD SEED
    python3 perfbench/child.py cli RESULT ARG...

``setup`` times importing ``annulus_radial.cli`` plus building the
workload's config objects.  ``cli`` times the import and ``cli.main(ARG...)``
separately, capturing the command's stdout.  Both write one JSON object to
RESULT and print nothing.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv) -> int:
    mode, result = argv[0], Path(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import annulus_radial.cli as cli

    t1 = time.perf_counter()
    if mode == "setup":
        import annulus_radial
        import tracer
        import workloads

        workloads.build_configs(argv[2], tracer.library(annulus_radial), int(argv[3]))
        payload = {"setup_s": time.perf_counter() - t0}
    else:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv[2:])
        t2 = time.perf_counter()
        payload = {"import_s": t1 - t0, "work_s": t2 - t1, "rc": rc,
                   "stdout": buf.getvalue()}
    result.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
