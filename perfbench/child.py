"""One pass of one workload in a fresh process.

Usage: python3 child.py '<json spec>'

The spec holds the checkout root, workload, seed, smoke flag, work
directory, the sweep's job count, the trace mode ("off", "layers" or
"pool") and ``spawned``, the parent's ``time.monotonic()`` just before it
started this process.  Set-up is the time from ``spawned`` until zsindex is
imported, the prime sieve has run on the first ``factorize`` and the
inputs are generated.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import zsindex

    from workloads import make_inputs, run_pass

    if spec["workload"] == "sweep":
        import zsindex.cli  # noqa: F401  (the sweep enters through the CLI)
    zsindex.factorize(2)  # the first factorize runs the prime sieve
    inputs = make_inputs(spec["workload"], spec["seed"], spec["smoke"])
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec["trace"] != "off":
        from spans import BOUNDARIES, POOL_BOUNDARIES, Tracer

        tracer = Tracer()
        tracer.install(POOL_BOUNDARIES if spec["trace"] == "pool" else BOUNDARIES)
    try:
        result = run_pass(zsindex, spec["workload"], inputs, Path(spec["workdir"]),
                          spec["jobs"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (own + kids) / 1024
    if tracer is not None:
        result["trace"] = {
            "summary": tracer.summary(),
            "counters": tracer.counters,
            "absent": tracer.absent,
            "spans": len(tracer.start),
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
