"""End-to-end campaign benchmark: ``guess``, ``recovery`` and ``swarm``.

Run from the repository root::

    python3 perfbench/run.py --workload guess --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` plays the workload's first batch inline with every layer's entry
points wrapped in spans and reports per-layer self times.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
full report.  The metric names, units and bounds live in
``BENCHMARK.json``; which end-to-end metric each per-layer metric should
move is in ``perfbench/interactions.json``.

Self-tests: ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC.name}/repro; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
