"""Gadgets by their bytes: a re-randomized image's Fig. 4/5 lookups.

The §VII-A1 guessing attacker builds every exploit from the ``stk_move``
and ``write_mem_gadget`` of its own re-randomized copy of the public
binary (``attack.registry._inject_guess``).  MAVR moves whole functions,
and a gadget ends at its ``ret``, so the runs of a fresh layout are the
runs of every earlier layout at new addresses.  ``GadgetFinder`` sweeps
the image by word kind and reads each run's shapes from
``GADGET_MEMO`` by the run's bytes; only a run never seen before is
decoded.

Each round draws one fresh MAVR layout and times ``find_stk_move()`` plus
``find_write_mem()`` on a fresh finder twice: with the memo cleared (every
run decoded, about what the finder cost before it kept shapes) and with
the memo warm — holding every run of the app, from the base image, never
from the layout being timed.  The two are interleaved round by round,
the order alternating, and compared by the median of the per-round
paired ratios (cleared / warm), so a slow spell of the host hits both
sides of a pair.  Both must find the same two gadgets.

Results, with the spread of every reading, land in
``BENCH_gadget_scan.json`` at the repo root.  The asserted floor: on
testapp the warm lookup is at least 5x faster than the cleared one.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_gadget_scan.py -q -s
"""

import json
import random
import time
from pathlib import Path

from repro.attack.gadgets import GADGET_MEMO, GadgetFinder
from repro.core.patching import randomize_image

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_gadget_scan.json"
#: minimum median paired ratio (cleared / warm) on testapp
TESTAPP_FLOOR = 5.0
ROUNDS = {"testapp": 40, "arduplane": 10}


def _quartiles(values):
    ordered = sorted(values)
    last = len(ordered) - 1
    return {
        "min": round(ordered[0], 3),
        "q1": round(ordered[last // 4], 3),
        "median": round(ordered[last // 2], 3),
        "q3": round(ordered[(3 * last) // 4], 3),
        "max": round(ordered[-1], 3),
    }


def _timed_lookup(layout):
    start = time.perf_counter()
    finder = GadgetFinder(layout)
    found = finder.find_stk_move(), finder.find_write_mem()
    return (time.perf_counter() - start) * 1e3, found


def _measure(image, rounds: int) -> dict:
    GADGET_MEMO.clear()
    finder = GadgetFinder(image)
    finder.stk_move_gadgets()
    finder.write_mem_gadgets()
    warm = dict(GADGET_MEMO)  # every run of the app, by its bytes
    rng = random.Random(2015)
    cleared_ms, warm_ms, ratios = [], [], []
    for index in range(rounds):
        layout, _permutation = randomize_image(image, rng)
        readings = {}
        for side in (("cleared", "warm") if index % 2 else ("warm", "cleared")):
            GADGET_MEMO.clear()
            if side == "warm":
                GADGET_MEMO.update(warm)
            readings[side] = _timed_lookup(layout)
        (cleared, cleared_found), (hot, warm_found) = (
            readings["cleared"], readings["warm"]
        )
        assert warm_found == cleared_found, f"round {index}: results differ"
        cleared_ms.append(cleared)
        warm_ms.append(hot)
        ratios.append(cleared / hot)
    return {
        "rounds": rounds,
        "gadgets": finder.count(),
        "memo_keys": len(warm),
        "cleared_ms": _quartiles(cleared_ms),
        "warm_ms": _quartiles(warm_ms),
        "ratio": _quartiles(ratios),
    }


def test_gadget_lookup_memo(testapp, arduplane):
    results = {
        "method": (
            "per round: one fresh MAVR layout; find_stk_move + find_write_mem "
            "on a fresh finder with GADGET_MEMO cleared and warm (every run "
            "of the app, from the base image), order alternating; ratio is "
            "cleared / warm per round"
        ),
        "floor": {"app": "testapp", "median_ratio_at_least": TESTAPP_FLOOR},
        "apps": {},
    }
    for image in (testapp, arduplane):
        reading = _measure(image, ROUNDS[image.name])
        results["apps"][image.name] = reading
        print(
            f"\n{image.name}: {reading['gadgets']} gadgets, "
            f"{reading['memo_keys']} distinct runs; per layout cleared "
            f"{reading['cleared_ms']['median']} ms, warm "
            f"{reading['warm_ms']['median']} ms; paired ratio median "
            f"{reading['ratio']['median']}x "
            f"[{reading['ratio']['min']}–{reading['ratio']['max']}] over "
            f"{reading['rounds']} rounds"
        )
    GADGET_MEMO.clear()
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"results written to {RESULTS_PATH}")

    ratio = results["apps"]["testapp"]["ratio"]["median"]
    assert ratio >= TESTAPP_FLOOR, (
        f"warm gadget lookups are only {ratio:.2f}x faster than cleared on "
        f"testapp; the floor is {TESTAPP_FLOOR}x"
    )
