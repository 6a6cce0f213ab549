"""Doc-drift checks: the documentation must match the code it documents.

Three mechanical invariants, enforced in CI:

* every CLI invocation shown in a fenced code block parses against the
  *real* argparse tree (`repro.tools.cli.build_parser`) — a renamed flag
  or removed subcommand fails here before a reader trips over it;
* every relative markdown link resolves to a file in the repository;
* the comparison matrix embedded in ``docs/DEFENSES.md`` is exactly what
  ``format_matrix_table`` renders from the committed
  ``BENCH_defense_matrix.json`` — the table cannot drift from the data;
* likewise the detector scorecard in ``docs/ATTACKS.md`` against
  ``BENCH_detector.json`` (via ``format_detector_table``), and the doc's
  per-kind coverage against the live attack registry.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.analysis.defense_matrix import format_matrix_table
from repro.tools.cli import build_parser

REPO = Path(__file__).resolve().parent.parent.parent
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "EXPERIMENTS.md"] + list((REPO / "docs").glob("*.md"))
)

_FENCE = re.compile(r"^```")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _fenced_lines(path: Path):
    """(line_number, text) for every line inside a fenced code block."""
    inside = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if _FENCE.match(line.strip()):
            inside = not inside
            continue
        if inside:
            yield number, line


def _cli_invocations():
    """Every ``python -m repro.tools ...`` command fenced in the docs."""
    found = []
    for path in DOC_FILES:
        pending = ""
        for number, line in _fenced_lines(path):
            line = pending + line.strip()
            pending = ""
            if line.endswith("\\"):
                pending = line[:-1] + " "
                continue
            if "python -m repro.tools" not in line:
                continue
            command = line.split("#", 1)[0]  # trailing comment
            command = re.split(r"\s(?:>|>>|\|)\s", command)[0]  # redirects/pipes
            tokens = shlex.split(command)
            anchor = tokens.index("repro.tools")
            found.append((path.relative_to(REPO), number, tokens[anchor + 1 :]))
    return found


CLI_INVOCATIONS = _cli_invocations()


def test_docs_actually_contain_cli_invocations():
    # the extractor going blind would vacuously pass the parse check
    assert len(CLI_INVOCATIONS) >= 8
    assert {args[0] for _, _, args in CLI_INVOCATIONS if args} >= {
        "attack", "campaign",
    }


@pytest.mark.parametrize(
    "source,line,args",
    CLI_INVOCATIONS,
    ids=[f"{path}:{line}" for path, line, _ in CLI_INVOCATIONS],
)
def test_fenced_cli_invocations_parse(source, line, args):
    parser = build_parser()
    try:
        parser.parse_args(args)
    except SystemExit:
        pytest.fail(
            f"{source}:{line}: `python -m repro.tools {' '.join(args)}` "
            "no longer parses against the real CLI"
        )


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(REPO)) for p in DOC_FILES]
)
def test_internal_links_resolve(path):
    text = path.read_text()
    # fenced code often contains [x](y)-shaped noise; strip the blocks
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.relative_to(REPO)}: broken links {broken}"


def test_defenses_matrix_matches_committed_json():
    doc = (REPO / "docs" / "DEFENSES.md").read_text()
    match = re.search(
        r"<!-- defense-matrix:begin -->\n(.*?)\n<!-- defense-matrix:end -->",
        doc,
        re.DOTALL,
    )
    assert match, "docs/DEFENSES.md lost its defense-matrix markers"
    matrix = json.loads((REPO / "BENCH_defense_matrix.json").read_text())
    expected = format_matrix_table(matrix)
    assert match.group(1) == expected, (
        "docs/DEFENSES.md matrix drifted from BENCH_defense_matrix.json; "
        "re-run benchmarks/bench_defense_matrix.py and paste the table"
    )


def test_attacks_detector_table_matches_committed_json():
    from repro.analysis.detector_eval import format_detector_table

    doc = (REPO / "docs" / "ATTACKS.md").read_text()
    match = re.search(
        r"<!-- detector-matrix:begin -->\n(.*?)\n<!-- detector-matrix:end -->",
        doc,
        re.DOTALL,
    )
    assert match, "docs/ATTACKS.md lost its detector-matrix markers"
    results = json.loads((REPO / "BENCH_detector.json").read_text())
    expected = format_detector_table(results["matrix"])
    assert match.group(1) == expected, (
        "docs/ATTACKS.md scorecard drifted from BENCH_detector.json; "
        "re-run benchmarks/bench_detector.py and paste the table"
    )


def test_detector_json_covers_every_protocol_kind():
    from repro.attack import PROTOCOL_LAYER, attack_names

    results = json.loads((REPO / "BENCH_detector.json").read_text())
    assert tuple(results["matrix"]["kinds"]) == attack_names(PROTOCOL_LAYER)
    required = {
        "expected", "runs", "detected", "effects", "benign_false_alarms",
        "effect_rate", "recall", "precision",
    }
    for name, metrics in results["matrix"]["kinds"].items():
        missing = required - set(metrics)
        assert not missing, f"{name} missing {missing}"
    assert results["flood_throughput"]["frames_per_s"] > 0


def test_attacks_doc_documents_every_registered_kind():
    from repro.attack import attack_names

    doc = (REPO / "docs" / "ATTACKS.md").read_text()
    undocumented = [
        name for name in attack_names() if f"`{name}`" not in doc
    ]
    assert not undocumented, (
        f"docs/ATTACKS.md missing registered attack kinds: {undocumented}"
    )


def test_matrix_json_covers_every_backend_and_metric():
    from repro.core.defenses import DEFENSE_BACKENDS

    matrix = json.loads((REPO / "BENCH_defense_matrix.json").read_text())
    required = {
        "entropy_bits", "gadget_survival", "startup_overhead_ms",
        "recovery_latency_ms", "recovery_pages_written",
    }
    assert matrix["apps"], "matrix has no applications"
    for app_name, app in matrix["apps"].items():
        assert set(app["backends"]) == set(DEFENSE_BACKENDS), app_name
        for backend, metrics in app["backends"].items():
            missing = required - set(metrics)
            assert not missing, f"{app_name}/{backend} missing {missing}"
