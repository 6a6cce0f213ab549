"""Resume determinism: an interrupted campaign, resumed from its
checkpoint file, must emit byte-identical JSONL and aggregates to a run that
was never interrupted — at any jobs level (ISSUE 9 satellite)."""

import json

import pytest

from repro.sim import CampaignRunner, ScenarioSpec, derive_seed, spec_digest


def specs_for(n, base_seed=17, marker=None, marker_index=None):
    """Spec list; ``marker`` arms the worker-death injection, on every
    spec or (with ``marker_index``) on just one mid-campaign spec.  The
    marker is observability-free: records and digests ignore it, so
    marked and unmarked lists produce identical JSONL."""
    return [
        ScenarioSpec(
            app="testapp",
            seed=derive_seed(base_seed, index, "board"),
            attack="guess",
            attack_seed=derive_seed(base_seed, index, "attack"),
            label=f"g{index}",
            worker_fault_marker=(
                marker if marker_index is None or index == marker_index
                else None
            ),
        )
        for index in range(n)
    ]


@pytest.mark.parametrize("resume_jobs", (1, 4))
def test_interrupted_then_resumed_matches_uninterrupted(tmp_path, resume_jobs):
    marker = str(tmp_path / "fault-marker")
    ckpt = tmp_path / "ckpt"
    # interrupt: the first worker to pick up a spec dies without cleanup,
    # and with retry disabled its unfinished specs degrade to errors —
    # exactly the state a killed campaign leaves behind
    # the marker sits on a mid-campaign spec: a worker death breaks the
    # whole pool, so everything before it checkpointed and everything
    # in flight or after degrades to an error
    interrupted = CampaignRunner(
        jobs=2, retry_worker_death=False, checkpoint_dir=ckpt,
        jsonl_path=tmp_path / "interrupted.jsonl",
    ).run(specs_for(6, marker=marker, marker_index=3))
    assert interrupted.aggregates["errors"] > 0
    completed = interrupted.aggregates["scenarios"] - interrupted.aggregates["errors"]
    assert 0 < completed < 6  # genuinely partial

    baseline = CampaignRunner(
        jobs=1, jsonl_path=tmp_path / "baseline.jsonl"
    ).run(specs_for(6))

    resumed = CampaignRunner(
        jobs=resume_jobs, resume=True, checkpoint_dir=ckpt,
        jsonl_path=tmp_path / "resumed.jsonl",
    ).run(specs_for(6, marker=marker))
    assert resumed.runner["resumed"] == completed
    assert resumed.aggregates == baseline.aggregates
    assert resumed.records() == baseline.records()
    assert (tmp_path / "resumed.jsonl").read_bytes() == (
        tmp_path / "baseline.jsonl"
    ).read_bytes()


def test_fully_checkpointed_resume_runs_nothing(tmp_path):
    ckpt = tmp_path / "ckpt"
    specs = specs_for(4)
    full = CampaignRunner(
        jobs=2, checkpoint_dir=ckpt, jsonl_path=tmp_path / "full.jsonl"
    ).run(specs)
    resumed = CampaignRunner(
        jobs=1, resume=True, checkpoint_dir=ckpt,
        jsonl_path=tmp_path / "resumed.jsonl",
        # any spec actually re-running would explode here
        timeout_s=None, retry_worker_death=False,
    ).run(specs_for(4, marker=str(tmp_path / "never-created")))
    assert resumed.runner["resumed"] == 4
    assert not (tmp_path / "never-created").exists()
    assert (tmp_path / "resumed.jsonl").read_bytes() == (
        tmp_path / "full.jsonl"
    ).read_bytes()


def test_checkpoints_pin_their_spec_digest(tmp_path):
    ckpt = tmp_path / "ckpt"
    CampaignRunner(jobs=1, checkpoint_dir=ckpt).run(specs_for(3, base_seed=17))
    # a different campaign's specs at the same indices must not replay
    resumed = CampaignRunner(jobs=1, resume=True, checkpoint_dir=ckpt).run(
        specs_for(3, base_seed=18)
    )
    assert resumed.runner["resumed"] == 0


def test_corrupt_checkpoint_lines_are_skipped(tmp_path):
    ckpt = tmp_path / "ckpt"
    specs = specs_for(3)
    CampaignRunner(jobs=1, checkpoint_dir=ckpt).run(specs)
    checkpoint = ckpt / "checkpoint.jsonl"
    lines = checkpoint.read_text().splitlines()
    assert len(lines) == 3
    # torn tail (interrupted append) + a foreign digest + junk
    entry = json.loads(lines[1])
    entry["spec"] = "0" * 32
    checkpoint.write_text(
        "\n".join([lines[0], json.dumps(entry), lines[2][:-20], "not json"])
        + "\n"
    )
    resumed = CampaignRunner(
        jobs=1, resume=True, checkpoint_dir=ckpt
    ).run(specs)
    assert resumed.runner["resumed"] == 1  # only the intact line replays
    baseline = CampaignRunner(jobs=1).run(specs)
    assert resumed.records() == baseline.records()


def test_resume_requires_checkpoint_dir():
    with pytest.raises(ValueError):
        CampaignRunner(resume=True)


def test_spec_digest_ignores_the_fault_marker(tmp_path):
    plain = specs_for(1)[0]
    marked = specs_for(1, marker=str(tmp_path / "m"))[0]
    assert spec_digest(plain) == spec_digest(marked)
    assert spec_digest(plain) != spec_digest(specs_for(1, base_seed=18)[0])


# -- torn checkpoint tails ---------------------------------------------------

def quick_specs(n):
    """Short clean flights: the checkpoint bookkeeping is under test."""
    return [
        ScenarioSpec(
            app="testapp", seed=derive_seed(5, index, "board"),
            warmup_ticks=2, observe_ticks=4, label=f"q{index}",
        )
        for index in range(n)
    ]


def _split_last_line(data):
    """(everything before the last line, the last line with its newline)"""
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    return data[:start], data[start:]


def test_torn_last_line_replays_exactly_the_intact_lines(tmp_path):
    ckpt = tmp_path / "ckpt"
    specs = quick_specs(3)
    CampaignRunner(jobs=1, checkpoint_dir=ckpt).run(specs)
    path = ckpt / "checkpoint.jsonl"
    intact, last = _split_last_line(path.read_bytes())
    runner = CampaignRunner(jobs=1, resume=True, checkpoint_dir=ckpt)
    for keep in range(len(last)):
        path.write_bytes(intact + last[:keep])
        assert sorted(runner._load_checkpoints(specs)) == [0, 1], (
            f"last line torn after {keep} bytes"
        )
        runner._trim_torn_tail()
        assert path.read_bytes() == intact


def test_resume_after_torn_line_then_resume_again_replays_everything(tmp_path):
    ckpt = tmp_path / "ckpt"
    specs = quick_specs(4)
    CampaignRunner(jobs=1, checkpoint_dir=ckpt).run(specs[:2])
    path = ckpt / "checkpoint.jsonl"
    intact, last = _split_last_line(path.read_bytes())
    path.write_bytes(intact + last[: len(last) // 2])

    first = CampaignRunner(jobs=1, resume=True, checkpoint_dir=ckpt).run(specs)
    assert first.runner["resumed"] == 1
    second = CampaignRunner(
        jobs=1, resume=True, checkpoint_dir=ckpt,
        jsonl_path=tmp_path / "resumed.jsonl",
    ).run(specs)
    assert second.runner["resumed"] == 4
    CampaignRunner(jobs=1, jsonl_path=tmp_path / "baseline.jsonl").run(specs)
    assert (tmp_path / "resumed.jsonl").read_bytes() == (
        tmp_path / "baseline.jsonl"
    ).read_bytes()
