"""Relocation index: build, serialization, staleness, and the patcher's
byte-for-byte equivalence with the streaming oracle."""

import random

import pytest

from repro.binfmt import FirmwareImage, RelocationIndex, build_relocation_index
from repro.binfmt.relocindex import KIND_CALL, KIND_JMP, KIND_RCALL, KIND_RJMP
from repro.core import preprocess, preprocess_report, randomize_image
from repro.core.patching import patch_image
from repro.core.randomize import generate_permutation

from . import streaming_patcher


@pytest.fixture(scope="module")
def index(testapp):
    return build_relocation_index(testapp)


def test_index_finds_sites(index, testapp):
    assert index.site_count > 0
    assert index.matches(testapp)
    for site in index.absolute_sites:
        assert site.kind in (KIND_CALL, KIND_JMP)
        # only layout-dependent targets are indexed
        assert testapp.text_start <= site.target < testapp.text_end
    for site in index.relative_sites:
        assert site.kind in (KIND_RCALL, KIND_RJMP)
        # cross-segment by definition
        assert not site.segment_start <= site.target < site.segment_end


def test_indexed_patch_equals_legacy(index, testapp):
    for seed in range(5):
        permutation = generate_permutation(testapp, random.Random(seed))
        assert patch_image(testapp, permutation) == streaming_patcher.patch_image(
            testapp, permutation
        )
    assert testapp.reloc_index == index


def test_index_serialization_roundtrip(index, testapp):
    blob = index.to_bytes()
    assert len(blob) == index.byte_length()
    restored = RelocationIndex.from_bytes(blob, testapp)
    assert restored == index


def test_index_rides_preprocessed_hex_and_flash_blob(testapp):
    hex_text = preprocess(testapp)
    from_hex = FirmwareImage.from_preprocessed_hex(hex_text)
    assert from_hex.reloc_index is not None
    assert from_hex.reloc_index.matches(from_hex)
    from_blob = FirmwareImage.from_flash_blob(from_hex.to_flash_blob())
    assert from_blob.reloc_index is not None
    assert from_blob.reloc_index.matches(from_blob)
    # the master-side reconstruction patches identically through the
    # index it carries, without building another
    carried = from_blob.reloc_index
    permutation = generate_permutation(from_blob, random.Random(3))
    assert patch_image(from_blob, permutation) == streaming_patcher.patch_image(
        from_blob, permutation
    )
    assert from_blob.reloc_index is carried


def test_legacy_containers_without_index_still_parse(testapp):
    hex_text = preprocess(testapp, build_index=False)
    from_hex = FirmwareImage.from_preprocessed_hex(hex_text)
    assert from_hex.reloc_index is None
    blob = from_hex.to_flash_blob(include_index=False)
    assert FirmwareImage.from_flash_blob(blob).reloc_index is None
    # the patcher builds the index from the image's own bytes on first use
    randomized, _ = randomize_image(from_hex, random.Random(9))
    randomized.validate()
    assert from_hex.reloc_index is not None
    assert from_hex.reloc_index.matches(from_hex)


def test_stale_index_is_rejected(index, testapp):
    """A stale attached index is rebuilt from the image's bytes, never
    applied: retarget one indexed call, and the output must follow the
    call's new target, not the one the stale index recorded."""
    site = index.absolute_sites[0]
    other = next(f for f in testapp.functions() if f.address != site.target)
    tampered = bytearray(testapp.code)
    tampered[site.offset + 2 : site.offset + 4] = (other.address // 2).to_bytes(
        2, "little"
    )
    stale = testapp.with_code(bytes(tampered))
    stale.reloc_index = index
    assert not index.matches(stale)
    permutation = generate_permutation(stale, random.Random(0))
    patched = patch_image(stale, permutation)
    assert patched == streaming_patcher.patch_image(stale, permutation)
    assert stale.reloc_index is not index
    assert stale.reloc_index.matches(stale)


def test_with_code_drops_index(testapp):
    carrier = testapp.with_code(testapp.code)
    carrier.reloc_index = build_relocation_index(carrier)
    derived = carrier.with_code(bytes(carrier.code))
    assert derived.reloc_index is None


def test_randomized_image_carries_no_index(testapp):
    source = FirmwareImage.from_preprocessed_hex(preprocess(testapp))
    assert source.reloc_index is not None
    randomized, _ = randomize_image(source, random.Random(4))
    # the index described the *original* layout; carrying it over would
    # silently mis-patch a second-generation randomization
    assert randomized.reloc_index is None


def test_preprocess_report_counts_index(testapp):
    report = preprocess_report(testapp)
    assert report.index_sites > 0
    assert report.index_bytes > 0
