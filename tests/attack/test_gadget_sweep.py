"""The word-kind sweep and the shape memo against the decoding finder.

The oracle below is the finder as it was before gadgets were found by
word kind: a sweep that decodes every instruction of the executable
ranges, and both Fig. 4/5 classifiers run on every decoded gadget.  The
production finder must agree with it on every list, count and lookup —
on generated images (a word pool biased toward terminators, control
flow, two-word opcodes and undecodable words, with segment bounds drawn
anywhere, a segment end past the code and a two-word opcode in the last
word) and on every app's layouts under each defense backend — with the
shape memo cold and warm.
"""

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asm.linker import MAVR_OPTIONS
from repro.attack import gadgets as gadget_module
from repro.attack.gadgets import (
    GADGET_MEMO,
    Gadget,
    GadgetFinder,
    StkMoveGadget,
    WriteMemGadget,
)
from repro.avr import Instruction, Mnemonic, encode
from repro.avr.decoder import decode_at
from repro.avr.insn import CONTROL_FLOW
from repro.binfmt import FirmwareImage, Symbol, SymbolTable
from repro.core.defenses import DEFENSE_BACKENDS, create_backend
from repro.core.patching import randomize_image
from repro.errors import DecodeError, GadgetNotFoundError
from repro.firmware import ALL_APPS, build_app

I = Instruction
M = Mnemonic

#: write_mem pop floors compared (find_write_mem's default is 16)
MIN_POPS = (0, 3, 16, 17)


# -- the oracle: the decoding sweep and classification, as they were ---------

def oracle_scan(image, terminators=(M.RET,), fixed_region=True) -> List[Gadget]:
    fixed_end = min(image.text_start, image.data_start)
    segments = [(image.text_start, image.text_end)]
    if fixed_region:
        segments.insert(0, (0, fixed_end))
    found: List[Gadget] = []
    for start, end in segments:
        found.extend(oracle_scan_segment(image.code, start, end, terminators))
    return found


def oracle_scan_segment(code, start, end, terminators) -> List[Gadget]:
    found: List[Gadget] = []
    run: List[Tuple[int, Instruction]] = []
    offset = start
    while offset + 1 < end:
        try:
            insn, size = decode_at(code, offset)
        except DecodeError:
            run = []
            offset += 2
            continue
        if insn.mnemonic in terminators:
            run.append((offset, insn))
            found.append(Gadget(run[0][0], tuple(run)))
            run = []
        elif insn.mnemonic in CONTROL_FLOW:
            run = []
        else:
            run.append((offset, insn))
        offset += size
    return found


def oracle_stk_move(gadget: Gadget) -> Optional[StkMoveGadget]:
    insns = gadget.instructions
    for index, (addr, insn) in enumerate(insns):
        if insn.mnemonic is M.OUT and insn.a == 0x3E:
            saw_spl = False
            pops: List[int] = []
            valid = True
            for _later_addr, later in insns[index + 1 : -1]:
                if later.mnemonic is M.OUT and later.a == 0x3D:
                    saw_spl = True
                elif later.mnemonic is M.POP:
                    pops.append(later.rd)
                elif later.mnemonic is M.OUT and later.a == 0x3F:
                    continue
                else:
                    valid = False
                    break
            if saw_spl and valid:
                return StkMoveGadget(entry=addr, pop_regs=tuple(pops))
    return None


def oracle_write_mem(gadget: Gadget) -> Optional[WriteMemGadget]:
    insns = gadget.instructions
    stores: List[Tuple[int, int, int]] = []
    for addr, insn in insns:
        if insn.mnemonic is M.STD_Y:
            stores.append((addr, insn.q or 0, insn.rr))
    if not stores:
        return None
    last_store_addr = stores[-1][0]
    pops: List[int] = []
    pop_entry = None
    for addr, insn in insns:
        if addr <= last_store_addr:
            continue
        if insn.mnemonic is M.POP:
            if pop_entry is None:
                pop_entry = addr
            pops.append(insn.rd)
        elif insn.mnemonic is M.RET:
            break
        else:
            return None
    if pop_entry is None or not pops:
        return None
    stored_regs = {reg for _addr, _q, reg in stores}
    if not ({28, 29} <= set(pops) and stored_regs <= set(pops)):
        return None
    return WriteMemGadget(
        std_entry=stores[0][0],
        pop_entry=pop_entry,
        stores=tuple((q, reg) for _addr, q, reg in stores),
        pop_regs=tuple(pops),
    )


def oracle_report(image) -> Dict[str, object]:
    gadgets = oracle_scan(image)
    jop = oracle_scan(image, (M.IJMP, M.ICALL), fixed_region=False)
    stk = [s for s in map(oracle_stk_move, gadgets) if s is not None]
    wm = [w for w in map(oracle_write_mem, gadgets) if w is not None]
    histogram: Dict[int, int] = {}
    for gadget in gadgets:
        histogram[gadget.length] = histogram.get(gadget.length, 0) + 1
    report = {
        "gadgets": gadgets, "jop_gadgets": jop,
        "count": len(gadgets), "jop_count": len(jop),
        "histogram": histogram,
        "stk_move_gadgets": stk, "write_mem_gadgets": wm,
        "find_stk_move": stk[0] if stk else GadgetNotFoundError,
    }
    for min_pops in MIN_POPS:
        report[f"find_write_mem/{min_pops}"] = next(
            (w for w in wm
             if w.pop_bytes >= min_pops and {5, 6, 7} <= set(w.pop_regs)),
            GadgetNotFoundError,
        )
    return report


def _lookup(call):
    try:
        return call()
    except GadgetNotFoundError:
        return GadgetNotFoundError


def finder_report(image, lookups_first: bool) -> Dict[str, object]:
    """Every answer of one fresh finder; ``lookups_first`` asks the memo
    path before anything decodes the inventory."""
    finder = GadgetFinder(image)
    report: Dict[str, object] = {}

    def lookups():
        report["find_stk_move"] = _lookup(finder.find_stk_move)
        for min_pops in MIN_POPS:
            report[f"find_write_mem/{min_pops}"] = _lookup(
                lambda: finder.find_write_mem(min_pops)
            )
        report["stk_move_gadgets"] = finder.stk_move_gadgets()
        report["write_mem_gadgets"] = finder.write_mem_gadgets()
        report["count"] = finder.count()
        report["jop_count"] = finder.jop_count()

    if lookups_first:
        lookups()
    report["gadgets"] = finder.gadgets()
    report["jop_gadgets"] = finder.jop_gadgets()
    report["histogram"] = finder.histogram()
    if not lookups_first:
        lookups()
    return report


def _cold() -> None:
    """Start the memo and the word-kind tables from nothing."""
    GADGET_MEMO.clear()
    for _terminators, table in (gadget_module._RET_KINDS, gadget_module._JOP_KINDS):
        table[:] = bytes(len(table))


def assert_matches_oracle(image) -> None:
    expected = oracle_report(image)
    _cold()
    assert finder_report(image, lookups_first=True) == expected  # memo cold
    assert finder_report(image, lookups_first=False) == expected  # memo warm


# -- generated images --------------------------------------------------------

def _word(insn: Instruction) -> int:
    return encode(insn)[0]


RET, RETI, IJMP, ICALL = 0x9508, 0x9518, 0x9409, 0x9509
FIG4 = [_word(I(M.OUT, a=0x3E, rr=29)), _word(I(M.OUT, a=0x3F, rr=0)),
        _word(I(M.OUT, a=0x3D, rr=28)), _word(I(M.POP, rd=28)),
        _word(I(M.POP, rd=29)), _word(I(M.POP, rd=16)), RET]
FIG5 = [_word(I(M.STD_Y, rr=5, q=1)), _word(I(M.STD_Y, rr=6, q=2)),
        _word(I(M.STD_Y, rr=7, q=3))] + [
    _word(I(M.POP, rd=r))
    for r in (29, 28, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4)
] + [RET]


def _masked(base: int, free: int):
    return st.integers(0, 0xFFFF).map(lambda x: base | (x & free))


# first words of jmp, call, lds and sts (their second word is anything)
TWO_WORD_FIRST = st.one_of(
    _masked(0x940C, 0x01F1), _masked(0x940E, 0x01F1),
    _masked(0x9000, 0x01F0), _masked(0x9200, 0x01F0),
)
WORDS = st.one_of(
    st.sampled_from([RET, RET, RET, RETI, IJMP, ICALL, 0xFFFF, 0x0000]),
    TWO_WORD_FIRST,
    _masked(0xF000, 0x07FF),  # brbs / brbc
    _masked(0x1000, 0x03FF),  # cpse
    _masked(0x9900, 0x02FF),  # sbic / sbis
    _masked(0xFC00, 0x03FF),  # sbrc / sbrs (bit 3 set: undecodable)
    _masked(0xC000, 0x1FFF),  # rjmp / rcall
    st.sampled_from(FIG4[:-1] + FIG5[:-1]),  # pieces of the Fig. 4/5 shapes
    st.integers(0, 0xFFFF),
)
ATOMS = st.one_of(
    WORDS.map(lambda word: [word]),
    st.sampled_from([FIG4, FIG5, FIG5[2:], FIG4[:3] + FIG5[:4] + FIG4[3:]]),
)


@st.composite
def images(draw) -> FirmwareImage:
    words = [w for atom in draw(st.lists(ATOMS, max_size=40)) for w in atom]
    if draw(st.booleans()):
        words.append(draw(TWO_WORD_FIRST))  # a two-word opcode in the last word
    code = b"".join(w.to_bytes(2, "little") for w in words)
    if draw(st.booleans()):
        code += bytes([draw(st.integers(0, 0xFF))])  # an odd trailing byte
    size = len(code)
    text_start = draw(st.integers(0, size))
    text_end = draw(st.integers(text_start, size))
    data_start = draw(st.integers(0, size))
    data_end = draw(st.integers(data_start, size))
    image = FirmwareImage(
        code=code, symbols=SymbolTable([Symbol("blob", 0, size)]),
        text_start=text_start, text_end=text_end,
        data_start=data_start, data_end=data_end, entry_symbol="blob",
    )
    overshoot = draw(st.sampled_from([0, 0, 1, 2, 3, 4, 7]))
    if overshoot:
        image.text_end = size + overshoot  # a segment end past the code
    return image


def _image(words, tail=b"", text=None, data=None) -> FirmwareImage:
    code = b"".join(w.to_bytes(2, "little") for w in words) + tail
    text_start, text_end = text if text is not None else (0, len(code))
    data_start, data_end = data if data is not None else (len(code), len(code))
    return FirmwareImage(
        code=code, symbols=SymbolTable([Symbol("blob", 0, len(code))]),
        text_start=text_start, text_end=text_end,
        data_start=data_start, data_end=data_end, entry_symbol="blob",
    )


@settings(max_examples=150, deadline=None)
@given(images())
@example(_image(FIG4 + FIG5 + [0x940E]))  # a call's first word in the last word
@example(_image([0x0000, 0x940C, RET, 0x0000, RET], text=(0, 4)))  # jmp past text_end
@example(_image(FIG5[:-1] + [0x9000], tail=b"\x08"))  # lds cut by the code end
def test_finder_matches_oracle_on_generated_images(image):
    assert_matches_oracle(image)


def test_segment_end_past_the_code():
    image = _image([0x0000, RET, 0xFFFF, 0x0000, RET, 0x940E])
    image.text_end = len(image.code) + 5
    assert_matches_oracle(image)
    assert GadgetFinder(image).count() == 2


def test_two_word_opcode_reads_past_the_segment_end():
    # [nop, lds, ret] with .text ending inside the lds: the lds decodes
    # from bytes past the segment end and ends the sweep with its run
    lds = _word(I(M.LDS, rd=16, k=0))
    image = _image([0x0000, RET, 0x0000, lds, 0x0100, RET], text=(0, 8))
    assert_matches_oracle(image)
    gadgets = GadgetFinder(image).gadgets()
    assert [(g.address, g.ret_address) for g in gadgets] == [(0, 2)]


def test_two_word_opcode_in_the_last_word_is_undecodable():
    # the call's second word lies past the code: nothing after it decodes,
    # and the run it cut short is not a gadget
    image = _image([0x0000, RET, 0x0000, 0x940E], tail=b"\x95")
    assert_matches_oracle(image)
    assert GadgetFinder(image).count() == 1


def test_odd_segment_start():
    code_words = FIG4 + FIG5
    image = _image(code_words, text=(1, 2 * len(code_words)))
    assert_matches_oracle(image)


# -- every app's layouts under each defense backend ---------------------------

APPS = ("testapp",) + tuple(manifest.name for manifest in ALL_APPS)


@pytest.fixture(scope="module")
def app_images(testapp):
    images = {"testapp": testapp}
    for manifest in ALL_APPS:
        images[manifest.name] = build_app(manifest, MAVR_OPTIONS)
    return images


@pytest.mark.parametrize("defense", DEFENSE_BACKENDS)
@pytest.mark.parametrize("app", APPS)
def test_finder_matches_oracle_on_app_layouts(app_images, app, defense):
    base = app_images[app]
    layout, _permutation = create_backend(defense).diversify(
        base, random.Random(len(app) * 7 + len(defense))
    )
    assert_matches_oracle(layout)


def test_testapp_layouts_share_59_runs(testapp):
    """Every layout of testapp, under every backend, is made of the same
    59 distinct runs: the memo never grows past them."""
    distinct = {
        testapp.code[g.address : g.ret_address + 2] for g in oracle_scan(testapp)
    }
    assert len(distinct) == 59
    GADGET_MEMO.clear()
    rng = random.Random(59)
    for defense in DEFENSE_BACKENDS:
        backend = create_backend(defense)
        for _ in range(15):
            layout, _permutation = backend.diversify(testapp, rng)
            finder = GadgetFinder(layout)
            finder.stk_move_gadgets()
            finder.find_write_mem()
            assert len(GADGET_MEMO) == 59
    assert set(GADGET_MEMO) == distinct


def test_memo_starts_over_at_its_bound(testapp):
    filler = [b"filler %d" % n for n in range(gadget_module._GADGET_MEMO_LIMIT)]
    GADGET_MEMO.clear()
    GADGET_MEMO.update((key, (None, None)) for key in filler)
    expected = oracle_report(testapp)
    finder = GadgetFinder(testapp)
    assert finder.stk_move_gadgets() == expected["stk_move_gadgets"]
    assert finder.write_mem_gadgets() == expected["write_mem_gadgets"]
    # the first miss found the memo full: it started over with this image
    assert not any(key in GADGET_MEMO for key in filler)
    assert 0 < len(GADGET_MEMO) <= 59


def test_a_known_run_is_not_decoded_again(testapp, monkeypatch):
    GadgetFinder(testapp).stk_move_gadgets()  # every run of testapp known
    layout, _permutation = randomize_image(testapp, random.Random(3))

    def no_decode(*args):
        raise AssertionError("a known run was decoded")

    monkeypatch.setattr(gadget_module, "decode_at", no_decode)
    finder = GadgetFinder(layout)
    assert finder.find_stk_move().pop_regs == (28, 29, 16)
    assert finder.find_write_mem().stores == ((1, 5), (2, 6), (3, 7))


def test_shapes_of_a_moved_copy_are_rebased(testapp):
    finder = GadgetFinder(testapp)
    stk, wm = finder.find_stk_move(), finder.find_write_mem()
    shifted = dataclasses.replace(
        testapp, code=b"\x00\x00" * 8 + testapp.code,
        text_start=testapp.text_start + 16, text_end=testapp.text_end + 16,
        data_start=testapp.data_start + 16, data_end=testapp.data_end + 16,
    )
    moved = GadgetFinder(shifted)
    assert moved.find_stk_move().entry == stk.entry + 16
    assert moved.find_write_mem().std_entry == wm.std_entry + 16
    assert moved.find_write_mem().pop_entry == wm.pop_entry + 16
