"""Symbol tables for firmware images.

The MAVR preprocessing phase (paper §VI-B2) extracts function symbols from
the ELF produced by the compiler and prepends them to the HEX file so the
master processor can move functions as blocks.  This module is the symbol
model both phases share.

Addresses are **byte addresses** into flash, as in listings; sizes are in
bytes.  Function symbols are required to tile their portion of ``.text``
without overlap so that shuffling them is a permutation of code blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import BinfmtError


class SymbolKind(Enum):
    """Subset of ELF symbol types the pipeline cares about."""

    FUNC = "func"
    OBJECT = "object"  # data-section objects (vtables, call tables)


# avr-ld convention: symbols that live in the SRAM data space carry this
# offset in their address (flash symbols are plain byte addresses).
DATA_SPACE_FLAG = 0x0080_0000


def is_sram_symbol(symbol: "Symbol") -> bool:
    """True when the symbol's address is a data-space (SRAM) address."""
    return symbol.address >= DATA_SPACE_FLAG


def sram_address(symbol: "Symbol") -> int:
    """Strip the data-space flag, yielding the raw SRAM byte address."""
    return symbol.address - DATA_SPACE_FLAG


@dataclass(frozen=True)
class Symbol:
    """One named region of the image."""

    name: str
    address: int  # byte address in flash
    size: int  # bytes
    kind: SymbolKind = SymbolKind.FUNC

    @property
    def end(self) -> int:
        return self.address + self.size

    @property
    def word_address(self) -> int:
        """Flash word address (what call/jmp instructions encode)."""
        return self.address // 2


_MAGIC = b"MVRS"
_HEADER = struct.Struct("<4sI")
_ENTRY = struct.Struct("<IIB")


class SymbolTable:
    """Ordered collection of symbols with fast lookup by name and address."""

    def __init__(self, symbols: Iterable[Symbol] = ()) -> None:
        self._symbols: List[Symbol] = []
        self._by_name: Dict[str, Symbol] = {}
        # function symbols in address order, built on first use
        self._functions: Optional[List[Symbol]] = None
        for sym in symbols:
            self.add(sym)

    @staticmethod
    def deferred(build: Callable[[], Iterable[Symbol]]) -> "SymbolTable":
        """A table filled from ``build()`` on the first read of any symbol.

        A re-randomization describes every moved function anew, but the
        master only programs the bytes; the table is built when (if ever)
        something asks for a symbol.  It pickles as the plain table.
        """
        return _DeferredSymbolTable(build)

    def add(self, symbol: Symbol) -> None:
        if symbol.name in self._by_name:
            raise BinfmtError(f"duplicate symbol name: {symbol.name}")
        if symbol.size < 0 or symbol.address < 0:
            raise BinfmtError(f"negative address/size for symbol {symbol.name}")
        self._symbols.append(symbol)
        self._by_name[symbol.name] = symbol
        self._functions = None

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise BinfmtError(f"unknown symbol: {name}") from None

    def functions(self) -> List[Symbol]:
        """Function symbols in ascending address order (paper's block list)."""
        return list(self._function_order())

    def _function_order(self) -> List[Symbol]:
        if self._functions is None:
            func = SymbolKind.FUNC
            funcs = [s for s in self._symbols if s.kind is func]
            self._functions = sorted(funcs, key=attrgetter("address"))
        return self._functions

    def objects(self) -> List[Symbol]:
        obj = SymbolKind.OBJECT
        objs = [s for s in self._symbols if s.kind is obj]
        return sorted(objs, key=attrgetter("address"))

    def function_containing(self, byte_address: int) -> Optional[Symbol]:
        """The function whose block covers ``byte_address``, if any.

        The paper's switch-trampoline patching needs "the largest old symbol
        address that is less than or equal to the targeted address"; this is
        that binary search.
        """
        funcs = self._function_order()
        lo, hi = 0, len(funcs) - 1
        best: Optional[Symbol] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if funcs[mid].address <= byte_address:
                best = funcs[mid]
                lo = mid + 1
            else:
                hi = mid - 1
        if best is not None and byte_address < best.end:
            return best
        return None

    # -- serialization (the blob prepended to the HEX file) --------------

    def to_bytes(self) -> bytes:
        """Serialize to the compact blob format stored on external flash."""
        out = bytearray(_HEADER.pack(_MAGIC, len(self._symbols)))
        names = bytearray()
        for sym in self._symbols:
            raw = sym.name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise BinfmtError(f"symbol name too long: {sym.name[:32]}...")
            out += _ENTRY.pack(sym.address, sym.size, _kind_code(sym.kind))
            out += struct.pack("<H", len(raw))
            names += raw
        out += names
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SymbolTable":
        table, _consumed = cls.from_bytes_with_size(blob)
        return table

    @classmethod
    def from_bytes_with_size(cls, blob: bytes) -> Tuple["SymbolTable", int]:
        """Parse a table and report how many bytes it occupied.

        The consumed length lets containers append further sections (the
        relocation index) after the symbol blob.
        """
        if len(blob) < _HEADER.size:
            raise BinfmtError("symbol blob truncated (header)")
        magic, count = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise BinfmtError(f"bad symbol blob magic: {magic!r}")
        offset = _HEADER.size
        entries = []
        for _ in range(count):
            if offset + _ENTRY.size + 2 > len(blob):
                raise BinfmtError("symbol blob truncated (entry)")
            address, size, kind_code = _ENTRY.unpack_from(blob, offset)
            offset += _ENTRY.size
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            entries.append((address, size, kind_code, name_len))
        table = cls()
        for address, size, kind_code, name_len in entries:
            if offset + name_len > len(blob):
                raise BinfmtError("symbol blob truncated (names)")
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            table.add(Symbol(name, address, size, _kind_from_code(kind_code)))
        return table, offset

    def validate_tiling(self, text_start: int, text_end: int) -> None:
        """Check function blocks tile [text_start, text_end) without overlap.

        Raises :class:`BinfmtError` on gaps or overlaps — the precondition
        for randomization to be a clean permutation of blocks.
        """
        cursor = text_start
        for sym in self._function_order():
            if sym.address != cursor:
                raise BinfmtError(
                    f"function tiling broken at {sym.name}: expected "
                    f"0x{cursor:05x}, got 0x{sym.address:05x}"
                )
            cursor = sym.end
        if cursor != text_end:
            raise BinfmtError(
                f"function tiling does not cover .text: ends at 0x{cursor:05x}, "
                f"expected 0x{text_end:05x}"
            )


#: the attributes a :class:`SymbolTable` holds its symbols in
_TABLE_STATE = frozenset({"_symbols", "_by_name", "_functions"})


class _DeferredSymbolTable(SymbolTable):
    """A :class:`SymbolTable` whose state is built on first access.

    The table attributes stay unset until then, so the first read of any
    of them falls through to :meth:`__getattr__`, which fills the table;
    every later access is a plain attribute read.
    """

    def __init__(self, build: Callable[[], Iterable[Symbol]]) -> None:
        # the table state is deliberately left unset: see __getattr__
        self._build = build

    def __getattr__(self, name: str):
        if name not in _TABLE_STATE or "_build" not in self.__dict__:
            raise AttributeError(name)
        SymbolTable.__init__(self, self._build())
        del self._build
        return self.__dict__[name]

    def __reduce__(self):
        return SymbolTable, (list(self),)


def _kind_code(kind: SymbolKind) -> int:
    return 0 if kind is SymbolKind.FUNC else 1


def _kind_from_code(code: int) -> SymbolKind:
    if code == 0:
        return SymbolKind.FUNC
    if code == 1:
        return SymbolKind.OBJECT
    raise BinfmtError(f"unknown symbol kind code: {code}")
