"""Paged sparse memory with permissions for the concrete emulator."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

PAGE_SIZE = 0x1000
PAGE_MASK = ~(PAGE_SIZE - 1)
_OFFSET_MASK = PAGE_SIZE - 1
_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")

PERM_R = 1
PERM_W = 2
PERM_X = 4


class MemoryFault(Exception):
    """A memory access violation (unmapped or permission mismatch)."""

    def __init__(self, addr: int, kind: str):
        super().__init__(f"memory fault: {kind} at {addr:#x}")
        self.addr = addr
        self.kind = kind


@dataclass
class Region:
    """A mapped region, for introspection via :meth:`Memory.mappings`."""

    start: int
    size: int
    perms: int

    @property
    def end(self) -> int:
        return self.start + self.size


class Memory:
    """Sparse paged memory.

    Pages are allocated lazily inside mapped regions.  Permissions are
    tracked per page so that ``mprotect`` can flip individual pages —
    the behaviour the mprotect attack goal depends on.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._perms: Dict[int, int] = {}
        self._regions: List[Region] = []
        #: Bumped whenever a write lands in an executable page and
        #: whenever a page's execute permission changes; the emulator
        #: drops its decoded-instruction cache when it moves
        #: (self-modifying code, mprotect).
        self.exec_write_gen = 0

    def _set_perms(self, page: int, perms: int) -> None:
        old = self._perms.get(page)
        if old is not None and (old ^ perms) & PERM_X:
            self.exec_write_gen += 1
        self._perms[page] = perms

    def map(self, start: int, size: int, perms: int) -> None:
        """Map ``[start, start+size)`` with the given permissions."""
        if size <= 0:
            raise ValueError("mapping size must be positive")
        first = start & PAGE_MASK
        last = (start + size - 1) & PAGE_MASK
        page = first
        while page <= last:
            self._set_perms(page, perms)
            page += PAGE_SIZE
        self._regions.append(Region(start=start, size=size, perms=perms))

    def protect(self, start: int, size: int, perms: int) -> None:
        """Change permissions on already-mapped pages (mprotect)."""
        first = start & PAGE_MASK
        last = (start + size - 1) & PAGE_MASK
        page = first
        while page <= last:
            if page not in self._perms:
                raise MemoryFault(page, "mprotect of unmapped page")
            self._set_perms(page, perms)
            page += PAGE_SIZE

    def mappings(self) -> Tuple[Region, ...]:
        return tuple(self._regions)

    def is_mapped(self, addr: int) -> bool:
        return (addr & PAGE_MASK) in self._perms

    def perms_at(self, addr: int) -> int:
        return self._perms.get(addr & PAGE_MASK, 0)

    def readable_run(self, addr: int, limit: int) -> int:
        """Contiguous readable bytes starting at ``addr``, capped at
        ``limit``.

        Walks page permissions only — never allocates or copies — so a
        guest-supplied multi-GiB ``limit`` costs O(mapped pages), not
        O(limit).  Syscall models use this to clamp guest-controlled
        lengths to what is actually mapped (partial-I/O semantics).
        """
        if limit <= 0:
            return 0
        run = 0
        page = addr & PAGE_MASK
        while self._perms.get(page, 0) & PERM_R:
            run = min(limit, page + PAGE_SIZE - addr)
            if run == limit:
                break
            page += PAGE_SIZE
        return run

    def _page_for(self, addr: int, needed: int, kind: str) -> bytearray:
        page_addr = addr & PAGE_MASK
        perms = self._perms.get(page_addr)
        if perms is None:
            raise MemoryFault(addr, f"{kind} of unmapped memory")
        if perms & needed != needed:
            raise MemoryFault(addr, f"{kind} permission denied")
        page = self._pages.get(page_addr)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_addr] = page
        return page

    # -- byte-level primitives --------------------------------------------

    def read(self, addr: int, size: int, *, execute: bool = False) -> bytes:
        needed = PERM_X if execute else PERM_R
        kind = "execute" if execute else "read"
        out = bytearray()
        remaining = size
        cursor = addr
        while remaining > 0:
            page = self._page_for(cursor, needed, kind)
            off = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - off)
            out += page[off : off + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        remaining = len(data)
        cursor = addr
        src = 0
        while remaining > 0:
            page = self._page_for(cursor, PERM_W, "write")
            if self._perms.get(cursor & PAGE_MASK, 0) & PERM_X:
                self.exec_write_gen += 1
            off = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - off)
            page[off : off + take] = data[src : src + take]
            cursor += take
            src += take
            remaining -= take

    def write_initial(self, addr: int, data: bytes) -> None:
        """Populate memory ignoring the W permission (image loading)."""
        remaining = len(data)
        cursor = addr
        src = 0
        while remaining > 0:
            page_addr = cursor & PAGE_MASK
            if page_addr not in self._perms:
                raise MemoryFault(cursor, "load into unmapped memory")
            page = self._pages.setdefault(page_addr, bytearray(PAGE_SIZE))
            off = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - off)
            page[off : off + take] = data[src : src + take]
            cursor += take
            src += take
            remaining -= take

    # -- typed accessors ----------------------------------------------------
    #
    # Each accessor first tries an access that stays inside one page that
    # is already allocated and has the permission it needs; anything else
    # (a page-crossing access, a fault, a first touch) goes through
    # read/write, which raise the faults and allocate pages.

    def read_u64(self, addr: int) -> int:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 8:
            page = self._pages.get(addr - off)
            if page is not None and self._perms.get(addr - off, 0) & PERM_R:
                return _U64.unpack_from(page, off)[0]
        return _U64.unpack(self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        off = addr & _OFFSET_MASK
        if off <= PAGE_SIZE - 8:
            page = self._pages.get(addr - off)
            if page is not None:
                perms = self._perms.get(addr - off, 0)
                if perms & PERM_W:
                    if perms & PERM_X:
                        self.exec_write_gen += 1
                    _U64.pack_into(page, off, value & _MASK64)
                    return
        self.write(addr, _U64.pack(value & _MASK64))

    def read_u8(self, addr: int) -> int:
        off = addr & _OFFSET_MASK
        page = self._pages.get(addr - off)
        if page is not None and self._perms.get(addr - off, 0) & PERM_R:
            return page[off]
        return self.read(addr, 1)[0]

    def write_u8(self, addr: int, value: int) -> None:
        off = addr & _OFFSET_MASK
        page = self._pages.get(addr - off)
        if page is not None:
            perms = self._perms.get(addr - off, 0)
            if perms & PERM_W:
                if perms & PERM_X:
                    self.exec_write_gen += 1
                page[off] = value & 0xFF
                return
        self.write(addr, bytes([value & 0xFF]))

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        for i in range(max_len):
            b = self.read_u8(addr + i)
            if b == 0:
                return bytes(out)
            out.append(b)
        raise MemoryFault(addr, "unterminated string")
