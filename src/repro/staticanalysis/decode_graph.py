"""Shared decode graph over a code window.

Gadget candidates overlap almost completely: every byte offset of the
text section starts a window, and two windows one byte apart share all
but one decode.  Both the syntactic scan and the semantic prefilter
therefore work over a :class:`DecodeGraph` that decodes each offset of
the section exactly once and precomputes reachability facts on the
induced control-flow graph.  One reverse BFS computes them all:

* ``transfer_distances`` — per pair of walk rules (whether direct
  jumps/calls and the taken sides of conditional jumps are followed),
  the minimum number of executed instructions, counting the terminator,
  of any walk from each offset that ends at an indirect control
  transfer.  ``syntactic_scan`` rejects, without walking, every offset
  whose distance under its configured rules exceeds its step cap: its
  bounded DFS can only accept along a walk no longer than the cap.
* ``dist_to_transfer`` — the same table under the *symbolic executor's*
  rules (both kinds of edge followed, ``hlt``/decode-failure dead).  A
  candidate whose distance exceeds the window budget provably yields
  only DEAD paths under symbolic execution — the sound cull used by the
  semantic prefilter (see ``window.py`` for the argument).
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..isa.encoding import DecodeError, decode
from ..isa.instructions import Instruction, Op

#: Instructions that end a gadget usefully.
INDIRECT_ENDS = frozenset({Op.RET, Op.JMP_R, Op.JMP_M, Op.CALL_R, Op.SYSCALL})

#: Sentinel distance for "no transfer reachable".
UNREACHABLE = -1


@functools.lru_cache(maxsize=8)
def shared_decode_graph(code: bytes, base_addr: int) -> "DecodeGraph":
    """A process-wide cache of :class:`DecodeGraph` per (code, base).

    Decoding a section is the dominant fixed cost shared by gadget
    extraction, the syntactic census and every baseline scanner; tools
    that analyse the same image byte-for-byte (the Fig. 1 / Table 1
    comparisons run three tools over each build) should decode it once.
    Graphs are immutable apart from memoised reachability tables, so
    sharing cannot change any caller's results.  The small LRU bound
    keeps at most a handful of text sections alive.
    """
    return DecodeGraph(code, base_addr)


class DecodeGraph:
    """Decode cache + reachability tables for one (code, base) view."""

    def __init__(self, code: bytes, base_addr: int) -> None:
        self.code = code
        self.base_addr = base_addr
        n = len(code)
        insns: List[Optional[Instruction]] = [None] * n
        for offset in range(n):
            try:
                insns[offset] = decode(code, offset, addr=base_addr + offset)
            except DecodeError:
                pass
        self.insns = insns
        self._distances: Dict[Tuple[bool, bool], List[int]] = {}

    # -- decoding ---------------------------------------------------------

    def decode_at(self, offset: int) -> Optional[Instruction]:
        """The instruction decoded at ``offset``, or None."""
        if 0 <= offset < len(self.insns):
            return self.insns[offset]
        return None

    def decode_addr(self, addr: int) -> Optional[Instruction]:
        """Address-keyed variant of :meth:`decode_at`."""
        return self.decode_at(addr - self.base_addr)

    def addr_decode_cache(self) -> Dict[int, Optional[Instruction]]:
        """An address-keyed decode cache (SymbolicExecutor's format)."""
        return {self.base_addr + o: insn for o, insn in enumerate(self.insns)}

    # -- distance to an indirect transfer ---------------------------------

    def transfer_distances(
        self, *, merge_direct_jumps: bool, include_conditional: bool
    ) -> List[int]:
        """Min executed-instruction count to an indirect transfer, per offset.

        Walks follow the fall-through of every non-terminator, direct
        jumps/calls only when ``merge_direct_jumps``, and the taken side
        of a conditional jump only when ``include_conditional``;
        terminators, ``hlt`` and decode failures have no successors.
        ``dist[o] == 1`` means the instruction at ``o`` *is* a transfer;
        ``dist[o] == k`` means the shortest walk executes ``k``
        instructions ending at one; :data:`UNREACHABLE` means no walk
        exists.  Computed once per rule set by reverse BFS (unit edge
        weights).
        """
        key = (merge_direct_jumps, include_conditional)
        cached = self._distances.get(key)
        if cached is not None:
            return cached
        n = len(self.insns)
        preds: List[List[int]] = [[] for _ in range(n)]
        queue: deque = deque()
        dist = [UNREACHABLE] * n
        base = self.base_addr
        for offset in range(n):
            insn = self.insns[offset]
            if insn is None or insn.op == Op.HLT:
                continue
            if insn.op in INDIRECT_ENDS:
                dist[offset] = 1
                queue.append(offset)
                continue
            if insn.op in (Op.JMP_REL, Op.CALL_REL):
                succs = [insn.target - base] if merge_direct_jumps else []
            elif insn.is_cond_jump() and include_conditional:
                succs = [insn.target - base, insn.end - base]
            else:
                succs = [insn.end - base]
            for succ in succs:
                if 0 <= succ < n:
                    preds[succ].append(offset)
        while queue:
            offset = queue.popleft()
            d = dist[offset] + 1
            for pred in preds[offset]:
                if dist[pred] == UNREACHABLE:
                    dist[pred] = d
                    queue.append(pred)
        self._distances[key] = dist
        return dist

    @property
    def dist_to_transfer(self) -> List[int]:
        """:meth:`transfer_distances` under the *symbolic executor's*
        successor rules: direct jumps/calls always followed and both
        sides of every conditional jump explored.

        This over-approximates the executor, which may statically
        resolve a conditional jump to one side and has a fork budget.
        """
        return self.transfer_distances(merge_direct_jumps=True, include_conditional=True)

    def reaches_transfer_within(self, offset: int, budget: int) -> bool:
        """Can *any* executor walk from ``offset`` end at an indirect
        transfer while executing at most ``budget`` instructions?

        False here is a proof that symbolic execution with
        ``max_insns == budget`` produces only DEAD paths from
        ``offset``: every symbolic path follows one of the walks this
        graph over-approximates, and each executed instruction
        (including merged direct jumps) consumes one unit of the
        executor's length budget.
        """
        if not 0 <= offset < len(self.insns):
            return False
        d = self.dist_to_transfer[offset]
        return d != UNREACHABLE and d <= budget
