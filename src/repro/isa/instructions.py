"""Instruction definitions for the mini PTX-like ISA."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace

from .operands import (
    DeqToken,
    MemRef,
    Operand,
    PredReg,
    Register,
)


class Opcode(enum.Enum):
    """All opcodes understood by the simulator.

    The set mirrors the subset of PTX used by the paper's examples (Fig. 4b,
    Fig. 7) plus the additional affine-eligible operations called out in
    §3/§4.4/§4.6 (``mod``, ``min``, ``max``, ``abs``).
    """

    # Data movement / ALU.
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"          # d = a * b + c
    DIV = "div"
    REM = "rem"          # modulo; affine mod-type tuples, paper §4.4
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    SELP = "selp"        # d = p ? a : b
    # Transcendental-ish ops (modeled on the SFU pipe, never affine).
    RCP = "rcp"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    # Predicate computation.
    SETP = "setp"
    # Control flow.
    BRA = "bra"
    BAR = "bar"
    EXIT = "exit"
    # Memory.
    LD = "ld"
    ST = "st"
    ATOM = "atom"        # atomic add; models histogram-style scatter updates
    # DAC enqueue forms (affine stream only; paper Fig. 7a).
    ENQ_DATA = "enq.data"
    ENQ_ADDR = "enq.addr"
    ENQ_PRED = "enq.pred"


class CmpOp(enum.Enum):
    """Comparison operators for ``setp``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class MemSpace(enum.Enum):
    """Memory spaces.  ``GLOBAL`` and ``LOCAL`` traverse the cache hierarchy
    and are the spaces the AEU prefetches (paper §4.2); ``SHARED`` is on-chip
    scratchpad with fixed latency."""

    GLOBAL = "global"
    LOCAL = "local"
    SHARED = "shared"


#: Simple two-source ALU ops with an affine-tuple evaluation rule.
ALU_BINARY = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.MIN, Opcode.MAX, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.SHR,
}

ALU_UNARY = {Opcode.MOV, Opcode.ABS, Opcode.NEG, Opcode.NOT}

SFU_OPS = {Opcode.RCP, Opcode.SQRT, Opcode.EXP, Opcode.LOG, Opcode.SIN,
           Opcode.COS}

#: Opcodes that affine computation supports at all (paper §3 Eq. 2-3 plus the
#: §4.4/§4.6 extensions).  ``setp`` is affine-eligible as a predicate
#: computation; SFU and atomic ops never are.
AFFINE_CAPABLE_OPS = (
    ALU_BINARY | ALU_UNARY | {Opcode.MAD, Opcode.SELP, Opcode.SETP}
) - {Opcode.DIV}

#: Subset handled by the prior-work CAE baseline (Kim et al. [13]): basic
#: linear ops only — no mod, min/max/abs divergence-folding extensions.
CAE_CAPABLE_OPS = {
    Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MAD,
    Opcode.SHL, Opcode.SHR, Opcode.SETP,
}

ENQ_OPS = {Opcode.ENQ_DATA, Opcode.ENQ_ADDR, Opcode.ENQ_PRED}

_id_counter = itertools.count()


@dataclass
class Instruction:
    """One machine instruction.

    ``guard``/``guard_negated`` implement predicated execution (``@p0`` /
    ``@!p0``).  A guard of a :class:`DeqToken` with kind ``pred`` is the
    decoupled form ``@deq.pred bra`` from paper Fig. 7b.
    """

    opcode: Opcode
    dsts: tuple[Operand, ...] = ()
    srcs: tuple[Operand, ...] = ()
    guard: PredReg | DeqToken | None = None
    guard_negated: bool = False
    cmp: CmpOp | None = None
    space: MemSpace | None = None
    target: str | None = None          # branch target label
    dtype: str = "s32"                 # cosmetic type suffix
    queue_id: int | None = None        # enq: matching deq queue (DAC)
    source_line: int | None = None     # 1-based line in the assembly source
    uid: int = field(default_factory=lambda: next(_id_counter))

    # ---- classification helpers -------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @property
    def is_barrier(self) -> bool:
        return self.opcode is Opcode.BAR

    @property
    def is_exit(self) -> bool:
        return self.opcode is Opcode.EXIT

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LD

    @property
    def is_store(self) -> bool:
        return self.opcode in (Opcode.ST, Opcode.ATOM)

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LD, Opcode.ST, Opcode.ATOM)

    @property
    def is_enq(self) -> bool:
        return self.opcode in ENQ_OPS

    @property
    def is_sfu(self) -> bool:
        return self.opcode in SFU_OPS

    @property
    def category(self) -> str:
        """Coarse category used by Fig. 6: arithmetic / memory / branch."""
        if self.is_memory:
            return "memory"
        if self.opcode in (Opcode.BRA, Opcode.SETP, Opcode.BAR, Opcode.EXIT):
            return "branch"
        return "arithmetic"

    def mem_ref(self) -> MemRef | None:
        """The memory reference of a load/store, if any."""
        for op in self.srcs + self.dsts:
            if isinstance(op, MemRef):
                return op
        return None

    # ---- dataflow helpers -------------------------------------------

    def reads(self) -> tuple[Operand, ...]:
        """Every operand whose value this instruction consumes, with MemRef
        unwrapped to its address operand."""
        out: list[Operand] = []
        for op in self.srcs:
            if isinstance(op, MemRef):
                out.append(op.address)
            else:
                out.append(op)
        for op in self.dsts:
            if isinstance(op, MemRef):    # store address is a *read*
                out.append(op.address)
        if isinstance(self.guard, PredReg):
            out.append(self.guard)
        return tuple(out)

    def read_regs(self) -> tuple[Register | PredReg, ...]:
        return tuple(op for op in self.reads()
                     if isinstance(op, (Register, PredReg)))

    def written_regs(self) -> tuple[Register | PredReg, ...]:
        return tuple(op for op in self.dsts
                     if isinstance(op, (Register, PredReg)))

    # ---- printing -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            neg = "!" if self.guard_negated else ""
            parts.append(f"@{neg}{self.guard}")
        op = self.opcode.value
        if self.cmp is not None:
            op += f".{self.cmp.value}"
        if self.space is not None:
            op += f".{self.space.value}"
        parts.append(op)
        operand_strs = [str(o) for o in self.dsts + self.srcs]
        if self.target is not None:
            operand_strs.append(self.target)
        head = " ".join(parts)
        if operand_strs:
            return f"{head} {', '.join(operand_strs)};"
        return f"{head};"

    def __repr__(self) -> str:
        loc = "" if self.source_line is None else f", line={self.source_line}"
        return f"Instruction({str(self)!r}{loc})"

    def clone(self, **changes) -> "Instruction":
        """Copy with a fresh uid (and optional field overrides)."""
        changes.setdefault("uid", next(_id_counter))
        return replace(self, **changes)


class Decoded:
    """Statically decoded issue-path facts for one :class:`Instruction`.

    The timing models consult instruction classification on every dynamic
    issue attempt; deriving it from the operand tuples each time allocates
    and branches in the hottest loop of the simulator.  A ``Decoded`` record
    is computed once per static instruction and carries plain attributes the
    issue path reads directly.  It holds no dynamic state, so one record per
    kernel serves every warp and every SM.
    """

    __slots__ = (
        "inst", "opcode", "scoreboard", "nregs", "stat_key", "counts_alu",
        "is_sfu", "is_exit", "is_barrier", "is_branch", "is_memory",
        "is_load", "is_shared", "is_enq", "needs_lsu", "mem_ref",
        "guard_pred", "guard_negated", "deq_token", "deq_kind", "dst_name",
        "affine_stat_key",
    )

    def __init__(self, inst: Instruction):
        self.inst = inst
        self.opcode = inst.opcode
        names: list[str] = []
        for op in inst.read_regs() + inst.written_regs():
            if op.name not in names:
                names.append(op.name)
        self.scoreboard = tuple(names)
        self.nregs = len(inst.read_regs()) + len(inst.written_regs())
        category = inst.category
        self.stat_key = "inst." + category
        self.affine_stat_key = "affine_inst." + category
        self.counts_alu = (category == "arithmetic"
                           or inst.opcode is Opcode.SETP)
        self.is_sfu = inst.is_sfu
        self.is_exit = inst.is_exit
        self.is_barrier = inst.is_barrier
        self.is_branch = inst.is_branch
        self.is_memory = inst.is_memory
        self.is_load = inst.is_load
        self.is_shared = inst.space is MemSpace.SHARED
        self.is_enq = inst.is_enq
        self.needs_lsu = self.is_memory and not self.is_shared
        self.mem_ref = inst.mem_ref()
        self.guard_pred = inst.guard if isinstance(inst.guard, PredReg) \
            else None
        self.guard_negated = inst.guard_negated
        token = None
        for op in inst.srcs + inst.dsts:
            if isinstance(op, DeqToken):
                token = op
                break
        if token is None and isinstance(inst.guard, DeqToken):
            token = inst.guard
        self.deq_token = token
        self.deq_kind = token.kind if token is not None else None
        self.dst_name = inst.dsts[0].name \
            if inst.dsts and isinstance(inst.dsts[0], (Register, PredReg)) \
            else None

    def __repr__(self) -> str:
        return f"Decoded({self.inst!r})"


def decoded_of(kernel) -> list[Decoded]:
    """The kernel's decode cache, aligned with ``kernel.instructions``.

    Attached to the kernel object itself (kernels are unhashable dataclass
    instances, so an external ``id()``-keyed map would risk stale hits after
    garbage collection — the same defect the CFG cache had).  The cache is
    invalidated when the instruction list is replaced or resized.
    """
    cached = getattr(kernel, "_decoded", None)
    if cached is not None and cached[0] is kernel.instructions \
            and len(cached[1]) == len(kernel.instructions):
        return cached[1]
    code = [Decoded(inst) for inst in kernel.instructions]
    kernel._decoded = (kernel.instructions, code)
    return code


def _operand_counts(opcode: Opcode) -> tuple[int, int]:
    """(num_dsts, num_srcs) for validation."""
    if opcode in ALU_BINARY:
        return 1, 2
    if opcode in ALU_UNARY or opcode in SFU_OPS:
        return 1, 1
    if opcode is Opcode.MAD:
        return 1, 3
    if opcode is Opcode.SELP:
        return 1, 3
    if opcode is Opcode.SETP:
        return 1, 2
    if opcode is Opcode.LD:
        return 1, 1
    if opcode in (Opcode.ST, Opcode.ATOM):
        return 1, 1     # dst = memref, src = value
    if opcode in ENQ_OPS:
        return 0, 1
    return 0, 0


def validate(inst: Instruction) -> None:
    """Raise ``ValueError`` if the instruction is malformed."""
    ndst, nsrc = _operand_counts(inst.opcode)
    if len(inst.dsts) != ndst or len(inst.srcs) != nsrc:
        raise ValueError(
            f"{inst.opcode.value} expects {ndst} dst / {nsrc} src operands, "
            f"got {len(inst.dsts)} / {len(inst.srcs)}: {inst}")
    if inst.opcode is Opcode.SETP and inst.cmp is None:
        raise ValueError(f"setp requires a comparison modifier: {inst}")
    if inst.opcode is Opcode.BRA and inst.target is None:
        raise ValueError(f"bra requires a target label: {inst}")
    if inst.is_memory and inst.space is None:
        raise ValueError(f"memory op requires a space modifier: {inst}")
    if inst.opcode is Opcode.LD and not isinstance(inst.srcs[0],
                                                   (MemRef, DeqToken)):
        raise ValueError(f"ld source must be a memory reference: {inst}")
    if inst.opcode in (Opcode.ST, Opcode.ATOM) and not isinstance(
            inst.dsts[0], (MemRef, DeqToken)):
        raise ValueError(f"st destination must be a memory reference: {inst}")
