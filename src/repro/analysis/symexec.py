"""Symbolic evaluation of kernels over an affine closed-form domain.

The certifier (:mod:`repro.analysis.certify`) needs, for every instruction
of a kernel, a *closed form* of each operand as a function of the launch
geometry: thread indices, CTA indices, kernel parameters, and — inside
loops — a per-iteration induction variable.  This module provides that
evaluator.  The domain is deliberately **more expressive** than the
compiler's affine-tuple lattice (:mod:`repro.affine`), so the certifier
can decide equivalence for everything the decoupler emits and degrade to
*unproven* (never to a false proof) for everything else:

* **Polynomials over symbols** — canonical multivariate polynomials with
  float coefficients over the symbols ``tid.x/y/z`` (thread-divergent),
  ``ctaid.* / ntid.* / nctaid.*`` and ``param:<name>`` (launch-uniform),
  and ``iter:<label>`` (the 0-based iteration index of the loop headed at
  ``<label>``).  Add/sub/mul/mad/shl-by-constant normalize here, so two
  differently-associated computations of the same affine address compare
  equal.
* **Uninterpreted atoms** — every operation without a polynomial rule
  (``rem``, ``min``/``max``/``abs``, bitwise, ``selp``, SFU, overflowing
  products, control-flow merges, loop trip counts) becomes an
  :class:`Atom`: a pure function of its canonicalized arguments.  Two
  atoms are equal iff their kinds and arguments are equal (congruence),
  which is sound because each listed kind is a deterministic function of
  its arguments.  The exceptions — ``load``, ``deq``, and ``opaque``
  (widening failure) — depend on state *outside* their arguments, so the
  certifier refuses to base a proof on them
  (:func:`uncertifiable_kinds`).
* **Loop widening** — at each natural-loop head, a register's value is
  checked for stability under ``n -> n+1`` substitution; a changed value
  is widened to the linear closed form ``v0 + n*delta`` when the
  per-iteration delta is ``n``-free, and collapses to an ``opaque`` atom
  otherwise.  Loop-exit edges substitute ``n := trip - 1``; the trip
  count resolves to a constant for constant bounds and to an
  ``exitcount`` atom (keyed by the loop's canonical continue condition —
  so two streams agree iff their loop predicates agree) otherwise.

Closed forms are *per-thread*: guarded writes and control-flow joins fold
into ``sel`` / ``merge`` atoms over canonical predicates, mirroring the
runtime's guarded tuple sets.  :func:`concretize` evaluates a closed form
at concrete ``(tid, ctaid, param)`` points with the exact datapath
semantics of :mod:`repro.sim.executor`, which is what the property tests
pin the whole domain against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.cfg import CFG
from ..isa import (
    CmpOp,
    DeqToken,
    Immediate,
    Instruction,
    Kernel,
    MemRef,
    Opcode,
    Param,
    PredReg,
    Register,
    SpecialReg,
)
from ..isa.operands import SPECIAL_FAMILIES
from ..sim.executor import CMP_FUNCS, _shift, _to_int
from ..sim.executor import alu as _concrete_alu

#: Hard caps keeping polynomial products bounded; past these a product
#: falls back to an uninterpreted ``mul`` atom (still sound).
_MAX_TERMS = 128
_MAX_DEGREE = 8

#: Numeric trip-count resolution gives up past this many iterations.
_MAX_TRIP = 1 << 20

#: A widening slot may refine its guess this many times before collapsing
#: to an ``opaque`` atom (guesses stack when inner induction variables are
#: themselves still converging).
_MAX_WIDENINGS = 4


class NotConcretizable(ValueError):
    """A closed form references state concretization cannot supply
    (memory contents, queue state, or a widening-failure placeholder)."""


# ---------------------------------------------------------------------------
# Canonical ordering of heterogeneous domain objects.
# ---------------------------------------------------------------------------

def _key(x):
    """Total order over every object the domain embeds in monomials,
    atom arguments, and merge alternatives."""
    if isinstance(x, SymExpr):
        return ("E", x.key())
    if isinstance(x, Pred):
        return ("P", x.key())
    if isinstance(x, Atom):
        return ("A", x.key())
    if isinstance(x, frozenset):
        return ("F", tuple(sorted(_key(e) for e in x)))
    if isinstance(x, tuple):
        return ("T", tuple(_key(e) for e in x))
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, (int, float)):
        return ("n", float(x))
    if isinstance(x, CmpOp):
        return ("c", x.value)
    return ("s", str(x))


def _mono_key(mono: tuple) -> tuple:
    return tuple(_key(s) for s in mono)


# ---------------------------------------------------------------------------
# Atoms: uninterpreted pure functions of canonical arguments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """An uninterpreted term.  Congruence (same kind, same args -> same
    value) is sound for every kind except ``load``/``deq``/``opaque``,
    which close over state outside their arguments."""

    kind: str
    args: tuple

    def key(self):
        return (self.kind, tuple(_key(a) for a in self.args))

    def __repr__(self) -> str:
        return f"{self.kind}({', '.join(map(repr, self.args))})"


# ---------------------------------------------------------------------------
# Polynomials.
# ---------------------------------------------------------------------------

class SymExpr:
    """Canonical multivariate polynomial: ``terms`` is a sorted tuple of
    ``(monomial, coefficient)`` with each monomial a sorted tuple of
    symbols (strings) and :class:`Atom` instances."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple):
        self.terms = terms
        self._hash = hash(terms)

    # -- canonical identity ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    def key(self):
        return tuple((_mono_key(m), c) for m, c in self.terms)

    # -- inspection --------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0] == ())

    @property
    def const_value(self) -> float:
        if not self.terms:
            return 0.0
        return self.terms[0][1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SymExpr") -> "SymExpr":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, 0.0) + c
        return _make(d)

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        return self + (-other)

    def __neg__(self) -> "SymExpr":
        return SymExpr(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "SymExpr") -> "SymExpr":
        d: dict[tuple, float] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(sorted(m1 + m2, key=_key))
                if len(m) > _MAX_DEGREE:
                    return atom_expr("mul", _sorted_pair(self, other))
                d[m] = d.get(m, 0.0) + c1 * c2
        if len(d) > _MAX_TERMS:
            return atom_expr("mul", _sorted_pair(self, other))
        return _make(d)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            if not m:
                parts.append(f"{c:g}")
            else:
                mono = "*".join(str(s) for s in m)
                parts.append(mono if c == 1.0 else f"{c:g}*{mono}")
        return " + ".join(parts)


def _make(d: dict[tuple, float]) -> SymExpr:
    items = [(m, c) for m, c in d.items() if c != 0.0]
    items.sort(key=lambda mc: _mono_key(mc[0]))
    return SymExpr(tuple(items))


def const(v) -> SymExpr:
    v = float(v)
    return SymExpr((((), v),)) if v != 0.0 else ZERO


def symbol(name: str) -> SymExpr:
    return SymExpr((((name,), 1.0),))


def from_atom(atom: Atom) -> SymExpr:
    return SymExpr((((atom,), 1.0),))


def atom_expr(kind: str, args: tuple) -> SymExpr:
    return from_atom(Atom(kind, args))


def _sorted_pair(a, b) -> tuple:
    return tuple(sorted((a, b), key=_key))


ZERO = SymExpr(())
ONE = SymExpr((((), 1.0),))


# ---------------------------------------------------------------------------
# Predicates.
# ---------------------------------------------------------------------------

_NEG_CMP = {
    CmpOp.EQ: CmpOp.NE, CmpOp.NE: CmpOp.EQ,
    CmpOp.LT: CmpOp.GE, CmpOp.GE: CmpOp.LT,
    CmpOp.GT: CmpOp.LE, CmpOp.LE: CmpOp.GT,
}

_CMP_PY = {
    CmpOp.EQ: lambda a, b: a == b, CmpOp.NE: lambda a, b: a != b,
    CmpOp.LT: lambda a, b: a < b, CmpOp.LE: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b, CmpOp.GE: lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Pred:
    """A canonical symbolic predicate.

    Kinds: ``cmp`` ``(CmpOp, lhs, rhs)``; ``const`` ``(bool,)``;
    ``sel`` ``(cond, then, else)``; ``merge`` ``(alternatives,)``;
    ``opaque`` (unprovable — e.g. a loop-carried predicate that failed
    widening, or a formal negation of one)."""

    kind: str
    payload: tuple

    def key(self):
        return (self.kind, tuple(_key(p) for p in self.payload))

    def __repr__(self) -> str:
        if self.kind == "cmp":
            op, l, r = self.payload
            return f"({l!r} {op.value} {r!r})"
        if self.kind == "const":
            return str(self.payload[0])
        return f"{self.kind}{self.payload!r}"


TRUE = Pred("const", (True,))
FALSE = Pred("const", (False,))


def cmp_pred(op: CmpOp, lhs: SymExpr, rhs: SymExpr) -> Pred:
    if lhs.is_const and rhs.is_const:
        return TRUE if _CMP_PY[op](lhs.const_value, rhs.const_value) \
            else FALSE
    if lhs == rhs:
        if op in (CmpOp.EQ, CmpOp.LE, CmpOp.GE):
            return TRUE
        return FALSE
    if op in (CmpOp.EQ, CmpOp.NE) and _key(rhs) < _key(lhs):
        lhs, rhs = rhs, lhs
    return Pred("cmp", (op, lhs, rhs))


def negate(p: Pred) -> Pred:
    if p.kind == "cmp":
        op, lhs, rhs = p.payload
        return Pred("cmp", (_NEG_CMP[op], lhs, rhs))
    if p.kind == "const":
        return FALSE if p.payload[0] else TRUE
    if p.kind == "sel":
        cond, a, b = p.payload
        return sel_pred(cond, negate(a), negate(b))
    if p.kind == "opaque" and p.payload and p.payload[0] == "not":
        return p.payload[1]
    return Pred("opaque", ("not", p))


def sel_pred(cond: Pred, a: Pred, b: Pred) -> Pred:
    if a == b:
        return a
    if cond.kind == "const":
        return a if cond.payload[0] else b
    return Pred("sel", (cond, a, b))


# ---------------------------------------------------------------------------
# Recursive walkers: atom collection, divergence, substitution.
# ---------------------------------------------------------------------------

def _walk_atoms(x, out: list) -> None:
    if isinstance(x, SymExpr):
        for m, _ in x.terms:
            for s in m:
                if isinstance(s, Atom):
                    _walk_atoms(s, out)
    elif isinstance(x, Atom):
        out.append(x)
        for a in x.args:
            _walk_atoms(a, out)
    elif isinstance(x, Pred):
        if x.kind == "opaque":
            out.append(Atom("opaque", x.payload))
        for a in x.payload:
            _walk_atoms(a, out)
    elif isinstance(x, (tuple, frozenset)):
        for a in x:
            _walk_atoms(a, out)


def atoms_of(x) -> list[Atom]:
    out: list[Atom] = []
    _walk_atoms(x, out)
    return out


#: Atom kinds that are *not* pure functions of their arguments, hence not
#: usable in an equivalence proof.
UNCERTIFIABLE_KINDS = frozenset({"load", "deq", "opaque"})


def uncertifiable_kinds(x) -> set[str]:
    """The subset of :data:`UNCERTIFIABLE_KINDS` appearing anywhere in a
    closed form (empty set -> the form is proof-grade)."""
    return {a.kind for a in atoms_of(x)} & UNCERTIFIABLE_KINDS


def _symbols_of(x, out: set) -> None:
    if isinstance(x, SymExpr):
        for m, _ in x.terms:
            for s in m:
                if isinstance(s, Atom):
                    _symbols_of(s, out)
                else:
                    out.add(s)
    elif isinstance(x, Atom):
        for a in x.args:
            _symbols_of(a, out)
    elif isinstance(x, Pred):
        for a in x.payload:
            _symbols_of(a, out)
    elif isinstance(x, (tuple, frozenset)):
        for a in x:
            _symbols_of(a, out)


def symbols_of(x) -> set[str]:
    out: set[str] = set()
    _symbols_of(x, out)
    return out


#: ``opaque`` placeholders that stand for a value of one loop, whose head
#: label is their second argument: a register or predicate that defeated
#: widening, the iteration a mid-loop break leaves at, an unbounded count.
LOOP_PLACEHOLDERS = frozenset({"loop", "break", "infinite-loop"})


def is_thread_varying(x, uniform_loops=frozenset()) -> bool:
    """May two threads of one CTA see different values of the closed form?

    Yes when it mentions a ``tid.*`` symbol, a ``deq`` atom (each thread
    dequeues its own entry) or an ``opaque`` atom, whose arguments do not
    record what the placeholder depends on.  A loop's placeholder is
    exempt when the loop is in ``uniform_loops``
    (:attr:`SymbolicKernel.uniform_loops`), and the formal negation
    ``opaque("not", p)`` is exempt because ``p`` is walked in its own
    right.  A ``load`` at a thread-invariant address is invariant, under
    the no-race assumption the race pass checks separately."""
    if any(s.startswith("tid.") for s in symbols_of(x)):
        return True
    for a in atoms_of(x):
        if a.kind == "deq":
            return True
        if a.kind != "opaque" or a.args[0] == "not":
            continue
        if a.args[0] not in LOOP_PLACEHOLDERS \
                or a.args[1] not in uniform_loops:
            return True
    return False


def linear_form(expr: SymExpr, bindings: dict[str, float]
                ) -> tuple[float, dict[str, float]] | None:
    """The degree-<=1 fragment: ``expr`` as ``(const, {symbol: coeff})``
    once the symbols in ``bindings`` (launch constants such as
    ``ntid.x``) are replaced by their values.  ``None`` when a term keeps
    a product of free symbols, a loop ``iter:`` symbol, or an atom other
    than ``shl(x, k)`` of a linear ``x`` by a constant ``k``, which on the
    integer addresses the passes reason about is ``x * 2**k``."""
    offset = 0.0
    coeffs: dict[str, float] = {}
    for mono, coeff in expr.terms:
        if len(mono) == 1 and isinstance(mono[0], Atom):
            atom = mono[0]
            k = atom.args[1] if atom.kind == "shl" else None
            if k is None or not k.is_const or k.const_value not in range(64):
                return None
            inner = linear_form(atom.args[0], bindings)
            if inner is None:
                return None
            coeff *= 2.0 ** k.const_value
            offset += coeff * inner[0]
            for s, c in inner[1].items():
                coeffs[s] = coeffs.get(s, 0.0) + coeff * c
            continue
        free = []
        for s in mono:
            if isinstance(s, Atom) or s.startswith("iter:"):
                return None
            if s in bindings:
                coeff *= bindings[s]
            else:
                free.append(s)
        if len(free) > 1:
            return None
        if free:
            coeffs[free[0]] = coeffs.get(free[0], 0.0) + coeff
        else:
            offset += coeff
    return offset, {s: c for s, c in coeffs.items() if c != 0.0}


def subst(x, name: str, repl: SymExpr):
    """Substitute symbol ``name`` by ``repl`` everywhere in ``x`` (an
    expression, predicate, atom, or container), re-canonicalizing.
    ``exitcount`` atoms bind their own iteration symbol and are skipped
    for it."""
    if isinstance(x, SymExpr):
        out = ZERO
        for m, c in x.terms:
            factor = const(c)
            for s in m:
                if s == name:
                    factor = factor * repl
                elif isinstance(s, Atom):
                    factor = factor * from_atom(subst(s, name, repl))
                else:
                    factor = factor * symbol(s)
        # NB: the loop above loses the c==0 case only when terms is
        # empty; const(0) * anything handles the rest.
            out = out + factor
        return out
    if isinstance(x, Atom):
        if x.kind == "exitcount" and len(x.args) >= 2 and x.args[1] == name:
            return x
        return Atom(x.kind, tuple(subst(a, name, repl) for a in x.args))
    if isinstance(x, Pred):
        if x.kind == "cmp":
            op, lhs, rhs = x.payload
            return cmp_pred(op, subst(lhs, name, repl),
                            subst(rhs, name, repl))
        if x.kind == "sel":
            cond, a, b = x.payload
            return sel_pred(subst(cond, name, repl),
                            subst(a, name, repl), subst(b, name, repl))
        if x.kind == "const":
            return x
        return Pred(x.kind, tuple(subst(a, name, repl) for a in x.payload))
    if isinstance(x, frozenset):
        return frozenset(subst(a, name, repl) for a in x)
    if isinstance(x, tuple):
        return tuple(subst(a, name, repl) for a in x)
    return x


def contains_symbol(x, name: str) -> bool:
    return name in symbols_of(x)


# ---------------------------------------------------------------------------
# Loops.
# ---------------------------------------------------------------------------

@dataclass
class LoopInfo:
    """One natural loop, identified cross-stream by its head *label*."""

    name: str                       # head label (shared by both streams)
    head: int                       # head block index (stream-local)
    body: frozenset                 # block indices in the loop
    tails: tuple                    # back-edge source block indices
    sym: str = ""                   # "iter:<name>"
    cond: Pred | None = None        # canonical continue condition
    trip: SymExpr | None = None     # closed-form trip count
    #: (regs, preds) joined over the entry edges
    entry: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.sym:
            self.sym = f"iter:{self.name}"


# ---------------------------------------------------------------------------
# Machine state.
# ---------------------------------------------------------------------------

class _State:
    __slots__ = ("regs", "preds")

    def __init__(self, regs=None, preds=None):
        self.regs: dict[str, SymExpr] = regs if regs is not None else {}
        self.preds: dict[str, Pred] = preds if preds is not None else {}

    def copy(self) -> "_State":
        return _State(dict(self.regs), dict(self.preds))

    def __eq__(self, other) -> bool:
        return isinstance(other, _State) and self.regs == other.regs \
            and self.preds == other.preds

    def subst_all(self, name: str, repl: SymExpr) -> "_State":
        return _State({k: subst(v, name, repl)
                       for k, v in self.regs.items()},
                      {k: subst(v, name, repl)
                       for k, v in self.preds.items()})


# ---------------------------------------------------------------------------
# Sites: per-instruction facts the certifier consumes.
# ---------------------------------------------------------------------------

@dataclass
class Site:
    """The certifier-relevant summary of one instruction occurrence."""

    index: int
    inst: Instruction
    kind: str                       # 'load'/'store'/'atom'/'setp'/
    #                                 'enq.data'/'enq.addr'/'enq.pred'/'deq'
    path: frozenset                 # canonical path condition of the block
    loops: tuple                    # sorted loop names containing the site
    guard: Pred | None              # canonical guard (negation folded in)
    value: object                   # SymExpr (addresses) or Pred (setp)


@dataclass
class SymbolicKernel:
    """The result of :func:`symexec` over one kernel."""

    kernel: Kernel
    cfg: CFG
    loops: dict[str, LoopInfo]
    sites: dict[int, Site]
    env_at: list                    # per-instruction (regs, preds) or None
    reachable: set = field(default_factory=set)
    _uniform_loops: frozenset | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def value_at(self, index: int, operand) -> SymExpr:
        env = self.env_at[index]
        if env is None:
            raise ValueError(f"instruction {index} is unreachable")
        return _operand_value(_State(*env), operand, index)

    def pred_at(self, index: int, name: str) -> Pred:
        env = self.env_at[index]
        if env is None:
            raise ValueError(f"instruction {index} is unreachable")
        return env[1].get(name, FALSE)

    def thread_varying(self, x) -> bool:
        """:func:`is_thread_varying` over :attr:`uniform_loops`."""
        return is_thread_varying(x) and \
            is_thread_varying(x, self.uniform_loops)

    @property
    def uniform_loops(self) -> frozenset:
        """Loops every thread of a CTA runs alike, so that their
        ``opaque`` placeholders are CTA-invariant: no register the body
        touches enters thread-varying, and no reachable body instruction
        reads a thread-varying operand or guard.  A greatest fixpoint,
        since a body may read its own and nested loops' placeholders."""
        if self._uniform_loops is None:
            uniform, kept = None, frozenset(self.loops)
            while kept != uniform:
                uniform = kept
                kept = frozenset(n for n in uniform if not
                                 self._loop_varies(self.loops[n], uniform))
            self._uniform_loops = uniform
        return self._uniform_loops

    def _loop_varies(self, loop: LoopInfo, uniform: frozenset) -> bool:
        insts, blocks = self.kernel.instructions, self.cfg.blocks
        body = [i for b in loop.body
                for i in range(blocks[b].start, blocks[b].end)]
        touched = {r.name for i in body
                   for r in insts[i].read_regs() + insts[i].written_regs()}
        forms = [form for env in loop.entry or ()
                 for name, form in env.items() if name in touched]
        for i in body:
            if self.env_at[i] is not None:
                state = _State(*self.env_at[i])
                forms.append(_guard_of(state, insts[i]))
                forms += [state.preds.get(op.name, FALSE)
                          if isinstance(op, PredReg)
                          else _operand_value(state, op, i)
                          for op in insts[i].reads()]
        return any(is_thread_varying(f, uniform) for f in forms)


# ---------------------------------------------------------------------------
# Operand / instruction transfer.
# ---------------------------------------------------------------------------

def _operand_value(state: _State, op, index: int) -> SymExpr:
    if isinstance(op, Register):
        return state.regs.get(op.name, ZERO)
    if isinstance(op, Immediate):
        return const(op.value)
    if isinstance(op, Param):
        return symbol(f"param:{op.name}")
    if isinstance(op, SpecialReg):
        return symbol(f"{op.family}.{op.dim}")
    if isinstance(op, MemRef):
        return _operand_value(state, op.address, index) \
            + const(op.displacement)
    if isinstance(op, DeqToken):
        return atom_expr("deq", (op.kind, op.queue_id))
    if isinstance(op, PredReg):
        # A predicate read in value position (selp) — folded by caller.
        raise TypeError("predicate operand in value position")
    raise TypeError(f"cannot evaluate operand {op!r}")


def _guard_of(state: _State, inst: Instruction) -> Pred | None:
    if isinstance(inst.guard, PredReg):
        g = state.preds.get(inst.guard.name, FALSE)
        return negate(g) if inst.guard_negated else g
    if isinstance(inst.guard, DeqToken):
        return Pred("opaque", ("deq", inst.guard.kind, inst.guard.queue_id))
    return None


#: Symbols integer-valued on every thread: special registers and loop
#: iteration counters (``iter:<loop>``).  Parameters and loop-carried
#: registers may hold any value.
_INT_SYMBOLS = tuple(f"{family}." for family in SPECIAL_FAMILIES) + ("iter:",)

#: Atom kinds the datapath computes through an int64 conversion.
_INT_ATOMS = {"shl", "shr", "and", "or", "xor", "not"}


def _is_integral(expr: SymExpr) -> bool:
    """Whether ``expr`` is provably integer-valued: integer coefficients
    over integer symbols and integer-producing atoms."""
    for mono, coeff in expr.terms:
        if not float(coeff).is_integer():
            return False
        for factor in mono:
            if isinstance(factor, Atom):
                if factor.kind not in _INT_ATOMS:
                    return False
            elif not factor.startswith(_INT_SYMBOLS):
                return False
    return True


_POLY_OPS = {Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.NEG, Opcode.MUL,
             Opcode.MAD}

#: Commutative atom kinds whose arguments are sorted canonically.
_COMMUTATIVE = {Opcode.MIN: "min", Opcode.MAX: "max", Opcode.AND: "and",
                Opcode.OR: "or", Opcode.XOR: "xor"}


def _alu_value(opcode: Opcode, args: list[SymExpr]) -> SymExpr:
    """Symbolic ALU transfer.  Constant operands fold through the *real*
    datapath (:func:`repro.sim.executor.alu`) so folding semantics can
    never drift from the simulator."""
    if all(a.is_const for a in args):
        concrete = _concrete_alu(opcode, [a.const_value for a in args])
        return const(float(concrete))
    if opcode in _POLY_OPS:
        if opcode is Opcode.MOV:
            return args[0]
        if opcode is Opcode.ADD:
            return args[0] + args[1]
        if opcode is Opcode.SUB:
            return args[0] - args[1]
        if opcode is Opcode.NEG:
            return -args[0]
        if opcode is Opcode.MUL:
            return args[0] * args[1]
        return args[0] * args[1] + args[2]          # MAD
    if opcode is Opcode.SHL and args[1].is_const \
            and _is_integral(args[0]):
        k = args[1].const_value
        if k == int(k) and 0 <= k < 64:
            # The datapath truncates the operand to int64 before shifting,
            # so shl is a scale only for integer-valued operands:
            # shl(div(x, 2), 1) is 2*floor(x/2), not x.
            return args[0] * const(float(2 ** int(k)))
    if opcode in _COMMUTATIVE:
        if args[0] == args[1]:
            return args[0] if opcode in (Opcode.MIN, Opcode.MAX,
                                         Opcode.AND, Opcode.OR) else ZERO
        return atom_expr(_COMMUTATIVE[opcode], _sorted_pair(args[0], args[1]))
    if opcode is Opcode.REM:
        return atom_expr("rem", (args[0], args[1]))
    if opcode is Opcode.DIV:
        return atom_expr("div", (args[0], args[1]))
    if opcode is Opcode.ABS:
        return atom_expr("abs", (args[0],))
    if opcode is Opcode.NOT:
        return atom_expr("not", (args[0],))
    if opcode is Opcode.SHL:
        return atom_expr("shl", (args[0], args[1]))
    if opcode is Opcode.SHR:
        return atom_expr("shr", (args[0], args[1]))
    return atom_expr(f"sfu.{opcode.value}", tuple(args))


def _guarded_expr(guard: Pred | None, new: SymExpr, old: SymExpr) -> SymExpr:
    if guard is None or guard == TRUE:
        return new
    if guard == FALSE:
        return old
    if new == old:
        return new
    return atom_expr("sel", (guard, new, old))


def _guarded_pred(guard: Pred | None, new: Pred, old: Pred) -> Pred:
    if guard is None or guard == TRUE:
        return new
    if guard == FALSE:
        return old
    return sel_pred(guard, new, old)


# ---------------------------------------------------------------------------
# The evaluator.
# ---------------------------------------------------------------------------

class _Evaluator:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.cfg = CFG(kernel)
        self.rpo = self.cfg.reverse_postorder()
        self.loops = self._find_loops()
        self.loop_by_head = {L.head: L for L in self.loops}
        self.ins: dict[int, _State] = {}
        self.outs: dict[int, _State] = {}
        self.pc: dict[int, frozenset] = {}
        self._wcount: dict[tuple, int] = {}
        self._rec_cache: dict[int, object] = {}
        self._entry_state: dict[int, _State] = {}
        self._back_edges = {(u, L.head) for L in self.loops for u in L.tails}
        # A loop's sole exit edge is fully described by the iteration
        # substitution; its branch condition must not leak into
        # downstream path conditions (it references a dead iteration
        # symbol).  Multi-exit loops (breaks) keep their conditions.
        self._sole_exits: set[tuple] = set()
        for L in self.loops:
            exits = [(p, s) for p in L.body
                     for s in self.cfg.blocks[p].successors
                     if s not in L.body]
            if len(exits) == 1:
                self._sole_exits.add(exits[0])

    # -- loop discovery ---------------------------------------------------

    def _find_loops(self) -> list[LoopInfo]:
        blocks = self.cfg.blocks
        by_head: dict[int, list[int]] = {}
        for b in blocks:
            for s in b.successors:
                if blocks[s].start <= b.start:
                    by_head.setdefault(s, []).append(b.index)
        loops = []
        for head, tails in sorted(by_head.items()):
            body = {head}
            work = [t for t in tails if t != head]
            while work:
                n = work.pop()
                if n in body:
                    continue
                body.add(n)
                work.extend(p for p in blocks[n].predecessors
                            if p not in body)
            names = []
            for t in tails:
                last = self.kernel.instructions[blocks[t].end - 1]
                if last.is_branch and last.target is not None:
                    names.append(last.target)
            name = min(names) if names else f"@block{head}"
            loops.append(LoopInfo(name=name, head=head,
                                  body=frozenset(body),
                                  tails=tuple(sorted(tails))))
        # Innermost first, so multi-loop exit edges substitute inner
        # iteration symbols before outer ones.
        loops.sort(key=lambda L: len(L.body))
        return loops

    # -- path conditions ---------------------------------------------------

    def _edge_pc(self, p: int, b: int, base: frozenset) -> frozenset:
        block = self.cfg.blocks[p]
        last = self.kernel.instructions[block.end - 1]
        if not (last.is_branch and isinstance(last.guard, PredReg)):
            return base
        succs = block.successors
        if len(succs) < 2 or succs[0] == succs[1]:
            return base
        if (p, b) in self._sole_exits:
            return base
        out = self.outs.get(p)
        g = out.preds.get(last.guard.name, FALSE) if out is not None \
            else FALSE
        taken_polarity = not last.guard_negated
        if b == succs[0]:
            return base | {(g, taken_polarity)}
        return base | {(g, not taken_polarity)}

    def _compute_pcs(self) -> None:
        pc: dict[int, frozenset] = {}
        for b in self.rpo:
            preds = [p for p in self.cfg.blocks[b].predecessors
                     if (p, b) not in self._back_edges and p in pc]
            if not preds:
                pc[b] = frozenset()
                continue
            sets = [self._edge_pc(p, b, pc[p]) for p in preds]
            inter = sets[0]
            for s in sets[1:]:
                inter = inter & s
            pc[b] = inter
        self.pc = pc

    # -- joins and widening ------------------------------------------------

    def _join(self, b: int, incoming: list) -> _State:
        if len(incoming) == 1:
            return incoming[0][1].copy()
        target_pc = self.pc.get(b, frozenset())
        conds = [frozenset(self._edge_pc(p, b, self.pc.get(p, frozenset()))
                           - target_pc)
                 for p, _ in incoming]
        merged = _State()
        reg_names: set[str] = set()
        pred_names: set[str] = set()
        for _, st in incoming:
            reg_names |= set(st.regs)
            pred_names |= set(st.preds)
        for name in reg_names:
            vals = [st.regs.get(name, ZERO) for _, st in incoming]
            if all(v == vals[0] for v in vals[1:]):
                merged.regs[name] = vals[0]
            else:
                alts = tuple(sorted(zip(conds, vals), key=_key))
                merged.regs[name] = atom_expr("merge", (alts,))
        for name in pred_names:
            vals = [st.preds.get(name, FALSE) for _, st in incoming]
            if all(v == vals[0] for v in vals[1:]):
                merged.preds[name] = vals[0]
            else:
                alts = tuple(sorted(zip(conds, vals), key=_key))
                merged.preds[name] = Pred("merge", (alts,))
        return merged

    def _loop_chain(self, loop: LoopInfo) -> list | None:
        """The loop body as a linear chain of blocks (head..tail), or
        None when the body has internal control flow."""
        chain = [loop.head]
        seen = {loop.head}
        b = loop.head
        while True:
            nxt = [s for s in self.cfg.blocks[b].successors
                   if s in loop.body and s != loop.head]
            if not nxt:
                break
            if len(nxt) > 1 or nxt[0] in seen:
                return None
            b = nxt[0]
            chain.append(b)
            seen.add(b)
        if seen != set(loop.body):
            return None
        return chain

    def _loop_recs(self, loop: LoopInfo):
        """(inits, recs) for a straight-line loop body: ``recs[r]`` is
        r's value after one iteration, written over ``carry:<loop>:<r>``
        symbols standing for the head values.  Cached per pass."""
        cached = self._rec_cache.get(loop.head, "miss")
        if cached != "miss":
            return cached
        result = None
        chain = self._loop_chain(loop)
        if chain is not None:
            regs: set[str] = set()
            preds: set[str] = set()
            for inst in self.kernel.instructions:
                regs |= {r.name for r in inst.written_regs()
                         if not isinstance(r, PredReg)}
                preds |= {r.name for r in inst.written_regs()
                          if isinstance(r, PredReg)}
            state = _State(
                {r: symbol(f"carry:{loop.name}:{r}") for r in regs},
                {p: Pred("opaque", ("carry", loop.name, p))
                 for p in preds})
            for b in chain:
                self._exec_block(b, state)
            recs = {r: v for r, v in state.regs.items()
                    if not contains_symbol(v, loop.sym)}
            base = self._entry_state.get(loop.head)
            inits = dict(base.regs) if base is not None else {}
            result = (inits, recs)
        self._rec_cache[loop.head] = result
        return result

    def _loopwall(self, loop: LoopInfo, name: str) -> SymExpr:
        """The sound fallback for a register that defeats polynomial
        widening: a ``looprec`` atom — a pure function of the loop's
        entry values, its per-iteration recurrences, and the iteration
        index — or a plain ``opaque`` atom when the body's recurrence
        cannot be extracted."""
        info = self._loop_recs(loop)
        plain = from_atom(Atom("opaque", ("loop", loop.name, name)))
        if info is None:
            return plain
        inits, recs = info
        if name not in recs:
            return plain
        prefix = f"carry:{loop.name}:"
        changed = {r for r in recs
                   if recs[r] != symbol(prefix + r)}
        if name not in changed:
            return plain
        # The sequence is a function of this register's recurrence AND
        # the entry value of every register it transitively reads —
        # close over exactly those (no more: unrelated body registers
        # must not perturb the atom's identity across streams).
        needed = {name}
        frontier = {name}
        while frontier:
            new = set()
            for r in frontier:
                for s in symbols_of(recs.get(r, ZERO)):
                    if isinstance(s, str) and s.startswith(prefix):
                        rn = s[len(prefix):]
                        if rn not in needed:
                            new.add(rn)
                            needed.add(rn)
            frontier = new
        if any(r not in recs for r in needed):
            return plain                        # a dependency was dropped
        init_args = tuple((r, inits.get(r, ZERO)) for r in sorted(needed))
        rec_args = tuple((r, recs[r]) for r in sorted(needed & changed))
        if any(contains_symbol(v, loop.sym) for _, v in init_args):
            return plain
        return from_atom(Atom("looprec", (loop.name, symbol(loop.sym),
                                          name, init_args, rec_args)))

    def _widen_reg(self, key: tuple, loop: LoopInfo, v0: SymExpr,
                   vb: SymExpr, prev: SymExpr | None) -> SymExpr:
        n = loop.sym
        opaque = self._loopwall(loop, key[2])
        count = self._wcount.get(key, 0)
        if count >= _MAX_WIDENINGS:
            return opaque
        if vb == v0 and (prev is None or prev == v0):
            return v0                           # loop-invariant
        h = prev if prev is not None else v0
        n_expr = symbol(n)
        if subst(h, n, n_expr + ONE) == vb and subst(h, n, ZERO) == v0:
            return h                            # stable closed form
        if prev is not None and prev == opaque:
            return opaque                       # already walled off
        if contains_symbol(v0, n):
            self._wcount[key] = _MAX_WIDENINGS
            return opaque
        # Guess a closed form by summing the per-iteration delta.  The
        # delta d(n) = vb - h is interpolated as a polynomial of degree
        # <= 2 in n (checked by reconstruction), then summed with
        # Faulhaber's formulas:  v(n) = v0 + sum_{m<n} d(m).  The guess
        # is provisional — it only survives if the *stability* check
        # above verifies it on a later pass, so an inaccurate delta
        # (inner registers still converging) merely costs a retry.
        d = vb - h
        vals = [subst(d, n, const(j)) for j in range(3)]
        c0 = vals[0]
        c1 = vals[0] * const(-1.5) + vals[1] * const(2.0) \
            + vals[2] * const(-0.5)
        c2 = vals[0] * const(0.5) - vals[1] + vals[2] * const(0.5)
        if any(contains_symbol(c, n) for c in (c0, c1, c2)):
            self._wcount[key] = _MAX_WIDENINGS
            return opaque
        n2 = n_expr * n_expr
        if c0 + c1 * n_expr + c2 * n2 != d:     # not polynomial in n
            self._wcount[key] = _MAX_WIDENINGS
            return opaque
        s1 = (n2 - n_expr) * const(0.5)
        s2 = (n2 * n_expr * const(2.0) - n2 * const(3.0) + n_expr) \
            * const(1.0 / 6.0)
        guess = v0 + c0 * n_expr + c1 * s1 + c2 * s2
        self._wcount[key] = count + 1
        if guess == h:                          # guess failed to converge
            self._wcount[key] = _MAX_WIDENINGS
            return opaque
        return guess

    def _merge_in(self, b: int) -> _State | None:
        if b == self.rpo[0] and not self.cfg.blocks[b].predecessors:
            return _State()
        incoming = []
        for p in self.cfg.blocks[b].predecessors:
            out = self.outs.get(p)
            if out is None:
                continue
            incoming.append((p, self._edge_transfer(p, b, out)))
        if not incoming:
            return _State() if b == self.rpo[0] else None
        loop = self.loop_by_head.get(b)
        if loop is None:
            return self._join(b, incoming)
        entry = [(p, st) for p, st in incoming if p not in loop.body]
        back = [(p, st) for p, st in incoming if p in loop.body]
        base = self._join(b, entry) if entry else _State()
        self._entry_state[b] = base
        if not back:
            return base
        backs = self._join(b, back)
        prev = self.ins.get(b)
        new = _State()
        for name in set(base.regs) | set(backs.regs) | \
                (set(prev.regs) if prev else set()):
            new.regs[name] = self._widen_reg(
                (b, "r", name), loop,
                base.regs.get(name, ZERO), backs.regs.get(name, ZERO),
                prev.regs.get(name) if prev else None)
        for name in set(base.preds) | set(backs.preds):
            q0 = base.preds.get(name, FALSE)
            qb = backs.preds.get(name, FALSE)
            if q0 == qb:
                new.preds[name] = q0
            else:
                new.preds[name] = Pred("opaque", ("loop", loop.name, name))
        return new

    # -- loop exits --------------------------------------------------------

    def _continue_cond(self, p: int, b: int, state: _State) -> Pred | None:
        """The canonical 'iteration continues' predicate for the exit
        edge p -> b, read off p's terminating conditional branch (None
        when the edge is unconditional)."""
        block = self.cfg.blocks[p]
        last = self.kernel.instructions[block.end - 1]
        if not (last.is_branch and isinstance(last.guard, PredReg)):
            return None
        succs = block.successors
        if len(succs) < 2 or succs[0] == succs[1]:
            return None
        g = state.preds.get(last.guard.name, FALSE)
        taken = negate(g) if last.guard_negated else g
        exit_cond = taken if b == succs[0] else negate(taken)
        return negate(exit_cond)

    def _count_true(self, loop: LoopInfo, cond: Pred) -> SymExpr:
        """Closed form of ``|{ m : cond(0..m) all hold }|`` — the number
        of leading iterations satisfying the continue condition.  That is
        exactly the iteration index at which a conditional exit edge is
        taken (head exits run the body that many times; tail exits ran it
        once more)."""
        if cond.kind == "const":
            if not cond.payload[0]:
                return ZERO
            return from_atom(Atom("opaque", ("infinite-loop", loop.name)))
        if cond.kind == "cmp":
            op, lhs, rhs = cond.payload
            d = lhs - rhs
            d0 = subst(d, loop.sym, ZERO)
            d1 = subst(d, loop.sym, ONE)
            step = d1 - d0
            if d0.is_const and step.is_const:
                a, s = d0.const_value, step.const_value
                t = 0
                while t < _MAX_TRIP and _CMP_PY[op](a + s * t, 0.0):
                    t += 1
                if t < _MAX_TRIP:
                    return const(t)
        return atom_expr("exitcount", (loop.name, loop.sym, cond))

    def _edge_transfer(self, p: int, b: int, out: _State) -> _State:
        left = [L for L in self.loops
                if p in L.body and b not in L.body]
        if not left:
            return out
        st = out
        # The edge's own branch resolves the innermost loop's iteration
        # count; additional (outer) loops left by the same edge are
        # mid-iteration breaks with no closed form.
        cont = self._continue_cond(p, b, out)
        for L in left:                          # innermost first (sorted)
            if cont is not None:
                final = self._count_true(L, cont)
                cont = None
            else:
                final = from_atom(Atom("opaque", ("break", L.name)))
            st = st.subst_all(L.sym, final)
        return st

    # -- the fixpoint ------------------------------------------------------

    def run(self) -> SymbolicKernel:
        max_passes = 24 + 8 * len(self.cfg.blocks)
        for _ in range(max_passes):
            self._compute_pcs()
            self._rec_cache.clear()
            changed = False
            for b in self.rpo:
                new_in = self._merge_in(b)
                if new_in is None:
                    continue
                if self.ins.get(b) != new_in:
                    changed = True
                self.ins[b] = new_in
                out = new_in.copy()
                self._exec_block(b, out)
                if self.outs.get(b) != out:
                    changed = True
                self.outs[b] = out
            if not changed:
                break
        else:
            # Did not converge: poison every state so the certifier
            # reports "unproven" rather than trusting a partial fixpoint.
            bad = from_atom(Atom("opaque", ("nonconvergent", self.kernel.name)))
            for st in list(self.ins.values()) + list(self.outs.values()):
                for r in st.regs:
                    st.regs[r] = bad
        return self._final_pass()

    def _exec_block(self, b: int, state: _State,
                    env_at=None, sites=None) -> None:
        block = self.cfg.blocks[b]
        for idx in range(block.start, block.end):
            inst = self.kernel.instructions[idx]
            if env_at is not None:
                env_at[idx] = (dict(state.regs), dict(state.preds))
            if sites is not None:
                self._record_site(sites, b, idx, inst, state)
            self._step(state, idx, inst)

    def _step(self, state: _State, idx: int, inst: Instruction) -> None:
        op = inst.opcode
        if inst.is_branch or inst.is_barrier or inst.is_exit or inst.is_enq:
            return
        guard = _guard_of(state, inst)
        if inst.is_memory:
            if inst.is_load:
                dst = inst.dsts[0]
                if isinstance(inst.srcs[0], DeqToken):
                    val = _operand_value(state, inst.srcs[0], idx)
                else:
                    addr = _operand_value(state, inst.srcs[0], idx)
                    val = atom_expr("load", (inst.space.value, addr, idx))
                old = state.regs.get(dst.name, ZERO)
                state.regs[dst.name] = _guarded_expr(guard, val, old)
            return                              # stores write no registers
        if op is Opcode.SETP:
            lhs = _operand_value(state, inst.srcs[0], idx)
            rhs = _operand_value(state, inst.srcs[1], idx)
            val = cmp_pred(inst.cmp, lhs, rhs)
            dst = inst.dsts[0]
            old = state.preds.get(dst.name, FALSE)
            state.preds[dst.name] = _guarded_pred(guard, val, old)
            return
        if op is Opcode.SELP:
            a = _operand_value(state, inst.srcs[0], idx)
            b = _operand_value(state, inst.srcs[1], idx)
            p = state.preds.get(inst.srcs[2].name, FALSE) \
                if isinstance(inst.srcs[2], PredReg) else TRUE
            if p.kind == "const":
                val = a if p.payload[0] else b
            elif a == b:
                val = a
            else:
                val = atom_expr("sel", (p, a, b))
        else:
            args = [_operand_value(state, s, idx) for s in inst.srcs]
            val = _alu_value(op, args)
        dst = inst.dsts[0]
        old = state.regs.get(dst.name, ZERO)
        state.regs[dst.name] = _guarded_expr(guard, val, old)

    # -- final artifacts ---------------------------------------------------

    def _record_site(self, sites: dict, b: int, idx: int,
                     inst: Instruction, state: _State) -> None:
        kind = None
        value = None
        if inst.is_enq:
            kind = inst.opcode.value            # 'enq.data' etc.
            src = inst.srcs[0]
            if inst.opcode is Opcode.ENQ_PRED:
                value = state.preds.get(src.name, FALSE)
            else:
                value = _operand_value(state, src, idx)
        elif inst.is_memory:
            token = next((o for o in inst.srcs + inst.dsts
                          if isinstance(o, DeqToken)), None)
            if token is not None:
                kind = "deq"
            else:
                kind = ("load" if inst.is_load
                        else "atom" if inst.opcode is Opcode.ATOM
                        else "store")
                ref = inst.mem_ref()
                value = _operand_value(state, ref, idx)
        elif inst.opcode is Opcode.SETP:
            kind = "setp"
            # Value recorded post-write below (guard folded in).
        if kind is None:
            return
        loops = tuple(sorted(L.name for L in self.loops if b in L.body))
        site = Site(index=idx, inst=inst, kind=kind,
                    path=self.pc.get(b, frozenset()), loops=loops,
                    guard=_guard_of(state, inst), value=value)
        if kind == "setp":
            # Execute a copy to capture the post-assignment predicate.
            shadow = state.copy()
            self._step(shadow, idx, inst)
            site.value = shadow.preds.get(inst.dsts[0].name, FALSE)
        sites[idx] = site

    def _final_pass(self) -> SymbolicKernel:
        self._compute_pcs()
        env_at: list = [None] * len(self.kernel.instructions)
        sites: dict[int, Site] = {}
        reachable = set()
        for b in self.rpo:
            if b not in self.ins:
                continue
            reachable.add(b)
            state = self.ins[b].copy()
            self._exec_block(b, state, env_at=env_at, sites=sites)
        loops: dict[str, LoopInfo] = {}
        for L in self.loops:
            conds = set()
            tail_exit = False
            for p in sorted(L.body):
                if p not in self.outs:
                    continue
                for s in self.cfg.blocks[p].successors:
                    if s in L.body:
                        continue
                    c = self._continue_cond(p, s, self.outs[p])
                    if c is not None:
                        conds.add(c)
                        tail_exit = tail_exit or p in L.tails
            if conds:
                ordered = sorted(conds, key=_key)
                L.cond = ordered[0] if len(ordered) == 1 else \
                    Pred("merge", (tuple(ordered),))
                L.trip = self._count_true(L, L.cond) + \
                    (ONE if tail_exit else ZERO)
            base = self._entry_state.get(L.head)
            L.entry = None if base is None else (base.regs, base.preds)
            loops[L.name] = L
        return SymbolicKernel(kernel=self.kernel, cfg=self.cfg,
                              loops=loops, sites=sites, env_at=env_at,
                              reachable=reachable)


def symexec(kernel: Kernel) -> SymbolicKernel:
    """Symbolically execute a kernel to per-instruction closed forms."""
    return _Evaluator(kernel).run()


# ---------------------------------------------------------------------------
# Concretization (property-test oracle hook).
# ---------------------------------------------------------------------------

def _conc_pred(p: Pred, env: dict, shape) -> np.ndarray:
    if p.kind == "const":
        return np.full(shape, bool(p.payload[0]))
    if p.kind == "cmp":
        op, lhs, rhs = p.payload
        return np.broadcast_to(
            CMP_FUNCS[op](concretize(lhs, env), concretize(rhs, env)),
            shape).copy()
    if p.kind == "sel":
        cond, a, b = p.payload
        return np.where(_conc_pred(cond, env, shape),
                        _conc_pred(a, env, shape),
                        _conc_pred(b, env, shape))
    if p.kind == "merge":
        return _conc_merge(p.payload[0], env, shape,
                           lambda v: _conc_pred(v, env, shape))
    raise NotConcretizable(f"predicate {p!r}")


def _conc_condset(conds: frozenset, env: dict, shape) -> np.ndarray:
    mask = np.full(shape, True)
    for pred, polarity in conds:
        v = _conc_pred(pred, env, shape)
        mask &= v if polarity else ~v
    return mask


def _conc_merge(alts, env: dict, shape, eval_fn) -> np.ndarray:
    result = None
    covered = np.full(shape, False)
    for conds, value in alts:
        m = _conc_condset(conds, env, shape) & ~covered
        v = np.broadcast_to(np.asarray(eval_fn(value)), shape)
        result = np.where(m, v, result if result is not None
                          else np.zeros(shape))
        covered |= m
    if result is None or not covered.all():
        raise NotConcretizable("merge alternatives do not cover all lanes")
    return result


def _conc_exitcount(atom: Atom, env: dict, shape) -> np.ndarray:
    """Per-lane count of leading iterations satisfying the condition."""
    _name, sym, cond = atom.args
    count = np.zeros(shape)
    n = 0
    alive = _conc_pred(subst(cond, sym, const(0)), env, shape)
    while alive.any():
        count = np.where(alive, count + 1, count)
        n += 1
        if n > _MAX_TRIP:
            raise NotConcretizable("runaway exitcount")
        alive = alive & _conc_pred(subst(cond, sym, const(n)), env, shape)
    return count


def _conc_looprec(atom: Atom, env: dict, shape) -> np.ndarray:
    """Iterate a loop recurrence concretely: value of ``reg`` at the
    (per-lane) iteration index given by the atom's iteration operand."""
    loop_name, iter_expr, reg, init_args, rec_args = atom.args
    n_arr = np.broadcast_to(concretize(iter_expr, env), shape)
    prefix = f"carry:{loop_name}:"
    state = {r: np.broadcast_to(
        np.asarray(concretize(v, env), dtype=np.float64), shape).copy()
        for r, v in init_args}
    out = state[reg].copy()
    maxn = int(np.max(n_arr)) if n_arr.size else 0
    if maxn > 65536:
        raise NotConcretizable("runaway looprec iteration count")
    for m in range(1, maxn + 1):
        env2 = dict(env)
        for r, v in state.items():
            env2[prefix + r] = v
        for r, rv in rec_args:
            state[r] = np.broadcast_to(
                np.asarray(concretize(rv, env2), dtype=np.float64),
                shape).copy()
        out = np.where(n_arr >= m, state[reg], out)
    return out


_SFU_BY_NAME = {op.value: op for op in Opcode}


def _conc_atom(atom: Atom, env: dict, shape):
    k = atom.kind
    if k in UNCERTIFIABLE_KINDS:
        raise NotConcretizable(f"{k} atom")
    if k == "rem":
        a, m = (concretize(x, env) for x in atom.args)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m == 0, 0.0, np.mod(a, m))
    if k == "div":
        a, m = (concretize(x, env) for x in atom.args)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m == 0, 0.0, a / m)
    if k in ("min", "max"):
        a, b = (concretize(x, env) for x in atom.args)
        return np.minimum(a, b) if k == "min" else np.maximum(a, b)
    if k == "abs":
        return np.abs(concretize(atom.args[0], env))
    if k == "mul":
        a, b = (concretize(x, env) for x in atom.args)
        return a * b
    if k in ("and", "or", "xor"):
        a, b = (_to_int(concretize(x, env)) for x in atom.args)
        out = a & b if k == "and" else a | b if k == "or" else a ^ b
        return out.astype(np.float64)
    if k == "not":
        return (~_to_int(concretize(atom.args[0], env))).astype(np.float64)
    if k in ("shl", "shr"):
        a, n = (concretize(x, env) for x in atom.args)
        return _shift(a, n, left=(k == "shl"))
    if k == "sel":
        pred, a, b = atom.args
        return np.where(_conc_pred(pred, env, shape),
                        np.broadcast_to(np.asarray(concretize(a, env)),
                                        shape),
                        np.broadcast_to(np.asarray(concretize(b, env)),
                                        shape))
    if k == "merge":
        return _conc_merge(atom.args[0], env, shape,
                           lambda v: concretize(v, env))
    if k == "exitcount":
        return _conc_exitcount(atom, env, shape)
    if k == "looprec":
        return _conc_looprec(atom, env, shape)
    if k.startswith("sfu."):
        op = _SFU_BY_NAME[k[4:]]
        return _concrete_alu(op, [concretize(a, env) for a in atom.args])
    raise NotConcretizable(f"unknown atom kind {k!r}")


def _env_shape(env: dict):
    for v in env.values():
        arr = np.asarray(v)
        if arr.ndim:
            return arr.shape
    return (1,)


def concretize(value, env: dict) -> np.ndarray:
    """Evaluate a closed form at concrete points.

    ``env`` maps symbol names (``tid.x``, ``ctaid.x``, ``ntid.x``,
    ``param:A``, ...) to lane arrays or scalars; the result broadcasts to
    the lane shape.  Raises :class:`NotConcretizable` for forms that
    reference memory, queues, or widening failures."""
    shape = _env_shape(env)
    if isinstance(value, Pred):
        return _conc_pred(value, env, shape)
    if isinstance(value, Atom):
        return np.broadcast_to(
            np.asarray(_conc_atom(value, env, shape), dtype=np.float64),
            shape).copy()
    if not isinstance(value, SymExpr):
        return np.broadcast_to(np.float64(value), shape).copy()
    total = np.zeros(shape)
    for mono, coeff in value.terms:
        factor = np.full(shape, coeff)
        for s in mono:
            if isinstance(s, Atom):
                factor = factor * np.broadcast_to(
                    np.asarray(_conc_atom(s, env, shape),
                               dtype=np.float64), shape)
            else:
                if s not in env:
                    raise NotConcretizable(f"no binding for symbol {s!r}")
                factor = factor * np.asarray(env[s], dtype=np.float64)
        total = total + factor
    return total
