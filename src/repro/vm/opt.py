"""Dataflow bytecode optimizer for templates, with translation validation.

A stand-alone pass over finished templates: no generation, compilation
or serving path runs it.  Its callers are the Fig. 6/7 benchmark
harness, the layer tracer of ``perfbench/`` and the tests.  The ANF
compilators already emit what its slot passes would keep of naive code
— no dead stores, no ``SETLOC k; LOCAL k`` reloads, dense locals
(DESIGN §1 item 7), which ``tests/test_compilator_fixpoint.py`` checks
on the emitted code itself — so on their output it finds only
constants recomputable at optimization time, branches on known
constants and the dead code those leave; on the stock compiler's
output it finds everything.  It runs a fixpoint pass pipeline over the
basic-block graph from :mod:`repro.vm.cfg`:

* **jump threading** — branches through empty forwarding blocks are
  retargeted at the final destination;
* **unreachable-block removal** — blocks no path from the entry
  reaches are dropped;
* **constant/copy propagation** (forward, via
  :class:`repro.analysis.fixpoint.Solver`) — per-block entry states map
  ``val`` and every local slot to a flat lattice ``⊥ < Const(v) < ⊤``
  (plus ``val = Slot(i)`` copy facts); the rewrite walk deletes
  redundant loads and self-stores, rematerializes known locals as
  ``CONST``, folds pure primitives applied to known, identity-safe
  constants through the literal pool, and simplifies branches whose
  condition is a known constant;
* **liveness** (backward, via the same ``Solver``) — dead stores and
  dead value loads are deleted;
* **relinearization** — surviving blocks are emitted in original
  address order, ``JUMP``-to-next instructions are peepholed away, the
  literal pool is re-interned (compacting away literals only dead code
  referenced), and unused local slots above the parameters are
  squeezed out.

Only *identity-safe* values participate in constant facts: exact
numbers, booleans, characters, the empty list, the unspecified value,
and interned symbols — values ``eqv?`` compares by value (or that are
singletons), so substituting an equal-valued object is unobservable.
Strings and pairs compare by identity and are never folded.

Every input is verified and every optimized template goes through
**translation validation**: the output is re-verified by
:mod:`repro.vm.verify` and any error raises
:class:`TranslationValidationError` — the passes are not trusted, the
checker is.  (Differential execution against the unoptimized twin, the
other half of validation, lives in the test suite, where a corpus is
available.)  Nothing is cached between calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.analysis.fixpoint import Solver
from repro.runtime.errors import SchemeError
from repro.runtime.values import constant_key
from repro.vm.cfg import build_cfg
from repro.vm.instructions import (
    BRANCH_OPS,
    CALL,
    CLOSED,
    CONST,
    GLOBAL,
    JUMP,
    JUMP_IF_FALSE,
    LOCAL,
    MAKE_CLOSURE,
    PRIM,
    PUSH,
    RETURN,
    SETLOC,
    TAIL_CALL,
)
from repro.vm.template import Template, intern_code
from repro.vm.verify import VerifyReport, check_template


class TranslationValidationError(SchemeError):
    """An optimized template failed re-verification."""

    def __init__(self, report: VerifyReport):
        self.report = report
        summary = "; ".join(str(v) for v in report.errors)
        super().__init__(
            f"optimizer produced invalid bytecode (translation validation"
            f" failed): {summary}"
        )


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """The optimized template tree plus per-pass accounting."""

    template: Template
    before_instructions: int       # recursive, over the whole template tree
    after_instructions: int
    passes: dict[str, int]         # pass name -> rewrites/removals applied
    skipped: bool = False          # input did not verify; returned unchanged

    @property
    def removed(self) -> int:
        return self.before_instructions - self.after_instructions

    @property
    def reduction(self) -> float:
        """Fraction of instructions removed (0.0 when nothing to remove)."""
        if not self.before_instructions:
            return 0.0
        return self.removed / self.before_instructions


# -- the abstract domain ------------------------------------------------------

class _TopType:
    """The unknown abstract value (lattice top)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "⊤"


TOP = _TopType()


@dataclass(frozen=True, slots=True)
class _Const:
    """A known identity-safe constant.  Equality is by interning key, so
    ``-0.0``/``0.0`` and ``False``/``0`` stay distinct facts."""

    key: tuple
    value: Any = field(compare=False)


@dataclass(frozen=True, slots=True)
class _Slot:
    """``val`` currently equals ``locals[slot]`` (a copy fact)."""

    slot: int


def _abstract(value: Any) -> Any:
    """The abstract value of a known constant: ``_Const`` when the value
    is identity-safe (it has a :func:`constant_key`), ``TOP`` otherwise."""
    key = constant_key(value)
    return TOP if key is None else _Const(key, value)


def _join_abs(a: Any, b: Any) -> Any:
    return a if a == b else TOP


# -- the mutable mid-level form -----------------------------------------------
#
# Blocks hold instruction *lists* whose branch operands are block ids
# (not pcs) and whose fall-throughs are explicit trailing JUMPs, so
# passes can delete and retarget freely; literal operands index a
# mutable pool that folding appends to.  Invariant: every block ends
# with JUMP, RETURN, or TAIL_CALL, and a JUMP_IF_FALSE only ever sits
# immediately before a final JUMP.


class _Fn:
    __slots__ = ("blocks", "entry", "literals", "arity", "nlocals",
                 "name", "stats", "_abs_cache")

    def __init__(self, template: Template, stats: Counter):
        cfg = build_cfg(template)
        reachable = cfg.reachable()
        dropped = sum(
            len(cfg.blocks[leader].instrs)
            for leader in cfg.order
            if leader not in reachable
        )
        if dropped:
            stats["unreachable"] += dropped
        bid_of = {
            leader: bid
            for bid, leader in enumerate(
                leader for leader in cfg.order if leader in reachable
            )
        }
        self.blocks: dict[int, list[list]] = {}
        for leader, bid in bid_of.items():
            block = cfg.blocks[leader]
            instrs: list[list] = []
            for raw in block.instrs:
                op = raw[0]
                if op in BRANCH_OPS:
                    instrs.append([op, bid_of[raw[1]]])
                else:
                    instrs.append([op, *raw[1:]])
            last = instrs[-1][0]
            if last != JUMP and last != RETURN and last != TAIL_CALL:
                # Explicit fall-through (verified, reachable code never
                # falls off the end, so the successor exists).
                instrs.append([JUMP, bid_of[block.end]])
            self.blocks[bid] = instrs
        self.entry = 0
        self.literals: list[Any] = list(template.literals)
        self.arity = template.arity
        self.nlocals = template.nlocals
        self.name = template.name
        self.stats = stats
        self._abs_cache: dict[int, Any] = {}

    def abstract(self, index: int) -> Any:
        """``_abstract`` of literal ``index``, cached (the pool is
        append-only, so an index never changes meaning)."""
        cached = self._abs_cache.get(index)
        if cached is None:
            cached = self._abs_cache[index] = _abstract(self.literals[index])
        return cached

    def succs(self, bid: int) -> tuple[int, ...]:
        instrs = self.blocks[bid]
        last = instrs[-1]
        if last[0] == RETURN or last[0] == TAIL_CALL:
            return ()
        if len(instrs) >= 2 and instrs[-2][0] == JUMP_IF_FALSE:
            return (last[1], instrs[-2][1])  # fall-through first
        return (last[1],)

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for bid in self.blocks:
            for succ in self.succs(bid):
                if bid not in preds[succ]:
                    preds[succ].append(bid)
        return preds

    def intern(self, value: Any) -> int:
        for idx, existing in enumerate(self.literals):
            if type(existing) is type(value) and existing == value:
                return idx
        self.literals.append(value)
        return len(self.literals) - 1


# -- passes -------------------------------------------------------------------


def _thread_jumps(fn: _Fn) -> bool:
    """Retarget branches through blocks that are a single ``JUMP``."""
    forward = {
        bid: instrs[0][1]
        for bid, instrs in fn.blocks.items()
        if len(instrs) == 1 and instrs[0][0] == JUMP
    }

    if not forward:
        return False

    def resolve(bid: int) -> int:
        seen = set()
        while bid in forward and bid not in seen:
            seen.add(bid)
            bid = forward[bid]
        return bid

    changed = False
    for instrs in fn.blocks.values():
        for instr in instrs:
            if instr[0] in BRANCH_OPS:
                target = resolve(instr[1])
                if target != instr[1]:
                    instr[1] = target
                    fn.stats["jump_thread"] += 1
                    changed = True
    return changed


def _drop_unreachable(fn: _Fn) -> bool:
    """Remove blocks no path from the entry reaches."""
    if len(fn.blocks) == 1:
        return False  # the entry is always reachable
    seen: set[int] = set()
    work = [fn.entry]
    while work:
        bid = work.pop()
        if bid in seen:
            continue
        seen.add(bid)
        work.extend(fn.succs(bid))
    dead = [bid for bid in fn.blocks if bid not in seen]
    for bid in dead:
        fn.stats["unreachable"] += len(fn.blocks[bid])
        del fn.blocks[bid]
    return bool(dead)


def _entry_state(fn: _Fn) -> tuple:
    return (TOP, (TOP,) * fn.nlocals)


# Hoisted operand-class sets for the hot per-instruction loops (building
# a tuple of attribute loads on every iteration is measurable at this
# call volume).
_CLOBBERS_VAL = frozenset({CLOSED, GLOBAL, PRIM, MAKE_CLOSURE, CALL})
_EFFECTFUL_VAL_KILLS = frozenset({GLOBAL, PRIM, MAKE_CLOSURE, CALL})


def _flow_block(fn: _Fn, bid: int, state: tuple) -> tuple:
    """Abstractly execute a block; return its exit state."""
    val, locs = state[0], list(state[1])
    for instr in fn.blocks[bid]:
        op = instr[0]
        if op == CONST:
            val = fn.abstract(instr[1])
        elif op == LOCAL:
            known = locs[instr[1]]
            val = known if isinstance(known, _Const) else _Slot(instr[1])
        elif op == SETLOC:
            locs[instr[1]] = val if isinstance(val, _Const) else TOP
            if val is TOP:
                val = _Slot(instr[1])
        elif op in _CLOBBERS_VAL:
            val = TOP
    return (val, tuple(locs))


def _solve_consts(fn: _Fn) -> dict[int, tuple | None]:
    """Forward constant/copy analysis: block id -> entry state (or None
    for blocks the fixpoint never reached)."""
    if len(fn.blocks) == 1 and not fn.succs(fn.entry):
        # Straight-line template (the common shape for small nested
        # closures): the entry state is the whole solution.
        return {fn.entry: _entry_state(fn)}
    preds = fn.predecessors()
    entry_state = _entry_state(fn)
    # Exit-state cache: _flow_block(pred) only re-runs when pred's entry
    # state has actually moved since we last flowed it (entry states move
    # a bounded number of times on the finite lattice, but the solver may
    # re-evaluate a successor far more often).
    flowed: dict[int, tuple[tuple, tuple]] = {}

    def join(a: Any, b: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        if a == b:  # common once the fixpoint settles; C-level compare
            return a
        return (
            _join_abs(a[0], b[0]),
            tuple(_join_abs(x, y) for x, y in zip(a[1], b[1])),
        )

    def transfer(bid: int, solver: Solver) -> tuple | None:
        state = entry_state if bid == fn.entry else None
        for pred in preds[bid]:
            pred_entry = solver.get(pred)
            if pred_entry is None:
                continue
            cached = flowed.get(pred)
            if cached is not None and cached[0] == pred_entry:
                exit_state = cached[1]
            else:
                exit_state = _flow_block(fn, pred, pred_entry)
                flowed[pred] = (pred_entry, exit_state)
            state = join(state, exit_state)
        return state

    solver = Solver(join, bottom=None)
    # The solver's worklist is LIFO; feeding keys reversed makes it
    # process blocks in layout (roughly topological) order, so this
    # forward analysis converges in about one sweep.
    solver.solve(list(reversed(fn.blocks)), transfer)
    return {bid: solver.env.get(bid) for bid in fn.blocks}


def _apply_consts(fn: _Fn, states: dict[int, tuple | None]) -> bool:
    """Rewrite each block under its solved entry state: delete redundant
    loads and stores, rematerialize known locals, fold pure primitives
    on known constants, and simplify branches on known conditions."""
    stats = fn.stats
    changed = False
    for bid in list(fn.blocks):
        state = states.get(bid)
        if state is None:
            continue  # newly unreachable; dropped next round
        instrs = fn.blocks[bid]
        val, locs = state[0], list(state[1])
        # Block-local operand stack: (abstract value, index of the PUSH).
        stack: list[tuple[Any, int]] = []
        dead: set[int] = set()
        for idx, instr in enumerate(instrs):
            op = instr[0]
            if op == CONST:
                known = fn.abstract(instr[1])
                if known is not TOP and known == val:
                    dead.add(idx)
                    stats["copy_prop"] += 1
                else:
                    val = known
            elif op == LOCAL:
                slot = instr[1]
                known = locs[slot]
                if (isinstance(val, _Slot) and val.slot == slot) or (
                    isinstance(known, _Const) and val == known
                ):
                    dead.add(idx)
                    stats["copy_prop"] += 1
                elif isinstance(known, _Const):
                    instrs[idx] = [CONST, fn.intern(known.value)]
                    val = known
                    stats["const_prop"] += 1
                    changed = True
                else:
                    val = _Slot(slot)
            elif op == CLOSED or op == GLOBAL:
                val = TOP
            elif op == PUSH:
                stack.append((val, idx))
            elif op == SETLOC:
                slot = instr[1]
                if isinstance(val, _Slot) and val.slot == slot:
                    dead.add(idx)
                    stats["copy_prop"] += 1
                elif isinstance(val, _Const) and locs[slot] == val:
                    dead.add(idx)
                    stats["copy_prop"] += 1
                else:
                    locs[slot] = val if isinstance(val, _Const) else TOP
                    if val is TOP:
                        val = _Slot(slot)
            elif op == PRIM:
                spec = fn.literals[instr[1]]
                count = instr[2]
                folded = False
                if spec.pure and count <= len(stack):
                    args = stack[-count:] if count else []
                    if all(isinstance(a, _Const) for a, _ in args):
                        try:
                            result = spec.apply([a.value for a, _ in args])
                        except Exception:
                            result = TOP  # fold must not change errors
                        known = (
                            _abstract(result) if result is not TOP else TOP
                        )
                        if isinstance(known, _Const):
                            for _, push_idx in args:
                                dead.add(push_idx)
                            instrs[idx] = [CONST, fn.intern(known.value)]
                            val = known
                            stats["const_fold"] += 1
                            changed = True
                            folded = True
                if count:
                    del stack[-count:]
                if not folded:
                    val = TOP
            elif op == MAKE_CLOSURE:
                if instr[2]:
                    del stack[max(0, len(stack) - instr[2]):]
                val = TOP
            elif op == CALL or op == TAIL_CALL:
                del stack[max(0, len(stack) - instr[1] - 1):]
                val = TOP
            elif op == JUMP_IF_FALSE:
                if isinstance(val, _Const):
                    if val.value is False:
                        instrs[idx] = [JUMP, instr[1]]
                        dead.update(range(idx + 1, len(instrs)))
                        stats["branch_simplify"] += 1
                        changed = True
                        break
                    dead.add(idx)
                    stats["branch_simplify"] += 1
                elif instr[1] == instrs[-1][1]:
                    # Both arms land on the same block.
                    dead.add(idx)
                    stats["branch_simplify"] += 1
        if dead:
            fn.blocks[bid] = [
                instr for idx, instr in enumerate(instrs) if idx not in dead
            ]
            changed = True
    return changed


_VAL = "val"

# Placeholder passed to a backward transfer when the block has no
# successors (its ``get`` is provably never consulted).
_NO_SOLVER: Any = None


def _solve_liveness(fn: _Fn) -> dict[int, frozenset]:
    """Backward *faint-variable* liveness of local slots and the ``val``
    register: block id -> live-in set.

    The transfer skips instructions that are dead under the current
    solution (a store to a dead slot, a pure load of a dead ``val``) —
    exactly the instructions ``_eliminate_dead`` would delete — so the
    least fixpoint describes the program *after* the whole dead-code
    cascade, and one solve + one elimination pass removes chains that
    plain liveness would only peel one layer per round."""

    def transfer(bid: int, solver: Solver) -> frozenset:
        live: set = set()
        for succ in fn.succs(bid):
            live |= solver.get(succ)
        for instr in reversed(fn.blocks[bid]):
            op = instr[0]
            if op == RETURN:
                live = {_VAL}
            elif op == TAIL_CALL:
                live = set()
            elif op == JUMP_IF_FALSE or op == PUSH:
                live.add(_VAL)
            elif op == SETLOC:
                if instr[1] in live:  # else faint: will be deleted
                    live.discard(instr[1])
                    live.add(_VAL)
            elif op == LOCAL:
                if _VAL in live:  # else faint
                    live.discard(_VAL)
                    live.add(instr[1])
            elif op == CONST or op == CLOSED:
                live.discard(_VAL)  # faint when val dead; either way kills
            elif op in _EFFECTFUL_VAL_KILLS:
                live.discard(_VAL)
        return frozenset(live)

    if len(fn.blocks) == 1 and not fn.succs(fn.entry):
        # Straight-line template: elimination only ever reads the live-in
        # of *successor* blocks (there are none), but compute the entry's
        # live-in anyway so the result stays an honest solution.
        return {fn.entry: transfer(fn.entry, _NO_SOLVER)}

    solver = Solver(lambda a, b: a | b, bottom=frozenset())
    solver.solve(list(fn.blocks), transfer)
    return {bid: solver.env.get(bid, frozenset()) for bid in fn.blocks}


def _eliminate_dead(fn: _Fn, live_in: dict[int, frozenset]) -> bool:
    """Delete stores to dead slots and pure loads of a dead ``val``."""
    stats = fn.stats
    changed = False
    for bid, instrs in fn.blocks.items():
        live: set = set()
        for succ in fn.succs(bid):
            live |= live_in[succ]
        dead: set[int] = set()
        for idx in range(len(instrs) - 1, -1, -1):
            instr = instrs[idx]
            op = instr[0]
            if op == RETURN:
                live = {_VAL}
            elif op == TAIL_CALL:
                live = set()
            elif op == JUMP_IF_FALSE or op == PUSH:
                live.add(_VAL)
            elif op == SETLOC:
                if instr[1] not in live:
                    dead.add(idx)
                    stats["dead_store"] += 1
                else:
                    live.discard(instr[1])
                    live.add(_VAL)
            elif op == LOCAL:
                if _VAL not in live:
                    dead.add(idx)
                    stats["dead_load"] += 1
                else:
                    live.discard(_VAL)
                    live.add(instr[1])
            elif op == CONST or op == CLOSED:
                if _VAL not in live:
                    dead.add(idx)
                    stats["dead_load"] += 1
                else:
                    live.discard(_VAL)
            elif op in _EFFECTFUL_VAL_KILLS:
                # GLOBAL may raise; the rest have stack effects — never
                # deleted here even when val is dead.
                live.discard(_VAL)
        if dead:
            fn.blocks[bid] = [
                instr for idx, instr in enumerate(instrs) if idx not in dead
            ]
            changed = True
    return changed


_MAX_ROUNDS = 50


def _optimize_rounds(fn: _Fn) -> None:
    """Run the pass pipeline to a fixpoint (every rewrite is one-way, so
    the round count is bounded; the cap is a backstop).

    The typical template converges in one working round plus one
    verifying round.  Two savings keep the verifying round cheap: the
    faint-variable liveness in ``_solve_liveness`` removes whole dead
    cascades in a single solve+eliminate, and the final round skips
    dead-code elimination entirely when nothing has changed since the
    last elimination reached its fixpoint (jump threading, unreachable
    removal, and constant rewrites are the only things that could
    invalidate it).
    """
    dse_at_fixpoint = False
    for _ in range(_MAX_ROUNDS):
        cfg_changed = _thread_jumps(fn)
        cfg_changed |= _drop_unreachable(fn)
        apply_changed = _apply_consts(fn, _solve_consts(fn))
        if dse_at_fixpoint and not (cfg_changed or apply_changed):
            break
        # Dead-code elimination cascades across blocks (deleting a dead
        # store can kill the load feeding it in a predecessor); the
        # faint-variable solve handles the cascade, the drain loop is a
        # cheap fixpoint check on top.
        dead_changed = False
        while _eliminate_dead(fn, _solve_liveness(fn)):
            dead_changed = True
        dse_at_fixpoint = True
        if not (cfg_changed or apply_changed or dead_changed):
            break


# -- relinearization ----------------------------------------------------------


def _encode(fn: _Fn, optimize_literal) -> Template:
    """Emit surviving blocks back into a flat, compacted template.

    ``optimize_literal`` maps literal values for the new pool (the
    recursion hook that replaces nested templates with their optimized
    twins).
    """
    order = list(fn.blocks)
    # Peephole: a trailing JUMP to the textually next block is a no-op.
    dropped: set[int] = set()
    for pos, bid in enumerate(order):
        instrs = fn.blocks[bid]
        last = instrs[-1]
        if (
            last[0] == JUMP
            and pos + 1 < len(order)
            and last[1] == order[pos + 1]
        ):
            dropped.add(bid)
            fn.stats["peephole_jump"] += 1

    starts: dict[int, int] = {}
    pc = 0
    for bid in order:
        starts[bid] = pc
        pc += len(fn.blocks[bid]) - (1 if bid in dropped else 0)

    # Literal re-interning: same type-tagged sharing as the assembler,
    # falling back to per-source-index dedup for unhashable values.
    new_literals: list[Any] = []
    by_key: dict[Any, int] = {}
    by_old: dict[int, int] = {}

    def intern_value(value: Any) -> int:
        try:
            key = (type(value), value)
            existing = by_key.get(key)
        except TypeError:
            key = None
            existing = None
        if existing is not None:
            return existing
        new_literals.append(value)
        idx = len(new_literals) - 1
        if key is not None:
            by_key[key] = idx
        return idx

    def intern_old(old: int) -> int:
        if old in by_old:
            return by_old[old]
        idx = intern_value(optimize_literal(fn.literals[old]))
        by_old[old] = idx
        return idx

    # Locals compaction: parameters keep their slots; temporaries still
    # referenced are renumbered densely above them.
    used_slots = {
        instr[1]
        for instrs in fn.blocks.values()
        for instr in instrs
        if instr[0] == LOCAL or instr[0] == SETLOC
    }
    slot_map = {slot: slot for slot in range(fn.arity)}
    for slot in sorted(s for s in used_slots if s >= fn.arity):
        slot_map[slot] = len(slot_map)
    squeezed = fn.nlocals - len(slot_map)
    if squeezed:
        fn.stats["locals_compaction"] += squeezed

    code: list[tuple] = []
    for bid in order:
        instrs = fn.blocks[bid]
        limit = len(instrs) - (1 if bid in dropped else 0)
        for instr in instrs[:limit]:
            op = instr[0]
            if op in BRANCH_OPS:
                code.append((op, starts[instr[1]]))
            elif op == CONST or op == GLOBAL:
                code.append((op, intern_old(instr[1])))
            elif op == PRIM or op == MAKE_CLOSURE:
                code.append((op, intern_old(instr[1]), instr[2]))
            elif op == LOCAL or op == SETLOC:
                code.append((op, slot_map[instr[1]]))
            else:
                code.append(tuple(instr))

    return Template(
        code=intern_code(code),
        literals=tuple(new_literals),
        arity=fn.arity,
        nlocals=len(slot_map),
        name=fn.name,
    )


# -- entry points -------------------------------------------------------------


class _TreeOptimizer:
    """Optimizes a template tree, each distinct nested template once.

    Methods rather than two closures that call each other: such a pair
    is a reference cycle, left behind on every call for the cyclic
    garbage collector.
    """

    __slots__ = ("stats", "done")

    def __init__(self) -> None:
        self.stats: Counter = Counter()
        self.done: dict[int, Template] = {}

    def template(self, t: Template) -> Template:
        cached = self.done.get(id(t))
        if cached is not None:
            return cached
        stats = self.stats
        fn = _Fn(t, stats)
        fired_before = sum(stats.values())
        _optimize_rounds(fn)
        if sum(stats.values()) == fired_before:
            # No pass fired: re-encoding would reproduce the input (bar
            # a possible JUMP-to-next peephole, which the assembler does
            # not emit) — keep the original tuples and only swap nested
            # templates whose own optimization changed them.
            new_literals = tuple(self.literal(v) for v in t.literals)
            if all(a is b for a, b in zip(new_literals, t.literals)):
                optimized = t
            else:
                optimized = Template(
                    code=t.code,
                    literals=new_literals,
                    arity=t.arity,
                    nlocals=t.nlocals,
                    name=t.name,
                )
            self.done[id(t)] = optimized
            return optimized
        literal_count = len(t.literals)
        optimized = _encode(fn, self.literal)
        delta = literal_count - len(optimized.literals)
        if delta > 0:
            stats["literal_compaction"] += delta
        self.done[id(t)] = optimized
        return optimized

    def literal(self, value: Any) -> Any:
        if isinstance(value, Template):
            return self.template(value)
        return value


@obs.traced("vm.optimize")
def optimize(template: Template) -> OptimizationResult:
    """Optimize ``template`` (recursively through nested closure
    templates) and return the result with per-pass accounting.

    The input is verified first, and a template with errors is returned
    unchanged (``skipped=True``): the passes only transform code whose
    semantics the verifier pinned down.  An output that differs from the
    input is re-verified, and any error raises
    :class:`TranslationValidationError`.
    """
    before = template.instruction_count()
    if not check_template(template).ok:
        obs.count("vm.optimize.skipped")
        return OptimizationResult(
            template=template,
            before_instructions=before,
            after_instructions=before,
            passes={},
            skipped=True,
        )

    tree = _TreeOptimizer()
    optimized = tree.template(template)
    if optimized is template:
        # Nothing was rewritten: the output is the input verified above.
        after = before
    else:
        report = check_template(optimized)
        if not report.ok:
            raise TranslationValidationError(report)
        after = optimized.instruction_count()
    obs.count("vm.optimize.templates")
    obs.count("vm.optimize.instructions_removed", before - after)
    return OptimizationResult(
        template=optimized,
        before_instructions=before,
        after_instructions=after,
        passes=dict(tree.stats),
    )


def clear_memo() -> None:
    """A no-op: the optimizer keeps no state between calls.

    It once memoized results by template content; the benchmark harness
    (``perfbench/workloads.py``) still calls this before it measures.
    """
