"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical inputs, on any machine and under any ``PYTHONHASHSEED``
(every random stream is a ``random.Random`` seeded with a string, which
CPython hashes with SHA-512, not with ``hash()``).

Three kinds of input:

* **Static programs** for the MIXWELL and LAZY interpreters
  (:func:`generate_program`): random, typed expression trees over a
  call graph whose every call passes ``(- n 1)`` as its fuel argument
  and whose every body is guarded by ``(if (< n 1) <base> ...)``, where
  the base only calls the next function.  Each run therefore terminates
  by construction: a recursive case holds at most two call sites, and
  the chain of base cases only runs forward.  Expressions are typed
  (number, list, boolean); ``car``/``cdr`` only ever touch a list
  variable under a ``null?`` guard, and ``remainder`` only divides by a
  positive literal, so no run raises.
* **Run inputs** for the §7 residuals (:func:`run_schedule`): binary
  tapes for the MIXWELL Turing machine and ``n`` for LAZY's n-th prime.
* **Served traffic** (:func:`serve_set`): a skewed draw over a
  working set of small static programs.

Sizes are stratified: every cycle of a schedule holds the same size
classes, shuffled, so two seeds differ in structure and order but not in
their size mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- program generation --------------------------------------------------------

NUM, LIST, BOOL = "num", "list", "bool"

# One cycle of the ``cold`` stream: (language, function count), one
# program of each size class.  A function prints as about 7.5 lines, so
# the classes are centred on the §7 inputs and span below and above
# them: MIXWELL about 30 to 95 lines around its 62, LAZY about 8 to 45
# around its 26.
COLD_MIXWELL_FUNCTIONS = (4, 6, 8, 10, 12)
COLD_LAZY_FUNCTIONS = (1, 2, 3, 4, 5)
COLD_CYCLE = (
    [("mixwell", n) for n in COLD_MIXWELL_FUNCTIONS]
    + [("lazy", n) for n in COLD_LAZY_FUNCTIONS]
)

MAX_FUEL = 3  # the largest dynamic input a generated program is run on
MAX_INNER_IFS = 1  # conditionals per body off its tail path


@dataclass(frozen=True)
class GenProgram:
    """A generated static program and what the workloads need of it."""

    lang: str          # "mixwell" or "lazy"
    source: str        # the program as printed, one form per line
    lines: int         # printed lines (the §7 inputs are 62 and 26)
    functions: int     # top-level functions besides the goal


class _Fn:
    __slots__ = ("name", "params", "ret")

    def __init__(self, name: str, params: list[tuple[str, str]], ret: str):
        self.name = name
        self.params = params  # [(name, type)], params[0] is the fuel "n"
        self.ret = ret


class _ProgramGen:
    """One program's worth of random choices."""

    def __init__(self, rng: random.Random, lang: str, nfuns: int):
        self.rng = rng
        self.lang = lang
        self.fns: list[_Fn] = []
        for i in range(nfuns):
            params = [("n", NUM)]
            for k in range(rng.randint(1, 2)):
                params.append((f"{'xyz'[k]}{i}", rng.choice((NUM, NUM, LIST))))
            ret = rng.choice((NUM, NUM, LIST))
            self.fns.append(_Fn(f"f{i}", params, ret))

    # -- expressions ---------------------------------------------------------

    def _vars(self, env: list[tuple[str, str]], ty: str) -> list[str]:
        return [name for name, t in env[1:] if t == ty]

    def _lit(self) -> str:
        return str(self.rng.randint(0, 9))

    def expr(self, ty: str, env, depth: int, budget: dict, me: int,
             allow_calls: bool, tail: bool = False) -> str:
        """An expression of type ``ty``.

        ``budget`` holds what the body may still spend: ``calls`` (call
        sites) and ``ifs`` (conditionals off the tail path).  A dynamic
        conditional in a non-tail position makes the specializer
        duplicate its continuation, so these are capped to keep the
        residual size, and the time to generate it, roughly linear in
        the program size.
        """
        rng = self.rng
        if depth <= 0:
            return self._leaf(ty, env)
        if ty == BOOL:
            return self._bool(env, depth, budget, me, allow_calls)
        choice = rng.random()
        if allow_calls and budget["calls"] > 0 and choice < 0.25:
            callee = self._pick_callee(ty, me)
            if callee is not None:
                budget["calls"] -= 1
                return self._call(callee, env, depth, budget, me)
        if choice < 0.45 and self._spend_if(budget, tail):
            return (
                f"(if {self._bool(env, depth - 1, budget, me, allow_calls)}\n"
                f"{self.expr(ty, env, depth - 1, budget, me, allow_calls, tail)}"
                f"\n"
                f"{self.expr(ty, env, depth - 1, budget, me, allow_calls, tail)})"
            )
        if ty == NUM:
            return self._num(env, depth, budget, me, allow_calls)
        return self._list(env, depth, budget, me, allow_calls)

    @staticmethod
    def _spend_if(budget: dict, tail: bool) -> bool:
        if tail:
            return True
        if budget["ifs"] > 0:
            budget["ifs"] -= 1
            return True
        return False

    def _leaf(self, ty: str, env) -> str:
        if ty == BOOL:
            nums = self._vars(env, NUM)
            a = self.rng.choice(nums) if nums else self._lit()
            return f"(< {a} {self._lit()})"
        names = self._vars(env, ty)
        if names and self.rng.random() < 0.7:
            return self.rng.choice(names)
        if ty == NUM:
            return self._lit()
        return self._quote_list()

    def _quote_list(self) -> str:
        items = " ".join(self._lit() for _ in range(self.rng.randint(0, 3)))
        if self.lang == "lazy":
            # LAZY lists are lazy pairs: a quoted list is only ever empty.
            return "(quote ())"
        return f"(quote ({items}))"

    def _bool(self, env, depth, budget, me, allow_calls) -> str:
        rng = self.rng
        lists = self._vars(env, LIST)
        r = rng.random()
        if lists and r < 0.3:
            return f"(null? {rng.choice(lists)})"
        a = self.expr(NUM, env, depth - 1, budget, me, allow_calls)
        b = self.expr(NUM, env, depth - 1, budget, me, allow_calls)
        op = rng.choice(("<", "=", "equal?") if self.lang == "mixwell"
                        else ("<", "=", ">", "<="))
        return f"({op} {a} {b})"

    def _num(self, env, depth, budget, me, allow_calls) -> str:
        rng = self.rng
        lists = self._vars(env, LIST)
        r = rng.random()
        if lists and r < 0.25:
            l = rng.choice(lists)
            if self.lang == "mixwell" and rng.random() < 0.5:
                return f"(length {l})"
            if self._spend_if(budget, False):
                return f"(if (null? {l})\n{self._lit()}\n(car {l}))"
        sub = lambda: self.expr(NUM, env, depth - 1, budget, me, allow_calls)
        if r < 0.45:
            return f"(* {sub()} {rng.randint(1, 3)})"
        if self.lang == "lazy" and r < 0.55:
            return f"(remainder {sub()} {rng.randint(2, 7)})"
        if self.lang == "lazy" and r < 0.65:
            var = f"v{rng.randint(0, 99)}"
            body = self.expr(
                NUM, env + [(var, NUM)], depth - 1, budget, me, allow_calls
            )
            return f"(let {var} {sub()}\n{body})"
        return f"({rng.choice(('+', '-', '+'))} {sub()} {sub()})"

    def _list(self, env, depth, budget, me, allow_calls) -> str:
        rng = self.rng
        lists = self._vars(env, LIST)
        r = rng.random()
        if lists and r < 0.3 and self._spend_if(budget, False):
            l = rng.choice(lists)
            return f"(if (null? {l})\n{self._quote_list()}\n(cdr {l}))"
        tail = (self.expr(LIST, env, depth - 1, budget, me, allow_calls)
                if r < 0.8 else self._quote_list())
        head = self.expr(NUM, env, depth - 1, budget, me, allow_calls)
        return f"(cons {head}\n{tail})"

    def _pick_callee(self, ty: str, me: int) -> "_Fn | None":
        options = [f for f in self.fns[me:] if f.ret == ty]
        return self.rng.choice(options) if options else None

    def _call(self, callee: _Fn, env, depth, budget, me) -> str:
        # Arguments never contain calls: under LAZY's call-by-name every
        # use of a parameter re-evaluates its argument, and a call there
        # would make the cost of a run exponential in the body size.
        args = ["(- n 1)"] + [
            self.expr(t, env, min(depth - 1, 2), budget, me, False)
            for _, t in callee.params[1:]
        ]
        return f"(call {callee.name} {' '.join(args)})"

    # -- definitions ---------------------------------------------------------

    def define(self, i: int, depth: int) -> str:
        fn = self.fns[i]
        base = self.expr(fn.ret, fn.params, 1, {"calls": 0, "ifs": 0}, i,
                         False)
        if i + 1 < len(self.fns):
            # Every base case calls the next function, so the whole
            # program is reachable and its residual grows with its
            # function count.  The chain only runs forward, so it ends.
            base = self._chain(fn, i, base)
        body = self.expr(fn.ret, fn.params, depth,
                         {"calls": 2, "ifs": MAX_INNER_IFS}, i, True, True)
        params = " ".join(name for name, _ in fn.params)
        return (
            f"({fn.name} ({params})\n= (if (< n 1)\n{base}\n{body}))"
        )

    def _chain(self, fn: _Fn, i: int, leaf: str) -> str:
        """``leaf`` combined with a call of the next function."""
        callee = self.fns[i + 1]
        call = self._call(callee, fn.params, 2, {"calls": 0, "ifs": 0}, i)
        if fn.ret == LIST:
            if callee.ret == LIST:
                return f"(cons {self._leaf(NUM, fn.params)}\n{call})"
            return f"(cons {call}\n{leaf})"
        if callee.ret == NUM:
            return f"(+ {leaf}\n{call})"
        if self.lang == "mixwell":
            return f"(+ {leaf}\n(length {call}))"
        return f"(+ {leaf}\n(if (null? {call})\n0\n1))"

    def goal(self) -> str:
        entry = self.fns[0]
        env = [("input", NUM)]
        args = ["input"] + [
            self.expr(t, env, 1, {"calls": 0, "ifs": 0}, 0, False)
            for _, t in entry.params[1:]
        ]
        return f"(main (input)\n= (call {entry.name} {' '.join(args)}))"


def _layout(text: str) -> str:
    """Indent the generator's line breaks by parenthesis depth."""
    out, depth = [], 0
    for raw in text.split("\n"):
        line = raw.strip()
        out.append(" " * depth + line)
        depth += line.count("(") - line.count(")")
    return "\n".join(out) + "\n"


def generate_program(rng: random.Random, lang: str, nfuns: int) -> GenProgram:
    """One structurally random program with ``nfuns`` functions."""
    gen = _ProgramGen(rng, lang, nfuns)
    defs = [gen.goal()] + [
        gen.define(i, 2) for i in range(nfuns)
    ]
    source = _layout("(" + "\n".join(defs) + ")")
    return GenProgram(lang, source, source.count("\n"), nfuns)


def stream(seed: int, name: str) -> random.Random:
    """The seed's random stream for one purpose, independent of others."""
    return random.Random(f"perfbench:{seed}:{name}")


# -- workload schedules --------------------------------------------------------


def cold_programs(seed: int):
    """The endless ``cold`` stream: :data:`COLD_CYCLE` over and over,
    shuffled within each cycle.  Yields ``(GenProgram, dynamic_input)``;
    the input is for the untimed check run."""
    rng = stream(seed, "cold")
    while True:
        cycle = list(COLD_CYCLE)
        rng.shuffle(cycle)
        for lang, nfuns in cycle:
            yield generate_program(rng, lang, nfuns), rng.randint(0, MAX_FUEL)


# One cycle of the ``run`` workload: (language, size).  MIXWELL sizes are
# tape lengths; LAZY sizes are n for the n-th prime (n = 4 costs about
# 6x n = 3, so it appears once per cycle).
RUN_CYCLE = (
    [("mixwell", length) for length in (4, 6, 8, 10, 12, 14, 16, 18, 20, 22)]
    + [("lazy", n) for n in (0, 1, 2, 2, 3, 3, 3, 4)]
)


def run_schedule(seed: int):
    """The endless ``run`` stream of ``(language, input)`` pairs: a tape
    (a list of 0/1, most significant bit first) for MIXWELL, ``n`` for
    LAZY."""
    rng = stream(seed, "run")
    while True:
        cycle = list(RUN_CYCLE)
        rng.shuffle(cycle)
        for lang, size in cycle:
            if lang == "mixwell":
                tape = [1] + [rng.randint(0, 1) for _ in range(size - 1)]
                yield lang, tape
            else:
                yield lang, size


@dataclass(frozen=True)
class ServeSet:
    """The ``serve`` working set and its request schedule."""

    programs: list[GenProgram]          # the working set, index = key
    schedule: list[tuple[int, int]]     # (program index, dynamic input)


# The default per-tenant residual cache holds 64 residuals per extension.
# MIXWELL's 6 hot keys stay in it; its 60 cold keys are requested round
# robin, and since 6 + 60 > 64 each one is evicted before it comes round
# again: the first pass is answered by L3, every later one by L2.
# LAZY's 12 keys all fit, so after their first touch they are L1 hits.
SERVE_MIXWELL_HOT = 6
SERVE_MIXWELL_COLD = 60
SERVE_LAZY_KEYS = 12
SERVE_MIXWELL_SHARE = 0.75
SERVE_HOT_SHARE = 0.6


def serve_set(seed: int, requests: int) -> ServeSet:
    """A working set of small programs and a skewed request schedule."""
    rng = stream(seed, "serve")
    mixwell = [generate_program(rng, "mixwell", 1)
               for _ in range(SERVE_MIXWELL_HOT + SERVE_MIXWELL_COLD)]
    lazy = [generate_program(rng, "lazy", 1) for _ in range(SERVE_LAZY_KEYS)]
    programs = mixwell + lazy
    cold = list(range(SERVE_MIXWELL_HOT, len(mixwell)))
    rng.shuffle(cold)
    schedule, turn = [], 0
    for _ in range(requests):
        if rng.random() >= SERVE_MIXWELL_SHARE:
            index = len(mixwell) + rng.randrange(SERVE_LAZY_KEYS)
        elif rng.random() < SERVE_HOT_SHARE:
            index = rng.randrange(SERVE_MIXWELL_HOT)
        else:
            index = cold[turn % len(cold)]
            turn += 1
        schedule.append((index, rng.randint(0, MAX_FUEL)))
    return ServeSet(programs, schedule)
