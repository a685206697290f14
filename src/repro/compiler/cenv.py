"""Compile-time environments.

The compiler "passes around source expressions, a compile-time environment
mapping names to stack and environment locations, and a stack depth" (§4).
A :class:`CompileTimeEnv` maps each name to one of:

* :class:`Local` — a slot in the current frame (parameters and lets);
* :class:`Closed` — a slot in the closure environment (free variables);
* :class:`Global` — a top-level binding, looked up at run time;
* :class:`Held` — a let-bound value that never leaves the ``val``
  register: its one read compiles to nothing (DESIGN §1 item 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sexp.datum import Symbol


@dataclass(frozen=True, slots=True)
class Local:
    index: int


@dataclass(frozen=True, slots=True)
class Closed:
    index: int


@dataclass(frozen=True, slots=True)
class Global:
    name: Symbol


class Held:
    """The location of a let-bound value read only while still in ``val``.

    Compared by identity: each binding gets its own.
    """

    __slots__ = ()


Location = Local | Closed | Global | Held


class CompileTimeEnv:
    """An immutable name → location mapping.

    Extension (``bind_local``) is O(1) via parent chaining: residual
    function bodies are long chains of ``let``s, and copying the mapping
    per binding would make compilation quadratic.

    ``program`` names the top-level definitions of the program being
    compiled.  They shadow primitives of the same name, so a
    program-defined ``abs`` compiles to a global reference rather than
    the primitive; every environment derived from this one, nested
    procedures' included, carries the same set.
    """

    __slots__ = ("_mapping", "_parent", "program")

    def __init__(
        self,
        mapping: dict[Symbol, Location] | None = None,
        parent: "CompileTimeEnv | None" = None,
        program: frozenset = frozenset(),
    ):
        self._mapping = mapping or {}
        self._parent = parent
        self.program = program

    @classmethod
    def for_procedure(
        cls,
        params: tuple[Symbol, ...],
        free: tuple[Symbol, ...] = (),
        program: frozenset = frozenset(),
    ) -> "CompileTimeEnv":
        """Parameters in frame slots 0..n-1; free names in closure slots."""
        mapping: dict[Symbol, Location] = {}
        for i, p in enumerate(params):
            mapping[p] = Local(i)
        for i, f in enumerate(free):
            mapping[f] = Closed(i)
        return cls(mapping, None, program)

    def procedure(
        self, params: tuple[Symbol, ...], free: tuple[Symbol, ...]
    ) -> "CompileTimeEnv":
        """The environment of a procedure nested in this one's program."""
        return CompileTimeEnv.for_procedure(params, free, self.program)

    def lookup(self, name: Symbol) -> Location:
        """The location of ``name``; unknown names are global references."""
        env: CompileTimeEnv | None = self
        while env is not None:
            loc = env._mapping.get(name)
            if loc is not None:
                return loc
            env = env._parent
        return Global(name)

    def is_bound_locally(self, name: Symbol) -> bool:
        env: CompileTimeEnv | None = self
        while env is not None:
            if name in env._mapping:
                return True
            env = env._parent
        return False

    def bind_local(self, name: Symbol, index: int) -> "CompileTimeEnv":
        return CompileTimeEnv({name: Local(index)}, self, self.program)

    def bind(self, name: Symbol, location: Location) -> "CompileTimeEnv":
        return CompileTimeEnv({name: location}, self, self.program)
