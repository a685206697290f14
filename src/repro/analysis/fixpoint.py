"""A small shared fixpoint engine for the whole-program analyses.

Two solvers cover everything :mod:`repro.analysis` needs:

* :class:`Solver` — a classic monotone worklist fixpoint over a finite
  key set with an explicit join.  Clients: the interprocedural
  result-source summaries in :mod:`repro.analysis.callgraph` and the
  unboundedness propagation in :mod:`repro.analysis.bloat`.

* :func:`close_arrows` — closure of a set of *arrows* under
  endpoint-compatible composition, with the candidate pairs indexed by
  endpoint so only composable pairs are tried (used for the size-change
  graph composition closure in :mod:`repro.analysis.termination`).

Both terminate whenever the client's domain has finite height — every
domain in this package is flat or near-flat, so the bounds are small.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


class Solver:
    """Monotone worklist fixpoint: ``env[k] = join(env[k], transfer(k))``.

    ``transfer`` recomputes a key's value reading other keys through
    ``self.get``; the solver records the reads and re-queues a key when
    any key it read changes.  ``join`` must be an upper bound operator
    (idempotent, commutative, absorbing) and ``bottom`` its identity.
    """

    def __init__(
        self,
        join: Callable[[Any, Any], Any],
        bottom: Any = None,
    ):
        self._join = join
        self._bottom = bottom
        self.env: dict[Any, Any] = {}
        self._deps: dict[Any, set] = {}  # key -> keys whose transfer read it
        self._reading: Any = None

    def get(self, key: Any) -> Any:
        """Read a key's current value from inside a transfer function."""
        if self._reading is not None:
            self._deps.setdefault(key, set()).add(self._reading)
        return self.env.get(key, self._bottom)

    def solve(
        self,
        keys: Iterable[Any],
        transfer: Callable[[Any, "Solver"], Any],
    ) -> dict[Any, Any]:
        """Run to fixpoint; returns the final environment."""
        work = list(dict.fromkeys(keys))
        queued = set(work)
        while work:
            key = work.pop()
            queued.discard(key)
            self._reading = key
            try:
                new = transfer(key, self)
            finally:
                self._reading = None
            old = self.env.get(key, self._bottom)
            joined = self._join(old, new)
            if joined != old:
                self.env[key] = joined
                for dep in self._deps.get(key, ()):
                    if dep not in queued:
                        queued.add(dep)
                        work.append(dep)
        return self.env


def close_arrows(
    seeds: Iterable[T],
    source: Callable[[T], Hashable],
    target: Callable[[T], Hashable],
    compose: Callable[[T, T], T | None],
) -> list[T]:
    """Close a set of arrows under endpoint-compatible composition.

    ``source(a)`` / ``target(a)`` name an arrow's endpoints;
    ``compose(a, b)`` is consulted only for pairs with
    ``target(a) == source(b)`` and returns the composite arrow or
    ``None``.  The result is the least set that contains the seeds and
    every composite of two of its arrows, as a list in the order the
    arrows were found, so a deterministic ``compose`` gives the same
    list under every hash seed.  Terminates iff the closure is finite.
    """
    items: dict[T, None] = {}
    by_source: dict[Hashable, list[T]] = {}
    by_target: dict[Hashable, list[T]] = {}
    work: list[T] = []
    tried: set[tuple[T, T]] = set()

    def add(arrow: T) -> None:
        if arrow not in items:
            items[arrow] = None
            by_source.setdefault(source(arrow), []).append(arrow)
            by_target.setdefault(target(arrow), []).append(arrow)
            work.append(arrow)

    def attempt(a: T, b: T) -> None:
        # An ordered pair can surface from both endpoint scans; compose
        # once.
        if (a, b) not in tried:
            tried.add((a, b))
            composed = compose(a, b)
            if composed is not None:
                add(composed)

    for s in seeds:
        add(s)
    while work:
        x = work.pop()
        for y in list(by_source.get(target(x), ())):
            attempt(x, y)
        for y in list(by_target.get(source(x), ())):
            attempt(y, x)
    return list(items)
