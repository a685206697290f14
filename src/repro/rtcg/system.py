"""Top-level API of the composed partial-evaluation / compilation system."""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Iterable, Sequence

from typing import TYPE_CHECKING

from repro import obs

from repro.compiler.fusion import ObjectCodeBackend
from repro.lang.ast import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.image.remote import TieredStore
    from repro.image.store import ImageStore
from repro.lang.parser import parse_program
from repro.pe.backend import ResidualProgram, SourceBackend
from repro.pe.bta import BTAResult, analyze as bta_analyze
from repro.pe.cogen import (
    CompiledGeneratingExtension,
    compile_generating_extension,
)
from repro.pe.errors import BudgetExceeded
from repro.pe.residual_cache import ResidualCache
from repro.pe.values import freeze_static


def program_digest(
    program: Program,
    signature: str,
    memo_hints: Iterable[str] = (),
    unfold_hints: Iterable[str] = (),
) -> str:
    """A stable cross-process identity for a specialization problem.

    Hashes the unparsed program text together with the goal, the
    binding-time signature and the analysis hints: everything that
    determines what a generating extension will emit for given statics
    (every extension runs the polyvariant division).  The v3 prefix
    retires the v2 keys, which also hashed a division discipline.
    On-disk image keys must include this — the in-memory residual cache
    is per-extension, so the program is implicit there, but a store
    shared between processes is not.
    """
    from repro.lang.unparse import unparse_program
    from repro.sexp.writer import write

    h = hashlib.sha256()
    h.update(b"repro-program-v3\x00")
    h.update(program.goal.name.encode("utf-8"))
    h.update(b"\x00")
    h.update(signature.encode("utf-8"))
    h.update(b"\x00")
    for hint in sorted(memo_hints):
        h.update(b"m:" + hint.encode("utf-8") + b"\x00")
    for hint in sorted(unfold_hints):
        h.update(b"u:" + hint.encode("utf-8") + b"\x00")
    for d in unparse_program(program):
        h.update(write(d).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class GeneratingExtension:
    """A generating extension p-gen for a program p (§3).

    Built once from a program and a binding-time signature (the expensive
    part: front end + binding-time analysis, then compiling the
    annotated program into a generating extension,
    :mod:`repro.pe.cogen`), then applied any number of times to static
    inputs, producing residual programs — as source (``to_source``) or
    directly as executable object code (``to_object_code``), the paper's
    run-time code generation.

    An extension has one division, the polyvariant one
    (:func:`repro.pe.bta.analyze`), as the paper builds a generating
    extension from one annotated program.  The monovariant baseline is
    not an option here: compile the baseline's annotated program with
    :func:`repro.pe.cogen.compile_generating_extension` and call its
    ``generate`` directly.

    Applications are memoized in a bounded, thread-safe LRU **residual
    cache** keyed by ``(frozen static args, dif strategy, backend
    kind)``, the kind being ``"source"`` or ``"object"``: re-applying
    the extension to structurally equal static input returns the
    already-generated residual program instead of re-running the
    generating extension (the paper's "built once ... applied any number
    of times", with the application side amortized too).
    ``cache_size=0`` disables the cache, and :meth:`cache_clear` empties
    it.  The extension is safe to share between threads: the cache is single-flight (concurrent misses on one
    key generate once), and every generation run builds into a fresh
    backend, which owns its residual names, so repeated generation for
    one static input is byte-identical.

    ``store_dir`` adds an **L2 tier** beneath the in-memory cache: a
    content-addressed on-disk image store (:mod:`repro.image.store`).  A
    miss in the memory cache probes the store before running the
    specializer; a specialization writes its image through.  The store
    outlives the process, so a fresh extension over the same program and
    signature warm-starts from disk without specializing at all.  Every
    image loaded from disk is untrusted and re-checked by the bytecode
    verifier; an image that fails the check is a miss, and the program
    is specialized again.

    ``remote_store`` (a ``"host:port"`` endpoint of a
    ``python -m repro image serve-store`` object server, or a
    pre-built :class:`~repro.image.remote.RemoteStoreClient`) adds an
    **L3 tier** behind the local store: an L2 miss reads through to the
    remote (replicating hits back down), and writes are pushed behind
    asynchronously, so a fleet of workers shares one warm cache.  Remote
    images are exactly as untrusted as local ones — verify-on-load is
    the trust boundary for both.  With ``store_dir=None`` the extension
    runs remote-only.  Call :meth:`flush_store` before process exit to
    drain the write-behind queue.
    """

    def __init__(
        self,
        program: Program | str,
        signature: str,
        goal: str | None = None,
        memo_hints: Iterable[str] = (),
        unfold_hints: Iterable[str] = (),
        cache_size: int = 128,
        store_dir: Any = None,
        remote_store: Any = None,
        analyze: str = "warn",
        max_unfold_depth: int = 5_000,
        max_residual_size: int = 1_000_000,
    ):
        if analyze not in ("warn", "forbid", "off"):
            raise ValueError(f"unknown analyze mode {analyze!r}")
        if isinstance(program, str):
            program = parse_program(program, goal=goal)
        self.program = program
        self.signature = signature
        # Always-on counters; the spans of construction and of every
        # generation record into the same registry, which
        # ``cache_stats()["stages"]`` reads.
        self.metrics = obs.Counters("rtcg", ("specializer_runs", "budget_trips"))
        with obs.recording(self.metrics.registry):
            self.bta: BTAResult = bta_analyze(
                program, signature, memo_hints=memo_hints,
                unfold_hints=unfold_hints,
            )
            # Re-check the analysis output with the independent
            # linter: a BTA bug surfaces here as an AnnotationViolation
            # instead of a mis-specialized program (variant-aware:
            # violations name the function variant and its originating
            # call sites).
            from repro.pe.check import verify_annotated

            verify_annotated(self.bta.annotated, self.bta.variants)
            # Specialization-safety analysis, up front: findings either
            # warn (the runtime budgets below still backstop actual
            # divergence) or forbid (refuse the program before any
            # specialization runs).
            self.analysis_report = None
            if analyze != "off":
                from repro.analysis import analyze_bta
                from repro.analysis.report import UnsafeProgramError

                self.analysis_report = analyze_bta(self.bta)
                if not self.analysis_report.safe:
                    if analyze == "forbid":
                        raise UnsafeProgramError(self.analysis_report)
                    import warnings

                    warnings.warn(
                        "specialization-safety analysis reported findings:\n"
                        + str(self.analysis_report),
                        stacklevel=2,
                    )
            # Compile the generating extension once (Fig. 8's "Load");
            # every generation runs it.
            self._compiled = compile_generating_extension(self.bta.annotated)
        self.max_unfold_depth = max_unfold_depth
        self.max_residual_size = max_residual_size
        self.cache = ResidualCache(cache_size)
        self.store: "ImageStore | TieredStore | None" = None
        self._program_digest: str | None = None
        if store_dir is not None or remote_store is not None:
            local = None
            if store_dir is not None:
                from repro.image.store import ImageStore

                local = ImageStore(store_dir)
            if remote_store is not None:
                from repro.image.remote import (
                    RemoteStoreClient,
                    TieredStore,
                    parse_endpoint,
                )

                if isinstance(remote_store, RemoteStoreClient):
                    client = remote_store
                else:
                    host, port = parse_endpoint(remote_store)
                    client = RemoteStoreClient(host, port)
                self.store = TieredStore(local, client)
                obs.count("rtcg.remote_store_attached")
            else:
                self.store = local
            self._program_digest = program_digest(
                program, signature, memo_hints, unfold_hints
            )

    def compiled(self) -> CompiledGeneratingExtension:
        """The compiled generating extension (the cogen path, [59]).

        Built once, at construction (timed as the ``pe.cogen.compile``
        stage, Fig. 8's "Load" column); it maps static input to residual code without
        re-traversing the annotated program, and every generation of this
        extension runs it.  It caches nothing itself.
        """
        return self._compiled

    # -- generation -------------------------------------------------------------

    def _persist_key(self, frozen: tuple, dif_strategy: str, kind: str):
        """The on-disk index key, or None when the statics embed
        process-local identity and cannot name a cross-process image."""
        if self.store is None:
            return None
        from repro.image.store import UnpersistableKey, store_key

        try:
            return store_key(
                self._program_digest or "", frozen, dif_strategy, kind
            )
        except UnpersistableKey:
            return None

    def _generate(
        self,
        static_args: Sequence[Any],
        dif_strategy: str,
        backend_class: type,
    ) -> ResidualProgram:
        kind = backend_class.kind
        store = self.store
        frozen = None
        persist_key = None
        if store is not None or self.cache.maxsize > 0:
            frozen = tuple(freeze_static(a) for a in static_args)
        if store is not None and frozen is not None:
            persist_key = self._persist_key(frozen, dif_strategy, kind)

        def produce() -> ResidualProgram:
            # Everything written to ``residual.stats`` here happens
            # *before* the program is published (cached / returned), so it
            # is a production fact shared by all future callers — never a
            # per-call fact.  Per-call facts go through the
            # ``with_call_stats`` view below; once a ResidualProgram is in
            # the cache it is immutable (see DESIGN.md §5f).
            #
            # L2: the on-disk image store.  A hit deserializes and
            # re-verifies persisted object code instead of specializing;
            # an image that fails verification is a miss.
            if store is not None and persist_key is not None:
                loaded = store.get(persist_key)
                if loaded is not None:
                    loaded.stats["disk_hit"] = True
                    return loaded
            # A fresh backend per run owns a fresh name supply, which
            # keeps residual naming deterministic (byte-identical
            # regeneration) and isolates concurrent runs from each other.
            try:
                residual = self._compiled.generate(
                    static_args,
                    backend_class(),
                    dif_strategy=dif_strategy,
                    max_unfold_depth=self.max_unfold_depth,
                    max_residual_size=self.max_residual_size,
                )
            except BudgetExceeded:
                self.metrics.count("budget_trips")
                raise
            self.metrics.count("specializer_runs")
            if store is not None and persist_key is not None:
                digest = store.put(persist_key, residual)
                if digest is not None:  # write-through succeeded
                    residual.stats["image_digest"] = digest
                    residual.stats["image_key"] = persist_key.digest
            return residual

        with obs.recording(self.metrics.registry), obs.span(
            "rtcg.generate", kind=kind, goal=str(self.program.goal)
        ) as sp:
            if self.cache.maxsize <= 0:
                return produce()
            key = (frozen, dif_strategy, kind)
            cached, hit = self.cache.get_or_generate(key, produce)
            sp.set(cache_hit=hit)
            # The cached object is shared between every caller that
            # hits this key (and every waiter of its single flight),
            # so the per-call facts must not be written into it:
            # return a shallow view owning its own stats dict instead.
            return cached.with_call_stats(
                cache_hit=hit, cache=self.cache.stats()
            )

    def to_source(
        self,
        static_args: Sequence[Any],
        dif_strategy: str = "duplicate",
    ) -> ResidualProgram:
        """Generate a residual *source* program (classical PE)."""
        return self._generate(static_args, dif_strategy, SourceBackend)

    def to_object_code(
        self,
        static_args: Sequence[Any],
        dif_strategy: str = "duplicate",
    ) -> ResidualProgram:
        """Generate residual *object code* directly (the fused system).

        Every generated template is bytecode-verified at generation time
        (:mod:`repro.vm.verify`).  No optimizer runs: the combinators
        emit no dead store, reload or unused slot to remove.
        """
        return self._generate(static_args, dif_strategy, ObjectCodeBackend)

    def __call__(
        self, static_args: Sequence[Any], dif_strategy: str = "duplicate"
    ) -> ResidualProgram:
        return self.to_object_code(static_args, dif_strategy=dif_strategy)

    # -- cache introspection -----------------------------------------------------

    def peek(
        self,
        static_args: Sequence[Any],
        dif_strategy: str = "duplicate",
        kind: str = "object",
    ) -> ResidualProgram | None:
        """A read-only L1 probe: the cached residual program, or ``None``.

        Unlike generation (and unlike :meth:`ResidualCache.lookup`),
        peeking neither promotes the entry's LRU recency nor counts a
        hit, so inspection/monitoring paths — the service layer's
        ``probe`` request, dashboards polling warmth — cannot perturb
        eviction order.  ``kind`` is the backend discriminator,
        ``"object"`` or ``"source"``.
        """
        if self.cache.maxsize <= 0:
            return None
        frozen = tuple(freeze_static(a) for a in static_args)
        return self.cache.peek((frozen, dif_strategy, kind))

    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss/eviction/wait counters of the cache.

        Includes ``specializer_runs`` — how many times this extension
        actually ran the specializer — ``budget_trips``, the per-span
        ``stages`` totals of its construction and generations
        (``{span name: {"count", "seconds"}}``; nested spans count in
        full), and, when an image store is attached, its counters under
        ``"store"``.  A warm start shows ``specializer_runs == 0`` with
        ``store.hits > 0``.

        The returned dict is a **deep-copied snapshot**: every nested
        dict (``stages``, ``store``) is detached from the
        extension's live state, so a concurrent reader — the
        specialization server snapshots stats while worker threads are
        mid-request — never observes a dict mutated under it.
        """
        stats = self.cache.stats()
        stats.update(self.metrics.snapshot())
        stats["stages"] = obs.stage_totals(self.metrics.registry)
        if self.store is not None:
            stats["store"] = self.store.stats()
        # Every sub-dict above is already a fresh copy taken under its
        # owning registry's lock; the deepcopy is the guarantee that stays true as
        # the structure grows (snapshot-safety is part of the contract).
        return copy.deepcopy(stats)

    def cache_clear(self) -> None:
        self.cache.clear()

    def flush_store(self, timeout: float = 10.0) -> bool:
        """Drain the tiered store's write-behind queue so every image
        this process generated reaches the shared remote tier.  A
        no-op (``True``) without a remote store."""
        flush = getattr(self.store, "flush", None)
        if flush is None:
            return True
        return bool(flush(timeout=timeout))

    def close_store(self, flush: bool = True, timeout: float = 5.0) -> None:
        """Shut down the tiered store's worker thread and connection
        (optionally flushing first).  A no-op without a remote store."""
        close = getattr(self.store, "close", None)
        if close is not None:
            close(flush=flush, timeout=timeout)


def make_generating_extension(*args: Any, **kwargs: Any) -> GeneratingExtension:
    """Build a generating extension (BTA happens here, once).

    A pass-through: the arguments are :class:`GeneratingExtension`'s.
    """
    return GeneratingExtension(*args, **kwargs)


def specialize_to_source(
    program: Program | str,
    signature: str,
    static_args: Sequence[Any],
    goal: str | None = None,
    dif_strategy: str = "duplicate",
    **kwargs: Any,
) -> ResidualProgram:
    """One-shot: residual source program for the given static input."""
    return make_generating_extension(
        program, signature, goal=goal, **kwargs
    ).to_source(static_args, dif_strategy=dif_strategy)


def specialize_to_object_code(
    program: Program | str,
    signature: str,
    static_args: Sequence[Any],
    goal: str | None = None,
    dif_strategy: str = "duplicate",
    **kwargs: Any,
) -> ResidualProgram:
    """One-shot: executable object code for the given static input."""
    return make_generating_extension(
        program, signature, goal=goal, **kwargs
    ).to_object_code(static_args, dif_strategy=dif_strategy)


def run_specialized(
    program: Program | str,
    signature: str,
    static_args: Sequence[Any],
    dynamic_args: Sequence[Any],
    goal: str | None = None,
    dif_strategy: str = "duplicate",
    **kwargs: Any,
) -> Any:
    """Classic RTCG: generate code for the static input and run it."""
    residual = specialize_to_object_code(
        program, signature, static_args, goal=goal,
        dif_strategy=dif_strategy, **kwargs
    )
    return residual.run(dynamic_args)
