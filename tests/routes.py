"""Every route from a program to a value, and every fault on the way.

Many routes reach one value; the first Futamura equation,
``residual(interp, prog)(input) == interp(prog, input)``, is the
contract all of them keep.  :data:`ROUTES` maps an in-process route's
name to its division (``None`` where it does not specialize) and a
function of a :class:`Case`, :data:`TIER_ROUTES` the routes through the
L2 store, the L3 server and the service; :func:`disagreements` compares
every route's outcome (a value in ``write`` notation, or an error
compared by class) with the interpreter's, up to three allowances
(DESIGN.md, "Route contract"): :func:`speculative_static_error`,
:func:`mono_lift_infelicity` and :func:`mono_split`.  :data:`FAULTS`
damages each tier's copy, scripts faulty peers and mutates images.
:func:`annotate` and :func:`specialize` are the one way tests run an
engine over an annotated program.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import signal
import socket
import struct
import tempfile
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from repro.analysis import analyze_bta
from repro.anf.convert import anf_convert_program
from repro.anf.grammar import is_anf_program
from repro.compiler import ErasingBackend, ObjectCodeBackend, compile_program
from repro.compiler.program import CompiledProgram, fold_program
from repro.image.codec import (
    _HEADER, CodecError, _frame, _unframe, decode_residual, encode_residual,
    residual_digest,
)
from repro.image.remote import ObjectServer, RemoteStoreClient
from repro.image.store import (
    ImageStore, UnpersistableKey, store_key, verify_residual,
)
from repro.interp import Env, Interpreter, run_program
from repro.lang import parse_program, walk
from repro.lang.assignment import eliminate_assignments, has_assignments
from repro.lang.ast import (
    App, Const, DApp, DIf, DLam, DPrim, If, Lam, Let, Lift, Prim, Program, Var,
)
from repro.lang.prims import write_value
from repro.lang.unparse import unparse_program
from repro.pe import (
    BindingTime, PEError, SourceBackend, Specializer, analyze, parse_signature,
)
from repro.pe.cogen import compile_generating_extension
from repro.pe.errors import BindingTimeError, SpecializationError
from repro.pe.fig3 import Fig3Specializer
from repro.pe.values import Dynamic, Static, freeze_static
from repro.rtcg import GeneratingExtension
from repro.runtime.errors import SchemeError
from repro.serve import SpecializationServer, TenantQuota
from repro.serve.client import ServiceError, SpecializationClient
from repro.serve.protocol import (
    FrameError, encode_frame, recv_frame, specialize_request,
)
from repro.sexp.writer import write
from repro.vm.profile import VMProfile
from repro.vm.verify import VerificationError
from repro.workloads import LAZY_SIGNATURE, lazy_interpreter, lazy_primes_program
from tests.helpers import unsound_residual

S, D = BindingTime.STATIC, BindingTime.DYNAMIC
ENGINES = ("specializer", "compiled")


def annotate(program, signature, goal=None, bta="poly", **hints):
    """The annotated program of ``program`` (source text or parsed)."""
    if isinstance(program, str):
        program = parse_program(program, goal=goal)
    return analyze(program, signature, bta=bta, **hints).annotated


def specialize(annotated, statics, engine="compiled", backend=None,
               dif_strategy="duplicate", **budgets):
    """The residual program of one ``engine`` run over ``annotated``."""
    if engine == "specializer":
        return Specializer(
            annotated, backend, dif_strategy=dif_strategy, **budgets
        ).run(statics)
    return compile_generating_extension(annotated).generate(
        statics, backend, dif_strategy=dif_strategy, **budgets
    )


def fold(program: Program, backend_class=ObjectCodeBackend) -> CompiledProgram:
    """``program`` folded into ``backend_class`` as ``compile_program``
    folds it: assignments eliminated, then ANF."""
    if any(has_assignments(d.body) for d in program.defs):
        program = eliminate_assignments(program)
    if not is_anf_program(program):
        program = anf_convert_program(program)
    backend = backend_class()
    fold_program(program, backend)
    return CompiledProgram(backend.templates, program.goal)


def patterns(arity: int) -> list[str]:
    """Every S/D signature of ``arity`` goal parameters."""
    return ["".join(p) for p in product("SD", repeat=arity)]


def merge(bts, statics, dynamics) -> tuple:
    """The goal's arguments from its ``statics`` and ``dynamics``."""
    s, d = iter(statics), iter(dynamics)
    return tuple(next(s) if bt is S else next(d) for bt in bts)


def split(bts, args) -> tuple[list, list]:
    """``args`` split into (statics, dynamics) by binding times ``bts``."""
    return ([a for a, bt in zip(args, bts) if bt is S],
            [a for a, bt in zip(args, bts) if bt is D])


def mono_split(annotated, args) -> tuple[list, list]:
    """Allowance 3, dynamized goal parameters: the monovariant join can
    make a goal parameter dynamic, so the mono route splits the
    arguments by its own goal division, not by the signature."""
    return split(annotated.goal_def().bts, args)


@dataclass
class Case:
    """A program, a signature and its goal's arguments."""

    program: Program
    signature: str
    args: tuple
    residuals: dict = field(default_factory=dict, repr=False)

    @cached_property
    def split(self) -> tuple[list, list]:
        return split(parse_signature(self.signature), self.args)

    @cached_property
    def extension(self) -> GeneratingExtension:
        return GeneratingExtension(
            self.program, self.signature, analyze="off", cache_size=0
        )

    @cached_property
    def safe(self) -> bool:
        """Whether the safety analysis accepts the signature; only the
        routes that do not specialize run a program it flags."""
        return analyze_bta(self.extension.bta).safe

    @cached_property
    def mono(self):
        annotated = annotate(self.program, self.signature, bta="mono")
        return annotated, mono_split(annotated, self.args)

    def residual(self, name: str) -> tuple:
        """Residual route ``name``'s program and its dynamic arguments,
        generated once per case."""
        if name not in self.residuals:
            division, make = RESIDUALS[name]
            dynamics = (self.mono[1] if division == "mono" else self.split)[1]
            self.residuals[name] = make(self), dynamics
        return self.residuals[name]


_FIG3_RULES = (Const, Var, Prim, Lam, App, Let, If, Lift, DPrim, DLam, DApp, DIf)


def _fig3(case: Case) -> Any:
    """Fig. 3's transliteration on a goal-only, memo-free program, its
    residual expression run by the interpreter; ``None`` elsewhere."""
    goal = case.extension.bta.annotated.goal_def()
    if len(case.extension.bta.annotated.defs) > 1 or not all(
        isinstance(n, _FIG3_RULES) and n != Var(goal.name)
        for n in walk(goal.body)
    ):
        return None
    values = dict(zip(goal.params, case.args))
    rho = {p: Static(values[p]) if bt is S else Dynamic(Var(p))
           for p, bt in zip(goal.params, goal.bts)}
    residual = Fig3Specializer().spec_expr(goal.body, rho)
    dynamic = {p: values[p] for p in goal.dynamic_params()}
    return Interpreter().eval(residual, Env(dynamic, None))


# name -> (division, case -> residual program)
RESIDUALS: dict[str, tuple[str, Callable[[Case], Any]]] = {
    **{f"extension/{kind}/{strategy}": ("poly", (
        lambda c, kind=kind, strategy=strategy: getattr(
            c.extension, f"to_{kind}"
        )(c.split[0], dif_strategy=strategy)
    )) for kind in ("source", "object_code") for strategy in ("duplicate", "join")},
    **{f"specializer/{kind}": ("poly", (
        lambda c, backend=backend: specialize(
            c.extension.bta.annotated, c.split[0], "specializer", backend()
        )
    )) for kind, backend in (("source", SourceBackend),
                             ("object_code", ObjectCodeBackend))},
    "mono/object_code": ("mono", lambda c: specialize(
        c.mono[0], c.mono[1][0], "compiled", ObjectCodeBackend(), "join"
    )),
    "image/object_code": ("poly", lambda c: decode_residual(
        encode_residual(c.residual("extension/object_code/join")[0])
    )),
}

# name -> (division or None, case -> value)
ROUTES: dict[str, tuple[str | None, Callable[[Case], Any]]] = {
    "interp": (None, lambda c: run_program(c.program, c.args)),
    "compile/auto": (None, lambda c: compile_program(c.program).run(c.args)),
    "compile/stock": (None, lambda c: compile_program(c.program, "stock").run(c.args)),
    "compile/erasing": (None, lambda c: fold(c.program, ErasingBackend).run(c.args)),
    "fig3": ("poly", _fig3),
}


def _run(name: str, profiled: bool = False) -> Callable[[Case], Any]:
    def route(case: Case) -> Any:
        residual, dynamics = case.residual(name)
        if profiled:
            return residual.run_profiled(dynamics, VMProfile())
        return residual.run(dynamics)

    return route


for _name, (_division, _) in RESIDUALS.items():
    ROUTES[_name] = (_division, _run(_name))
    if _name.endswith("object_code"):  # the counting dispatch loop too
        ROUTES[f"{_name}/profiled"] = (_division, _run(_name, profiled=True))

# No route takes a second on the inputs; one that runs this long (a
# residual loop that never exits) is reported, not waited for.
ROUTE_SECONDS = 10


def _expire(signum, frame):
    raise TimeoutError(f"no outcome within {ROUTE_SECONDS} s")


@contextmanager
def deadline() -> Iterator[None]:
    """Raise :class:`TimeoutError` in the block after ROUTE_SECONDS."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, ROUTE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Written(str):
    """A value already in write notation: a served response's."""


def written(value: Any) -> str:
    return value if isinstance(value, Written) else write_value(value)


def outcome(route: Callable[[Case], Any], case: Case) -> Any:
    """``route``'s value on ``case`` in write notation, the error it
    raised, or ``None`` where the route does not apply."""
    try:
        with deadline():
            value = route(case)
    except (SchemeError, PEError, TimeoutError) as exc:
        return exc
    return None if value is None else written(value)


def same(a: Any, b: Any) -> bool:
    """Equal values, or errors of one class.  A static primitive that
    fails in the program fails at specialization: a specialization-time
    error counts as the error it wraps."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = (e.__cause__ if speculative_static_error(e) else e for e in (a, b))
    return type(a) is type(b)


def speculative_static_error(result: Any) -> bool:
    """Allowance 1: specialization evaluated a static primitive under
    dynamic control, where the program itself need not reach it."""
    return type(result) is SpecializationError and str(result).startswith(
        "specialization-time error in ("
    )


def mono_lift_infelicity(result: Any) -> bool:
    """Allowance 2: the monovariant join lifted a value into a static
    parameter, where the polyvariant division splits a variant."""
    return type(result) is BindingTimeError and str(result).startswith(
        "dynamic argument to static "
    )


def disagreements(case: Case, tiers: bool = False) -> str:
    """Every route (with ``tiers``, every tier route too) whose outcome
    differs from the interpreter's beyond the three allowances, as
    ``name: outcome`` lines ("" if none)."""
    routes = {**ROUTES, **TIER_ROUTES} if tiers else ROUTES
    results = {
        name: outcome(route, case) for name, (division, route) in routes.items()
        if division is None or case.safe
    }
    reference = results["interp"]
    wrong = []
    for name, result in results.items():
        division = routes[name][0]
        if result is None or same(result, reference):
            continue
        if isinstance(reference, str) and speculative_static_error(result) and all(
            type(other) is type(result) and str(other) == str(result)
            for other_name, other in results.items()
            if routes[other_name][0] == division and other is not None
        ):
            continue  # every specializing route of the division stops alike
        if division == "mono" and mono_lift_infelicity(result) and same(
            results.get("extension/object_code/join"), reference
        ):
            continue
        wrong.append(f"{name}: {result!r}")
    return "\n".join([f"interp: {reference!r}", *wrong]) if wrong else ""


# -- tier routes ---------------------------------------------------------------
#
# A tier route writes the case's residual into one tier, lets a fault
# damage the store that holds the copy (an ImageStore, or the
# ObjectServer), and reads it back: through a fresh extension over the
# same L2 directory, through one with an empty L2 behind the L3 server,
# or with a second request to a server whose extensions keep no L1.

Damage = Callable[[Any, Case], Any]


@dataclass
class Read:
    """A read from a tier: the counters it moved, the digest of its code,
    a thunk for its value, its reader (``None`` on the served route)."""

    counters: dict
    digest: str
    value: Callable[[], Any]
    reader: GeneratingExtension | None = None


def _extension(case: Case, **store: Any) -> GeneratingExtension:
    return GeneratingExtension(
        case.program, case.signature, analyze="off", cache_size=0, **store
    )


def _counters(cache: dict) -> dict:
    """``cache_stats()`` flat: specializer runs, L2 and L3 counters."""
    store = cache["store"]
    return {"specializer_runs": cache["specializer_runs"], **store,
            **store.get("remote", {})}


def _read(reader: GeneratingExtension, kind: str, case: Case) -> Read:
    residual = getattr(reader, f"to_{kind}")(case.split[0])
    counters = _counters(reader.cache_stats())
    counters["disk_hit"] = int(bool(residual.stats.get("disk_hit")))
    return Read(counters, residual_digest(residual),
                lambda: residual.run(case.split[1]), reader)


def _l2(kind: str) -> Callable[[Case, Path, Damage], Any]:
    @contextmanager
    def tier(case: Case, root: Path, damage: Damage) -> Iterator[Read]:
        getattr(_extension(case, store_dir=root), f"to_{kind}")(case.split[0])
        damage(ImageStore(root), case)
        yield _read(_extension(case, store_dir=root), kind, case)

    return tier


@contextmanager
def _l3(case: Case, root: Path, damage: Damage) -> Iterator[Read]:
    with ObjectServer(root / "l3") as server:
        endpoint = ("127.0.0.1", server.port)
        writer = _extension(case, store_dir=root / "w", remote_store=endpoint)
        writer.to_object_code(case.split[0])
        writer.flush_store()
        writer.close_store()
        damage(server, case)
        reader = _extension(case, store_dir=root / "r", remote_store=endpoint)
        try:
            read = _read(reader, "object_code", case)
            for k, v in server.stats()["counters"].items():
                read.counters[f"server.{k}"] = v
            yield read
        finally:
            reader.close_store(flush=False)


@contextmanager
def _served(case: Case, root: Path, damage: Damage) -> Iterator[Read]:
    frame = specialize_request(
        "\n".join(map(write, unparse_program(case.program))), case.signature,
        list(map(write_value, case.split[0])), goal=case.program.goal.name,
        dynamics=list(map(write_value, case.split[1])),
    )
    no_l1 = TenantQuota(max_cached_residuals=0)
    with SpecializationServer(port=0, store_dir=root, quota=no_l1) as server, \
            SpecializationClient("127.0.0.1", server.port) as client:

        def request(frame: dict) -> tuple[dict, dict]:
            reply = client.request(frame)
            (tenant,) = server.stats()["tenants"].values()
            assert not tenant["trusted"]
            (extension,) = tenant["extensions"]
            return reply, _counters(extension["cache"])

        _, before = request(frame)
        (shard,) = root.iterdir()
        damage(ImageStore(shard), case)
        # an older client's "verify": false is ignored, like any field
        reply, after = request({**frame, "verify": False})
    counters = {k: v - before[k] for k, v in after.items() if type(v) is int}
    counters["disk_hit"] = int(reply["provenance"] == "l2")
    yield Read(counters, reply["fingerprint_digest"],
               lambda: Written(reply["value"]))


# name -> (the in-process route whose code the tier must hold, the
# counters a read of the intact copy shows, tier)
_OBJECT, _WARM = "extension/object_code/duplicate", {"specializer_runs": 0,
                                                      "disk_hit": 1}
TIERS: dict[str, tuple[str, dict, Callable[[Case, Path, Damage], Any]]] = {
    "l2/object_code": (_OBJECT, _WARM, _l2("object_code")),
    "l2/source": ("extension/source/duplicate", _WARM, _l2("source")),
    "l3/object_code": (_OBJECT, {"specializer_runs": 0, "remote_hits": 1,
                                 "adopts": 1}, _l3),
    "serve/object_code": (_OBJECT, _WARM, _served),
}


@contextmanager
def tier_read(tier: str, case: Case, damage: Damage) -> Iterator[Read]:
    """``tier``'s read of ``case`` after ``damage``, in a scratch dir."""
    with tempfile.TemporaryDirectory() as tmp:
        with TIERS[tier][2](case, Path(tmp) / "tier", damage) as read:
            yield read


def _agreeing(case: Case, served: ServiceError) -> Exception:
    """The in-process error a served error frame reports, by message."""
    try:
        ROUTES[_OBJECT][1](case)
    except (SchemeError, PEError) as local:
        if str(served).endswith(str(local)):
            return local
    raise AssertionError(f"served {served}, not the in-process outcome")


def _tier_route(name: str) -> Callable[[Case], Any]:
    like, warm, _ = TIERS[name]

    def route(case: Case) -> Any:
        try:  # only statics that name a cross-process image
            store_key("", tuple(map(freeze_static, case.split[0])), "", "")
        except UnpersistableKey:
            return None
        try:
            with tier_read(name, case, lambda store, case: None) as read:
                assert {k: read.counters[k] for k in warm} == warm, read.counters
                assert read.digest == residual_digest(case.residual(like)[0])
                return read.value()
        except ServiceError as served:
            raise _agreeing(case, served) from None

    return route


# name -> (division, case -> value): the tier routes, which the fixed
# inputs run and the random property does not.
TIER_ROUTES = {name: ("poly", _tier_route(name)) for name in TIERS}


# -- the fault table -----------------------------------------------------------
#
# A tier row damages a tier's copy after the write: its read must end
# in the interpreter's value, with each counter the row names at its
# count.  A peer row puts a scripted peer against a client, a codec row
# feeds the decoder mutated images: each ends in a typed error or in
# the reference value.  No row may run past ROUTE_SECONDS.

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"
INPUTS = {
    "power": Case(parse_program(POWER, goal="power"), "DS", (2, 5)),
    "lazy": Case(lazy_interpreter(), LAZY_SIGNATURE, (lazy_primes_program(), 3)),
}


@cache
def _other_image() -> bytes:
    """Another key's valid image: POWER's object code for n = 3."""
    return encode_residual(_extension(INPUTS["power"]).to_object_code([3]))


def redirected_ref(case: Case) -> Case:
    """The redirected-ref row's allowance, no other row's: nothing ties an
    object to the key whose ref names it (DESIGN.md §5d), so a ref
    pointed at :func:`_other_image` answers with that key's value."""
    return Case(INPUTS["power"].program, "DS", (*case.split[1], 3))


def _the_ref(store: Any) -> tuple[str, str]:
    """The store's one index key and the object digest it names."""
    (key,) = store.backend.list_ref_keys()
    return key, store.backend.read_ref(key)


def damaged(make: Callable[[bytes, Any], bytes], readdress: bool = False
            ) -> Damage:
    """Put ``make(object bytes, case)`` in place of the object: under its
    old name, which the new bytes do not hash to, or, to ``readdress``,
    under their own content address with the ref pointed at them, so
    that only the decoder and the verifier stand in the way."""
    def damage(store: Any, case: Case | None = None) -> None:
        key, digest = _the_ref(store)
        data = make(store.backend.read_object(digest), case)
        if readdress:
            digest = hashlib.sha256(data).hexdigest()
            store.backend.write_ref(key, digest)
        store.backend.write_object(digest, data)

    return damage


def _flipped(data: bytes, case: Case) -> bytes:
    middle = _HEADER.size + (len(data) - _HEADER.size) // 2
    return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]


def misdigested(data: bytes, case: Case | None = None) -> bytes:
    """``data`` with its embedded body digest zeroed under a recomputed
    CRC: any content address of it holds, and decoding rejects it."""
    payload = _unframe(data)
    embedded = decode_residual(data).stats["residual_digest"].encode()
    assert payload.count(embedded) == 1
    return _frame(payload.replace(embedded, b"0" * 64))


truncated = damaged(lambda data, case: data[: len(data) // 2])
replaced = damaged(lambda data, case: _other_image())
unsound = damaged(lambda data, case: encode_residual(
    unsound_residual(case.extension, *case.split[0])
), readdress=True)


def torn_ref(store: Any, case: Case | None = None) -> None:
    store.backend.write_ref(_the_ref(store)[0], "")


def dangling_ref(store: Any, case: Case | None = None) -> None:
    store.backend.delete_object(_the_ref(store)[1])


def _unwritable(store: Any, case: Case) -> None:
    # a file where the store directory was: chmod does not stop root
    shutil.rmtree(store.root)
    store.root.write_text("not a directory")


@dataclass(frozen=True)
class Fault:
    """A damage; the counters the next read shows (``specializer_runs`` is
    1 unless named); ``then``, counters a read of another kind moves by one."""

    damage: Damage
    counters: dict
    then: tuple[str, ...] = ()
    answer: Callable[[Case], Case] | None = None  # redirected_ref only


# tier -> row -> fault
TIER_FAULTS: dict[str, dict[str, Fault]] = {
    "l2/object_code": {
        "truncated": Fault(truncated, {"read_errors": 1}),
        "flipped-byte": Fault(damaged(_flipped, readdress=True),
                              {"read_errors": 1}),
        "wrong-body-digest": Fault(damaged(misdigested, readdress=True),
                                   {"read_errors": 1}),
        "replaced": Fault(replaced, {"read_errors": 1}),
        "unsound": Fault(unsound, {"verify_failures": 1}),
        "torn-ref": Fault(torn_ref, {"read_errors": 1, "misses": 1}),
        "dangling-ref": Fault(dangling_ref, {"misses": 1, "read_errors": 0}),
        "unwritable": Fault(_unwritable, {"write_errors": 1}),
        "redirected-ref": Fault(
            damaged(lambda data, case: _other_image(), readdress=True),
            {"hits": 1, "specializer_runs": 0}, answer=redirected_ref,
        ),
    },
    "l3/object_code": {
        "truncated": Fault(truncated, {"server.corrupt": 1, "remote_misses": 1}),
        "replaced": Fault(replaced, {"server.corrupt": 1, "remote_misses": 1}),
        "unsound": Fault(unsound, {"remote_verify_failures": 1, "adopts": 0}),
        "down": Fault(lambda server, case: server.stop(), {"remote_errors": 1},
                      then=("skipped_down",)),
    },
    "serve/object_code": {
        "unsound": Fault(unsound, {"verify_failures": 1}),
    },
}


def _tier_row(tier: str, fault: Fault, name: str) -> Callable[[], None]:
    case = INPUTS[name]

    def row() -> None:
        answer = fault.answer(case) if fault.answer else case
        reference = _image(name)[2] if answer is case else write_value(
            run_program(answer.program, answer.args))
        expected = {"specializer_runs": 1, **fault.counters}
        with deadline(), tier_read(tier, case, fault.damage) as read:
            assert (value := written(read.value())) == reference, value
            moved = {k: read.counters[k] for k in expected}
            assert moved == expected, read.counters
            if fault.then:
                read.reader.to_source(case.split[0])
                after = _counters(read.reader.cache_stats())
                moved = {k: after[k] - read.counters[k] for k in fault.then}
                assert moved == dict.fromkeys(fault.then, 1)

    return row


_PONG = encode_frame({"type": "pong", "v": 1})
# peer fault -> its connection's replies, one per request (None: wait
# for the client to hang up)
PEER_FAULTS: dict[str, list[bytes | None]] = {
    "stall": [b"RP\x01\x00", None],  # half a frame header, then silence
    "hang-up": [b"RP\x01\x00" + struct.pack(">I", 4096) + b'{"ty'],
    "refuse": [encode_frame({"type": "error", "v": 1, "code": "BUSY",
                             "message": "later", "retryable": True}), _PONG],
}


@contextmanager
def stub_peer(*script: list[bytes | None]) -> Iterator[tuple[int, list]]:
    """A peer replying ``script[i]`` on its i-th connection: (port, accepted)."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted: list = []

    def serve() -> None:
        for replies in script:
            with suppress(OSError):
                conn, _ = listener.accept()
                accepted.append(conn)
                with conn:
                    for reply in replies:
                        if reply is None:
                            conn.recv(1)
                            break
                        recv_frame(conn)
                        conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        with suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        listener.close()
        thread.join(timeout=5)


# client -> (a client of the port, its exchange with the faulty peer)
PEER_CLIENTS: dict[str, tuple[Callable[[int], Any], Callable[[Any], Any]]] = {
    "serve-client": (
        lambda port: SpecializationClient("127.0.0.1", port, timeout=0.2),
        lambda client: client.request({"type": "ping"}),
    ),
    "store-client": (
        lambda port: RemoteStoreClient("127.0.0.1", port, 0.2, retries=0),
        lambda client: client.fetch(key="ab" * 32),
    ),
}


def _peer_row(fault: str, client_name: str) -> Callable[[], None]:
    """A transport fault resets the connection, and the next exchange,
    on a fresh one, succeeds; a typed error keeps the connection."""
    make, exchange = PEER_CLIENTS[client_name]
    replies = PEER_FAULTS[fault]
    script = [replies] if replies[-1] == _PONG else [replies, [_PONG]]

    def row() -> None:
        with deadline(), stub_peer(*script) as (port, accepted):
            client = make(port)
            with pytest.raises((OSError, FrameError, ServiceError)):
                exchange(client)
            assert client.ping()
            assert len(accepted) == len(script)
            client.close()

    return row


@cache
def _image(name: str) -> tuple[bytes, list, str]:
    """``INPUTS[name]``'s image, its dynamic arguments and its value."""
    case = INPUTS[name]
    return (encode_residual(case.extension.to_object_code(case.split[0])),
            case.split[1], write_value(run_program(case.program, case.args)))


def check_image(data: bytes, dynamics: list, reference: str) -> None:
    """``data`` fails decoding or verification, or it is the canonical
    encoding of code that runs to ``reference`` or to a typed error."""
    try:
        residual = decode_residual(data)
        verify_residual(residual)
    except (CodecError, VerificationError):
        return
    assert encode_residual(residual) == data, "a non-canonical image decoded"
    try:
        value = write_value(residual.run(dynamics))
    except (SchemeError, PEError):
        return
    assert value == reference, value


MUTANTS = 100
MUTATIONS: dict[str, Callable[[random.Random, bytearray, int], None]] = {
    "flip": lambda rng, b, i: b.__setitem__(i, b[i] ^ 1 << rng.randrange(8)),
    "replace": lambda rng, b, i: b.__setitem__(i, rng.randrange(256)),
    "insert": lambda rng, b, i: b.insert(i, rng.randrange(256)),
    "delete": lambda rng, b, i: b.__delitem__(i),
    "truncate": lambda rng, b, i: b.__delitem__(slice(i, None)),
}


def _mutation_row(name: str, kind: str) -> Callable[[], None]:
    """MUTANTS seeded mutants of ``name``'s payload, for check_image."""
    def row() -> None:
        data, dynamics, reference = _image(name)
        rng = random.Random(f"{name}/{kind}")
        with deadline():
            for _ in range(MUTANTS):
                payload = bytearray(_unframe(data))
                MUTATIONS[kind](rng, payload, rng.randrange(len(payload)))
                check_image(_frame(bytes(payload)), dynamics, reference)

    return row


def _overlong_header() -> None:
    """The goal name's length as the overlong varint ``0x87 0x00``."""
    data, dynamics, reference = _image("power")
    payload = _unframe(data)
    assert payload[0] == len("power%1")
    check_image(_frame(bytes([payload[0] | 0x80, 0]) + payload[1:]),
                dynamics, reference)


FAULTS: dict[str, Callable[[], None]] = {
    **{f"{tier.partition('/')[0]}/{row}/{name}": _tier_row(tier, fault, name)
       for tier, rows in TIER_FAULTS.items() for row, fault in rows.items()
       for name in INPUTS if name == "power" or not tier.startswith("serve")},
    **{f"peer/{fault}/{client}": _peer_row(fault, client)
       for fault in PEER_FAULTS for client in PEER_CLIENTS},
    **{f"codec/{kind}/{name}": _mutation_row(name, kind)
       for kind in MUTATIONS for name in INPUTS},
    "codec/overlong-header/power": _overlong_header,
}
