"""Local-state signatures for suspended algorithm generators.

The step table of :class:`repro.shm.compiled.CompiledProtocol` is a trie
over operation-result *histories*.  Histories overapproximate local
states: an algorithm that snapshots, loops and overwrites a variable can
reach the same local state along many histories, and every one of them
gets its own trie node — and, downstream, its own exploration memo entry.
This module recovers the quotient: a **frame signature** that captures
exactly the part of a suspended generator that can influence its future
behaviour, so the compiler can merge history-trie nodes into true local
states (turning the trie into a DAG).

A suspended generator's future is a function of, per frame in its
``yield from`` chain:

* the code object and the suspension offset (``f_lasti``);
* the *live* locals — those read on some path after resumption.  Dead
  locals (a loop's scratch variables from a previous iteration, the
  binding about to be overwritten by the ``yield``'s own result) are
  exactly the noise that keeps equal local states apart;
* the evaluation stack.  Python exposes no way to read it, so signatures
  are only produced for code whose yields provably suspend with a
  *trivial* stack: depth 1 at a plain ``yield`` (just the yielded value)
  or depth 2 at the ``YIELD_VALUE`` of a ``yield from`` delegation (the
  sub-generator — which the signature walks explicitly — plus the
  value).  The static check runs once per code object; code that yields
  from inside a larger expression simply gets no signature and the
  caller keeps the exact history trie.

Liveness is a standard backward dataflow over the CFG of the bytecode
(conditional jumps, loops and the 3.11+ exception table all contribute
edges).  Every approximation errs conservative: unknown local-touching
opcodes, unreachable suspension offsets, unfreezable or unhashable
locals, and non-generator delegation targets all yield ``None`` — the
caller falls back to history identity, which is always sound.
"""

from __future__ import annotations

import dis
import sys
from types import CodeType, GeneratorType
from typing import Any, Callable

__all__ = [
    "UNBOUND",
    "code_token",
    "generator_signature",
    "suspension_profile",
]


class _Unbound:
    """Placeholder for a live-but-unbound local (hashable, picklable)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"

    def __reduce__(self):
        return (_Unbound, ())


UNBOUND = _Unbound()

# Local-variable opcodes (3.11/3.12; 3.13 pair-forms included).  An
# unlisted opcode that names a local is treated as "analysis failed".
_LOAD_LOCAL = {"LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_FAST_BORROW"}
_STORE_LOCAL = {"STORE_FAST"}
_DELETE_LOCAL = {"DELETE_FAST"}
_PAIR_LOCAL = {
    "LOAD_FAST_LOAD_FAST",
    "LOAD_FAST_BORROW_LOAD_FAST",
    "STORE_FAST_STORE_FAST",
    "STORE_FAST_LOAD_FAST",
}
_KNOWN_LOCAL = _LOAD_LOCAL | _STORE_LOCAL | _DELETE_LOCAL | _PAIR_LOCAL | {
    "LOAD_FAST_AND_CLEAR",  # 3.12 comprehension inlining: treat as a read
}

_TERMINAL = {"RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE"}
#: Falls through into the generator body on first resume, which pushes
#: the (None) value that the following POP_TOP discards.
_RESUME_PUSH = {"RETURN_GENERATOR"}
_UNCONDITIONAL = {
    "JUMP_FORWARD",
    "JUMP_BACKWARD",
    "JUMP_BACKWARD_NO_INTERRUPT",
    "JUMP_ABSOLUTE",
}


class SuspensionProfile:
    """Per-code-object result of the liveness + stack-discipline analysis.

    ``live_at`` maps each yield instruction's offset to the frozenset of
    local names live after resumption there; ``always_live`` holds cell
    and free variables (closure state is never filtered).  ``ok`` is
    False when any part of the analysis could not establish soundness —
    the caller must then treat every state of this code as distinct.
    """

    __slots__ = ("ok", "live_at", "always_live", "token", "varnames")

    def __init__(self, ok, live_at, always_live, token, varnames):
        self.ok = ok
        self.live_at = live_at
        self.always_live = always_live
        self.token = token
        self.varnames = varnames


def code_token(code: CodeType) -> tuple:
    """Identity of a code object inside frame signatures: its qualified
    name, file and first line."""
    return (code.co_qualname, code.co_filename, code.co_firstlineno)


def _local_effect(instr) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """``(reads, writes)`` on locals, or None for "unknown local opcode"."""
    name = instr.opname
    if name in _LOAD_LOCAL:
        return (instr.argval,), ()
    if name in _STORE_LOCAL:
        return (), (instr.argval,)
    if name in _DELETE_LOCAL:
        return (), (instr.argval,)
    if name == "LOAD_FAST_AND_CLEAR":
        return (instr.argval,), ()
    if name in _PAIR_LOCAL:
        first, second = instr.argval
        if name.startswith("LOAD"):
            return (first, second), ()
        if name == "STORE_FAST_STORE_FAST":
            return (), (first, second)
        # STORE_FAST_LOAD_FAST: store first, then load second.  The load
        # observes the post-store environment, so a self-load is dead.
        if first == second:
            return (), (first,)
        return (second,), (first,)
    return (), ()


def _successors(index, instr, offset_index):
    """Normal-flow successor indices of one instruction."""
    name = instr.opname
    if name in _TERMINAL:
        return []
    succ = []
    target = None
    if instr.opcode in dis.hasjabs or instr.opcode in dis.hasjrel:
        target = offset_index.get(instr.argval)
    if name in _UNCONDITIONAL:
        return [] if target is None else [target]
    succ.append(index + 1)
    if target is not None:
        succ.append(target)
    return succ


def suspension_profile(code: CodeType) -> SuspensionProfile:
    """Analyse one code object; never raises (failure means ``ok=False``)."""
    try:
        return _analyse(code)
    except Exception:
        return SuspensionProfile(
            False, {}, frozenset(), code_token(code), ()
        )


def _analyse(code: CodeType) -> SuspensionProfile:
    token = code_token(code)
    varnames = tuple(code.co_varnames)
    always_live = frozenset(code.co_cellvars) | frozenset(code.co_freevars)
    instructions = list(dis.get_instructions(code))
    if not instructions:
        return SuspensionProfile(False, {}, always_live, token, varnames)
    offset_index = {instr.offset: i for i, instr in enumerate(instructions)}

    exception_edges: dict[int, list[tuple[int, int]]] = {}
    entries = getattr(dis.Bytecode(code), "exception_entries", ()) or ()
    for entry in entries:
        target = offset_index.get(entry.target)
        if target is None:
            return SuspensionProfile(False, {}, always_live, token, varnames)
        depth = entry.depth + 1 + (1 if entry.lasti else 0)
        for i, instr in enumerate(instructions):
            if entry.start <= instr.offset < entry.end:
                exception_edges.setdefault(i, []).append((target, depth))

    count = len(instructions)
    gens: list[frozenset[str]] = []
    kills: list[frozenset[str]] = []
    succs: list[list[int]] = []
    for i, instr in enumerate(instructions):
        if instr.opname.endswith("FAST") and instr.opname not in _KNOWN_LOCAL:
            return SuspensionProfile(False, {}, always_live, token, varnames)
        reads, writes = _local_effect(instr)
        gens.append(frozenset(reads))
        kills.append(frozenset(writes) - frozenset(reads))
        normal = [s for s in _successors(i, instr, offset_index) if s < count]
        succs.append(normal + [t for t, _ in exception_edges.get(i, ())])

    # Backward liveness to a fixed point (code objects here are tiny).
    live_in = [frozenset()] * count
    changed = True
    while changed:
        changed = False
        for i in range(count - 1, -1, -1):
            out: frozenset[str] = frozenset()
            for s in succs[i]:
                out |= live_in[s]
            new = (out - kills[i]) | gens[i]
            if new != live_in[i]:
                live_in[i] = new
                changed = True

    # Forward stack-depth simulation (normal flow + exception handlers).
    depth_at: dict[int, int] = {0: 0}
    work = [0]
    while work:
        i = work.pop()
        d = depth_at[i]
        instr = instructions[i]
        arg = instr.arg
        for s in _successors(i, instr, offset_index):
            if s >= count:
                continue
            jump = s != i + 1
            if instr.opname in _RESUME_PUSH:
                nd = d + 1
            else:
                nd = d + dis.stack_effect(instr.opcode, arg, jump=jump)
            seen = depth_at.get(s)
            if seen is None:
                depth_at[s] = nd
                work.append(s)
            elif seen != nd:
                return SuspensionProfile(
                    False, {}, always_live, token, varnames
                )
        for s, hd in exception_edges.get(i, ()):
            seen = depth_at.get(s)
            if seen is None:
                depth_at[s] = hd
                work.append(s)
            elif seen != hd:
                return SuspensionProfile(
                    False, {}, always_live, token, varnames
                )

    live_at: dict[int, frozenset[str]] = {}
    for i, instr in enumerate(instructions):
        if instr.opname != "YIELD_VALUE":
            continue
        d = depth_at.get(i)
        if d is None:
            continue  # unreachable yield: it can never suspend us
        if d == 2 and i > 0 and instructions[i - 1].opname == "SEND":
            pass  # `yield from` delegation: the extra slot is the
            # sub-generator, which the signature walks explicitly
        elif d != 1:
            return SuspensionProfile(False, {}, always_live, token, varnames)
        out: frozenset[str] = frozenset()
        for s in succs[i]:
            out |= live_in[s]
        live_at[instr.offset] = out
    if not live_at:
        # A generator with no reachable yields decides immediately; its
        # frames are never captured, but mark the profile unusable so a
        # surprise suspension falls back loudly-by-correctness.
        return SuspensionProfile(False, {}, always_live, token, varnames)
    return SuspensionProfile(True, live_at, always_live, token, varnames)


_PROFILE_CACHE: dict[int, SuspensionProfile] = {}


def _profile(code: CodeType) -> SuspensionProfile:
    profile = _PROFILE_CACHE.get(id(code))
    if profile is None:
        profile = suspension_profile(code)
        _PROFILE_CACHE[id(code)] = profile
    return profile


def generator_signature(
    generator: Any, freeze: Callable[[Any], Any]
) -> tuple | None:
    """Local-state signature of a suspended generator, or None.

    Walks the ``yield from`` chain; each frame contributes
    ``(code token, f_lasti, ((name, frozen value), ...))`` over its live
    locals (sorted by name).  ``None`` — *not* an error — means "no
    sound signature available here"; callers fall back to history
    identity.
    """
    parts = []
    current = generator
    while True:
        if not isinstance(current, GeneratorType):
            return None
        frame = current.gi_frame
        if frame is None:
            return None
        code = frame.f_code
        profile = _profile(code)
        if not profile.ok:
            return None
        lasti = frame.f_lasti
        live = profile.live_at.get(lasti)
        if live is None:
            return None
        names = sorted(live | profile.always_live)
        local_values = frame.f_locals
        items = tuple(
            (name, freeze(local_values[name]))
            if name in local_values
            else (name, UNBOUND)
            for name in names
        )
        parts.append((profile.token, lasti, items))
        nested = current.gi_yieldfrom
        if nested is None:
            break
        current = nested
    signature = tuple(parts)
    try:
        hash(signature)
    except TypeError:
        return None
    return signature


if sys.version_info >= (3, 14):  # pragma: no cover - future-proofing
    # Unvetted bytecode generation: force the conservative fallback
    # until the analysis is revalidated against the new opcode set.
    def generator_signature(generator, freeze):  # noqa: F811
        return None
