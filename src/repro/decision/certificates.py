"""Typed, machine-checkable certificates for solvability verdicts.

Every non-OPEN verdict produced by the decision pipeline carries a
certificate: a small, JSON-serializable derivation that a standalone
``check()`` can replay *without trusting the code that produced it*.
Four kinds exist, one per pipeline tier:

=================  ====  =============================================
kind               tier  evidence replayed by ``check()``
=================  ====  =============================================
``theorem``        1     the cited closed form, re-derived from scratch
                         (gcds via ``math``, canonical bounds via the
                         Theorem 7 formulas, Theorem 9 witnesses
                         re-validated against every participating set)
``value-padding``  2     the kernel-set embedding between the task and
                         its padded witness family, plus the witness's
                         own theorem certificate
``reduction-path`` 3     every edge of a certified path through the
                         universe graph (containment by kernel-subset
                         recomputation, padding by zero-extension,
                         reductions against the executable registry),
                         plus the terminal node's nested certificate
``decision-map``   4     the map itself on a freshly rebuilt protocol
                         complex, facet by facet — and, for small n, an
                         exhaustive re-execution of the compiled
                         protocol on the prefix-sharing engine
=================  ====  =============================================

Certificates are identified by a content hash of their canonical JSON
payload, so equal derivations share an id across builds and the
disk-backed cache (:mod:`repro.decision.cache`) can dedupe them.

The checkers deliberately re-implement the closed forms they verify
(feasibility, canonical bounds, binomial gcds) instead of calling the
classifier: a certificate check that routed through
:func:`repro.core.solvability.classify` would be circular.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.gsb import GSBTask, SymmetricGSBTask
from ..core.kernel import kernel_vectors
from ..core.solvability import Solvability

#: Verdict values that certify wait-free solvability.
SOLVABLE_VALUES = frozenset(
    {Solvability.TRIVIAL.value, Solvability.SOLVABLE.value}
)
UNSOLVABLE_VALUE = Solvability.UNSOLVABLE.value

#: Largest complex (facet count) a decision-map check will rebuild.
MAX_CHECK_FACETS = 1_000_000

#: Largest CNF, in literals of its exactly-one and value-precede clauses,
#: the SAT attack builds for a complex.  The chain alone holds
#: (m-1)·C(C+1)/2 literals over C classes, so this gate, not the facet
#: gate, stops a rung whose complex fits but whose CNF would not fit in
#: memory (<5,4,0,2> at two rounds: ~1.8e8 literals).
MAX_CNF_LITERALS = 4_000_000

#: Largest n for which a decision-map check also replays the compiled
#: protocol exhaustively on the shm engine (cost grows super-exponentially).
MAX_ENGINE_REPLAY_N = 3


def canonical_json(payload: Mapping) -> str:
    """Deterministic serialization (the content that gets hashed)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def certificate_id(payload: Mapping) -> str:
    """Content-hash id: equal derivations get equal ids."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return "c" + digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Independent re-derivations shared by the checkers
# ----------------------------------------------------------------------

def _clamped(n: int, low: int, high: int) -> tuple[int, int]:
    return max(low, 0), min(high, n)


def _feasible(n: int, m: int, low: int, high: int) -> bool:
    """Lemma 2, re-derived (not imported from core.feasibility)."""
    low, high = _clamped(n, low, high)
    return low <= high and m * low <= n <= m * high


def _canonical_bounds(n: int, m: int, low: int, high: int) -> tuple[int, int]:
    """Theorem 7's tightening ``(l*, u*)``, re-derived from the formulas."""
    low, high = _clamped(n, low, high)
    low_c = max(low, n - high * (m - 1))
    high_c = min(high, n - low * (m - 1))
    return low_c, high_c


def _binomial_gcd(n: int) -> int:
    if n < 2:
        return 0
    return math.gcd(*(math.comb(n, i) for i in range(1, n // 2 + 1)))


def _task_key(raw: Any) -> tuple[int, int, int, int]:
    n, m, low, high = (int(part) for part in raw)
    return n, m, low, high


# ----------------------------------------------------------------------
# The certificate classes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Base: a payload plus a replayable ``check``.

    ``check()`` returns a list of human-readable problems — empty means
    the derivation replays cleanly.  Subclasses must keep ``payload()``
    canonical (plain JSON types only) so ids are stable.
    """

    def payload(self) -> dict:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    @property
    def id(self) -> str:
        return certificate_id(self.payload())

    @property
    def kind(self) -> str:
        return self.payload()["kind"]

    @property
    def verdict(self) -> str:
        return self.payload()["verdict"]


@dataclass(frozen=True)
class TheoremCertificate(Certificate):
    """Tier 1: a closed-form theorem applied to ``<n, m, l, u>``."""

    rule: str
    task: tuple[int, int, int, int]
    verdict_value: str
    cite: str
    params: tuple[tuple[str, Any], ...] = ()

    @staticmethod
    def from_payload(payload: Mapping) -> "TheoremCertificate":
        return TheoremCertificate(
            rule=payload["rule"],
            task=_task_key(payload["task"]),
            verdict_value=payload["verdict"],
            cite=payload["cite"],
            params=tuple(sorted(payload.get("params", {}).items())),
        )

    def payload(self) -> dict:
        return {
            "kind": "theorem",
            "rule": self.rule,
            "task": list(self.task),
            "verdict": self.verdict_value,
            "cite": self.cite,
            "params": dict(self.params),
        }

    def check(self) -> list[str]:
        n, m, low, high = self.task
        params = dict(self.params)
        problems: list[str] = []

        def expect(condition: bool, message: str) -> None:
            if not condition:
                problems.append(f"{self.rule} {self.task}: {message}")

        if self.rule == "lemma1-infeasible":
            expect(self.verdict_value == Solvability.INFEASIBLE.value,
                   "verdict must be infeasible")
            expect(not _feasible(n, m, low, high),
                   "parameters are feasible by Lemma 2")
        elif self.rule == "single-process":
            expect(self.verdict_value == Solvability.TRIVIAL.value,
                   "verdict must be trivial")
            expect(n == 1, "rule applies only to n = 1")
            expect(_feasible(n, m, low, high), "task must be feasible")
        elif self.rule == "theorem9":
            expect(self.verdict_value == Solvability.TRIVIAL.value,
                   "verdict must be trivial")
            expect(_feasible(n, m, low, high), "task must be feasible")
            threshold = -(-(2 * n - 1) // m)
            expect(params.get("threshold") == threshold,
                   f"threshold should be {threshold}")
            low_c, high_c = _clamped(n, low, high)
            expect(m == 1 or (low_c == 0 and high_c >= threshold),
                   "Theorem 9 condition fails")
            problems.extend(self._check_theorem9_witness(n, m, low, high))
        elif self.rule == "corollary5-perfect":
            expect(self.verdict_value == UNSOLVABLE_VALUE,
                   "verdict must be unsolvable")
            expect(m == n and n >= 2, "rule needs m = n >= 2")
            expect(_canonical_bounds(n, m, low, high) == (1, 1),
                   "canonical bounds are not perfect renaming")
        elif self.rule == "theorem10-lemma5":
            expect(self.verdict_value == UNSOLVABLE_VALUE,
                   "verdict must be unsolvable")
            gcd = _binomial_gcd(n)
            expect(params.get("gcd") == gcd, f"gcd should be {gcd}")
            expect(gcd != 1, "binomials are coprime; Theorem 10 silent")
            expect(m > 1, "rule needs m > 1")
            low_c, _ = _canonical_bounds(n, m, low, high)
            expect(low_c >= 1, "canonical lower bound is 0")
        elif self.rule in ("wsb-solvable", "wsb-unsolvable"):
            expect(m == 2 and n >= 2, "rule needs m = 2, n >= 2")
            expect(
                _canonical_bounds(n, m, low, high)
                == _canonical_bounds(n, 2, 1, n - 1),
                "canonical bounds differ from WSB's",
            )
            problems.extend(self._check_gcd_rule(n, params))
        elif self.rule in ("renaming-2n2-solvable", "renaming-2n2-unsolvable"):
            expect(m == 2 * n - 2, "rule needs m = 2n-2")
            expect(_canonical_bounds(n, m, low, high) == (0, 1),
                   "canonical bounds are not renaming's")
            problems.extend(self._check_gcd_rule(n, params))
        else:
            problems.append(f"unknown theorem rule {self.rule!r}")
        return problems

    def _check_gcd_rule(self, n: int, params: dict) -> list[str]:
        gcd = _binomial_gcd(n)
        problems = []
        if params.get("gcd") != gcd:
            problems.append(f"{self.rule}: gcd should be {gcd}")
        solvable = self.rule.endswith("-solvable")
        if solvable and not (n < 2 or gcd == 1):
            problems.append(f"{self.rule}: binomials not coprime at n={n}")
        if not solvable and gcd == 1:
            problems.append(f"{self.rule}: binomials coprime at n={n}")
        if solvable and self.verdict_value not in SOLVABLE_VALUES:
            problems.append(f"{self.rule}: verdict must be solvable")
        if not solvable and self.verdict_value != UNSOLVABLE_VALUE:
            problems.append(f"{self.rule}: verdict must be unsolvable")
        return problems

    @staticmethod
    def _check_theorem9_witness(n: int, m: int, low: int, high: int) -> list[str]:
        """Re-validate the constructive witness on every participating set.

        Exhaustive over the C(2n-1, n) participating subsets, so gated to
        small n; beyond the gate the closed-form condition already checked
        is the evidence.
        """
        if math.comb(2 * n - 1, n) > 2_000:
            return []
        from ..core.solvability import (
            communication_free_decision_function,
            decision_function_is_valid,
        )

        task = SymmetricGSBTask(n, m, low, high)
        delta = communication_free_decision_function(task)
        if delta is None:
            return [f"theorem9 {(n, m, low, high)}: no witness delta exists"]
        if not decision_function_is_valid(task, delta):
            return [f"theorem9 {(n, m, low, high)}: witness delta is invalid"]
        return []


@dataclass(frozen=True)
class PaddingCertificate(Certificate):
    """Tier 2: value padding between ``<n, m, 0, u>`` and ``<n, m', 0, u>``.

    With no lower bound, an algorithm for the task on *fewer* values is an
    algorithm for the task on more (the missing values simply go unused),
    and a solution of the task is a solution of the same task on *more*
    values.  So a solvable harder witness (``m' < m``) certifies
    solvability, and an unsolvable weaker witness (``m' > m``) certifies
    unsolvability — even when the witness family lies outside any built
    rectangle, because the witness verdict is itself a theorem certificate.
    """

    task: tuple[int, int, int, int]
    witness: tuple[int, int, int, int]
    direction: str  # "solvable-from-harder" | "unsolvable-from-weaker"
    verdict_value: str
    witness_certificate: TheoremCertificate

    @staticmethod
    def from_payload(payload: Mapping) -> "PaddingCertificate":
        return PaddingCertificate(
            task=_task_key(payload["task"]),
            witness=_task_key(payload["witness"]),
            direction=payload["direction"],
            verdict_value=payload["verdict"],
            witness_certificate=TheoremCertificate.from_payload(
                payload["witness_certificate"]
            ),
        )

    def payload(self) -> dict:
        return {
            "kind": "value-padding",
            "task": list(self.task),
            "witness": list(self.witness),
            "direction": self.direction,
            "verdict": self.verdict_value,
            "witness_certificate": self.witness_certificate.payload(),
        }

    def check(self) -> list[str]:
        n, m, low, high = self.task
        wn, wm, wlow, whigh = self.witness
        problems: list[str] = []
        label = f"value-padding {self.task} via {self.witness}"
        if (wn, wlow, whigh) != (n, low, high) or low != 0:
            problems.append(
                f"{label}: witness must share n and bounds with l = 0"
            )
        if self.direction == "solvable-from-harder":
            if not wm < m:
                problems.append(f"{label}: harder witness needs m' < m")
            if self.witness_certificate.verdict not in SOLVABLE_VALUES:
                problems.append(f"{label}: witness certificate not solvable")
            if self.verdict_value not in SOLVABLE_VALUES:
                problems.append(f"{label}: verdict must be solvable")
            if not _feasible(wn, wm, wlow, whigh):
                problems.append(f"{label}: harder witness is infeasible")
        elif self.direction == "unsolvable-from-weaker":
            if not wm > m:
                problems.append(f"{label}: weaker witness needs m' > m")
            if self.witness_certificate.verdict != UNSOLVABLE_VALUE:
                problems.append(f"{label}: witness certificate not unsolvable")
            if self.verdict_value != UNSOLVABLE_VALUE:
                problems.append(f"{label}: verdict must be unsolvable")
        else:
            problems.append(f"{label}: unknown direction {self.direction!r}")
        if self.witness_certificate.task != self.witness:
            problems.append(f"{label}: witness certificate is for another task")
        problems.extend(self.witness_certificate.check())
        return problems


@dataclass(frozen=True)
class ReductionPathCertificate(Certificate):
    """Tier 3: a certified path through the universe graph.

    Every edge ``u -> v`` means *a solution of v yields a solution of u*.
    A path from the task to a solvable terminal therefore certifies
    solvability; a path from an unsolvable terminal to the task certifies
    unsolvability.  ``check()`` re-verifies each edge semantically and
    recursively checks the terminal's own certificate.
    """

    task: tuple[int, int, int, int]
    verdict_value: str
    direction: str  # "solvable-from-target" | "unsolvable-from-source"
    path: tuple[tuple[tuple[int, int, int, int], tuple[int, int, int, int], str, str], ...]
    terminal: tuple[int, int, int, int]
    terminal_certificate: Certificate

    @staticmethod
    def from_payload(payload: Mapping) -> "ReductionPathCertificate":
        return ReductionPathCertificate(
            task=_task_key(payload["task"]),
            verdict_value=payload["verdict"],
            direction=payload["direction"],
            path=tuple(
                (
                    _task_key(edge["source"]),
                    _task_key(edge["target"]),
                    edge["edge_kind"],
                    edge.get("label", ""),
                )
                for edge in payload["path"]
            ),
            terminal=_task_key(payload["terminal"]),
            terminal_certificate=certificate_from_payload(
                payload["terminal_certificate"]
            ),
        )

    def payload(self) -> dict:
        return {
            "kind": "reduction-path",
            "task": list(self.task),
            "verdict": self.verdict_value,
            "direction": self.direction,
            "path": [
                {
                    "source": list(source),
                    "target": list(target),
                    "edge_kind": kind,
                    "label": label,
                }
                for source, target, kind, label in self.path
            ],
            "terminal": list(self.terminal),
            "terminal_certificate": self.terminal_certificate.payload(),
        }

    def check(self) -> list[str]:
        problems: list[str] = []
        label = f"reduction-path {self.task}"
        if not self.path:
            return [f"{label}: empty path"]
        for (_, earlier_target, _, _), (later_source, _, _, _) in zip(
            self.path, self.path[1:]
        ):
            if earlier_target != later_source:
                problems.append(f"{label}: path edges do not chain")
        head = self.path[0][0]
        tail = self.path[-1][1]
        if self.direction == "solvable-from-target":
            if head != self.task or tail != self.terminal:
                problems.append(f"{label}: path must run task -> terminal")
            if self.terminal_certificate.verdict not in SOLVABLE_VALUES:
                problems.append(f"{label}: terminal certificate not solvable")
            if self.verdict_value not in SOLVABLE_VALUES:
                problems.append(f"{label}: verdict must be solvable")
        elif self.direction == "unsolvable-from-source":
            if head != self.terminal or tail != self.task:
                problems.append(f"{label}: path must run terminal -> task")
            if self.terminal_certificate.verdict != UNSOLVABLE_VALUE:
                problems.append(f"{label}: terminal certificate not unsolvable")
            if self.verdict_value != UNSOLVABLE_VALUE:
                problems.append(f"{label}: verdict must be unsolvable")
        else:
            problems.append(f"{label}: unknown direction {self.direction!r}")
        if self.terminal_certificate.payload()["task"] != list(self.terminal):
            problems.append(f"{label}: terminal certificate is for another task")
        for edge in self.path:
            problems.extend(_check_edge(*edge))
        problems.extend(self.terminal_certificate.check())
        return problems


def _check_edge(
    source: tuple[int, int, int, int],
    target: tuple[int, int, int, int],
    kind: str,
    label: str,
) -> list[str]:
    """Semantic verification of one universe edge, by kind."""
    name = f"edge {source} -> {target} [{kind}]"
    if kind == "containment":
        if source[:2] != target[:2]:
            return [f"{name}: containment edges are intra-family"]
        source_set = set(kernel_vectors(*source))
        target_set = set(kernel_vectors(*target))
        if not target_set or not target_set < source_set:
            return [f"{name}: kernel sets are not strictly nested"]
        return []
    if kind == "padding":
        (sn, sm, slow, shigh), (tn, tm, tlow, thigh) = source, target
        if sn != tn or not tm < sm or slow != 0:
            return [f"{name}: padding needs same n, fewer values, l = 0"]
        target_set = kernel_vectors(tn, tm, tlow, thigh)
        if not target_set:
            return [f"{name}: padded family is infeasible"]
        source_set = set(kernel_vectors(sn, sm, slow, shigh))
        for vector in target_set:
            padded = tuple(vector) + (0,) * (sm - tm)
            if padded not in source_set:
                return [f"{name}: padded vector {padded} not legal for source"]
        return []
    if kind == "theorem8":
        n = source[0]
        if target != (n, n, 1, 1):
            return [f"{name}: Theorem 8 edges must target perfect renaming"]
        return []
    if kind == "reduction":
        from ..algorithms.reductions import REDUCTIONS

        reduction = REDUCTIONS.get(label)
        if reduction is None:
            return [f"{name}: no registry reduction named {label!r}"]
        n = source[0]
        if n < reduction.min_n or reduction.oracle is None:
            return [f"{name}: registry entry does not apply at n = {n}"]
        if _canonical_key(reduction.target(n)) != source:
            return [f"{name}: registry target does not canonicalize to source"]
        if _canonical_key(reduction.oracle(n)) != target:
            return [f"{name}: registry oracle does not canonicalize to target"]
        return []
    return [f"{name}: unknown edge kind"]


def _canonical_key(task: GSBTask) -> tuple[int, int, int, int] | None:
    if not task.is_symmetric:
        return None
    symmetric = (
        task if isinstance(task, SymmetricGSBTask) else task.as_symmetric()
    )
    n, m, low, high = symmetric.parameters
    return (n, m, *_canonical_bounds(n, m, low, high))


@dataclass(frozen=True)
class DecisionMapCertificate(Certificate):
    """Tier 4: an r-round comparison-based IIS protocol, as a decision map.

    The assignment lists one output value per comparison-based canonical
    class, in the deterministic class order of the rebuilt complex
    (:func:`repro.topology.decision.decision_class_order`), so no view
    trees need serializing.  ``check()`` re-verifies every facet of a
    freshly built complex and, for ``n <= MAX_ENGINE_REPLAY_N``, compiles
    the map into an executable protocol (r immediate-snapshot rounds,
    then the mapped decision) and model-checks it exhaustively on the
    prefix-sharing engine.
    """

    task: tuple[int, int, int, int]
    verdict_value: str
    n: int
    rounds: int
    assignment: tuple[int, ...]
    facets: int

    @staticmethod
    def from_payload(payload: Mapping) -> "DecisionMapCertificate":
        return DecisionMapCertificate(
            task=_task_key(payload["task"]),
            verdict_value=payload["verdict"],
            n=int(payload["n"]),
            rounds=int(payload["rounds"]),
            assignment=tuple(int(v) for v in payload["assignment"]),
            facets=int(payload["facets"]),
        )

    def payload(self) -> dict:
        return {
            "kind": "decision-map",
            "task": list(self.task),
            "verdict": self.verdict_value,
            "n": self.n,
            "rounds": self.rounds,
            "assignment": list(self.assignment),
            "facets": self.facets,
        }

    def check(self) -> list[str]:
        from ..topology.decision import decision_class_order, verify_decision_map
        from ..topology.is_complex import ISProtocolComplex, ordered_bell_number

        label = f"decision-map {self.task} ({self.rounds} rounds)"
        problems: list[str] = []
        if self.verdict_value not in SOLVABLE_VALUES:
            problems.append(f"{label}: verdict must be solvable")
        n, m = self.task[0], self.task[1]
        if n != self.n:
            return problems + [f"{label}: complex size differs from task n"]
        if ordered_bell_number(n) ** self.rounds > MAX_CHECK_FACETS:
            return problems + [f"{label}: complex too large to rebuild"]
        complex_ = ISProtocolComplex(n, self.rounds)
        if complex_.facet_count() != self.facets:
            problems.append(f"{label}: facet count mismatch")
        order = decision_class_order(complex_)
        if len(order) != len(self.assignment):
            return problems + [
                f"{label}: {len(self.assignment)} values for "
                f"{len(order)} classes"
            ]
        if any(not 1 <= value <= m for value in self.assignment):
            problems.append(f"{label}: decision value outside [1..{m}]")
        decision_map = dict(zip(order, self.assignment))
        task = SymmetricGSBTask(*self.task)
        problems.extend(
            f"{label}: {problem}"
            for problem in verify_decision_map(task, complex_, decision_map)
        )
        if not problems and n <= MAX_ENGINE_REPLAY_N:
            problems.extend(
                f"{label}: engine replay: {problem}"
                for problem in replay_decision_map(task, self.rounds, decision_map)
            )
        return problems


# ----------------------------------------------------------------------
# Executable replay of decision maps on the shm engine
# ----------------------------------------------------------------------

def decision_map_algorithm(rounds: int, decision_map: Mapping) -> Callable:
    """Compile a decision map into an executable shm protocol.

    The protocol runs ``rounds`` one-shot immediate snapshots (the
    Borowsky-Gafni levels algorithm on a fresh array per round), builds
    the same nested view tree the protocol complex models, and decides
    the value the map assigns to its comparison-based canonical class.
    """
    from ..shm.immediate_snapshot import immediate_snapshot
    from ..topology.views import base_view, canonical_local_state, round_view

    def algorithm(ctx):
        state = base_view(ctx.identity)
        for round_index in range(rounds):
            view = yield from immediate_snapshot(
                ctx, f"IS{round_index}", state
            )
            state = round_view(view.items())
        return decision_map[canonical_local_state(ctx.pid, state)]

    return algorithm


def replay_decision_map(
    task: GSBTask, rounds: int, decision_map: Mapping
) -> list[str]:
    """Exhaustively model-check a compiled decision map (full participation).

    Explores *every* interleaving of the compiled protocol with the
    prefix-sharing engine and validates each decided vector against the
    task — the "winning execution trace" half of a decision-map
    certificate.  Returns problems (empty when every run is legal).

    Runs execute on the compiled protocol core
    (:mod:`repro.shm.compiled`): the decision-map protocol is traced into
    a step table once, and the engine counts decided vectors over its
    orbit quotient, so replaying every interleaving at n = 4 — the
    default ``engine_replay_n`` — costs orbit-key transitions and
    orbit-memo hits, not generator replays.
    """
    from ..shm.compiled import CompiledProtocol
    from ..shm.engine import PrefixSharingEngine

    n = task.n
    algorithm = decision_map_algorithm(rounds, decision_map)
    program = CompiledProtocol(
        algorithm,
        list(range(1, n + 1)),
        arrays={f"IS{index}": None for index in range(rounds)},
    )

    decisions = PrefixSharingEngine(program.machine).decided_vectors()
    problems = []
    for outputs, count in sorted(decisions.items(), key=repr):
        if not task.is_legal_output(list(outputs)):
            problems.append(
                f"{count} interleavings decide illegal vector {outputs}"
            )
    return problems


# ----------------------------------------------------------------------
# Payload registry
# ----------------------------------------------------------------------

_FROM_PAYLOAD: dict[str, Callable[[Mapping], Certificate]] = {
    "theorem": TheoremCertificate.from_payload,
    "value-padding": PaddingCertificate.from_payload,
    "reduction-path": ReductionPathCertificate.from_payload,
    "decision-map": DecisionMapCertificate.from_payload,
}


def certificate_from_payload(payload: Mapping) -> Certificate:
    """Rebuild the typed certificate for a stored payload."""
    kind = payload.get("kind")
    if kind not in _FROM_PAYLOAD:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return _FROM_PAYLOAD[kind](payload)


def check_certificate_payload(payload: Mapping) -> list[str]:
    """One-call replay: rebuild from a payload and ``check()`` it.

    Any exception — malformed payload, or a checker tripping over
    tampered values (e.g. a task rewritten to n = 0) — is reported as a
    failure, never raised: callers like ``universe check`` drive exit
    codes off the returned problems.
    """
    try:
        certificate = certificate_from_payload(payload)
    except (KeyError, TypeError, ValueError) as error:
        return [f"malformed certificate payload: {error}"]
    try:
        return certificate.check()
    except Exception as error:  # tampered values can break any checker
        return [f"certificate check raised {type(error).__name__}: {error}"]
