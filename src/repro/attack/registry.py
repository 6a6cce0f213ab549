"""Pluggable attack registry: every attack kind the scenario layer can play.

Each attack kind is one :class:`AttackKind` descriptor registered here,
and everything else derives from the registry:

* ``ScenarioSpec`` validation (:data:`repro.sim.ATTACK_VARIANTS` is
  ``attack_names()``),
* the scenario runner's build/inject dispatch (:meth:`AttackKind.inject`
  returns an :class:`AttackPlay` the runner folds into the result),
* the CLI's ``--variant``/``--attack`` choice tuples,
* the per-kind expected-anomaly sets the ground-station detector is
  scored against (``analysis.detector_eval``).

Two layers exist:

* ``memory`` — the paper's code-reuse tier: payloads enter the vulnerable
  firmware's MAVLink receive buffer and corrupt SRAM/EEPROM state.
* ``protocol`` — the link tier: well-formed MAVLink frames injected on
  the GCS↔UAV channel (``repro.mavlink.attacks``), judged by the
  stateful :class:`~repro.uav.groundstation.GcsAnomalyDetector`.

Hook bodies import their heavy dependencies lazily (the repo-wide idiom
for crossing package layers), so importing the registry costs nothing
and no attack↔sim import cycle can form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

#: the two places an attack can land
MEMORY_LAYER = "memory"
PROTOCOL_LAYER = "protocol"
ATTACK_LAYERS = (MEMORY_LAYER, PROTOCOL_LAYER)


@dataclass(frozen=True)
class AttackPlay:
    """What one :meth:`AttackKind.inject` call did to the board.

    The scenario runner folds this into the :class:`ScenarioResult`:
    a memory-tier play carries the classic :class:`AttackOutcome`; a
    protocol-tier play carries the session's ``ProtocolOutcome`` (frame
    counts, detector verdict, per-kind effect) instead.
    """

    delivered_bytes: int = 0
    #: memory-tier outcome (AttackOutcome), or None
    outcome: Optional[object] = None
    #: True when the inject hook already observed the aftermath itself,
    #: so the runner must skip its own observe run
    observe_done: bool = False
    #: protocol-tier outcome (mavlink.attacks.ProtocolOutcome), or None
    protocol: Optional[object] = None


@dataclass(frozen=True)
class AttackKind:
    """One registered attack: identity, contract and lifecycle hooks."""

    name: str
    layer: str                           # MEMORY_LAYER | PROTOCOL_LAYER
    summary: str                         # one line for docs/CLI help
    #: ScenarioSpec fields this kind actually reads (documentation and
    #: CLI-derivation contract; "attack_seed" marks layout-guessing kinds)
    required_fields: Tuple[str, ...] = ()
    #: detector anomaly kinds this attack is expected to trip (protocol
    #: tier only; the precision/recall scoring keys off this set)
    expected_anomalies: Tuple[str, ...] = ()
    #: spec -> None, raising ValueError on an invalid combination
    validate: Optional[Callable] = None
    #: (spec, telemetry, cache, base_image) -> Board, for kinds that fly
    #: a transformed image; None = the standard Board(spec) construction
    build_board: Optional[Callable] = None
    #: (spec, board, base_image) -> AttackPlay
    inject: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.layer not in ATTACK_LAYERS:
            raise ValueError(f"unknown attack layer {self.layer!r}")


_REGISTRY: Dict[str, AttackKind] = {}


def register_kind(kind: AttackKind) -> AttackKind:
    """Add one kind; names are unique and registration order is kept."""
    if kind.name in _REGISTRY:
        raise ValueError(f"attack kind {kind.name!r} already registered")
    _REGISTRY[kind.name] = kind
    return kind


def attack_kind(name: str) -> AttackKind:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown attack kind {name!r}; "
            f"expected one of {attack_names()}"
        ) from None


def attack_kinds(layer: Optional[str] = None) -> Tuple[AttackKind, ...]:
    """Registered kinds, in registration order, optionally one layer."""
    return tuple(
        kind for kind in _REGISTRY.values()
        if layer is None or kind.layer == layer
    )


def attack_names(layer: Optional[str] = None) -> Tuple[str, ...]:
    return tuple(kind.name for kind in attack_kinds(layer))


# -- memory tier: the paper's code-reuse attacks ------------------------------

def _variant_class(name: str):
    if name == "v1":
        from .v1_basic import BasicAttack as cls
    elif name == "v2":
        from .v2_stealthy import StealthyAttack as cls
    elif name == "v3":
        from .v3_trampoline import TrampolineAttack as cls
    elif name == "v4":
        from .v4_persistence import PersistenceAttack as cls
    else:  # pragma: no cover - registration bug
        raise ValueError(f"no attack class for {name!r}")
    return cls


def _inject_variant(spec, board, base) -> AttackPlay:
    """V1-V4 built against the base (pre-randomization) layout.

    Against an unprotected board the attack's own delivery protocol
    observes the aftermath (the paper's §IV demonstration); against a
    protected board the payload lands on a randomized layout and the
    master-supervised observe run plays out in the scenario runner.
    """
    cls = _variant_class(spec.attack)
    attack = cls(base, telemetry=board.telemetry)
    kwargs = {
        "observe_ticks": 0 if spec.protected else spec.observe_ticks
    }
    if spec.attack in ("v1", "v2"):
        kwargs.update(
            target_variable=spec.target_variable, values=spec.values
        )
    outcome = attack.execute(board.autopilot, **kwargs)
    return AttackPlay(
        delivered_bytes=outcome.delivered_bytes,
        outcome=outcome,
        observe_done=not spec.protected,
    )


def _inject_guess(spec, board, base) -> AttackPlay:
    """One wrong-layout replay: the §VII-A1 guessing attacker.

    The attacker randomizes their own copy of the public binary
    (``attack_seed``), builds a V2 exploit against that guess, and aims
    at the base layout's SRAM address (stack geometry and the data space
    are layout-invariant; the code layout is the secret).
    """
    import random

    from ..core import randomize_image
    from ..mavlink.messages import PARAM_SET
    from ..uav.groundstation import MaliciousGroundStation
    from .chain import Write3
    from .runtime_facts import derive_runtime_facts, variable_address
    from .v2_stealthy import StealthyAttack

    guess, _permutation = randomize_image(base, random.Random(spec.attack_seed))
    facts = derive_runtime_facts(base)  # stack geometry is layout-invariant
    exploit = StealthyAttack(guess, facts)
    target = variable_address(base, spec.target_variable)
    burst = MaliciousGroundStation().exploit_burst(
        PARAM_SET.msg_id, exploit.attack_bytes([Write3(target, spec.values)])
    )
    board.autopilot.receive_bytes(burst)
    return AttackPlay(delivered_bytes=len(burst))


def _validate_oracle(spec) -> None:
    if spec.protected:
        raise ValueError("the oracle attacker targets an unprotected board")


def _build_oracle_board(spec, telemetry, cache, base):
    """The oracle flies a *randomized* image whose layout it fully knows
    (the situation the readout fuse prevents)."""
    import random

    from ..core import randomize_image
    from ..sim.scenario import Board

    randomized, _permutation = randomize_image(
        base, random.Random(spec.attack_seed)
    )
    board = Board(spec, telemetry, image=randomized)
    # host-side SRAM map: randomization never moves data
    board.autopilot.debug_symbols = base.symbols
    return board


def _inject_oracle(spec, board, base) -> AttackPlay:
    """Full-knowledge attacker vs the randomized image it knows."""
    from .v2_stealthy import StealthyAttack

    outcome = StealthyAttack(board.image, telemetry=board.telemetry).execute(
        board.autopilot,
        target_variable=spec.target_variable,
        values=spec.values,
        observe_ticks=spec.observe_ticks,
    )
    # delivered_bytes stays 0: the pre-registry runner never surfaced the
    # oracle's delivery size, and the record contract pins that shape
    return AttackPlay(outcome=outcome, observe_done=True)


# -- protocol tier: MAVLink link attacks --------------------------------------

def _inject_protocol(spec, board, base) -> AttackPlay:
    from ..mavlink.attacks import run_protocol_attack

    kind = attack_kind(spec.attack)
    outcome = run_protocol_attack(
        spec, [board], kind.name, kind.expected_anomalies,
        telemetry=board.telemetry,
    )
    return AttackPlay(
        delivered_bytes=outcome.attack_bytes,
        observe_done=True,
        protocol=outcome,
    )


# -- registrations (order defines ATTACK_VARIANTS / CLI choice order) ---------

register_kind(AttackKind(
    name="v1", layer=MEMORY_LAYER,
    summary="basic stack smash: overwrite the return address, crash loud",
    required_fields=("target_variable", "values"),
    inject=_inject_variant,
))
register_kind(AttackKind(
    name="v2", layer=MEMORY_LAYER,
    summary="stealthy code reuse: gadget chain writes SRAM, returns clean",
    required_fields=("target_variable", "values"),
    inject=_inject_variant,
))
register_kind(AttackKind(
    name="v3", layer=MEMORY_LAYER,
    summary="trampoline: stage a second-phase payload through gadgets",
    required_fields=(),
    inject=_inject_variant,
))
register_kind(AttackKind(
    name="guess", layer=MEMORY_LAYER,
    summary="layout-guessing replay vs a randomized board (§VII-A1)",
    required_fields=("attack_seed", "target_variable", "values"),
    inject=_inject_guess,
))
register_kind(AttackKind(
    name="oracle", layer=MEMORY_LAYER,
    summary="full-knowledge attacker vs the randomized image it knows",
    required_fields=("attack_seed", "target_variable", "values"),
    validate=_validate_oracle,
    build_board=_build_oracle_board,
    inject=_inject_oracle,
))
register_kind(AttackKind(
    name="v4", layer=MEMORY_LAYER,
    summary="persistence: gadget chain programs the EEPROM config block",
    required_fields=(),
    inject=_inject_variant,
))
register_kind(AttackKind(
    name="replay", layer=PROTOCOL_LAYER,
    summary="capture benign GCS frames, re-send them verbatim later",
    required_fields=("attack_seed",),
    expected_anomalies=("seq_gap",),
    inject=_inject_protocol,
))
register_kind(AttackKind(
    name="gps_spoof", layer=PROTOCOL_LAYER,
    summary="forge drifting GLOBAL_POSITION_INT reports for the UAV",
    required_fields=("attack_seed",),
    expected_anomalies=("geofence",),
    inject=_inject_protocol,
))
register_kind(AttackKind(
    name="waypoint_inject", layer=PROTOCOL_LAYER,
    summary="append rogue MISSION_ITEM waypoints from a forged GCS",
    required_fields=("attack_seed",),
    expected_anomalies=("seq_gap",),
    inject=_inject_protocol,
))
register_kind(AttackKind(
    name="command_inject", layer=PROTOCOL_LAYER,
    summary="forge a COMMAND_LONG (mode change) from the GCS identity",
    required_fields=("attack_seed",),
    expected_anomalies=("seq_gap",),
    inject=_inject_protocol,
))
register_kind(AttackKind(
    name="flood", layer=PROTOCOL_LAYER,
    summary="saturate the uplink with valid and CRC-corrupt frames (DoS)",
    required_fields=("attack_seed",),
    expected_anomalies=("rate", "crc_fail"),
    inject=_inject_protocol,
))
