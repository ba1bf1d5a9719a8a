"""Checkpoint format of the live serving runtime.

A :class:`Checkpoint` freezes a paused run at an arrival boundary.  It
records where the run paused — the ``cursor``, how many arrivals of the
canonical ``(arrival_s, request_id)`` order the controller has consumed
— and the configuration the run paused under, never the controller's
state.  The era controllers are deterministic in canonical arrival
order, so a resume (:func:`repro.serving.runtime.service.run_live`
given the checkpoint) builds a fresh controller and feeds it the first
``cursor`` arrivals through ``on_arrival``; it then continues live from
the cursor, byte-identically to an uninterrupted run (the hypothesis
suite asserts this across process boundaries and hash seeds).  A
file's size therefore does not grow with its cursor.

What a resume must match is pinned: the trace by its digest
(:func:`trace_digest`), the controller by its ``kind``, and the fault
schedule, the fleet size and a static fleet's dispatch policy by the
:class:`CheckpointPins` in the file's ``controller`` object.  A mismatch
raises :class:`CheckpointError` naming the field before any arrival is
replayed.

Checkpoints serialize to JSON: floats round-trip exactly through
``repr``, ints and strings trivially, so ``load(save(checkpoint))``
is the identity.  A checkpoint taken through the scenarios path embeds
the full scenario spec, making the file self-contained —
:func:`repro.scenarios.runner.resume_scenario` rebuilds the fleet and
trace from the spec alone.  Version-2 files, whose ``controller``
object held the whole controller state, still load: only its
``schedule``, ``policy`` and the length of its ``horizons`` are read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ...codec import Spec, SpecError, when_set
from ..trace import request_to_state
from ..faults import FaultSchedule
from ..queue import ServingRequest

#: Format marker written into every checkpoint file.  Version 3: a file
#: pins the run's configuration and holds no controller state.
CHECKPOINT_VERSION = 3

#: Versions :meth:`Checkpoint.from_dict` reads; version 2 held the whole
#: controller state next to the same pins.
READABLE_VERSIONS = (2, CHECKPOINT_VERSION)


class CheckpointError(ValueError):
    """A checkpoint file or payload that cannot be used.

    The single error type for every way a checkpoint can be bad —
    truncated or non-JSON text, missing or mistyped fields, an
    unsupported format version, a trace-digest mismatch on resume, or a
    configuration that disagrees with the file's pins.  Callers (CLI,
    service entry points) can catch this one type and print its
    message; the message always names what was wrong.
    """


def trace_digest(trace: Sequence[ServingRequest]) -> str:
    """SHA-256 over the canonical JSON serialization of ``trace``.

    Guards a resume against a different trace: a cursor only means
    something relative to the exact arrival sequence it counts, so
    :func:`~repro.serving.runtime.service.run_live` refuses to resume
    a checkpoint against a trace whose digest mismatches the
    checkpoint's.
    """
    payload = json.dumps(
        [request_to_state(request) for request in trace],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_scenario(scenario: Any) -> None:
    """Raise :class:`CheckpointError` unless ``scenario`` decodes to a spec.

    The error names the bad value's path inside the embedded spec
    (``scenario.mix[0].weight``); the stored data itself stays as written.
    """
    # Imported lazily: scenarios builds on the serving package.
    from ...scenarios.spec import ScenarioSpec

    try:
        ScenarioSpec.from_dict(scenario)
    except SpecError as error:
        where = f"scenario.{error}" if error.path else f"scenario: {error}"
        raise CheckpointError(f"checkpoint field {where}") from None


@dataclass(frozen=True)
class CheckpointPins(Spec):
    """The configuration a paused run ran under, checked on resume.

    ``schedule`` is the controller's fault schedule, ``n_chips`` the
    fleet size, and ``policy`` a static fleet's dispatch policy (``None``
    on an autoscaled fleet, whose controller dispatches least-loaded
    whatever the fleet names).  None of them changes as the run
    advances.
    """

    schedule: FaultSchedule
    n_chips: int
    policy: Optional[str] = when_set(None)

    @classmethod
    def of(cls, controller: Any) -> "CheckpointPins":
        """The pins of the run ``controller`` drives."""
        fleet = controller.fleet
        return cls(
            schedule=controller.schedule,
            n_chips=fleet.n_chips,
            policy=fleet.policy if controller.kind == "fault_fleet" else None,
        )

    def check(self, run: "CheckpointPins") -> None:
        """Raise :class:`CheckpointError` naming the first pin ``run`` breaks.

        ``run`` holds the pins of the configuration resuming the
        checkpoint.  A stored ``policy`` of ``None`` (a version-2 file
        written before the policy was recorded) is not checked.
        """
        if self.policy is not None and self.policy != run.policy:
            raise CheckpointError(
                f"checkpoint field 'policy' is {self.policy!r}, but this "
                f"fleet dispatches {run.policy!r}"
            )
        if self.schedule != run.schedule:
            raise CheckpointError(
                "checkpoint field 'schedule' holds another fault schedule "
                "than the one this run was given"
            )
        if self.n_chips != run.n_chips:
            raise CheckpointError(
                f"checkpoint field 'n_chips' holds {self.n_chips} chips, "
                f"but this fleet has {run.n_chips}"
            )


def _pins(controller: Any, version: int) -> CheckpointPins:
    """Decode a file's ``controller`` object into its :class:`CheckpointPins`."""
    if not isinstance(controller, Mapping):
        raise CheckpointError(
            "checkpoint field 'controller' has the wrong type: expected a "
            f"JSON object, got {type(controller).__name__}"
        )
    if version == 2:
        # A version-2 block holds the whole controller state: read its
        # pins (the chip count is the length of its horizons), ignore the rest.
        horizons = controller.get("horizons")
        if not isinstance(horizons, list):
            raise CheckpointError(
                "checkpoint field controller.horizons: expected a JSON "
                f"array, got {type(horizons).__name__}"
            )
        controller = {
            "n_chips": len(horizons),
            **{
                key: controller[key]
                for key in ("schedule", "policy")
                if key in controller
            },
        }
    try:
        return CheckpointPins.from_dict(controller)
    except SpecError as error:
        raise CheckpointError(f"checkpoint field controller.{error}") from None


@dataclass(frozen=True)
class Checkpoint:
    """A paused live run, frozen at an arrival boundary.

    ``kind`` names the controller that ran — one per fleet kind:
    ``"fault_fleet"`` for a static fleet, ``"fault_autoscale"`` for an
    autoscaled one; ``cursor`` counts consumed arrivals in canonical
    order; ``controller`` holds the :class:`CheckpointPins` of the
    configuration it ran under; ``trace_sha256`` pins the trace;
    ``scenario`` (optional) embeds the originating scenario spec's
    ``to_dict`` data so scenario checkpoints are self-contained.
    """

    kind: str
    cursor: int
    controller: CheckpointPins
    trace_sha256: str
    scenario: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON data (always the current version)."""
        data: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "cursor": self.cursor,
            "trace_sha256": self.trace_sha256,
            "controller": self.controller.to_dict(),
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Checkpoint":
        """Rebuild a checkpoint from :meth:`to_dict` data or a version-2 file.

        Raises :class:`CheckpointError` on any malformed payload —
        missing or mistyped fields or pins, an embedded scenario spec
        that does not decode, or an unsupported format version.  Keys it
        does not name, such as the ``engine`` older builds wrote, are
        ignored.
        """
        if not isinstance(data, Mapping):
            raise CheckpointError(
                "checkpoint payload must be a JSON object, "
                f"got {type(data).__name__}"
            )
        try:
            version = int(data.get("version", CHECKPOINT_VERSION))
        except (TypeError, ValueError):
            raise CheckpointError(
                f"checkpoint version must be an integer, "
                f"got {data.get('version')!r}"
            ) from None
        if version not in READABLE_VERSIONS:
            raise CheckpointError(
                f"unsupported checkpoint version {version} "
                f"(this build reads versions {READABLE_VERSIONS})"
            )
        try:
            scenario = data.get("scenario")
            if scenario is not None:
                _check_scenario(scenario)
            return cls(
                kind=str(data["kind"]),
                cursor=int(data["cursor"]),
                controller=_pins(data["controller"], version),
                trace_sha256=str(data["trace_sha256"]),
                scenario=dict(scenario) if scenario is not None else None,
            )
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint is missing required field {error.args[0]!r}"
            ) from None
        except CheckpointError:
            raise
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint field has the wrong type: {error}"
            ) from None

    def to_json(self) -> str:
        """The checkpoint as a deterministic JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse a checkpoint from :meth:`to_json` text.

        Raises :class:`CheckpointError` on truncated or non-JSON text
        and on any malformed payload (see :meth:`from_dict`).
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"checkpoint is not valid JSON "
                f"(truncated or corrupted?): {error}"
            ) from None
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the checkpoint to ``path``; returns the path written."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`.

        Raises :class:`CheckpointError` naming the file on any bad
        content: text that is not UTF-8, or see :meth:`from_json`.
        """
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as error:
            raise CheckpointError(
                f"{path}: checkpoint is not UTF-8 text "
                f"(truncated or corrupted?): {error}"
            ) from None
        except CheckpointError as error:
            raise CheckpointError(f"{path}: {error}") from None


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPins",
    "trace_digest",
]
