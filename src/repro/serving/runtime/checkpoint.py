"""Checkpoint format of the live serving runtime.

A :class:`Checkpoint` freezes a paused run at an arrival boundary: the
``cursor`` (how many arrivals of the canonical ``(arrival_s,
request_id)`` order the controller has consumed), the controller's
serialized dynamic state (see the era controllers' ``state_dict`` in
:mod:`repro.serving.faults`), and a digest of the trace it was taken
against.  Pure memo caches are *not* checkpointed — they change speed,
never values, and rebuild lazily — so a restore replays the remaining arrivals into a reconstructed
controller and produces byte-identical records, reports and goldens
(the hypothesis suite asserts this across process boundaries and hash
seeds).

Checkpoints serialize to JSON: floats round-trip exactly through
``repr``, ints and strings trivially, so ``load(save(checkpoint))``
is the identity.  A checkpoint taken through the scenarios path embeds
the full scenario spec and engine, making the file self-contained —
:func:`repro.serving.runtime.service.resume_scenario` rebuilds the
fleet and trace from the spec alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ...codec import SpecError
from ..dispatch import request_to_state
from ..queue import ENGINES, ServingRequest

#: Format marker written into every checkpoint file.  Version 2: the era
#: controllers drive every run, and synthetic ids are canonical ranks.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint file or payload that cannot be used.

    The single error type for every way a checkpoint can be bad —
    truncated or non-JSON text, missing or mistyped fields, an
    unsupported format version, a trace-digest mismatch on resume, or
    controller state a rebuilt controller refuses to restore.  Callers
    (CLI, service entry points) can catch this one type and print its
    message; the message always names what was wrong.
    """


def trace_digest(trace: Sequence[ServingRequest]) -> str:
    """SHA-256 over the canonical JSON serialization of ``trace``.

    Guards a resume against a different trace: controller state is only
    meaningful relative to the exact arrival sequence it was built from,
    so :func:`~repro.serving.runtime.service.resume_live` refuses a
    trace whose digest mismatches the checkpoint's.
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
class Checkpoint:
    """A paused live run, frozen at an arrival boundary.

    ``kind`` names the controller that produced ``controller`` — one
    per fleet kind: ``"fault_fleet"`` for a static fleet,
    ``"fault_autoscale"`` for an autoscaled one — and the controller
    state itself pins the fault schedule it ran under; ``cursor`` counts
    consumed arrivals in canonical order; ``trace_sha256`` pins the
    trace; ``scenario`` (optional) embeds the originating scenario
    spec's ``to_dict`` data plus the engine so scenario checkpoints are
    self-contained.  An
    ``engine`` outside :data:`~repro.serving.queue.ENGINES` raises
    :class:`CheckpointError` at construction, so no checkpoint that parses
    can fail later in fleet construction.
    """

    kind: str
    cursor: int
    controller: Dict[str, Any]
    trace_sha256: str
    scenario: Optional[Dict[str, Any]] = None
    engine: Optional[str] = None
    version: int = field(default=CHECKPOINT_VERSION)

    def __post_init__(self) -> None:
        if self.engine is not None and self.engine not in ENGINES:
            raise CheckpointError(
                f"checkpoint field 'engine' must be one of {ENGINES}, "
                f"got {self.engine!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON data."""
        data: Dict[str, Any] = {
            "version": self.version,
            "kind": self.kind,
            "cursor": self.cursor,
            "trace_sha256": self.trace_sha256,
            "controller": self.controller,
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        if self.engine is not None:
            data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Checkpoint":
        """Rebuild a checkpoint from :meth:`to_dict` data.

        Raises :class:`CheckpointError` on any malformed payload —
        missing or mistyped fields, an embedded scenario spec that does
        not decode, an unknown engine, or an unsupported format version.
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
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        try:
            scenario = data.get("scenario")
            if scenario is not None:
                _check_scenario(scenario)
            engine = data.get("engine")
            return cls(
                kind=str(data["kind"]),
                cursor=int(data["cursor"]),
                controller=dict(data["controller"]),
                trace_sha256=str(data["trace_sha256"]),
                scenario=dict(scenario) if scenario is not None else None,
                engine=str(engine) if engine is not None else None,
                version=version,
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
        content (see :meth:`from_json`).
        """
        try:
            return cls.from_json(Path(path).read_text(encoding="utf-8"))
        except CheckpointError as error:
            raise CheckpointError(f"{path}: {error}") from None


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "trace_digest",
]
