"""Content-addressed on-disk store of exact candidate outcomes.

Re-planning after a config or scenario tweak re-simulates every surviving
candidate from scratch, even though most (spec, design, fleet) triples are
unchanged.  Exact simulation is deterministic — the outcome of a candidate
is a pure function of the scenario spec (which seeds trace compilation),
the chip design and the fleet option (plus, for autoscaled fleets, the
TTFT set point the controller targets) — so outcomes can be cached
*content-addressed*: the key is a SHA-256 over the canonical JSON of
exactly the inputs the simulation depends on, and a hit is byte-identical
to a fresh run by construction.  No decode engine enters the key: a
plan always simulates on the wave engine, whose records are ``==`` the
per-step oracle's (the wave/step equivalence contract).  The engine is
chosen only on a chip, a fleet or
:func:`~repro.scenarios.runner.build_fleet`
(``build_fleet(spec, engine="step")`` plays a scenario on the oracle).

On-disk layout (git-friendly, one object per file)::

    STORE_ROOT/
      objects/
        ab/
          ab3f…e2.json      # payload: version, key, spec hash, outcome

Payloads carry their own key and spec hash so ``validate`` can detect
renamed/corrupted objects without re-deriving inputs, and ``gc`` can
retire objects belonging to dead scenario specs.  Writes are atomic
(temp file + rename), so a crashed planning run never leaves a torn
object behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .evaluate import CandidateOutcome
from .space import ChipDesign, FleetOption

#: Payload schema version; bump on incompatible layout changes (old
#: objects then fail validation and are collected by ``gc``).
STORE_VERSION = 1


def candidate_key(
    spec_hash: str,
    design: ChipDesign,
    option: FleetOption,
    *,
    ttft_target_s: Optional[float] = None,
) -> str:
    """The content address of one candidate's exact outcome.

    SHA-256 over the canonical (minified, key-sorted) JSON of the inputs
    the simulation is a pure function of: the scenario's ``spec_hash``,
    the chip ``design`` and the fleet ``option``.  ``ttft_target_s``
    enters the key only for autoscaled options — it is the controller's
    set point there, but static fleets ignore it, and keying it
    unconditionally would miss on every SLO tweak for no reason.
    """
    material: Dict[str, Any] = {
        "version": STORE_VERSION,
        "spec": spec_hash,
        "design": design.to_dict(),
        "fleet": option.to_dict(),
    }
    if option.autoscaled:
        material["ttft_target_s"] = ttft_target_s
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class StoreCounters:
    """Hit/miss accounting of one planning run against a store."""

    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class StoreProblem:
    """One defect ``validate`` found: the object's path and what is wrong."""

    path: Path
    reason: str


@dataclass
class PlanStore:
    """A content-addressed directory of :class:`CandidateOutcome` objects."""

    root: Path
    counters: StoreCounters = field(default_factory=StoreCounters)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    @property
    def objects_dir(self) -> Path:
        """The directory holding the fanned-out object files."""
        return self.root / "objects"

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def iter_paths(self) -> Iterator[Path]:
        """Every object file currently in the store, in sorted order."""
        if not self.objects_dir.is_dir():
            return
        for fan in sorted(self.objects_dir.iterdir()):
            if not fan.is_dir():
                continue
            yield from sorted(fan.glob("*.json"))

    def get(self, key: str) -> Optional[CandidateOutcome]:
        """The stored outcome under ``key``, or ``None`` on a miss.

        Unreadable or schema-mismatched objects count as misses (the
        planner then re-simulates and overwrites them); every call updates
        the hit/miss counters the plan report surfaces.
        """
        path = self._object_path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != STORE_VERSION:
                raise ValueError("store version mismatch")
            outcome = CandidateOutcome.from_dict(payload["outcome"])
        except (OSError, ValueError, KeyError, TypeError):
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return outcome

    def put(self, key: str, spec_hash: str, outcome: CandidateOutcome) -> None:
        """Store ``outcome`` under ``key`` (atomic write, idempotent)."""
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": STORE_VERSION,
            "key": key,
            "spec": spec_hash,
            "outcome": outcome.to_dict(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _check_object(self, path: Path) -> Optional[str]:
        """The defect of one object file, or ``None`` when it is sound."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return "unreadable or invalid JSON"
        if not isinstance(payload, dict):
            return "payload is not an object"
        if payload.get("version") != STORE_VERSION:
            return f"schema version {payload.get('version')!r} != {STORE_VERSION}"
        if payload.get("key") != path.stem:
            return "embedded key does not match file name"
        if path.parent.name != path.stem[:2]:
            return "object filed under the wrong fan-out directory"
        if not isinstance(payload.get("spec"), str):
            return "missing spec hash"
        try:
            CandidateOutcome.from_dict(payload["outcome"])
        except (KeyError, TypeError, ValueError):
            return "outcome payload does not round-trip"
        return None

    def validate(self) -> List[StoreProblem]:
        """Audit every object; returns the defects found (empty = healthy)."""
        problems: List[StoreProblem] = []
        for path in self.iter_paths():
            reason = self._check_object(path)
            if reason is not None:
                problems.append(StoreProblem(path=path, reason=reason))
        return problems

    def gc(self, *, keep_specs: Optional[Set[str]] = None) -> List[Path]:
        """Remove defective objects — and, with ``keep_specs``, stale ones.

        Always collects objects that fail validation.  When ``keep_specs``
        is given, additionally collects healthy objects whose spec hash is
        not in the set (outcomes of retired scenarios).  Returns the paths
        removed.
        """
        removed: List[Path] = []
        for path in self.iter_paths():
            reason = self._check_object(path)
            if reason is None and keep_specs is not None:
                spec = json.loads(path.read_text())["spec"]
                if spec not in keep_specs:
                    reason = "spec not in keep set"
            if reason is not None:
                path.unlink()
                removed.append(path)
        for fan in list(self.objects_dir.iterdir()):
            if fan.is_dir() and not any(fan.iterdir()):
                fan.rmdir()
        return removed

    def stats(self) -> Dict[str, Any]:
        """Object count, total bytes and per-spec breakdown of the store."""
        n_objects = 0
        total_bytes = 0
        by_spec: Dict[str, int] = {}
        for path in self.iter_paths():
            n_objects += 1
            total_bytes += path.stat().st_size
            try:
                spec = json.loads(path.read_text()).get("spec")
            except (OSError, ValueError):
                spec = None
            if isinstance(spec, str):
                by_spec[spec] = by_spec.get(spec, 0) + 1
        return {
            "root": str(self.root),
            "n_objects": n_objects,
            "total_bytes": total_bytes,
            "by_spec": by_spec,
        }
