"""The timed-schedule IR: :class:`TimedInstruction` and the immutable :class:`Schedule`.

A schedule is the result of lowering a routed circuit against a device calibration:
every basis gate becomes a timed slot with an integer start and duration in
**nanoseconds**.  Times are quantized to whole nanoseconds (sub-ns calibration
precision is far below physical gate-time uncertainty) so that all schedule arithmetic
— ASAP/ALAP totals, critical-path sums, idle-window widths — is exact integer math:
ASAP and ALAP schedules of the same circuit provably share one total duration, JSON
round-trips are bit-identical, and the content fingerprint is stable across processes
and machines.

The container follows the repo's ``to_dict``/``fingerprint`` idiom (canonical JSON,
sha256), so schedules can ride inside service result payloads and the content-addressed
cache like every other artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import ScheduleError

#: Schema version of the serialised form.
SCHEDULE_DICT_VERSION = 1


@dataclass(frozen=True)
class TimedInstruction:
    """One gate occupying ``[start, start + duration)`` on its qubits (times in ns)."""

    name: str
    qubits: Tuple[int, ...]
    start: int
    duration: int
    params: Tuple[float, ...] = ()
    clbits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _set_fields(
            self, self.name, self.qubits, self.start, self.duration, self.params, self.clbits
        )

    @property
    def end(self) -> int:
        """First nanosecond after the instruction finishes."""
        return self.start + self.duration

    def to_list(self) -> List:
        """Canonical JSON-safe form: ``[name, qubits, start, duration, params, clbits]``."""
        return [
            self.name, list(self.qubits), self.start, self.duration,
            list(self.params), list(self.clbits),
        ]

    @classmethod
    def from_list(cls, data: List) -> "TimedInstruction":
        """Inverse of :meth:`to_list`; converts and checks each field once."""
        name, qubits, start, duration, params, clbits = data
        inst = object.__new__(cls)
        _set_fields(inst, name, qubits, start, duration, params, clbits)
        return inst


def _set_fields(inst: TimedInstruction, name, qubits, start, duration, params, clbits) -> None:
    """Convert and validate every field of ``inst`` and store it (a frozen dataclass
    keeps its fields in ``__dict__``)."""
    qubits = tuple(map(int, qubits))
    clbits = tuple(map(int, clbits))
    params = tuple(map(float, params))
    start = int(start)
    duration = int(duration)
    if start < 0:
        raise ScheduleError(f"instruction {name!r} starts before t=0: {start}")
    if duration < 0:
        raise ScheduleError(f"instruction {name!r} has negative duration")
    inst.__dict__.update(
        name=name, qubits=qubits, start=start, duration=duration, params=params,
        clbits=clbits,
    )


@dataclass(frozen=True)
class IdleWindow:
    """A gap on one qubit's timeline between two consecutive instructions (times in ns)."""

    qubit: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Schedule:
    """Immutable timed schedule of one compiled circuit.

    ``instructions`` keeps the emission (topological) order of the lowering pass: for
    every wire the instructions touching it appear in execution order, which is what the
    per-qubit timelines, the critical path and validation rely on.  All derived views
    are computed lazily and memoised — a schedule is immutable after construction.
    """

    num_qubits: int
    mode: str
    instructions: Tuple[TimedInstruction, ...] = ()
    _timelines: Optional[Dict[int, Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _critical: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def duration(self) -> int:
        """Total schedule duration in nanoseconds (the makespan)."""
        return max((inst.end for inst in self.instructions), default=0)

    @property
    def duration_ns(self) -> int:
        """Alias of :attr:`duration` spelling the unit out."""
        return self.duration

    def _timeline_indices(self) -> Dict[int, Tuple[int, ...]]:
        cached = self._timelines
        if cached is None:
            per_qubit: Dict[int, List[int]] = {q: [] for q in range(self.num_qubits)}
            for index, inst in enumerate(self.instructions):
                for q in inst.qubits:
                    if not 0 <= q < self.num_qubits:
                        raise ScheduleError(
                            f"instruction {inst.name!r} touches qubit {q} outside "
                            f"the {self.num_qubits}-qubit schedule"
                        )
                    per_qubit[q].append(index)
            # Emission order is execution order per wire; sorting by (start, index)
            # keeps that while making the view canonical for externally-built schedules.
            cached = {
                q: tuple(sorted(ids, key=lambda i: (self.instructions[i].start, i)))
                for q, ids in per_qubit.items()
            }
            object.__setattr__(self, "_timelines", cached)
        return cached

    def qubit_timeline(self, qubit: int) -> Tuple[TimedInstruction, ...]:
        """The instructions touching one qubit, in execution order."""
        if not 0 <= qubit < self.num_qubits:
            raise ScheduleError(f"qubit {qubit} outside the {self.num_qubits}-qubit schedule")
        return tuple(self.instructions[i] for i in self._timeline_indices()[qubit])

    def qubit_timelines(self) -> Dict[int, Tuple[TimedInstruction, ...]]:
        """All per-qubit timelines, keyed by qubit index."""
        return {q: self.qubit_timeline(q) for q in range(self.num_qubits)}

    # -- structure -----------------------------------------------------------

    def _wire_predecessors(self) -> List[Tuple[int, ...]]:
        """Per instruction, the indices of its latest predecessor on each wire."""
        last_on_wire: Dict[Tuple[str, int], int] = {}
        preds: List[Tuple[int, ...]] = []
        for index, inst in enumerate(self.instructions):
            wires = [("q", q) for q in inst.qubits] + [("c", c) for c in inst.clbits]
            preds.append(tuple(
                last_on_wire[w] for w in wires if w in last_on_wire
            ))
            for w in wires:
                last_on_wire[w] = index
        return preds

    def critical_path(self) -> Tuple[TimedInstruction, ...]:
        """A longest-duration dependency chain through the schedule.

        Computed structurally over wire dependencies (never by floating-point slot
        matching): the chain's summed durations equal :attr:`duration`, and ties break
        deterministically toward the earliest-emitted instruction.
        """
        cached = self._critical
        if cached is None:
            preds = self._wire_predecessors()
            finish = [0] * len(self.instructions)  # longest path ending at i, inclusive
            best_pred = [-1] * len(self.instructions)
            for i, inst in enumerate(self.instructions):
                longest = 0
                chosen = -1
                for p in preds[i]:
                    if finish[p] > longest:
                        longest, chosen = finish[p], p
                finish[i] = longest + inst.duration
                best_pred[i] = chosen
            chain: List[int] = []
            if self.instructions:
                tail = min(range(len(finish)), key=lambda i: (-finish[i], i))
                while tail != -1:
                    chain.append(tail)
                    tail = best_pred[tail]
                chain.reverse()
            cached = tuple(chain)
            object.__setattr__(self, "_critical", cached)
        return tuple(self.instructions[i] for i in cached)

    def idle_windows(self) -> Tuple[IdleWindow, ...]:
        """Gaps between consecutive instructions on each qubit's timeline.

        Windows before a qubit's first instruction and after its last are excluded: a
        qubit idling in its ground state before first use (or after its final gate)
        accrues no decoherence exposure that matters to the circuit.
        """
        windows: List[IdleWindow] = []
        for q in range(self.num_qubits):
            timeline = self.qubit_timeline(q)
            for previous, current in zip(timeline, timeline[1:]):
                if current.start > previous.end:
                    windows.append(IdleWindow(q, previous.end, current.start))
        return tuple(windows)

    @property
    def total_idle(self) -> int:
        """Summed width (ns) of every idle window across all qubit timelines."""
        return sum(w.duration for w in self.idle_windows())

    def validate(self) -> None:
        """Check timeline consistency, raising :class:`ScheduleError` on violations.

        Verified invariants: no two instructions strictly overlap on any qubit
        timeline, and per-wire execution order is respected (each instruction starts at
        or after its wire predecessor ends).
        """
        for q, timeline in self.qubit_timelines().items():
            for previous, current in zip(timeline, timeline[1:]):
                if current.start < previous.end:
                    raise ScheduleError(
                        f"qubit {q}: {current.name!r}@{current.start} overlaps "
                        f"{previous.name!r} ending at {previous.end}"
                    )
        preds = self._wire_predecessors()
        for i, inst in enumerate(self.instructions):
            for p in preds[i]:
                if inst.start < self.instructions[p].end:
                    raise ScheduleError(
                        f"{inst.name!r}@{inst.start} starts before its dependency "
                        f"{self.instructions[p].name!r} ends at {self.instructions[p].end}"
                    )

    # -- serialization and content addressing --------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe representation; round-trips bit-identically via :meth:`from_dict`.

        ``duration`` is included for consumers that only need the headline number
        (metrics endpoints, reports); it is derived and ignored on load.
        """
        return {
            "version": SCHEDULE_DICT_VERSION,
            "unit": "ns",
            "mode": self.mode,
            "num_qubits": self.num_qubits,
            "duration": self.duration,
            "instructions": [inst.to_list() for inst in self.instructions],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Schedule":
        return cls(
            num_qubits=int(data["num_qubits"]),
            mode=data.get("mode", "asap"),
            instructions=tuple(
                TimedInstruction.from_list(item) for item in data["instructions"]
            ),
        )

    def fingerprint(self) -> str:
        """Deterministic sha256 content hash (stable across processes and machines)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
