"""Run metrics: deterministic counters, replay-identical by construction.

Time inside the metrics object is virtual (ticks).  Wall-clock seconds are
deliberately kept out of the serialized form so byte-identical replays stay
byte-identical; the CLI reports wall time on stderr instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    seed: int
    mode: str
    status: str  # ok | max_ticks
    ticks: int
    messages: dict = field(default_factory=dict)
    round_trips: dict = field(default_factory=dict)
    aborts: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
    state_roots: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields as plain data, each container copied.  A field is a
        scalar, a flat dict or a list of flat dicts, so a one-level copy gives
        what dataclasses.asdict would, without its deep copy."""
        return {name: _copy(value) for name, value in vars(self).items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_sim(cls, sim, seed: int, mode: str, status: str, outcomes: list) -> "RunMetrics":
        snap = sim.meter.snapshot()
        round_trips = snap.pop("round_trips")
        aborts = snap.pop("aborts")
        return cls(
            seed=seed,
            mode=mode,
            status=status,
            ticks=sim.tick,
            messages=snap,
            round_trips=round_trips,
            aborts=aborts,
            blocks=sim.blocks_per_chain(),
            state_roots=sim.final_state_roots(),
            outcomes=outcomes,
        )


def _copy(value):
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return [dict(item) for item in value]
    return value
