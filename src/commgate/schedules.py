"""No-communication window schedules announced by the platform.

A schedule lists the time windows in which agents may not share what they
have observed.  Windows are disjoint, sorted, and separated by at least one
open slot; an empty window list is the always-open (centralized) policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

from .errors import ConfigError, ScheduleError

__all__ = ["CommSchedule"]

MAX_HORIZON = 100_000  # horizon budget: an O(T) array of floats stays under 1 MB


def check_horizon(T: int) -> None:
    """Refuse a horizon past ``MAX_HORIZON``; called before any O(T) allocation."""
    if T > MAX_HORIZON:
        raise ConfigError(f"horizon {T} is beyond the horizon budget MAX_HORIZON = {MAX_HORIZON}")


@dataclass(frozen=True)
class CommSchedule:
    """Blocked-communication windows ``{start, start+1, ..., start+length-1}``.

    ``windows`` holds ``(start, length)`` pairs over the slot range
    ``{0, ..., horizon_T}``.  Sharing happens at the end of every slot that is
    not inside a window (for agents whose strategy is to share at all).
    """

    horizon_T: int
    windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        slots = (self.horizon_T, *(v for window in self.windows for v in window))
        if any(isinstance(v, bool) or not isinstance(v, Integral) for v in slots):
            raise ScheduleError(f"schedule slots must be integers, got {slots}")
        if self.horizon_T < 1:
            raise ScheduleError(f"horizon must be >= 1, got {self.horizon_T}")
        check_horizon(self.horizon_T)
        wins = tuple((int(s), int(d)) for s, d in self.windows)
        object.__setattr__(self, "horizon_T", int(self.horizon_T))
        object.__setattr__(self, "windows", wins)
        prev_end = None
        for start, length in wins:
            if start < 0 or length < 1:
                raise ScheduleError(f"window ({start},{length}) must have start >= 0, length >= 1")
            if prev_end is not None and start <= prev_end + 1:
                # at least one open slot between consecutive windows
                raise ScheduleError(
                    f"window starting at {start} must leave an open slot after the previous window"
                )
            if start + length - 1 > self.horizon_T:
                raise ScheduleError(
                    f"window ({start},{length}) runs past the horizon {self.horizon_T}"
                )
            prev_end = start + length - 1

    @classmethod
    def centralized(cls, horizon_T: int) -> "CommSchedule":
        """The always-open policy (no blocked slots)."""
        return cls(horizon_T, ())

    @classmethod
    def one_time(cls, horizon_T: int, comm_slot: int) -> "CommSchedule":
        """Every slot blocked except ``comm_slot`` (one-time sharing)."""
        if not 1 <= comm_slot <= horizon_T - 1:
            raise ScheduleError(
                f"comm_slot must lie in [1, {horizon_T - 1}], got {comm_slot}"
            )
        return cls(
            horizon_T,
            ((0, comm_slot), (comm_slot + 1, horizon_T - comm_slot)),
        )

    @property
    def is_centralized(self) -> bool:
        return not self.windows

    def blocked(self, t: int) -> bool:
        """True if sharing is blocked at the end of slot ``t``."""
        for start, length in self.windows:
            if start <= t <= start + length - 1:
                return True
        return False

    def open_slots(self) -> list[int]:
        return [t for t in range(self.horizon_T + 1) if not self.blocked(t)]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "T": self.horizon_T,
                "windows": [{"start": s, "len": d} for s, d in self.windows],
            },
            sort_keys=True,
        )
