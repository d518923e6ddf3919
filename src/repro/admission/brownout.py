"""Brownout: the degraded mode between healthy and hard eviction.

A host under memory pressure (or at its container cap) should first
*degrade* — stop prewarming, shrink pool targets, shed standard-QoS
traffic — and only then fall back to evicting warm containers.  The
:class:`BrownoutController` is the hysteresis state machine deciding
when a host is in that degraded mode:

* **enter** when ``mem_fraction >= enter_threshold`` or the container
  cap trips;
* **exit** only when ``mem_fraction < enter_threshold - exit_margin``
  *and* the cap is clear, so the mode cannot flap around the threshold.

While degraded, HotC provisions ``BROWNOUT_TARGET_FACTOR`` of each
predicted pool target.

The controller is pure bookkeeping (no simulation events), so checking
it every control tick costs two float compares.
"""

from __future__ import annotations

__all__ = ["BROWNOUT_TARGET_FACTOR", "BrownoutController"]

#: Factor applied to predictor pool targets while a host is browned out.
BROWNOUT_TARGET_FACTOR = 0.5


class BrownoutController:
    """Hysteresis state machine for one host's degraded mode."""

    __slots__ = ("enter_threshold", "exit_margin", "active", "entries", "exits")

    def __init__(
        self, enter_threshold: float = 0.8, exit_margin: float = 0.05
    ) -> None:
        if not 0.0 < enter_threshold <= 1.0:
            raise ValueError("enter_threshold must be in (0, 1]")
        if not 0.0 <= exit_margin < enter_threshold:
            raise ValueError("exit_margin must be in [0, enter_threshold)")
        self.enter_threshold = enter_threshold
        self.exit_margin = exit_margin
        self.active = False
        self.entries = 0
        self.exits = 0

    def update(self, mem_fraction: float, cap_tripped: bool = False) -> str:
        """Advance the state machine with one pressure observation.

        Returns ``"enter"`` / ``"exit"`` on a transition, ``""``
        otherwise.
        """
        if not self.active:
            if mem_fraction >= self.enter_threshold or cap_tripped:
                self.active = True
                self.entries += 1
                return "enter"
            return ""
        if (
            mem_fraction < self.enter_threshold - self.exit_margin
            and not cap_tripped
        ):
            self.active = False
            self.exits += 1
            return "exit"
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "BROWNOUT" if self.active else "healthy"
        return (
            f"<BrownoutController {state} enter>={self.enter_threshold} "
            f"exit<{self.enter_threshold - self.exit_margin}>"
        )
