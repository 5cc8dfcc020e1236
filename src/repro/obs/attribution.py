"""Per-layer CPU-time attribution and boundary-crossing accounting.

The paper's cost model charges every handler dispatch, send, receive and
module boundary crossing to the process CPU; this module splits that
charged time into *where it went*: inside a protocol layer, or crossing
the boundary between layers. The split is the measured counterpart of
the paper's analytical overhead terms — a monolithic stack (one module
at height 0) accrues exactly zero boundary time, a modular stack pays
``boundary_crossing`` per level per message event.

Attribution is **always on** in the simulator: the accumulators are
plain counter additions on the runtime hot paths that never feed back
into event timing, so enabling or disabling the (optional) span trace
cannot change a single metric bit. The live runtime counts crossings
the same way; it has no modelled CPU, so its layer times stay empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

#: Layer name under which boundary-crossing time is reported in tables.
BOUNDARY_LAYER = "boundary"


@dataclass(frozen=True, slots=True)
class LayerAttribution:
    """Where one run's CPU time went, over the measurement window.

    Attributes:
        layer_busy: CPU seconds charged inside each layer, summed over
            processes, as sorted ``(layer, seconds)`` pairs. Layers are
            module names plus ``app`` (adeliver upcalls) and ``fd``
            (failure-detector work).
        boundary_time: CPU seconds charged to inter-module boundary
            crossings (zero for a monolithic stack, by construction).
        boundary_crossings: Number of boundary crossings charged.
    """

    layer_busy: tuple[tuple[str, float], ...]
    boundary_time: float
    boundary_crossings: int

    @classmethod
    def from_totals(
        cls,
        layer_busy: Mapping[str, float],
        boundary_time: float,
        boundary_crossings: int,
    ) -> "LayerAttribution":
        """Build from accumulated totals, dropping idle layers."""
        return cls(
            layer_busy=tuple(
                (name, layer_busy[name])
                for name in sorted(layer_busy)
                if layer_busy[name] > 0.0
            ),
            boundary_time=boundary_time,
            boundary_crossings=boundary_crossings,
        )

    @property
    def layer_time(self) -> float:
        """Total CPU seconds spent inside layers."""
        return sum(seconds for __, seconds in self.layer_busy)

    @property
    def total_time(self) -> float:
        """All attributed CPU seconds (layers + boundaries)."""
        return self.layer_time + self.boundary_time

    @property
    def overhead_fraction(self) -> float | None:
        """The modularity overhead: boundary time / total attributed
        time. ``None`` when nothing was attributed (an idle window)."""
        total = self.total_time
        if total <= 0.0:
            return None
        return self.boundary_time / total


#: The attribution of a window in which nothing ran.
EMPTY_ATTRIBUTION = LayerAttribution(
    layer_busy=(), boundary_time=0.0, boundary_crossings=0
)


def delta_layers(
    end: Mapping[str, float], start: Mapping[str, float]
) -> dict[str, float]:
    """Per-layer difference of two cumulative snapshots."""
    return {name: end[name] - start.get(name, 0.0) for name in end}
