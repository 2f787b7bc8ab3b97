"""The switchboard: one process-wide switch per observability plane.

Experiments build their own systems internally, so the CLI cannot hand
a tracer or a sampler to each one.  Instead it arms a plane for the
length of a run; every system built while the plane is on installs its
own instrument and registers it here, and the CLI exports what was
collected afterwards.  Trace, blame, the flight recorder and telemetry
are four instances of :class:`Plane`.

A leaf module: it imports nothing from ``repro``, so the lazily loaded
``repro.telemetry`` package can use it without closing the import cycle
documented there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Plane:
    """A process-wide on/off switch plus the runs registered under it."""

    __slots__ = ("config", "_on", "_runs", "_label_counts")

    def __init__(self) -> None:
        self.config: Optional[Any] = None
        """What the builder should use while on (telemetry's sampling
        config; ``None`` means the builder's default)."""
        self._on = False
        self._runs: List[Tuple[str, Any]] = []
        self._label_counts: Dict[str, int] = {}

    def enable(self, config: Optional[Any] = None) -> None:
        """Turn the switch on; systems built from now on arm the plane."""
        self._on = True
        self.config = config

    def disable(self) -> None:
        """Turn the switch off; new systems go back to unarmed."""
        self._on = False
        self.config = None

    def enabled(self) -> bool:
        """True while the switch is on."""
        return self._on

    def register(self, label: str, obj: Any) -> str:
        """Collect ``obj`` for export; returns its unique label.

        Labels are uniquified (``checkin``, ``checkin#2`` …) so
        multi-run sweeps export one entry per run.
        """
        count = self._label_counts.get(label, 0) + 1
        self._label_counts[label] = count
        unique = label if count == 1 else f"{label}#{count}"
        self._runs.append((unique, obj))
        return unique

    def collected(self) -> List[Tuple[str, Any]]:
        """Every ``(label, obj)`` registered since the last :meth:`clear`."""
        return list(self._runs)

    def clear(self) -> None:
        """Drop what was collected (start of an observed CLI command)."""
        self._runs.clear()
        self._label_counts.clear()

    @contextmanager
    def armed(self, config: Optional[Any] = None) -> Iterator["Plane"]:
        """Clear, switch on for the ``with`` body, switch off on exit."""
        self.clear()
        self.enable(config)
        try:
            yield self
        finally:
            self.disable()
