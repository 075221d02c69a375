"""The one result shape every verify pillar returns.

A pillar grades *cells* — an (app, engine) pair, a timeline, a fuzz case,
a served request — and reports them in one :class:`PillarReport` with a
title and a few headline counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VerificationError

#: failed cells listed in a summary before the rest are counted
SHOWN_FAILURES = 10


@dataclass
class Cell:
    """One graded cell of a pillar.

    ``app`` and ``engine`` name a matrix cell; a cell outside the app x
    engine matrix (a timeline, a fuzz case, a request) carries its label
    in ``app`` and leaves ``engine`` empty. ``values`` holds the cell's
    measurements (``sim_time``, ``rel_err``, ``used_fastpath``, ...).
    """

    app: str
    engine: str = ""
    ok: bool = True
    detail: str = ""
    values: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"({self.app}, {self.engine})" if self.engine else self.app

    def fail(self, problem: str) -> None:
        """Mark the cell failed, appending ``problem`` to its detail."""
        self.ok = False
        self.detail = f"{self.detail}; {problem}" if self.detail else problem


def _headline_count(label: str, value) -> str:
    if isinstance(value, float):
        return f"{label} {value:.2e}"
    return f"{value} {label}"


@dataclass
class PillarReport:
    """Outcome of one pillar: its cells plus headline counts, in order."""

    title: str
    cells: list[Cell] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def mismatches(self) -> list[Cell]:
        return [c for c in self.cells if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        counts = ", ".join(_headline_count(k, v) for k, v in self.counts.items())
        bad = self.mismatches
        lines = [
            f"{self.title}: {len(self.cells)} cells"
            + (f" ({counts})" if counts else "")
            + f", {len(bad)} mismatch(es)"
        ]
        lines += [f"  {c.name} MISMATCH — {c.detail}" for c in bad[:SHOWN_FAILURES]]
        if len(bad) > SHOWN_FAILURES:
            lines.append(f"  ... and {len(bad) - SHOWN_FAILURES} more")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if self.mismatches:
            named = ", ".join(c.name for c in self.mismatches)
            raise VerificationError(
                f"{self.title} mismatch in {named}\n{self.summary()}"
            )
