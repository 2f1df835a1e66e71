"""Composition of delay assumptions (paper, Theorem 5.6).

A real link frequently satisfies several assumptions simultaneously -- a
known lower bound *and* a round-trip bias bound, say.  The decomposition
theorem states that the admissible executions of the intersection are
locally admissible under every component, and consequently

    mls_composed(p, q) = min over components of mls_component(p, q).

``Composite`` implements exactly that, which is why every other assumption
class only ever has to model *one* restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro._types import Time
from repro.delays.base import DelayAssumption, Term


@dataclass(frozen=True)
class Composite(DelayAssumption):
    """Intersection of several delay assumptions on the same link."""

    components: Tuple[DelayAssumption, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("Composite requires at least one component")

    @staticmethod
    def of(*components: DelayAssumption) -> "Composite":
        """Build a composite, flattening nested composites."""
        flat = []
        for c in components:
            if isinstance(c, Composite):
                flat.extend(c.components)
            else:
                flat.append(c)
        return Composite(components=tuple(flat))

    def terms(self) -> Tuple[Term, ...]:
        """Theorem 5.6: the min of the component bounds, i.e. the
        components' terms concatenated."""
        return tuple(t for c in self.components for t in c.terms())

    def admits(self, forward: Sequence[Time], reverse: Sequence[Time]) -> bool:
        return all(c.admits(forward, reverse) for c in self.components)

    def flipped(self) -> "Composite":
        return Composite(components=tuple(c.flipped() for c in self.components))


__all__ = ["Composite"]
