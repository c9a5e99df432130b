"""Minimal graded free resolutions and Betti statistics.

Built by iterated `subquotient`: prune the module (a module that
`subquotient` returned is minimally presented already and is resolved as
it is, with its own relation columns), then present the image of each
differential's columns; that presentation is the next differential.  The
columns are minimal and reduced, so the image's generators are the
columns themselves, and its relations are minimal generators of their
syzygies: no unit entries, so the resolution is minimal by construction.
Over a quotient ring resolutions can be infinite, so a length cap is
mandatory there.
"""

from __future__ import annotations

from .gmod import GradedModule, prune, subquotient
from .groebner import MINUS_INF
from .ring import AlgebraError


class FreeResolution:
    """Chain F_cap -> ... -> F_1 -> F_0 (-> M -> 0), minimal.

    `complete` means the resolution ended within the length cap: its last
    differential is known to be injective.  A resolution that reaches the
    cap stops there, without the syzygies of its last differential, so it
    is not complete even when that differential happens to be injective.
    """

    __slots__ = ("module", "free_modules", "differentials", "complete",
                 "length_cap")

    def __init__(self, module, free_modules, differentials, complete,
                 length_cap):
        self.module = module              # the (pruned) augmentation target
        self.free_modules = free_modules  # [F_0, F_1, ...]
        self.differentials = differentials
        self.complete = complete
        self.length_cap = length_cap

    @property
    def length(self) -> int:
        return len(self.differentials)

    def twists(self, i: int):
        """Betti degrees a_{i,j}; empty beyond the computed range."""
        if 0 <= i < len(self.free_modules):
            return self.free_modules[i].twists
        return ()

    def __repr__(self):
        ranks = " <- ".join(str(f.rank) for f in self.free_modules)
        tail = "" if self.complete else f" (capped at {self.length_cap})"
        return f"FreeResolution({ranks}{tail})"


def free_resolution(module: GradedModule, length_cap=None) -> FreeResolution:
    if module.ring.is_quotient and length_cap is None:
        raise AlgebraError(
            "a length cap is required over a quotient ring (resolutions "
            "may be infinite)")
    pruned, _ = prune(module)
    free_modules = [pruned.cover]
    differentials = []
    step = pruned
    while step.relations and (length_cap is None
                              or len(differentials) < length_cap):
        differentials.append(step.presentation)
        free_modules.append(step.presentation.source)
        if len(differentials) == length_cap:
            break   # the syzygies of the last differential are not needed
        step, _ = subquotient(step.relations, (), step.cover)
    return FreeResolution(pruned, free_modules, differentials,
                          not step.relations, length_cap)


class BettiTable:
    """Multiplicities of the Betti degrees (i, a) of a resolution.

    `complete` is the resolution's: a capped table has no pd."""

    def __init__(self, resolution: FreeResolution):
        self.complete = resolution.complete
        self.entries: dict = {}
        for i in range(len(resolution.free_modules)):
            for a in resolution.twists(i):
                key = (i, a)
                self.entries[key] = self.entries.get(key, 0) + 1

    @property
    def pd(self):
        """Projective dimension; only meaningful for complete resolutions."""
        indices = [i for (i, _) in self.entries]
        if not indices:
            return MINUS_INF
        return max(indices)

    def max_degree(self, i: int):
        """a-bar_i: max degree of minimal generators of the i-th syzygy."""
        degs = [a for (k, a) in self.entries if k == i]
        return max(degs) if degs else MINUS_INF

    def degrees(self, i: int):
        """Betti degrees at homological index i, with multiplicity."""
        return sorted(a for (k, a), b in self.entries.items() if k == i
                      for _ in range(b))

    def grid(self) -> str:
        """Conventional layout: rows are degree - index, columns index."""
        if not self.entries:
            return "0"
        imax = max(i for (i, _) in self.entries)
        slopes = [a - i for (i, a) in self.entries]
        lines = ["      " + "".join(f"{i:>6}" for i in range(imax + 1))]
        for s in range(min(slopes), max(slopes) + 1):
            row = [f"{s:>6}"]
            for i in range(imax + 1):
                b = self.entries.get((i, s + i), 0)
                row.append(f"{b if b else '.':>6}")
            lines.append("".join(row))
        return "\n".join(lines)


def betti_stats(resolution: FreeResolution) -> BettiTable:
    return BettiTable(resolution)

