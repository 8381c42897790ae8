"""Dynamic instruction taxonomy (Fig. 9's categories).

The paper's MICA-based breakdown uses: memory, branch, compute
(arithmetic + floating point), and "others" (stack, shifts, string,
SIMD).  :class:`InstructionMix` is an additive counter over those
categories with the fraction views the figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass

CATEGORIES = ("memory", "branch", "compute_int", "compute_fp", "other")


@dataclass
class InstructionMix:
    """Additive dynamic-instruction counter."""

    memory: float = 0.0
    branch: float = 0.0
    compute_int: float = 0.0
    compute_fp: float = 0.0
    other: float = 0.0

    @property
    def compute(self) -> float:
        """Combined arithmetic + floating point (Fig. 9's 'compute')."""
        return self.compute_int + self.compute_fp

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return self.memory + self.branch + self.compute + self.other

    def fractions(self) -> dict[str, float]:
        """Category -> fraction of total, using Fig. 9's grouping."""
        total = self.total
        if total == 0:
            return {"memory": 0.0, "branch": 0.0, "compute": 0.0, "other": 0.0}
        return {
            "memory": self.memory / total,
            "branch": self.branch / total,
            "compute": self.compute / total,
            "other": self.other / total,
        }

    def __add__(self, rhs: "InstructionMix") -> "InstructionMix":
        return InstructionMix(
            memory=self.memory + rhs.memory,
            branch=self.branch + rhs.branch,
            compute_int=self.compute_int + rhs.compute_int,
            compute_fp=self.compute_fp + rhs.compute_fp,
            other=self.other + rhs.other,
        )

    def scaled(self, factor: float) -> "InstructionMix":
        """Return a copy with every category multiplied by ``factor``."""
        return InstructionMix(
            memory=self.memory * factor,
            branch=self.branch * factor,
            compute_int=self.compute_int * factor,
            compute_fp=self.compute_fp * factor,
            other=self.other * factor,
        )

    def add(self, category: str, count: float) -> None:
        """Accumulate ``count`` events into ``category``."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; options: {CATEGORIES}"
            )
        setattr(self, category, getattr(self, category) + count)
