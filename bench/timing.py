"""Reference-kernel normalisation of op times."""

from __future__ import annotations

from typing import Sequence


def normalised_ops(samples: Sequence[tuple[float, float, float]]) -> list[float]:
    """Each op's time divided by the mean of the kernel runs just before and after it.

    ``samples`` holds one (op seconds, kernel seconds before, kernel seconds
    after) triple per op.
    """
    ratios = []
    for op, before, after in samples:
        if before <= 0.0 or after <= 0.0:
            raise ValueError("kernel times must be positive")
        ratios.append(op / (0.5 * (before + after)))
    return ratios
