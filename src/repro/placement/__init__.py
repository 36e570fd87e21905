"""Job placement: mapping application ranks onto compute nodes.

The paper uses *random placement* for every experiment (Section V); contiguous
placement is provided as the classic interference-mitigation baseline used in
the related-work discussion and exercised by the placement ablation benchmark.
"""

from typing import Any

from repro.placement.base import Placement
from repro.placement.random_placement import RandomPlacement
from repro.placement.contiguous import ContiguousPlacement
from repro.placement.allocator import NodeAllocator

__all__ = [
    "ContiguousPlacement",
    "NodeAllocator",
    "PLACEMENTS",
    "Placement",
    "RandomPlacement",
    "create_placement",
    "resolve_placement",
]

_POLICIES = {
    "random": RandomPlacement,
    "contiguous": ContiguousPlacement,
}

#: Names accepted by :func:`create_placement` (for validation and CLIs).
PLACEMENTS = tuple(sorted(_POLICIES))


def resolve_placement(name: str) -> str:
    """Canonical policy name for ``name`` (case-insensitive); ``ValueError``
    naming the valid policies on an unknown name."""
    key = name.strip().lower()
    if key not in _POLICIES:
        raise ValueError(f"unknown placement policy {name!r}; choose from {sorted(_POLICIES)}")
    return key


def create_placement(name: str, **kwargs: Any) -> Placement:
    """Instantiate a placement policy by name (``"random"`` or ``"contiguous"``)."""
    return _POLICIES[resolve_placement(name)](**kwargs)
