"""The six domain rule families.  Importing this package registers them."""

from tools.reprolint.checkers import (
    determinism,
    exceptions,
    hashstability,
    hotpath,
    units,
    unitflow,
)

__all__ = [
    "determinism",
    "exceptions",
    "hashstability",
    "hotpath",
    "units",
    "unitflow",
]
