"""Small shared utilities: deterministic RNG helpers, validation, text tables."""

from .rng import derive_rng
from .tables import format_table
from .validation import require, require_positive, require_probability

__all__ = [
    "derive_rng",
    "format_table",
    "require",
    "require_positive",
    "require_probability",
]
