"""Small shared utilities: deterministic RNG helpers, validation, text tables."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("derive_rng",),
        "tables": ("format_table",),
        "validation": ("require", "require_positive", "require_probability"),
    },
)
