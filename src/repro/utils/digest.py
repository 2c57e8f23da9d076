"""SHA-256 and BLAKE2b from CPython's built-in modules, not OpenSSL.

``hashlib`` loads ``_hashlib`` (~3.5 MB, ~4 ms) for them; as ``random`` does
for ``_sha512``, fall back to it only where a built-in is missing.
"""

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

__all__ = ["blake2b", "sha256"]
