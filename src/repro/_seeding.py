"""Process-stable derivation of RNG seeds from labelled components.

Seeding a ``random.Random`` with ``("label", seed).__hash__()`` is not
reproducible across interpreter invocations: string hashing is salted
per process (PEP 456), so the same experiment seed yields different
pads, nonces and workload values in every run.  That breaks replaying
an execution from its recorded seeds and the execution engine's
contract that a sweep's output depends only on its task list.

``stable_hash`` provides the drop-in replacement: a SHA-256-based
63-bit digest of the components' canonical reprs, identical across
processes, platforms and Python versions.  Hot callers whose leading
components never change precompute them once with ``stable_prefix``
and hash the rest with ``stable_hash_from`` (same digest).
"""

from __future__ import annotations

import hashlib
from typing import Any

_SEED_MASK = (1 << 63) - 1


def stable_hash(*components: Any) -> int:
    """A 63-bit integer depending only on the components' reprs.

    Components must have process-stable reprs: numbers, strings, and
    tuples/lists/dicts of them qualify; sets (iteration order is
    salted) and objects with default address-based reprs do not.
    """
    return stable_hash_from(b"", *components)


def stable_prefix(*components: Any) -> bytes:
    """The bytes ``stable_hash`` digests for ``components``: plain
    bytes, so an object that keeps them stays picklable."""
    return b"".join(
        repr(component).encode() + b"\x1f" for component in components
    )


def stable_hash_from(prefix: bytes, *components: Any) -> int:
    """``stable_hash(*leading, *components)`` where ``prefix`` is
    ``stable_prefix(*leading)``."""
    digest = hashlib.sha256(prefix)
    for component in components:
        digest.update(repr(component).encode())
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "big") & _SEED_MASK
