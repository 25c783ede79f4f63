"""Hash-algorithm registry and byte-level hashing helpers.

The paper's checksums are built from a cryptographic hash function ``h()``
(§2.3).  The evaluation uses Java's ``MessageDigest("SHA")`` — i.e. SHA-1
with a 20-byte digest — so SHA-1 is the default here, but every component
takes the algorithm as a parameter and SHA-256 is recommended for new
deployments (SHA-1 collisions are practical since 2017; the paper predates
that).

Only *byte-level* hashing lives in this module.  Canonical encoding of
object ids and values into bytes is the data model's job
(:mod:`repro.model.values`), which keeps this layer free of upward
dependencies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Tuple

from repro import obs
from repro.exceptions import UnknownHashAlgorithm
from repro.obs import OBS

__all__ = [
    "HashAlgorithm",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "hash_bytes",
    "hash_concat",
    "DEFAULT_HASH",
]


@dataclass(frozen=True)
class HashAlgorithm:
    """A named cryptographic hash algorithm.

    Attributes:
        name: Registry key, e.g. ``"sha1"``.
        factory: Zero-argument callable returning a hashlib-style object
            (supporting ``update`` and ``digest``).
        digest_size: Size of the digest in bytes.
    """

    name: str
    factory: Callable[[], "hashlib._Hash"]
    digest_size: int

    def digest(self, data: bytes) -> bytes:
        """Return the digest of ``data``."""
        h = self.factory()
        h.update(data)
        return h.digest()

    def digest_iter(self, chunks: Iterable[bytes]) -> bytes:
        """Return the digest of the concatenation of ``chunks``.

        Streaming equivalent of ``digest(b"".join(chunks))`` without
        materialising the concatenation; used by the large-database
        streaming hasher.
        """
        h = self.factory()
        for chunk in chunks:
            h.update(chunk)
        return h.digest()

    def new(self) -> "hashlib._Hash":
        """Return a fresh incremental hash object."""
        return self.factory()


_REGISTRY: Dict[str, HashAlgorithm] = {}


def register_algorithm(algorithm: HashAlgorithm) -> None:
    """Register ``algorithm`` under ``algorithm.name`` (case-insensitive)."""
    _REGISTRY[algorithm.name.lower()] = algorithm


def get_algorithm(name: str) -> HashAlgorithm:
    """Look up a registered :class:`HashAlgorithm` by name.

    Raises:
        UnknownHashAlgorithm: If ``name`` is not registered.
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownHashAlgorithm(
            f"unknown hash algorithm {name!r}; known algorithms: {known}"
        ) from None


def available_algorithms() -> Tuple[str, ...]:
    """Return the sorted names of all registered algorithms."""
    return tuple(sorted(_REGISTRY))


def hash_bytes(data: bytes, algorithm: str = "sha1") -> bytes:
    """Hash ``data`` with the named algorithm and return the raw digest."""
    with obs.phase("hash"):
        digest = get_algorithm(algorithm).digest(data)
    if OBS.enabled:
        OBS.registry.counter("hash.digests", algorithm=algorithm).inc()
        OBS.registry.counter("hash.bytes", algorithm=algorithm).inc(len(data))
    return digest


def hash_concat(parts: Iterable[bytes], algorithm: str = "sha1") -> bytes:
    """Hash the concatenation of ``parts``.

    This is the ``h(x | y | ...)`` construction the paper uses pervasively
    (e.g. the aggregate checksum hashes the concatenation of the input
    hashes).  Parts are fed to the hash incrementally.
    """
    with obs.phase("hash"):
        if not OBS.enabled:
            return get_algorithm(algorithm).digest_iter(parts)
        h = get_algorithm(algorithm).new()
        total = 0
        for chunk in parts:
            total += len(chunk)
            h.update(chunk)
        OBS.registry.counter("hash.digests", algorithm=algorithm).inc()
        OBS.registry.counter("hash.bytes", algorithm=algorithm).inc(total)
        return h.digest()


def _register_builtins() -> None:
    for name, factory in (
        ("md5", hashlib.md5),
        ("sha1", hashlib.sha1),
        ("sha224", hashlib.sha224),
        ("sha256", hashlib.sha256),
        ("sha384", hashlib.sha384),
        ("sha512", hashlib.sha512),
    ):
        register_algorithm(
            HashAlgorithm(name=name, factory=factory, digest_size=factory().digest_size)
        )


_register_builtins()

#: The algorithm used by the paper's evaluation (Java ``MessageDigest("SHA")``).
DEFAULT_HASH = "sha1"
