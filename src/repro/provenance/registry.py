"""Per-tenant provenance store layout.

The service layer (:mod:`repro.service`) hosts many mutually-distrusting
tenants in one process.  Each tenant owns exactly one provenance store:
an :class:`~repro.provenance.store.InMemoryProvenanceStore`, or one
:class:`~repro.provenance.store.SQLiteProvenanceStore` file at
``root/<escaped tenant>/provenance.sqlite``.  A complex operation is
therefore one ``append_many`` — one transaction and one batch-journal
entry — so a crash can tear it only in a way recovery can see.

:func:`tenant_dir` is the one place that maps a tenant id to its
directory; the store file and the service's witness log both live there.
"""

from __future__ import annotations

import fnmatch
import os
from typing import Optional, Union

from repro.exceptions import ProvenanceError
from repro.provenance.store import InMemoryProvenanceStore, SQLiteProvenanceStore

__all__ = ["open_tenant_store", "tenant_dir"]


def tenant_dir(root: str, tenant_id: str) -> str:
    """The directory holding one tenant's files: ``root/<escaped tenant>``.

    Tenant ids become directory names; anything outside a conservative
    safe set is percent-escaped so a hostile tenant id cannot traverse
    out of the store root.  ``.`` is deliberately *not* in the safe set:
    leaving it unescaped would pass ``.`` and ``..`` through verbatim and
    resolve tenant files into (or above) the root itself.  ``%`` is always
    escaped, so the mapping is injective — two distinct tenant ids can
    never collide on one directory.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_" else f"%{ord(ch):02x}"
        for ch in tenant_id
    )
    directory = os.path.join(root, safe)
    real_root = os.path.realpath(root)
    real_dir = os.path.realpath(directory)
    if real_dir == real_root or not real_dir.startswith(real_root + os.sep):
        raise ProvenanceError(
            f"tenant id {tenant_id!r} escapes the store root {root!r}"
        )
    return directory


def open_tenant_store(
    root: Optional[str], tenant_id: str
) -> Union[InMemoryProvenanceStore, SQLiteProvenanceStore]:
    """Open (creating as needed) one tenant's provenance store.

    ``root=None`` builds an in-memory store — the default for tests and
    seeded reference worlds; a path opens ``root/<tenant>/provenance.sqlite``.

    A tenant directory that still holds ``shard-K.sqlite`` files comes
    from the older layout that split a tenant over several stores.
    Opening only the new file would silently drop the chains and
    watermarks in those shards, so it is refused instead.
    """
    if root is None:
        return InMemoryProvenanceStore()
    directory = tenant_dir(root, tenant_id)
    if os.path.isdir(directory):
        legacy = sorted(fnmatch.filter(os.listdir(directory), "shard-*.sqlite"))
        if legacy:
            raise ProvenanceError(
                f"tenant {tenant_id!r} holds {legacy}: its store predates "
                "single-store tenants and cannot be opened"
            )
    os.makedirs(directory, exist_ok=True)
    return SQLiteProvenanceStore(os.path.join(directory, "provenance.sqlite"))
