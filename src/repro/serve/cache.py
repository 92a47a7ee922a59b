"""Signature-keyed recommendation cache with lifecycle-aware eviction.

The cache key reuses the engine's plan-signature machinery: an
:class:`~repro.engine.expr.Expression` subject is keyed by its *strict*
signature (two structurally identical plans share an entry; any
structural difference misses), strings and ints key as themselves, a
dataclass whose fields are all plain scalars (a
:class:`~repro.workloads.customers.CustomerProfile`) by its type and
field values, and anything else by a content digest of its canonical
pickle.  The full entry key is::

    (tenant, endpoint, op, subject_key, model_version, epoch)

``model_version`` is the production version of the model the endpoint
serves from and ``epoch`` the endpoint's fabric tick count — so a
background tick that retrains state, or a lifecycle promote/rollback
that changes the serving model, can never serve a stale recommendation.

Invalidation is **scan-based**, not listener-based: the cache remembers
how much of the :class:`~repro.fabric.lifecycle.ModelLifecycle` action
log it has seen and, on every lookup, folds in the fresh tail —
``promote`` and ``rollback`` actions evict every entry tagged with the
affected model name.  The lifecycle object itself is never mutated or
subscribed to, which keeps fabric checkpoints (which pickle the
lifecycle) oblivious to the serving tier.
"""

from __future__ import annotations

import copyreg
import dataclasses
import hashlib
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine import Expression, signatures

if TYPE_CHECKING:
    from repro.core.service import ServeResponse
    from repro.fabric.lifecycle import ModelLifecycle

#: Lifecycle transitions that change which model version serves.
_EVICTING_ACTIONS = frozenset({"promote", "rollback"})


#: Field value types a dataclass subject may key by value: each pickles
#: as a pure function of its type and bits.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None), np.float64})
#: class -> its dataclass field names, or None when its instances do not
#: pickle as a plain field dict (not a dataclass, slots, reduce hooks).
_FIELD_NAMES: dict[type, "tuple[str, ...] | None"] = {}


def _plain_field_names(cls: type) -> "tuple[str, ...] | None":
    if (
        not dataclasses.is_dataclass(cls)
        or cls in copyreg.dispatch_table
        or cls.__reduce_ex__ is not object.__reduce_ex__
        or cls.__reduce__ is not object.__reduce__
        or getattr(cls, "__getstate__", None)
        is not getattr(object, "__getstate__", None)
        or hasattr(cls, "__getnewargs_ex__")
        or hasattr(cls, "__getnewargs__")
        or any("__slots__" in vars(base) for base in cls.__mro__)
    ):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def _scalar_fields_key(subject: Any) -> "tuple | None":
    """Class, field types and field values of a dataclass of scalars.

    Keys are equal only when the canonical pickles are: the key holds
    the class (a subclass differs), each value's type (``1``, ``1.0``,
    ``True`` and ``numpy.float64(1.0)`` differ) and, since ``-0.0 ==
    0.0``, a zero's sign.  A NaN equals only itself, so a NaN subject
    hits only when it carries the very same NaN object.  Returns None
    for any other subject.
    """
    cls = type(subject)
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = _plain_field_names(cls)
    state = getattr(subject, "__dict__", None)
    if names is None or state is None or tuple(state) != names:
        return None
    values = tuple(state.values())
    kinds = tuple(map(type, values))
    if not _SCALAR_TYPES.issuperset(kinds):
        return None
    if 0.0 in values:
        values = tuple(
            value.hex() if (kind is float or kind is np.float64) and not value
            else value
            for kind, value in zip(kinds, values)
        )
    return (cls, kinds, values)


def subject_key(subject: Any) -> "str | tuple":
    """A stable cache key component for one request subject.

    Expressions key by strict plan signature (the whole point of the
    signature machinery: structural identity, not object identity);
    primitives and dataclasses of scalars by value; everything else by
    canonical-pickle digest.
    """
    if subject is None:
        return "none"
    if isinstance(subject, Expression):
        return f"strict:{signatures(subject).strict}"
    if isinstance(subject, str):
        return f"str:{subject}"
    if isinstance(subject, (int, bool)):
        return f"int:{subject}"
    key = _scalar_fields_key(subject)
    if key is not None:
        return key
    blob = pickle.dumps(subject, protocol=4)
    return f"blob:{hashlib.blake2b(blob, digest_size=16).hexdigest()}"


def params_key(params: Any) -> str:
    """Canonical key component for an op's keyword arguments."""
    if not params:
        return ""
    return repr(tuple(sorted(dict(params).items())))


class RecommendationCache:
    """LRU response cache keyed on signatures, model versions, and epochs."""

    def __init__(
        self,
        lifecycle: "ModelLifecycle | None" = None,
        max_entries: int = 4096,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.lifecycle = lifecycle
        self.max_entries = max_entries
        #: key -> (response, model name tag)
        self._entries: "OrderedDict[tuple, tuple[ServeResponse, str]]" = OrderedDict()
        #: Prefix of the lifecycle action log already folded in.
        self._seen_actions = len(lifecycle.actions) if lifecycle else 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- keys ------------------------------------------------------------------
    def key(
        self,
        tenant: str,
        endpoint: str,
        op: str,
        subject: Any,
        params: Any = None,
        model_version: int | None = None,
        epoch: int = 0,
    ) -> tuple:
        return (
            tenant,
            endpoint,
            op,
            subject_key(subject),
            params_key(params),
            model_version,
            epoch,
        )

    def model_version(self, model: str) -> int | None:
        """The production version of ``model``, or None when unmanaged."""
        if not model or self.lifecycle is None:
            return None
        record = self.lifecycle.registry.production(model)
        return record.version if record is not None else None

    # -- lookups ---------------------------------------------------------------
    def get(self, key: tuple) -> "ServeResponse | None":
        """The cached response for ``key`` (after lifecycle sync), or None."""
        self.sync_lifecycle()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: tuple, response: "ServeResponse", model: str = "") -> None:
        """Cache one successful response, tagged with its model name."""
        if not response.ok:
            return
        self._entries[key] = (response, model)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- invalidation ----------------------------------------------------------
    def sync_lifecycle(self) -> int:
        """Fold in lifecycle actions recorded since the last sync.

        Every ``promote``/``rollback`` evicts all entries tagged with
        the affected model name.  Returns entries evicted.
        """
        if self.lifecycle is None:
            return 0
        fresh = self.lifecycle.actions[self._seen_actions :]
        self._seen_actions = len(self.lifecycle.actions)
        evicted = 0
        for action in fresh:
            if action.action in _EVICTING_ACTIONS:
                evicted += self.evict_model(action.name)
        return evicted

    def evict_model(self, model: str) -> int:
        """Drop every entry tagged with ``model``; returns entries dropped."""
        stale = [
            key for key, (_, tag) in self._entries.items() if tag == model
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
