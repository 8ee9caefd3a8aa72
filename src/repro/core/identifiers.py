"""Identifier types used throughout the protocol (paper Section 4.2).

The paper names four identifier spaces:

* ``GID`` — group identity, e.g. an IP multicast Class D address;
* ``NodeID`` — identity of a network entity (AP/AG/BR), e.g. its IP address;
* ``GUID`` — globally unique identity of a mobile host, e.g. its Mobile IP
  home address;
* ``LUID`` — locally unique identity of a mobile host, e.g. its Mobile IP
  care-of address, which changes on every handoff.

The reproduction models all of them as thin, validated ``str`` wrappers so
that type confusion (passing a node id where a member GUID is expected) is
caught early in tests.
"""

from __future__ import annotations

from typing import Any, Dict


class _Identifier:
    """Base class for validated, interned string identifiers.

    Equality, ordering and hashing are hand-written rather than
    dataclass-generated: the generated methods allocate a field tuple per
    comparison, and identifiers are compared and hashed millions of times on
    the kernel's token path.  Semantics are unchanged — same-class
    comparison by ``value``, cross-class comparisons refused.

    Instances are **interned per subclass**: constructing the same identifier
    value twice yields the same (immutable, ``__slots__``-compact) object, so
    a million-proxy hierarchy stores each id string exactly once no matter how
    many rings, views and queues reference it.  The tables are plain dicts
    (CPython-style: interned ids live for the process) because the weak
    variant costs ~3x on the bulk-construction path; id populations are
    bounded by the largest configuration built in-process, and repeated
    matrix cells re-derive the *same* strings, so the steady-state footprint
    is one table of small strings.  :func:`clear_intern_tables` exists for
    long-running processes that switch workloads.  Pickling round-trips
    through the constructor (``__reduce__``), which both re-interns on load
    and keeps the cached hash correct across processes with different
    string-hash seeds.
    """

    __slots__ = ("value", "_hash")

    value: str
    _intern: Dict[str, "_Identifier"]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Each concrete identifier class gets its own intern table, so equal
        # strings of *different* identifier types stay distinct objects.
        cls._intern = {}

    def __new__(cls, value: str) -> "_Identifier":
        cached = cls._intern.get(value) if type(value) is str else None
        if cached is not None:
            return cached
        if not isinstance(value, str) or not value:
            raise ValueError(
                f"{cls.__name__} requires a non-empty string, got {value!r}"
            )
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(value))
        cls._intern[value] = self
        return self

    @classmethod
    def make_interned(cls, values: "Any", prefix: str = "") -> list:
        """Vectorised construction: one interned instance per input string.

        The bulk-build path for million-proxy hierarchies.  Skips the
        per-instance validation re-run (callers generate the strings, so
        emptiness/type are guaranteed by construction) and hoists the intern
        table and allocation callables out of the loop.  With ``prefix`` the
        concatenation happens inside the loop, so callers building
        ``prefix + suffix`` id families avoid a generator per call site.
        """
        table = cls._intern
        table_get = table.get
        alloc = object.__new__
        setattr_ = object.__setattr__
        out = []
        append = out.append
        if prefix:
            for suffix in values:
                value = prefix + suffix
                ident = table_get(value)
                if ident is None:
                    ident = alloc(cls)
                    setattr_(ident, "value", value)
                    setattr_(ident, "_hash", hash(value))
                    table[value] = ident
                append(ident)
            return out
        for value in values:
            ident = table_get(value)
            if ident is None:
                ident = alloc(cls)
                setattr_(ident, "value", value)
                setattr_(ident, "_hash", hash(value))
                table[value] = ident
            append(ident)
        return out

    def __setattr__(self, name: str, _value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.value,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(value={self.value!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other is self:
            return False
        if other.__class__ is self.__class__:
            return self.value != other.value
        return NotImplemented

    def __lt__(self, other: "_Identifier") -> bool:
        if other.__class__ is self.__class__:
            return self.value < other.value
        return NotImplemented

    def __le__(self, other: "_Identifier") -> bool:
        if other.__class__ is self.__class__:
            return self.value <= other.value
        return NotImplemented

    def __gt__(self, other: "_Identifier") -> bool:
        if other.__class__ is self.__class__:
            return self.value > other.value
        return NotImplemented

    def __ge__(self, other: "_Identifier") -> bool:
        if other.__class__ is self.__class__:
            return self.value >= other.value
        return NotImplemented

    def __str__(self) -> str:
        return self.value

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)


# The base class is occasionally instantiated directly in tests; give it its
# own table (subclasses get theirs from ``__init_subclass__``).
_Identifier._intern = {}


def clear_intern_tables() -> None:
    """Drop every interned identifier instance (they remain valid objects).

    Intended for long-running processes that move between unrelated
    workloads; subsequently constructed identifiers re-intern as usual.
    """
    for cls in [_Identifier, *_all_subclasses(_Identifier)]:
        cls._intern.clear()


def _all_subclasses(cls: type) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class GroupId(_Identifier):
    """A communication group identity (``GID``)."""

    __slots__ = ()


class NodeId(_Identifier):
    """A network entity identity (``NodeID``) — an AP, AG or BR."""

    __slots__ = ()


class GloballyUniqueId(_Identifier):
    """A mobile host's globally unique identity (``GUID``).

    Stable across handoffs; analogous to a Mobile IP home address.
    """

    __slots__ = ()


class LocallyUniqueId(_Identifier):
    """A mobile host's locally unique identity (``LUID``).

    Scoped to the current access proxy; analogous to a Mobile IP care-of
    address and re-issued on every handoff.
    """

    __slots__ = ()


def make_luid(ap_id: "NodeId | str", guid: "GloballyUniqueId | str", epoch: int) -> LocallyUniqueId:
    """Derive a care-of-address-like LUID for a host attached to an AP.

    ``epoch`` distinguishes successive attachments of the same host to the
    same access proxy (e.g. re-attachment after a transient disconnection).
    """
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    ap_value = ap_id.value if isinstance(ap_id, NodeId) else str(ap_id)
    guid_value = guid.value if isinstance(guid, GloballyUniqueId) else str(guid)
    return LocallyUniqueId(f"{ap_value}/{guid_value}#{epoch}")


def coerce_group(value: "GroupId | str") -> GroupId:
    """Accept either a :class:`GroupId` or a plain string group name."""
    return value if isinstance(value, GroupId) else GroupId(str(value))


def coerce_node(value: "NodeId | str") -> NodeId:
    """Accept either a :class:`NodeId` or a plain string node name."""
    return value if isinstance(value, NodeId) else NodeId(str(value))


def coerce_guid(value: "GloballyUniqueId | str") -> GloballyUniqueId:
    """Accept either a :class:`GloballyUniqueId` or a plain string."""
    return value if isinstance(value, GloballyUniqueId) else GloballyUniqueId(str(value))
