"""Exception hierarchy and artifact field check shared across the toolkit."""

from typing import Optional


class AtrellisError(ValueError):
    """Base class for all toolkit errors."""


# --- packet / flow domain ---

class PacketError(AtrellisError):
    """A packet that flow keying refuses."""


class MalformedAddress(PacketError):
    """An address string did not parse as IPv4."""


class ForeignPacket(PacketError):
    """Neither endpoint of the packet is the monitored device."""


class NonMonotonicTimestamp(PacketError):
    """A packet is earlier than the last packet of its flow."""


class SchemaError(AtrellisError):
    """A serialized artifact violates its schema (unknown field, bad version)."""


def located(where: str, exc: ValueError) -> AtrellisError:
    """``exc`` named at ``where``, a document's ``PATH`` or a line's
    ``PATH:LINE``: of its class if an AtrellisError, else a SchemaError.
    An error already named, in a file read while reading another, stays."""
    if getattr(exc, "where", None):
        return exc
    cls = type(exc) if isinstance(exc, AtrellisError) else SchemaError
    exc = cls(f"{where}: {exc}")
    exc.where = where
    return exc


def check(doc, fields: dict, what: str, optional: Optional[dict] = None,
          closed: bool = False) -> dict:
    """``doc``, checked to be an object holding each of ``fields``: a dict
    of nested fields, a frozenset of strings, a range of ints, or a type or
    tuple of types (a bool counts only as a bool, never as a number).  Each
    of ``optional`` that ``doc`` holds is then checked the same way.  A
    ``closed`` object, nested ones included, holds no other field: input
    from outside the program is closed (trace lines, ``--spec`` files and
    their activities, ``--attack`` values and their targets), while
    verdicts and the artifacts that carry a ``schema_version`` stay open
    to the optional fields a minor version may add.  A miss is a one-line
    SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: not a JSON object")
    specs = fields.items()
    if optional:
        specs = [*specs, *((n, s) for n, s in optional.items() if n in doc)]
    if closed:
        for name in doc:
            if name not in fields and name not in (optional or ()):
                raise SchemaError(f"{what}: unknown field {name!r:.30}")
    for name, spec in specs:
        if name not in doc:
            raise SchemaError(f"{what}: missing field {name}")
        value = doc[name]
        if isinstance(spec, dict):
            check(value, spec, f"{what} {name}", closed=closed)
        elif isinstance(spec, frozenset):
            if not isinstance(value, str) or value not in spec:
                raise SchemaError(f"{what}: unknown {name} {value!r:.20}")
        elif isinstance(spec, range):
            if type(value) is not int or value not in spec:
                raise SchemaError(f"{what}: {name} {value!r:.20} is not an "
                                  f"integer in {spec[0]}-{spec[-1]}")
        elif not isinstance(value, spec) or (isinstance(value, bool)
                                             and spec is not bool):
            raise SchemaError(f"{what}: field {name} has the wrong type "
                              f"{type(value).__name__}")
    return doc


def check_schema_version(doc, expected: str, what: str) -> None:
    version = check(doc, {"schema_version": str}, what)["schema_version"]
    if version.split(".")[0] != expected.split(".")[0]:
        raise SchemaError(f"{what}: unsupported schema_version "
                          f"{version!r:.20}")


# --- clustering tree ---

class EmptyTree(AtrellisError):
    pass


# --- cluster metrics ---

class NeedTwoClusters(AtrellisError):
    pass


class DegenerateDiameter(AtrellisError):
    """Every cluster has zero diameter; the index is undefined."""


class BadK(AtrellisError):
    pass


class LengthMismatch(AtrellisError):
    pass


# --- feature pipeline ---

class EmptyFlow(AtrellisError):
    pass


class UnorderedTimestamps(AtrellisError):
    pass


# --- autoencoder ---

class BadArchitecture(AtrellisError):
    pass


class ShapeMismatch(AtrellisError):
    pass


class EmptyData(AtrellisError):
    pass


class DivergedLoss(AtrellisError):
    """Training encountered a non-finite loss or gradient."""


# --- ensemble ---

class EmptyActivity(AtrellisError):
    """An activity key matches no flow of the training trace."""


class EmptyErrors(AtrellisError):
    pass


# --- simulator ---

class BadSpec(AtrellisError):
    pass
