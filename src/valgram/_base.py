"""The registry of process-wide tables, the two identity memos, the JSON
shape checkers and the file-name check that the stages share. Like
``frames``, this module imports no other ``valgram`` module."""

from __future__ import annotations

import operator
from typing import Any, Callable, Hashable, Iterable, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

# Each table that lives as long as the process: a dict or a functools cache.
_TABLES: list = []


def _register(table: _T) -> _T:
    """Register ``table``, where it is declared, for :func:`clear`; returns it."""
    _TABLES.append(table)
    return table


def clear() -> None:
    """Empty every registered table. Otherwise a process that runs many
    corpora keeps every distinct key and annotation it has seen, and the
    last run's examples."""
    for table in _TABLES:
        table.clear() if isinstance(table, dict) else table.cache_clear()


def _once_per_object(compute: Callable[[_T], _R]) -> Callable[[_T], _R]:
    """``compute``, run once per distinct argument object. The memo is keyed
    by ``id()`` and holds the argument, so no id is reused while the memo
    lives, even when the caller's objects could be freed. So it keeps every
    distinct argument it has seen, with its result, until it is dropped:
    memory grows with the distinct objects passed, not with the calls."""
    memo: dict[int, tuple[_T, _R]] = {}

    def once(obj: _T) -> _R:
        entry = memo.get(id(obj))
        if entry is None:
            entry = memo[id(obj)] = (obj, compute(obj))
        return entry[1]

    return once


# The last two inputs passed under each key, most recent first, each as (the
# caller's object, its items then, the value derived from them). intersect
# keys by level and coverage by ("coverage", level). An entry holds its
# object, so no id is reused while the entry lives.
_last_inputs: dict[Hashable, list[tuple[Any, tuple, Any]]] = _register({})


def _reused(key: Hashable, obj: Iterable, derive: Callable[[tuple], Any]) -> Any:
    """``derive`` of the items of ``obj``, or the value derived at one of
    the last two calls under ``key`` when that call passed ``obj`` itself,
    and ``obj`` still holds the same items, by identity, in the same order.
    So appending, removing, reordering or replacing an item, even with an
    equal copy, derives the value again."""
    items = tuple(obj)
    entries = _last_inputs.setdefault(key, [])
    for i, (held, held_items, value) in enumerate(entries):
        if (
            held is obj and len(held_items) == len(items)
            and all(map(operator.is_, held_items, items))
        ):
            del entries[i]
            break
    else:
        value = derive(items)
    entries.insert(0, (obj, items, value))
    del entries[2:]
    return value


_REQUIRED = object()
_NULL = type(None)
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", _NULL: "null",
}


class _FieldError(ValueError):
    """A field of a JSON record is missing or has the wrong JSON type.
    ``field`` is its path within the record, empty for the record itself."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field or 'record'}: {reason}")
        self.field = field
        self.reason = reason

    def within(self, outer: str) -> _FieldError:
        return _FieldError(f"{outer}.{self.field}" if self.field else outer, self.reason)


def _json_type(value: object) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _values(d: object, fields: tuple) -> tuple:
    """The values of a JSON object's fields, in the order of ``fields``: each
    is checked for its JSON type, and an absent one takes its default."""
    if type(d) is not dict:
        raise _FieldError("", f"expected an object, got {_json_type(d)}")
    values = []
    for name, types, default in fields:
        value = d.get(name, default)
        if type(value) not in types:
            if value is _REQUIRED:
                raise _FieldError(name, "missing")
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise _FieldError(name, f"expected {expected}, got {_json_type(value)}")
        values.append(value)
    return tuple(values)


def _strings(value: object, where: str) -> list[str]:
    """``value``, which must be a JSON array of strings."""
    if type(value) is list:
        bad = [v for v in value if type(v) is not str]
        if not bad:
            return value
        got = f"an array holding {_json_type(bad[0])}"
    else:
        got = _json_type(value)
    raise _FieldError(where, f"expected an array of strings, got {got}")


def _file_name(name: str, what: str) -> str:
    """``name``, which a caller makes one entry of a directory: it must not
    be empty, ``.`` or ``..``, nor hold ``/``, ``\\`` or NUL, any of which
    would name no entry or one outside that directory."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(
            f"{what} name {name!r} cannot name a file: a name must not be empty, "
            "'.' or '..', nor hold '/', '\\' or NUL"
        )
    return name
