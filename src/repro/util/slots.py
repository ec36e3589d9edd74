"""``add_slots`` — ``dataclass(slots=True)`` for Python 3.9.

The hot simulation loop allocates trace events and record dataclasses by
the hundred thousand; giving them ``__slots__`` removes the per-instance
``__dict__`` (smaller objects, faster attribute reads).  CPython grew
``@dataclass(slots=True)`` in 3.10, but the CI matrix still runs 3.9, so
this module backports the same transformation: rebuild the decorated
dataclass with ``__slots__`` naming the fields *this* class introduces
(inherited slots stay with the base) and the field defaults removed from
the class body (the generated ``__init__`` already carries them).

Apply *below* ``@dataclass`` so the fields exist when the decorator runs::

    @add_slots
    @dataclass(frozen=True)
    class Point:
        x: int
        y: int

Every dataclass feature survives the rebuild — ``dataclasses.fields``,
``asdict``, ``replace``, frozen-ness, defaults, properties — because the
transformation only swaps the class dictionary, exactly like 3.10's
native implementation.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
from typing import Iterable, Type, TypeVar

_T = TypeVar("_T")


def _declared_slots(klass: type) -> Iterable[str]:
    slots = klass.__dict__.get("__slots__", ())
    return (slots,) if isinstance(slots, str) else slots


def _repoint_closures(new_cls: type, old_cls: type) -> None:
    """Retarget closure cells holding ``old_cls`` to ``new_cls``.

    The dataclass machinery bakes the class into closures — frozen
    ``__setattr__``/``__delattr__`` carry a ``cls`` freevar, zero-arg
    ``super()`` a ``__class__`` cell.  After the rebuild those cells
    still point at the discarded original, so ``super(cls, self)``
    would raise ``TypeError`` on instances of the new class.
    """
    for member in new_cls.__dict__.values():
        fn = getattr(member, "fget", member)  # unwrap property getters too
        if not isinstance(fn, types.FunctionType) or fn.__closure__ is None:
            continue
        for cell in fn.__closure__:
            try:
                if cell.cell_contents is old_cls:
                    cell.cell_contents = new_cls
            except ValueError:  # pragma: no cover - empty cell
                continue


def _frozen_getstate(self) -> list:
    return [getattr(self, f.name) for f in dataclasses.fields(self)]


def _frozen_setstate(self, state: list) -> None:
    for f, value in zip(dataclasses.fields(self), state):
        object.__setattr__(self, f.name, value)


def add_slots(cls: Type[_T]) -> Type[_T]:
    """Rebuild a dataclass with ``__slots__`` (3.9-compatible).

    Mirrors CPython's ``dataclasses._add_slots``: the new class slots
    only the fields not already slotted by a base class, drops the
    class-level field defaults (captured by ``__init__``), removes
    ``__dict__``/``__weakref__`` descriptors so instances really are
    dict-free when every class in the MRO cooperates, and gives frozen
    classes pickle state hooks.
    """
    if "__slots__" in cls.__dict__:
        raise TypeError(f"{cls.__name__} already specifies __slots__")
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"add_slots requires a dataclass, got {cls.__name__}")
    field_names = tuple(f.name for f in dataclasses.fields(cls))
    inherited = set(
        itertools.chain.from_iterable(
            _declared_slots(base) for base in cls.__mro__[1:-1]
        )
    )
    cls_dict = dict(cls.__dict__)
    cls_dict["__slots__"] = tuple(n for n in field_names if n not in inherited)
    for name in field_names:
        cls_dict.pop(name, None)  # defaults live in __init__ now
    cls_dict.pop("__dict__", None)
    cls_dict.pop("__weakref__", None)
    if cls.__dataclass_params__.frozen:
        # Unpickling a slotted object sets its slots with setattr, which
        # a frozen dataclass refuses; state goes through object.__setattr__.
        cls_dict["__getstate__"] = _frozen_getstate
        cls_dict["__setstate__"] = _frozen_setstate
    qualname = getattr(cls, "__qualname__", None)
    new_cls = type(cls)(cls.__name__, cls.__bases__, cls_dict)
    if qualname is not None:
        new_cls.__qualname__ = qualname
    _repoint_closures(new_cls, cls)
    return new_cls
