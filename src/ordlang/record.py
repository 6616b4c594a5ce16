"""Record classes, built without `dataclasses`, whose import pulls in `inspect`.

A record's fields are its class body's annotated names, after its bases'.
`frozen` and `eq`, given where a class subclasses `Record`, hold for its
subclasses. Each class gets its own `__init__`, `__repr__` and, with `eq`,
`__eq__` and `__hash__` (None when mutable), compiled from source text as
`dataclasses.dataclass` compiles them. A frozen record refuses to set or
delete any attribute.
"""

from typing import Any, NamedTuple, Optional

MISSING = object()  # the default of a field that has none


class Field(NamedTuple):  # a field's options, written as its default in the class body
    default: Any = MISSING
    default_factory: Any = None  # called for each instance's default instead
    compare: bool = True  # and hashed and shown by repr


class FrozenInstanceError(AttributeError):
    pass


def _refuse(self, name: str, *value: Any) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Record:
    __match_args__: tuple[str, ...] = ()
    _record: tuple = False, True, {}  # frozen, eq, and each field's `Field` by name, in order

    def __init_subclass__(cls, frozen: Optional[bool] = None, eq: Optional[bool] = None) -> None:
        frozen = cls._record[0] if frozen is None else frozen  # else its base's
        eq = cls._record[1] if eq is None else eq
        fields = dict(cls._record[2])
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, MISSING)
            fields[name] = value if isinstance(value, Field) else Field(value)
            if isinstance(value, Field):  # only an instance holds it
                delattr(cls, name)
        cls._record, cls.__match_args__ = (frozen, eq, fields), tuple(fields)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        keys = "".join(f"self.{n}," for n, f in fields.items() if f.compare)
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n, f in fields.items() if f.compare)
        lines = [f"def __init__(self{''.join(', ' + n for n in fields)}):"]
        for n, f in fields.items():
            value = f"_{n}() if {n} is MISSING else {n}" if f.default_factory else n
            lines.append(f"  _set(self, {n!r}, {value})" if frozen else f"  self.{n} = {value}")
        lines += ["  self.__post_init__()" if hasattr(cls, "__post_init__") else "  pass",
                  f"def __repr__(self): return self.__class__.__qualname__ + f'({shown})'",
                  "def __eq__(self, other):",
                  "  if other.__class__ is not self.__class__: return NotImplemented",
                  f"  return ({keys}) == ({keys.replace('self.', 'other.')})",
                  f"def __hash__(self): return hash(({keys}))" if frozen else "__hash__ = None"]
        namespace = {"_set": object.__setattr__, "MISSING": MISSING,
                     **{f"_{n}": f.default_factory for n, f in fields.items()}}
        exec("\n".join(lines), namespace)
        namespace["__init__"].__defaults__ = tuple(
            f.default for f in fields.values() if f.default is not MISSING or f.default_factory)
        cls.__init__, cls.__repr__ = namespace["__init__"], namespace["__repr__"]
        if eq:
            cls.__eq__, cls.__hash__ = namespace["__eq__"], namespace["__hash__"]


def replace(record: Any, **changes: Any) -> Any:
    """A new record of `record`'s class, its fields those of `record` but where
    `changes` names them."""
    args = [changes.pop(f) if f in changes else getattr(record, f) for f in record.__match_args__]
    if changes:
        raise TypeError(f"{record.__class__.__name__} has no field {next(iter(changes))!r}")
    return record.__class__(*args)
