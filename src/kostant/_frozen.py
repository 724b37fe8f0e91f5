"""Frozen value types without the dataclasses module.

@frozen reads the fields from the class annotations, in order, with
class attributes as defaults, and adds what the package uses of a frozen
dataclass: __init__ (which calls __post_init__ when the class has one), a
type-strict __eq__, __hash__ over the tuple of fields, the dataclass-style
__repr__, and a __setattr__ and __delattr__ that raise AttributeError.
__init__ is compiled from per-class source, one exec per class; the other
methods are shared. Importing dataclasses costs a process its inspect
import, and each dataclass six execs, which a short CLI run pays in full.
"""


def frozen(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"_set_field": object.__setattr__}
    params = []
    for name in fields:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    _set_field(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec("\n".join(lines), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._fields = fields
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def _astuple(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _astuple(self) == _astuple(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_astuple(self))


def _repr(self) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({args})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
