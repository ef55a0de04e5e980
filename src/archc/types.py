"""Concrete (elaborated) signal types."""

from __future__ import annotations


class Type:
    """Base of the concrete types: immutable values, equal and hashed by
    class and fields. Assignment raises, so a subclass's `__init__` stores
    its fields straight into `__dict__`, in declaration order."""

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({args})"


class Bit(Type):
    def __str__(self) -> str:
        return "Bit"


class Bool(Type):
    def __str__(self) -> str:
        return "Bool"


class UInt(Type):
    def __init__(self, width: int) -> None:
        self.__dict__["width"] = width

    def __str__(self) -> str:
        return f"UInt<{self.width}>"


class SInt(Type):
    def __init__(self, width: int) -> None:
        self.__dict__["width"] = width

    def __str__(self) -> str:
        return f"SInt<{self.width}>"


class Clock(Type):
    def __init__(self, domain: str) -> None:
        self.__dict__["domain"] = domain

    def __str__(self) -> str:
        return f"Clock<{self.domain}>"


class Reset(Type):
    def __init__(self, sync: str, polarity: str) -> None:  # Sync | Async, High | Low
        self.__dict__.update(sync=sync, polarity=polarity)

    def __str__(self) -> str:
        return f"Reset<{self.sync}, {self.polarity}>"


class Vec(Type):
    def __init__(self, elem: Type, size: int) -> None:
        self.__dict__.update(elem=elem, size=size)

    def __str__(self) -> str:
        return f"Vec<{self.elem}, {self.size}>"


class EnumType(Type):
    def __init__(self, owner: str, name: str, variants: tuple[str, ...]) -> None:
        # owner: the key of the construct the enum is scoped to
        self.__dict__.update(owner=owner, name=name, variants=variants)

    def __str__(self) -> str:
        return self.name

    @property
    def width(self) -> int:
        return max(1, (len(self.variants) - 1).bit_length())


BIT = Bit()
BOOL = Bool()


def width_of(ty: Type) -> int:
    """Bit width of a data type (Vec = element width x size)."""
    if isinstance(ty, (Bit, Bool, Clock, Reset)):
        return 1
    if isinstance(ty, (UInt, SInt)):
        return ty.width
    if isinstance(ty, EnumType):
        return ty.width
    if isinstance(ty, Vec):
        return width_of(ty.elem) * ty.size
    raise AssertionError(f"width_of({ty!r})")


def is_one_bit_data(ty: Type) -> bool:
    return isinstance(ty, (Bit, Bool)) or (isinstance(ty, UInt) and ty.width == 1)


def is_signed(ty: Type) -> bool:
    return isinstance(ty, SInt)


def assignable(dst: Type, src: Type) -> bool:
    """Width-exact assignment compatibility. Bool is an alias of UInt<1>
    (both directions); Bit behaves as UInt<1> for logic purposes and is
    likewise inter-assignable at one bit. No UInt<->SInt mixing ever."""
    if dst == src:
        return True
    if is_one_bit_data(dst) and is_one_bit_data(src):
        return True
    if isinstance(dst, Vec) and isinstance(src, Vec):
        return dst.size == src.size and assignable(dst.elem, src.elem)
    return False
