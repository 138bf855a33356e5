"""SL(2) and GL(2) isomorphism decisions for plethysms S_lam(S_delta(C^2)).

The SL-level data of an instance is the pair (lam, d) with d the
difference of the two delta rows: two instances are SL-isomorphic
exactly when their P polynomials coincide, which ``sl_key`` decides
without expanding P, and GL-isomorphic when in addition the total
weights |delta|*|lam| match.

The instance classes are frozen values with slots, compared and hashed
by their fields (lam, d) and (lam, delta), never by the key or the sl
instance derived from them, and rebuilt from those fields by copy and
pickle.  They are plain classes rather than dataclasses, so importing
the package, which every CLI command does, loads neither dataclasses
nor inspect.
"""

from .errors import ConsistencyError
from .hookcontent import sl_key
from .partition import Partition, canonical, excerpt, require_ints


def _require_keys(obj, keys: set[str]) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ValueError(f"expected an object with the keys {sorted(keys)}, got {excerpt(repr(obj))}")


class _Frozen:
    """A frozen value with slots.  Its fields are the slots named in
    ``__match_args__``, in order: ==, hash and repr read them and
    nothing else, so a slot derived from them stays out of all three.
    Assignment and deletion raise AttributeError; constructors set each
    slot through object.__setattr__.  A copy or a pickle is rebuilt by
    the checked constructor from the fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__match_args__
        return tuple(getattr(self, f) for f in fields) == tuple(getattr(other, f) for f in fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class SLInstance(_Frozen):
    """A plethysm seen as an SL(2)-module: the partition and d only.

    ``key`` is sl_key(lam, d), built at construction, which also rejects
    len(lam) > d + 1: one int while every nonzero count sits below
    hookcontent._SPAN, else a tuple.  It is derived from (lam, d), so
    ==, hash and repr leave it out.
    """

    __slots__ = ("lam", "d", "key")
    __match_args__ = ("lam", "d")
    lam: Partition
    d: int
    key: int | tuple[int, ...]

    def __init__(self, lam: Partition, d: int):
        lam = canonical(lam)
        require_ints("d", (d,))
        if d < 0:
            raise ValueError(f"d must be nonnegative, got {d}")
        key = sl_key(lam, d)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "key", key)

    @classmethod
    def _of(cls, lam: Partition, d: int, key: int | tuple[int, ...]) -> "SLInstance":
        """The instance (lam, d) with the key given, built without checks.

        For the package's own producers only, whose lam is already a
        canonical partition, d a nonnegative int with len(lam) <= d + 1
        and key sl_key(lam, d).  Input from outside goes through
        SLInstance(lam, d) or ``from_json``, which check all of that.
        """
        inst = object.__new__(cls)
        # past the raising __setattr__ into the slots: with no __dict__,
        # each of the many members a sweep builds holds three pointers
        object.__setattr__(inst, "lam", lam)
        object.__setattr__(inst, "d", d)
        object.__setattr__(inst, "key", key)
        return inst

    def __reduce__(self):
        # the key travels with the fields, so a copy is rebuilt unchecked
        return self._of, (self.lam, self.d, self.key)

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "d": self.d}

    @classmethod
    def from_json(cls, obj) -> "SLInstance":
        """Parse {"lambda": [...], "d": n}, rejecting any other shape."""
        _require_keys(obj, {"lambda", "d"})
        return cls(obj["lambda"], obj["d"])


class PlethysmInstance(_Frozen):
    """S_lam(S_delta(C^2)) with the full two-row delta = (delta1, delta2).

    ``sl`` is its (lam, d) instance, built once at construction with its
    key, and left out of ==, hash and repr.
    """

    __slots__ = ("lam", "delta", "sl")
    __match_args__ = ("lam", "delta")
    lam: Partition
    delta: tuple[int, int]
    sl: SLInstance

    def __init__(self, lam: Partition, delta: tuple[int, int]):
        delta = tuple(delta)
        if len(delta) != 2:
            raise ValueError(f"delta must have exactly two entries, got {excerpt(str(delta))}")
        require_ints("each delta entry", delta)
        d1, d2 = delta
        if not (d1 >= d2 >= 0):
            raise ValueError(f"delta must satisfy delta1 >= delta2 >= 0, got {delta}")
        # SLInstance parses lam and checks its length against d
        sl = SLInstance(lam, d1 - d2)
        object.__setattr__(self, "lam", sl.lam)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "sl", sl)

    @classmethod
    def from_json(cls, obj) -> "PlethysmInstance":
        """Parse {"lambda": [...], "delta": [d1, d2]}, rejecting any other shape."""
        _require_keys(obj, {"lambda", "delta"})
        return cls(obj["lambda"], obj["delta"])


def sl_isomorphic(a: SLInstance, b: SLInstance) -> bool:
    """True iff the two instances have equal P polynomials, decided by
    comparing their keys (``SLInstance.key``).

    Whenever they do, |lam_a|*d_a - |lam_b|*d_b must be even; a failure
    of that parity is raised as ConsistencyError rather than returned.
    """
    if a.key != b.key:
        return False
    if (sum(a.lam) * a.d - sum(b.lam) * b.d) % 2:
        raise ConsistencyError(
            f"equal P with odd weight-degree gap: {a} against {b}"
        )
    return True


def gl_isomorphic(a: PlethysmInstance, b: PlethysmInstance) -> bool:
    """True iff SL-isomorphic and |delta_a|*|lam_a| = |delta_b|*|lam_b|."""
    if sum(a.delta) * sum(a.lam) != sum(b.delta) * sum(b.lam):
        return False
    return sl_isomorphic(a.sl, b.sl)
