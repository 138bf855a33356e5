"""SL(2) and GL(2) isomorphism decisions for plethysms S_lam(S_delta(C^2)).

The SL-level data of an instance is the pair (lam, d) with d the
difference of the two delta rows: two instances are SL-isomorphic
exactly when their P polynomials coincide, which ``sl_key`` decides
without expanding P, and GL-isomorphic when in addition the total
weights |delta|*|lam| match.
"""

from dataclasses import dataclass, field

from .errors import ConsistencyError
from .hookcontent import sl_key
from .partition import Partition, canonical, require_ints


def _require_keys(obj, keys: set[str]) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ValueError(f"expected an object with the keys {sorted(keys)}, got {obj!r}")


@dataclass(frozen=True)
class SLInstance:
    """A plethysm seen as an SL(2)-module: the partition and d only."""

    lam: Partition
    d: int
    # sl_key(lam, d), built at construction, which also rejects len(lam) > d + 1:
    # one int while every nonzero count sits below hookcontent._SPAN, else a tuple.
    key: int | tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", canonical(self.lam))
        require_ints("d", (self.d,))
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        object.__setattr__(self, "key", sl_key(self.lam, self.d))

    @classmethod
    def _of(cls, lam: Partition, d: int, key: int | tuple[int, ...]) -> "SLInstance":
        """The instance (lam, d) with the key given, built without checks.

        For the package's own producers only, whose lam is already a
        canonical partition, d a nonnegative int with len(lam) <= d + 1
        and key sl_key(lam, d).  Input from outside goes through
        SLInstance(lam, d) or ``from_json``, which check all of that.
        """
        inst = object.__new__(cls)
        # one field at a time, as __post_init__ does: a write through
        # __dict__ would give every instance a dict of its own
        object.__setattr__(inst, "lam", lam)
        object.__setattr__(inst, "d", d)
        object.__setattr__(inst, "key", key)
        return inst

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "d": self.d}

    @classmethod
    def from_json(cls, obj) -> "SLInstance":
        """Parse {"lambda": [...], "d": n}, rejecting any other shape."""
        _require_keys(obj, {"lambda", "d"})
        return cls(obj["lambda"], obj["d"])


@dataclass(frozen=True)
class PlethysmInstance:
    """S_lam(S_delta(C^2)) with the full two-row delta = (delta1, delta2)."""

    lam: Partition
    delta: tuple[int, int]
    # The (lam, d) instance, built once here with its key.
    sl: SLInstance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(self.delta))
        if len(self.delta) != 2:
            raise ValueError(f"delta must have exactly two entries, got {self.delta}")
        require_ints("each delta entry", self.delta)
        d1, d2 = self.delta
        if not (d1 >= d2 >= 0):
            raise ValueError(f"delta must satisfy delta1 >= delta2 >= 0, got {self.delta}")
        # SLInstance parses lam and checks its length against d
        sl = SLInstance(self.lam, d1 - d2)
        object.__setattr__(self, "lam", sl.lam)
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
