"""SL(2) and GL(2) isomorphism decisions for plethysms S_lam(S_delta(C^2)).

The SL-level data of an instance is the pair (lam, d) with d the
difference of the two delta rows: two instances are SL-isomorphic
exactly when their P polynomials coincide, which ``sl_key`` decides
without expanding P, and GL-isomorphic when in addition the total
weights |delta|*|lam| match.
"""

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConsistencyError, LengthExceedsDimension
from .hookcontent import sl_key
from .partition import Partition, canonical, complement, tilde_reduce, weight


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_keys(obj, keys: set[str]) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ValueError(f"expected an object with the keys {sorted(keys)}, got {obj!r}")


@dataclass(frozen=True)
class SLInstance:
    """A plethysm seen as an SL(2)-module: the partition and d only."""

    lam: Partition
    d: int

    def __post_init__(self):
        object.__setattr__(self, "lam", canonical(self.lam))
        _require_int("d", self.d)
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if len(self.lam) > self.d + 1:
            raise LengthExceedsDimension(
                f"{self.lam} has more than {self.d + 1} rows"
            )

    @cached_property
    def key(self) -> tuple[int, ...]:
        """``sl_key(lam, d)``, built on first use and kept on the instance."""
        return sl_key(self.lam, self.d)

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
    _sl: SLInstance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(self.delta))
        if len(self.delta) != 2:
            raise ValueError(f"delta must have exactly two entries, got {self.delta}")
        for part in self.delta:
            _require_int("each delta entry", part)
        d1, d2 = self.delta
        if not (d1 >= d2 >= 0):
            raise ValueError(f"delta must satisfy delta1 >= delta2 >= 0, got {self.delta}")
        # SLInstance parses lam and checks its length against d
        sl = SLInstance(self.lam, d1 - d2)
        object.__setattr__(self, "lam", sl.lam)
        object.__setattr__(self, "_sl", sl)

    def sl_instance(self) -> SLInstance:
        """The (lam, d) instance built at construction, so its key is
        built at most once."""
        return self._sl

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
    if (weight(a.lam) * a.d - weight(b.lam) * b.d) % 2:
        raise ConsistencyError(
            f"equal P with odd weight-degree gap: {a} against {b}"
        )
    return True


def gl_isomorphic(a: PlethysmInstance, b: PlethysmInstance) -> bool:
    """True iff SL-isomorphic and |delta_a|*|lam_a| = |delta_b|*|lam_b|."""
    if sum(a.delta) * weight(a.lam) != sum(b.delta) * weight(b.lam):
        return False
    return sl_isomorphic(a.sl_instance(), b.sl_instance())


def normalize(a: SLInstance) -> SLInstance:
    """Strip full-height columns: reduce lam so it has at most d rows.

    The P polynomial (hence the SL-isomorphism type) is unchanged.
    """
    reduced, _ = tilde_reduce(a.lam, a.d + 1)
    return dataclasses.replace(a, lam=reduced)


def dual(a: SLInstance) -> SLInstance:
    """The complement of lam inside the (d+1) x lam_1 box, same d.

    Always SL-isomorphic to the input.
    """
    return dataclasses.replace(a, lam=complement(a.lam, a.d + 1))
