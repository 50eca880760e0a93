"""Channel instances for the diamond relay network and their capacities.

The network has a source (node 0), two half-duplex relays (nodes 1 and 2) and
a destination (node 3). There is no direct source-destination link and no
link between the relays. Each point-to-point link is a complex Gaussian
channel described by a power gain, the receiver noise variance and the
transmitter power budget; its capacity is log2(1 + SNR) bits per channel use.

Besides the four link capacities the bound computations need two cut
capacities: the source-side cut where both relays listen jointly (per-relay
SNRs add) and the destination-side cut where both relays transmit coherently
(received amplitudes add).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from .errors import DomainError

__all__ = [
    "ChannelSpec",
    "LinkCapacities",
    "link_capacity",
    "derive_capacities",
    "induced_capacities",
    "gain_for_capacity",
]

_LN2 = math.log(2.0)

# Cut capacities must dominate their strongest link; allow a hair of slack so
# values computed through different floating-point routes still validate.
_CUT_CAP_SLACK = 1e-9


def _checked_value(
    name: str, value: object, low: float | None = None, strict: bool = False
) -> float:
    """value as a finite float, -0.0 as 0.0, at least low (above low when strict) if given."""
    if type(value) is not float or value - value != 0.0:  # else a finite plain float already
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond double range
            raise DomainError(f"{name} must be finite, got an integer too large "
                              "for a float") from None
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if value == 0.0 and math.copysign(1.0, value) < 0.0:
        value = 0.0
    if low is not None and (value <= low if strict else value < low):
        raise DomainError(f"{name} must be {'>' if strict else '>='} {low:g}, got {value}")
    return value


def _checked_reals(
    name: str, values: object, n: int, low: float | None = None, strict: bool = False
) -> tuple[float, ...]:
    """values as n floats, entry i checked by _checked_value under the name name[i]."""
    try:  # n + 1 items at most, as unpacking takes: an endless iterator is refused
        items = tuple(itertools.islice(values, n + 1))  # type: ignore[call-overload]
    except (TypeError, ValueError):
        items = ()
    # text and bytes iterate as characters and byte values, never as numbers
    if len(items) != n or isinstance(values, (str, bytes, bytearray, memoryview)):
        raise DomainError(f"{name} must be {n} real numbers, got {values!r}")
    return tuple(_checked_value(f"{name}[{i}]", v, low, strict) for i, v in enumerate(items))


def _checked_keys(kind: str, data: Mapping, known: Iterable, required: Iterable) -> None:
    """Reject keys of data outside known, then required keys missing from it."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise DomainError(f"unknown {kind} field(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise DomainError(f"missing {kind} field(s): {', '.join(missing)}")


def plain_dict(obj: object) -> dict[str, object]:
    """A dataclass's fields in order, as JSON-ready values.

    Enums become their values, tuples lists and frozensets sorted lists.
    """
    out: dict[str, object] = {}
    for field in fields(obj):  # type: ignore[arg-type]
        value = getattr(obj, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, frozenset):
            value = sorted(value)
        out[field.name] = value
    return out


def _log2_1p(x: float) -> float:
    # log2(1 + x) without the precision loss of forming 1 + x first; small
    # SNRs survive a capacity -> gain -> capacity round trip this way
    return math.log1p(x) / _LN2


def _snr_for_capacity(name: str, capacity: float) -> float:
    # 2^capacity - 1, full relative precision even for tiny capacities
    try:
        return math.expm1(capacity * _LN2)
    except OverflowError:
        raise DomainError(f"{name} = {capacity} is too large to realize "
                          "in double precision") from None


@dataclass(frozen=True)
class ChannelSpec:
    """One static realization of the diamond channel.

    Attributes:
        g01, g02: power gains from the source to relay 1 / relay 2
            (dimensionless, >= 0).
        g13, g23: power gains from relay 1 / relay 2 to the destination (>= 0).
        sigma1_sq, sigma2_sq, sigma3_sq: noise variances at relay 1, relay 2
            and the destination (linear power units, > 0).
        p_s, p_r1, p_r2: transmit power budgets of the source and the two
            relays (linear power units, >= 0).
    """

    g01: float
    g02: float
    g13: float
    g23: float
    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float
    p_s: float
    p_r1: float
    p_r2: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:  # gains, powers >= 0; noise variances > 0
            value = getattr(self, name)
            checked = _checked_value(name, value, 0.0, name.startswith("sigma"))
            if checked is not value:
                object.__setattr__(self, name, checked)

    to_dict = plain_dict

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChannelSpec":
        """Build from a flat mapping; unknown and missing keys are rejected."""
        names = [field.name for field in fields(cls)]
        _checked_keys("channel spec", data, names, names)
        return cls(**{name: data[name] for name in names})  # type: ignore[arg-type]


@dataclass(frozen=True)
class LinkCapacities:
    """The six capacities of one instance, in bits per channel use.

    c01, c02, c13, c23 are the four point-to-point link capacities. c012 is
    the source-side cut capacity (source against both relays) and c123 the
    destination-side cut capacity (both relays against the destination).
    """

    c01: float
    c02: float
    c13: float
    c23: float
    c012: float
    c123: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            checked = _checked_value(name, value, 0.0)
            if checked is not value:
                object.__setattr__(self, name, checked)
        for cut, a, b, side in (("c012", "c01", "c02", "source"), ("c123", "c13", "c23", "relay")):
            value = getattr(self, cut)
            strongest = max(getattr(self, a), getattr(self, b))
            if value < strongest - _CUT_CAP_SLACK * max(1.0, strongest):
                raise DomainError(
                    f"{cut} = {value} is below max({a}, {b}) = {strongest}; "
                    f"the joint {side} cut cannot be weaker than its strongest link"
                )

    to_dict = plain_dict


def link_capacity(gain: float, power: float, noise_var: float) -> float:
    """Capacity of one Gaussian link: log2(1 + gain * power / noise_var).

    Returns exactly 0.0 when gain * power = 0.

    Raises:
        DomainError: if gain or power is negative, noise_var is not strictly
            positive, or any argument is non-finite.
    """
    gain = _checked_value("gain", gain, 0.0)
    power = _checked_value("power", power, 0.0)
    noise_var = _checked_value("noise_var", noise_var, 0.0, strict=True)
    return _link_capacity(gain, power, noise_var)


def _link_capacity(gain: float, power: float, noise_var: float) -> float:
    # link_capacity on values already checked
    snr = gain * power / noise_var
    return 0.0 if snr == 0.0 else _log2_1p(snr)


def derive_capacities(spec: ChannelSpec) -> LinkCapacities:
    """All six capacities of an instance.

    The source transmits at p_s on both of its links; each relay transmits at
    its own budget. The source-side cut sees the sum of the two relay SNRs,
    the destination-side cut the coherent sum of the two relay amplitudes.
    """
    c01 = _link_capacity(spec.g01, spec.p_s, spec.sigma1_sq)
    c02 = _link_capacity(spec.g02, spec.p_s, spec.sigma2_sq)
    c13 = _link_capacity(spec.g13, spec.p_r1, spec.sigma3_sq)
    c23 = _link_capacity(spec.g23, spec.p_r2, spec.sigma3_sq)
    snr_source_cut = (spec.g01 / spec.sigma1_sq + spec.g02 / spec.sigma2_sq) * spec.p_s
    amplitude = math.sqrt(spec.g13 * spec.p_r1) + math.sqrt(spec.g23 * spec.p_r2)
    snr_relay_cut = amplitude * amplitude / spec.sigma3_sq
    return LinkCapacities(c01=c01, c02=c02, c13=c13, c23=c23,
                          c012=_log2_1p(snr_source_cut), c123=_log2_1p(snr_relay_cut))


def induced_capacities(
    c01: float,
    c02: float,
    c13: float,
    c23: float,
    c012: float | None = None,
    c123: float | None = None,
) -> LinkCapacities:
    """LinkCapacities built directly in capacity space.

    When the cut capacities are omitted they default to the values induced by
    realizing every link with unit power and unit noise: the source cut has
    SNR (2^c01 - 1) + (2^c02 - 1) and the relay cut has received amplitude
    sqrt(2^c13 - 1) + sqrt(2^c23 - 1). Those defaults are the unique cut
    capacities consistent with the four link capacities, so instances
    fabricated here are always physically realizable.
    """
    values = {"c01": c01, "c02": c02, "c13": c13, "c23": c23}
    values = {name: _checked_value(name, value, 0.0) for name, value in values.items()}
    if c012 is None:
        snr_sum = _snr_for_capacity("c01", values["c01"]) + _snr_for_capacity("c02", values["c02"])
        c012 = _log2_1p(snr_sum)
        if not math.isfinite(c012):
            raise DomainError("c01 and c02 are too large to combine in double precision")
    if c123 is None:
        amplitude = (math.sqrt(_snr_for_capacity("c13", values["c13"]))
                     + math.sqrt(_snr_for_capacity("c23", values["c23"])))
        c123 = _log2_1p(amplitude * amplitude)
        if not math.isfinite(c123):
            raise DomainError("c13 and c23 are too large to combine in double precision")
    return LinkCapacities(c012=c012, c123=c123, **values)


def gain_for_capacity(capacity: float, power: float = 1.0, noise_var: float = 1.0) -> float:
    """Invert link_capacity: the gain realizing a capacity at given power and noise.

    gain = (2^capacity - 1) * noise_var / power.
    """
    capacity = _checked_value("capacity", capacity, 0.0)
    power = _checked_value("power", power, 0.0, strict=True)
    noise_var = _checked_value("noise_var", noise_var, 0.0, strict=True)
    return _snr_for_capacity("capacity", capacity) * noise_var / power
