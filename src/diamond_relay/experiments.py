"""Seeded Monte Carlo sweeps over random diamond-channel instances.

Record i of a sweep is a pure function of (seed, i): its uniforms come from a
Philox4x64-10 counter stream (Salmon et al. 2011) keyed by the seed, opened
2^192 steps apart per record, so substreams never overlap and records may be
evaluated in any order, in parallel, or one at a time, always with identical
results. The stream is plain Python and gives, bit for bit, the doubles of
numpy's Generator(Philox(key=seed, counter=i << 192)).random(): Philox is
integer arithmetic on 64-bit words, which Python ints do exactly (each
product in full, then masked to 64 bits), and each word w becomes
(w >> 11)·2^-53 as in numpy, a 53-bit integer that converts to a double
exactly. Gain draws go through explicit inverse-CDF transforms of those
uniforms, so the whole mapping from seed to gains lives in this module.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    _checked_reals,
    _checked_value,
    derive_capacities,
    gain_for_capacity,
    link_capacity,
)
from .errors import DomainError
from .optimality import LemmaCase, certify_capacities

__all__ = [
    "ExponentialUnitMean",
    "LogUniform",
    "Conditioning",
    "SweepConfig",
    "SweepRecord",
    "sample_instance",
    "iter_records",
    "run_sweep",
    "summarize",
    "write_records_csv",
    "write_summary_json",
]

RNG_ALGORITHM = "philox4x64-10(key=seed, counter=index*2^192), inverse-CDF transforms"

# (column, cell) for each sweep CSV column in order; a cell reads its value
# from (config, record)
_CSV_COLUMNS = (
    ("seed", lambda config, record: config.seed),
    ("index", lambda config, record: record.index),
    ("g01", lambda config, record: record.spec.g01),
    ("g02", lambda config, record: record.spec.g02),
    ("g13", lambda config, record: record.spec.g13),
    ("g23", lambda config, record: record.spec.g23),
    ("c01", lambda config, record: record.caps.c01),
    ("c02", lambda config, record: record.caps.c02),
    ("c13", lambda config, record: record.caps.c13),
    ("c23", lambda config, record: record.caps.c23),
    ("c012", lambda config, record: record.caps.c012),
    ("c123", lambda config, record: record.caps.c123),
    ("r_sr", lambda config, record: record.r_sr),
    ("bound", lambda config, record: record.bound),
    ("gap", lambda config, record: record.gap),
    ("lemma_case", lambda config, record: record.lemma_case.value),
    ("certified", lambda config, record: record.certified),
)

CSV_HEADER = tuple(column for column, _ in _CSV_COLUMNS)

# Forced product-equal draws are rejected while the implied fourth capacity
# exceeds this, so the inverted gain stays far inside double range.
_MAX_FORCED_CAPACITY = 50.0
_MAX_REJECTIONS = 100_000

_MIN_UNIFORM = 2.0**-53  # keeps gains strictly positive

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_M64 = 2**64 - 1


@dataclass(frozen=True)
class ExponentialUnitMean:
    """Unit-mean exponential gains: the squared magnitude of a Rayleigh fade."""

    def sample(self, u: float) -> float:
        return -math.log1p(-u)

    def describe(self) -> dict[str, object]:
        return {"name": "exponential_unit_mean"}


@dataclass(frozen=True)
class LogUniform:
    """Gains whose logarithm is uniform on [log(lo), log(hi)]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _checked_value(name, getattr(self, name)))
        if not 0.0 < self.lo < self.hi:
            raise DomainError(f"need 0 < lo < hi, got lo = {self.lo}, hi = {self.hi}")

    def sample(self, u: float) -> float:
        return math.exp((1.0 - u) * math.log(self.lo) + u * math.log(self.hi))

    def describe(self) -> dict[str, object]:
        return {"name": "log_uniform", "lo": self.lo, "hi": self.hi}


class Conditioning(enum.Enum):
    """How sampled instances are constrained."""

    UNCONDITIONED = "unconditioned"
    FORCE_PRODUCT_EQUAL = "force_product_equal"
    FORCE_MIRRORED = "force_mirrored"


def _checked_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep depends on; records are a pure function of this."""

    n_samples: int
    seed: int
    gain_distribution: ExponentialUnitMean | LogUniform = ExponentialUnitMean()
    power_budget: tuple[float, float, float] = (1.0, 1.0, 1.0)
    noise: tuple[float, float, float] = (1.0, 1.0, 1.0)
    conditioning: Conditioning = Conditioning.UNCONDITIONED

    def __post_init__(self) -> None:
        _checked_int("n_samples", self.n_samples)
        # record i's stream starts at counter i·2^192, and the counter holds 256 bits
        if not 1 <= self.n_samples <= 2**64:
            raise DomainError(f"n_samples must be in [1, 2^64], got {self.n_samples}")
        _checked_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be in [0, 2^64), got {self.seed}")
        if not isinstance(self.gain_distribution, (ExponentialUnitMean, LogUniform)):
            raise DomainError(
                f"gain_distribution must be ExponentialUnitMean or LogUniform, "
                f"got {self.gain_distribution!r}"
            )
        if not isinstance(self.conditioning, Conditioning):
            raise DomainError(f"conditioning must be a Conditioning, got {self.conditioning!r}")
        powers = _checked_reals("power_budget", self.power_budget, 3, 0.0)
        noises = _checked_reals("noise", self.noise, 3, 0.0, strict=True)
        object.__setattr__(self, "power_budget", powers)
        object.__setattr__(self, "noise", noises)
        # both forced modes invert a capacity back to a gain, which needs power
        if self.conditioning is not Conditioning.UNCONDITIONED and min(powers) <= 0.0:
            raise DomainError(
                f"{self.conditioning.value} needs strictly positive powers to realize "
                "the implied links"
            )
        if self.conditioning is Conditioning.FORCE_MIRRORED:
            if not powers[0] == powers[1] == powers[2]:
                raise DomainError(
                    f"force_mirrored needs equal power budgets, got {powers}"
                )
            if not noises[0] == noises[1] == noises[2]:
                raise DomainError(
                    f"force_mirrored needs equal noise variances, got {noises}"
                )


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated instance of a sweep."""

    index: int
    spec: ChannelSpec
    caps: LinkCapacities
    r_sr: float
    bound: float
    gap: float
    lemma_case: LemmaCase
    certified: bool


def _substream(seed: int, index: int) -> Iterator[float]:
    """The uniforms of numpy's Generator(Philox(key=seed, counter=index << 192)).random().

    A counter jump of 2^192 per index leaves each substream 2^192 draws of
    headroom, so substreams never collide. Each block bumps the counter, then
    runs ten Philox4x64 rounds; each word w of the block gives (w >> 11)·2^-53.
    """
    keys = [((seed + r * _PHILOX_W0) & _M64, (r * _PHILOX_W1) & _M64) for r in range(10)]
    counter = index << 192
    while True:
        counter += 1
        c0, c1 = counter & _M64, (counter >> 64) & _M64
        c2, c3 = (counter >> 128) & _M64, counter >> 192
        for k0, k1 in keys:
            p0 = _PHILOX_M0 * c0
            p2 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p2 >> 64) ^ c1 ^ k0, p2 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
        for word in (c0, c1, c2, c3):
            yield (word >> 11) * 2.0**-53


def _draw_gain(gen: Iterator[float], dist: ExponentialUnitMean | LogUniform) -> float:
    u = next(gen)
    if u < _MIN_UNIFORM:
        u = _MIN_UNIFORM
    return dist.sample(u)


def sample_instance(config: SweepConfig, index: int) -> ChannelSpec:
    """The instance at one sweep slot; depends only on (config.seed, index)."""
    _checked_int("index", index)
    if not 0 <= index < config.n_samples:
        raise DomainError(
            f"index must be in [0, {config.n_samples}), got {index}"
        )
    gen = _substream(config.seed, index)
    dist = config.gain_distribution
    p_s, p_r1, p_r2 = config.power_budget
    s1, s2, s3 = config.noise

    if config.conditioning is Conditioning.UNCONDITIONED:
        g01 = _draw_gain(gen, dist)
        g02 = _draw_gain(gen, dist)
        g13 = _draw_gain(gen, dist)
        g23 = _draw_gain(gen, dist)
    elif config.conditioning is Conditioning.FORCE_PRODUCT_EQUAL:
        # draw three links, solve the product condition for the fourth, and
        # invert it back to a gain; redraw when the implied capacity is too
        # large to realize comfortably
        for _ in range(_MAX_REJECTIONS):
            g01 = _draw_gain(gen, dist)
            g02 = _draw_gain(gen, dist)
            g13 = _draw_gain(gen, dist)
            c01 = link_capacity(g01, p_s, s1)
            c02 = link_capacity(g02, p_s, s2)
            c13 = link_capacity(g13, p_r1, s3)
            c23 = c01 * c02 / c13 if c13 > 0.0 else math.inf  # c13 underflowed: reject
            if c23 <= _MAX_FORCED_CAPACITY:
                break
        else:
            raise DomainError(
                "force_product_equal rejected every draw; the gain distribution "
                "makes the implied fourth capacity too large"
            )
        g23 = gain_for_capacity(c23, p_r2, s3)
    else:  # FORCE_MIRRORED
        # equal powers and noises make copying gains copy capacities exactly:
        # c02 = c13 and c01 = c23
        g_outer = _draw_gain(gen, dist)
        g_inner = _draw_gain(gen, dist)
        g01, g23 = g_outer, g_outer
        g02, g13 = g_inner, g_inner

    return ChannelSpec(
        g01=g01,
        g02=g02,
        g13=g13,
        g23=g23,
        sigma1_sq=s1,
        sigma2_sq=s2,
        sigma3_sq=s3,
        p_s=p_s,
        p_r1=p_r1,
        p_r2=p_r2,
    )


def _evaluate(config: SweepConfig, index: int) -> SweepRecord:
    spec = sample_instance(config, index)
    caps = derive_capacities(spec)
    report = certify_capacities(caps)
    return SweepRecord(
        index=index,
        spec=spec,
        caps=caps,
        r_sr=report.r_sr,
        bound=report.bound,
        gap=report.gap,
        lemma_case=report.lemma_case,
        certified=report.capacity_certified,
    )


def iter_records(config: SweepConfig) -> Iterator[SweepRecord]:
    """Records 0..n_samples-1 in order, evaluated lazily."""
    for index in range(config.n_samples):
        yield _evaluate(config, index)


def summarize(config: SweepConfig, records: Sequence[SweepRecord]) -> dict[str, object]:
    """Aggregate statistics over a sweep's records.

    Reads only gap, bound, certified and lemma_case of each record. Uses
    exact summation (math.fsum) so the reduction is independent of evaluation
    order; relative gaps are only aggregated where the bound is meaningfully
    away from zero.
    """
    if not records:
        raise DomainError("cannot summarize an empty record list")
    n = len(records)
    gaps = [r.gap for r in records]
    certified = sum(1 for r in records if r.certified)
    case_counts = {case.value: 0 for case in LemmaCase}
    for record in records:
        case_counts[record.lemma_case.value] += 1
    relative = [r.gap / r.bound for r in records if r.bound > 1e-6]
    relative_gap: dict[str, object] | None = None
    if relative:
        relative_gap = {
            "n": len(relative),
            "min": min(relative),
            "max": max(relative),
            "mean": math.fsum(relative) / len(relative),
        }
    return {
        "n_samples": n,
        "seed": config.seed,
        "conditioning": config.conditioning.value,
        "gain_distribution": config.gain_distribution.describe(),
        "power_budget": list(config.power_budget),
        "noise": list(config.noise),
        "rng": RNG_ALGORITHM,
        "certified_count": certified,
        "certification_rate": certified / n,
        "gap_min": min(gaps),
        "gap_max": max(gaps),
        "gap_mean": math.fsum(gaps) / n,
        "lemma_case_counts": case_counts,
        "relative_gap": relative_gap,
    }


def run_sweep(config: SweepConfig) -> tuple[list[SweepRecord], dict[str, object]]:
    """Evaluate the whole sweep and summarize it."""
    records = list(iter_records(config))
    return records, summarize(config, records)


def _csv_cell(value: object) -> str:
    """One CSV cell: floats with 17 significant digits, lower-case booleans, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_records_csv(
    config: SweepConfig, records: Iterable[SweepRecord], stream: IO[str]
) -> None:
    """One CSV row per record, numbers with 17 significant digits.

    The writer pins the line terminator so output is byte-identical across
    platforms and runs.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow([_csv_cell(cell(config, record)) for _, cell in _CSV_COLUMNS])


def write_summary_json(summary: dict[str, object], stream: IO[str]) -> None:
    json.dump(summary, stream, indent=2, sort_keys=True)
    stream.write("\n")
