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

import enum
import functools
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

from .channel_model import (
    ChannelSpec,
    LinkCapacities,
    _checked_reals,
    _checked_value,
    _link_capacity,
    derive_capacities,
    gain_for_capacity,
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

CSV_HEADER = ("seed", "index", "g01", "g02", "g13", "g23", "c01", "c02", "c13", "c23", "c012",
              "c123", "r_sr", "bound", "gap", "lemma_case", "certified")

# Forced product-equal draws are rejected while the implied fourth capacity
# exceeds this, so the inverted gain stays far inside double range.
_MAX_FORCED_CAPACITY = 50.0
_MAX_REJECTIONS = 100_000

_MIN_UNIFORM = 2.0**-53  # keeps gains strictly positive

# Records per block of a sweep; blocks are dealt round-robin to this process
# and its forked workers (iter_records). On 2 vCPUs, blocks of 25 to 250 gave
# the same records/s within noise, and blocks of 10 a little less.
_BLOCK = 50
# At most this many processes share a sweep. The main process also writes
# every record's CSV row (about 16 us) and receives every other process's
# records (about 7.5 us each), against 220-260 us to evaluate one; at 8 to
# 10 processes it spends as long on the others' records as on its own, and
# each further process adds less. Only 2 CPUs were measured.
_MAX_PROCESSES = 8
# Own blocks the main process evaluates ahead while a worker's block is late.
# A worker's first block comes late (its first writes copy shared pages);
# one block ahead was enough to keep the main process busy on 2 vCPUs.
_AHEAD = 1

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
        object.__setattr__(self, "_logs", (math.log(self.lo), math.log(self.hi)))  # not a field

    def sample(self, u: float) -> float:
        log_lo, log_hi = self._logs
        return math.exp((1.0 - u) * log_lo + u * log_hi)

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


@functools.lru_cache(maxsize=8)  # every record of a sweep has the same seed
def _round_keys(seed: int) -> tuple[tuple[int, int], ...]:
    return tuple(((seed + r * _PHILOX_W0) & _M64, (r * _PHILOX_W1) & _M64) for r in range(10))


def _substream(seed: int, index: int) -> Iterator[float]:
    """The uniforms of numpy's Generator(Philox(key=seed, counter=index << 192)).random().

    A counter jump of 2^192 per index leaves each substream 2^192 draws of
    headroom, so substreams never collide. Each block bumps the counter, then
    runs ten Philox4x64 rounds; each word w of the block gives (w >> 11)·2^-53.
    """
    keys = _round_keys(seed)
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


def sample_instance(config: SweepConfig, index: int) -> ChannelSpec:
    """The instance at one sweep slot; depends only on (config.seed, index)."""
    _checked_int("index", index)
    if not 0 <= index < config.n_samples:
        raise DomainError(
            f"index must be in [0, {config.n_samples}), got {index}"
        )
    dist = config.gain_distribution
    gains = (dist.sample(u if u >= _MIN_UNIFORM else _MIN_UNIFORM)
             for u in _substream(config.seed, index))
    p_s, p_r1, p_r2 = config.power_budget
    s1, s2, s3 = config.noise

    if config.conditioning is Conditioning.UNCONDITIONED:
        g01, g02, g13, g23 = next(gains), next(gains), next(gains), next(gains)
    elif config.conditioning is Conditioning.FORCE_PRODUCT_EQUAL:
        # draw three links, solve the product condition for the fourth, and
        # invert it back to a gain; redraw when the implied capacity is too
        # large to realize comfortably
        for _ in range(_MAX_REJECTIONS):
            g01, g02, g13 = next(gains), next(gains), next(gains)
            c01 = _link_capacity(g01, p_s, s1)
            c02 = _link_capacity(g02, p_s, s2)
            c13 = _link_capacity(g13, p_r1, s3)
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
        g01 = g23 = next(gains)
        g02 = g13 = next(gains)

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


def _record(config: SweepConfig, index: int) -> SweepRecord:
    # the three calls go through module globals, where a caller may patch them
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
    """Records 0..n_samples-1 in index order, evaluated in blocks.

    The indices are cut into blocks of _BLOCK records, dealt round-robin to
    this process and to W - 1 forked workers, where W is the least of the
    usable CPUs, the blocks and _MAX_PROCESSES. Each worker sends its blocks
    down a pipe and may run a few blocks ahead. This process evaluates its
    own blocks as they come due; when a worker's block is due but not yet
    sent, it evaluates its next own block meanwhile (at most _AHEAD of them)
    rather than wait. Every record is yielded in index order, so the bytes a
    consumer writes do not depend on W. Nothing is forked when W is 1, when
    the platform has no os.fork or os.sched_getaffinity, or when another
    Python thread is running (a forked worker would have only this thread,
    and a lock another thread holds would stay held there). The speed-up is
    measured on 2 CPUs only.

    An error in any block is raised here after exactly the records before
    it, with its type and message (a worker's traceback stays behind). No
    worker outlives the iterator: it is killed and reaped when iteration
    ends, raises or is closed. A worker holds no read end of any pipe, so
    one whose parent died without that cleanup (SIGKILL) fails at its next
    write and exits.
    """
    import pickle  # imported here: certify and the package import need none of these
    import select
    import signal
    import threading

    blocks = range(0, config.n_samples, _BLOCK)
    width = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        width = min(len(os.sched_getaffinity(0)), len(blocks), _MAX_PROCESSES)
    # bound here: an iterator still open at interpreter exit is finalized
    # after the module globals have been cleared
    getpid, kill, waitpid, close, sigkill = os.getpid, os.kill, os.waitpid, os.close, signal.SIGKILL
    owner = getpid()
    pids: list[int] = []
    pipes: list[int] = []  # read ends, one per worker
    polls: list = []  # select.poll objects, each on its pipe: has a message begun?
    try:
        for worker in range(1, width):
            read_fd, write_fd = os.pipe()
            # SIGINT stays blocked in the worker, so Ctrl-C reaches only this
            # process, and here it waits until the worker is on the list
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork() once numpy's BLAS has started
                    # its thread; OpenBLAS stops that thread before a fork (an
                    # atfork handler), and no other thread runs (checked above)
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    for fd in (read_fd, *pipes):
                        os.close(fd)
                    _serve(config, blocks[worker::width], write_fd)  # never returns
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(write_fd)
            pipes.append(read_fd)
            polls.append(select.poll())
            polls[-1].register(read_fd, select.POLLIN)
        ahead: dict[int, tuple[list[SweepRecord], Exception | None]] = {}
        for k, start in enumerate(blocks):
            stop = min(start + _BLOCK, config.n_samples)
            if k % width == 0 and k not in ahead:
                for index in range(start, stop):
                    yield _record(config, index)
                continue
            if k % width == 0:
                records, error = ahead.pop(k)
            else:
                worker = k % width - 1
                mine = k - k % width + width * (1 + len(ahead))  # this process's next block
                while len(ahead) < _AHEAD and mine < len(blocks) and not polls[worker].poll(0):
                    ahead[mine] = _block(config, blocks[mine])
                    mine += width
                try:
                    records, error = pickle.loads(_receive(pipes[worker]))
                except EOFError:  # the worker died, or was killed
                    raise ChildProcessError(
                        f"the sweep worker for records {start}..{stop - 1} ended without them"
                    ) from None
            yield from records
            if error is not None:
                raise error
    finally:
        if getpid() == owner:  # not a worker's copy of this frame
            for pid in pids:
                kill(pid, sigkill)
                waitpid(pid, 0)
            for fd in pipes:
                close(fd)


def _block(config: SweepConfig, start: int) -> tuple[list[SweepRecord], Exception | None]:
    """The records of the block at start up to its first error, and that error."""
    records: list[SweepRecord] = []
    try:
        for index in range(start, min(start + _BLOCK, config.n_samples)):
            records.append(_record(config, index))
    except Exception as exc:  # iter_records raises it at its index
        return records, exc
    return records, None


def _serve(config: SweepConfig, blocks: range, write_fd: int) -> None:
    """A worker: evaluate each block, send it down write_fd, then exit.

    Each block goes as one message: its pickled (records, error), after its
    length in 8 bytes. The worker ends with os._exit, so it never flushes the
    buffers or runs the cleanup it inherited from the parent. Its stdout is
    /dev/null, so that nothing it prints, nor the parent's unwritten output
    that a print would flush, reaches the parent's stdout; its stderr is the
    parent's.
    """
    code = 1
    try:
        import pickle

        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        with open(write_fd, "wb") as out:
            for start in blocks:
                records, error = _block(config, start)
                try:
                    message = pickle.dumps((records, error), pickle.HIGHEST_PROTOCOL)
                    if error is not None:
                        pickle.loads(message)  # some exceptions pickle but do not unpickle
                except Exception:
                    error = RuntimeError(f"{type(error).__name__}: {error}")
                    message = pickle.dumps((records, error), pickle.HIGHEST_PROTOCOL)
                out.write(len(message).to_bytes(8, "little") + message)
                out.flush()
                if error is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(fd: int) -> bytes:
    """The next message _serve sent down the pipe fd; EOFError if it ends first."""
    return _read_exactly(fd, int.from_bytes(_read_exactly(fd, 8), "little"))


def _read_exactly(fd: int, size: int) -> bytes:
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


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


def write_records_csv(
    config: SweepConfig, records: Iterable[SweepRecord], stream: IO[str]
) -> None:
    """One CSV row per record, floats with 17 significant digits, lower-case booleans.

    Rows end in a bare newline, so output is byte-identical across platforms
    and runs. No cell holds a comma, quote or newline, so none is quoted.
    """
    stream.write(",".join(CSV_HEADER) + "\n")
    seed = config.seed
    for r in records:  # the values in CSV_HEADER order
        s, c = r.spec, r.caps
        stream.write(
            f"{seed},{r.index},{s.g01:.17g},{s.g02:.17g},{s.g13:.17g},{s.g23:.17g},"
            f"{c.c01:.17g},{c.c02:.17g},{c.c13:.17g},{c.c23:.17g},{c.c012:.17g},{c.c123:.17g},"
            f"{r.r_sr:.17g},{r.bound:.17g},{r.gap:.17g},{r.lemma_case.value},"
            f"{'true' if r.certified else 'false'}\n"
        )


def write_summary_json(summary: dict[str, object], stream: IO[str]) -> None:
    json.dump(summary, stream, indent=2, sort_keys=True)
    stream.write("\n")
