"""Edge-capacity laws, seeded i.i.d. capacity fields and exact quantisation.

Capacities are stored as non-negative integer counts of 1/R units with R a
power of two (default 2**20). Continuous laws are floored onto the 1/R grid
at sampling time, so the stored field is the exact ground truth every solver
operates on; finite laws whose atoms sit on the grid are stored exactly.

Sampling is counter based: the draw for edge id i is a pure function of
(seed, i), so fields are reproducible across platforms, independent of
evaluation order, and replica workers can sample concurrently. The draws
are numpy's ``Philox(key=seed)`` stream, a pure function of key and counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). So
``sampler`` picks once per run between numpy's generator, re-keyed per row,
and an array Philox over all rows at once, which never loads numpy.random.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Rational

import numpy as np

from .lattice import BoxSpec, edge_map, edges_in_box

DEFAULT_RESOLUTION = 2**20

BERNOULLI = "bernoulli"
FINITE_DISCRETE = "finite_discrete"
UNIFORM = "uniform"
EXPONENTIAL = "exponential"
HALF_NORMAL = "half_normal"

_FINITE_KINDS = (BERNOULLI, FINITE_DISCRETE)
_CONTINUOUS_KINDS = (UNIFORM, EXPONENTIAL, HALF_NORMAL)


class CapacityOverflowError(OverflowError):
    """Total capacity would overflow the 64-bit accumulator contract."""


def is_power_of_two(n: int) -> bool:
    return isinstance(n, int) and n >= 1 and n & (n - 1) == 0


def as_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str input.

    Floats are interpreted through their shortest round-trip decimal
    representation, so 0.9 means 9/10 rather than the nearest binary float.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not numeric parameters")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("parameter must be finite")
        return Fraction(repr(x))
    if isinstance(x, (int, Rational, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def unit_count(value: Fraction, resolution: int) -> int:
    """floor(value * resolution): the capacity grid cell of an exact value."""
    if value < 0:
        raise ValueError("capacity values must be non-negative")
    return (value.numerator * resolution) // value.denominator


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


@dataclass(frozen=True)
class DistributionSpec:
    """Capacity law of a single edge.

    ``support``/``probs`` hold the atoms of the finite kinds and the interval
    endpoints of the uniform kind, always as exact rationals.
    """

    kind: str
    support: tuple[Fraction, ...] = ()
    probs: tuple[Fraction, ...] = ()
    rate: float = 0.0
    sigma: float = 0.0

    @classmethod
    def bernoulli(cls, p, lo=0, hi=1) -> "DistributionSpec":
        p, lo, hi = as_fraction(p), as_fraction(lo), as_fraction(hi)
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        if lo < 0 or hi < 0:
            raise ValueError("support values must be non-negative")
        return cls(BERNOULLI, support=(lo, hi), probs=(1 - p, p))

    @classmethod
    def finite_discrete(cls, atoms) -> "DistributionSpec":
        support = tuple(as_fraction(v) for v, _ in atoms)
        probs = tuple(as_fraction(p) for _, p in atoms)
        if not support:
            raise ValueError("need at least one atom")
        if any(v < 0 for v in support):
            raise ValueError("support values must be non-negative")
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise ValueError("probabilities must be non-negative and sum to 1 exactly")
        return cls(FINITE_DISCRETE, support=support, probs=probs)

    @classmethod
    def uniform(cls, a, b) -> "DistributionSpec":
        a, b = as_fraction(a), as_fraction(b)
        if a < 0 or b < a:
            raise ValueError("need 0 <= a <= b")
        return cls(UNIFORM, support=(a, b))

    @classmethod
    def exponential(cls, rate: float) -> "DistributionSpec":
        if not rate > 0:
            raise ValueError("rate must be positive")
        return cls(EXPONENTIAL, rate=float(rate))

    @classmethod
    def half_normal(cls, sigma: float) -> "DistributionSpec":
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        return cls(HALF_NORMAL, sigma=float(sigma))

    @property
    def is_finite(self) -> bool:
        return self.kind in _FINITE_KINDS

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        kind = obj.get("kind")
        if kind == BERNOULLI:
            return cls.bernoulli(obj["p"], obj.get("lo", 0), obj.get("hi", 1))
        if kind == FINITE_DISCRETE:
            return cls.finite_discrete([(v, p) for v, p in obj["atoms"]])
        if kind == UNIFORM:
            return cls.uniform(obj["a"], obj["b"])
        if kind == EXPONENTIAL:
            return cls.exponential(float(obj["rate"]))
        if kind == HALF_NORMAL:
            return cls.half_normal(float(obj["sigma"]))
        raise ValueError(f"unknown distribution kind: {kind!r}")


@dataclass(eq=False)
class CapacityField:
    """One capacity per edge of a box, in integer 1/resolution units.

    Immutable after construction; the backing array is write-locked.
    """

    box: BoxSpec
    resolution: int
    caps: np.ndarray

    def __post_init__(self) -> None:
        if not is_power_of_two(self.resolution):
            raise ValueError("resolution must be a positive power of two")
        caps = np.array(self.caps, dtype=np.int64, copy=True)
        n = self.box.edge_count
        if caps.shape != (n,):
            raise ValueError(f"expected {n} capacities, got shape {caps.shape}")
        if n and int(caps.min()) < 0:
            raise ValueError("capacities must be non-negative")
        caps.setflags(write=False)
        self.caps = caps

    @classmethod
    def constant(cls, box: BoxSpec, units: int, resolution: int = DEFAULT_RESOLUTION) -> "CapacityField":
        return cls(box, resolution, np.full(box.edge_count, units, dtype=np.int64))

    def restrict_to(self, sub: BoxSpec) -> "CapacityField":
        """Same capacities on a smaller box; every sub-box edge must be covered."""
        ids = edge_map(sub, self.box)
        missing = np.flatnonzero(ids < 0)
        if len(missing):
            raise ValueError(f"edge {edges_in_box(sub)[missing[0]]} of the sub-box is not covered")
        return CapacityField(sub, self.resolution, self.caps[ids])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# SeedSequence(master, spawn_key=(i,)) with its zero-padded 4-word run entropy
# calls hashmix 4 + 12 times before the spawn words, 4 more per spawn word.
_SPAWN_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16 + 2 * _POOL_SIZE)[16:]
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2)


def _hashmix(value, const: int, mult: int = _MULT_A):
    """XOR in a chain constant, multiply by the next one, fold the high half."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _mix_word(pool, word, consts) -> list:
    """Mix one spawn word into every pool word, as SeedSequence.mix_entropy does."""
    return [_mix(p, _hashmix(word, c)) for p, c in zip(pool, consts)]


@lru_cache(maxsize=64)
def _master_pool(master: int) -> tuple[int, ...]:
    """SeedSequence pool of ``master`` once its run entropy is mixed in."""
    words = [master >> s & _MASK32 for s in range(0, max(master.bit_length(), 1), 32)]
    consts = iter(_hash_consts(_INIT_A, _MULT_A, 16))
    pool = [_hashmix(w, next(consts)) for w in words + [0] * (_POOL_SIZE - len(words))]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    return tuple(pool)


def derive_seeds(master: int, indices):
    """``derive_seed(master, i)`` for every index, in one vectorised pass.

    Equals ``SeedSequence(master, spawn_key=(i,)).generate_state(1,
    np.uint64)``: the master's pool is mixed once, then only the one or two
    32-bit spawn words of each index are mixed in. Takes a sequence of
    indices below 2**64 and returns a uint64 array; a single int index runs
    the same arithmetic on Python ints and returns an int.
    """
    _check_seed(master)
    idx = indices if isinstance(indices, int) else np.asarray(indices, dtype=np.uint64)
    pool = _mix_word(_master_pool(master), idx & _MASK32, _SPAWN_CONSTS[:_POOL_SIZE])
    high = idx >> 32
    wide = high > 0
    if np.any(wide):  # indices of 2**32 and above have a second spawn word
        mixed = _mix_word(pool, high, _SPAWN_CONSTS[_POOL_SIZE:])
        pool = [p ^ (m ^ p) * wide for p, m in zip(pool, mixed)]  # m where wide
    lo, hi = (_hashmix(pool[i], c, _MULT_B) for i, c in enumerate(_STATE_CONSTS))
    return lo | hi << 32


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit sub-seed for replica ``index`` of a master seed."""
    if not isinstance(index, int) or not 0 <= index < 2**64:
        raise ValueError("replica index must be a 64-bit unsigned integer")
    return int(derive_seeds(master, index))


# Philox4x64-10 (Salmon et al. 2011): round multipliers, also halved, and key increments.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


_KERNEL_MS = {  # ms that r rows of c draws take on each kernel; see ``sampler``
    "vectorised": lambda r, c: 0.28 + 60e-6 * r * c,
    "numpy": lambda r, c: r * (3.3e-3 + 11e-6 * c),
}
_IMPORT_MS = 14.0  # numpy.random, in a fresh interpreter


def sampler(blocks, processes: int = 1) -> list[str]:
    """The kernel ``edge_uniform_rows`` runs on each (rows, count) block of a run.

    Unless numpy.random is loaded (numpy < 2 loads it with numpy), a run takes
    the array kernel while its summed extra time stays below the import (14 ms,
    +5.4 MB RSS) in each of ``processes`` that would load it only for numpy's
    kernel (none for a law that ``loads_numpy_random``); else each block takes
    its cheaper kernel. Median ms of 25 calls (2-core x86, python 3.11, numpy 2.4):

        kernel      per call  per row  per draw   1x6   1x32640  4x2016  256x6
        vectorised  0.28      -        60e-6      0.23  2.03     0.65    0.42
        numpy       -         3.3e-3   11e-6      0.01  0.36     0.11    0.84
    """
    cheaper = [min(_KERNEL_MS, key=lambda k: _KERNEL_MS[k](*b)) for b in blocks]
    extra = sum(_KERNEL_MS["vectorised"](*b) - _KERNEL_MS[k](*b) for b, k in zip(blocks, cheaper))
    loaded = "numpy.random" in sys.modules
    return cheaper if loaded or extra >= _IMPORT_MS * processes else ["vectorised"] * len(blocks)


def loads_numpy_random(dist: DistributionSpec) -> bool:
    """Whether ``sample_block`` loads numpy.random for ``dist`` on any kernel:
    half_normal's ``scipy.special`` import does."""
    return dist.kind == HALF_NORMAL


def _philox_rows(seeds: np.ndarray, count: int) -> np.ndarray:
    """Row i is ``Generator(Philox(key=seeds[i])).random(count)``, bit for bit.

    All counter blocks of all rows run the ten rounds at once; the key
    ``[seed, 0]`` is bumped between rounds. Counters start at 1, as numpy
    increments before its first buffer. High product words are summed from
    32-bit halves, no partial sum passing 2**64, and word x gives
    ``(x >> 11) * 2**-53``, numpy's ``next_double``.
    """
    blocks = -(-count // 4)
    key = np.stack([seeds, np.zeros_like(seeds)])[:, :, None]
    even = np.array([np.arange(1, blocks + 1), np.zeros(blocks)], dtype=np.uint64)[:, None, :]
    odd = np.zeros_like(even)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        lo, hi = even & _MASK32, even >> 32
        t = _PHILOX_M_HI * lo + (_PHILOX_M_LO * lo >> 32)
        u = _PHILOX_M_LO * hi + (t & _MASK32)
        high = _PHILOX_M_HI * hi + (t >> 32) + (u >> 32)
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(len(seeds), -1)
    return (words[:, :count] >> 11) * 2.0**-53


@lru_cache(maxsize=1)  # one re-keyable generator per process, made at its first numpy draw
def _numpy_philox():
    bitgen = np.random.Philox(key=0)
    return bitgen, np.random.Generator(bitgen), bitgen.state


def edge_uniform_rows(seeds, count: int, kernel: str | None = None) -> np.ndarray:
    """Row i is ``edge_uniforms(seeds[i], count)``, drawn by ``kernel`` (by
    default ``sampler``'s pick for this block alone). The numpy one re-keys
    a generator to the state of a fresh ``Philox(key=seed)``."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):  # any uint64 is a seed
        seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else seeds
        seeds = np.array([_check_seed(s) for s in seeds], dtype=np.uint64)
    if (kernel or sampler([(len(seeds), count)])[0]) == "vectorised":
        return _philox_rows(seeds, count)
    bitgen, gen, state = _numpy_philox()
    u = np.empty((len(seeds), count))
    for row, seed in zip(u, seeds.tolist()):
        state["state"]["key"][0] = seed
        bitgen.state = state
        gen.random(out=row)
    return u


def edge_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws where draw i depends only on (seed, i)."""
    return edge_uniform_rows([seed], count)[0]


def _unit_table(dist: DistributionSpec, resolution: int) -> np.ndarray:
    """int64 capacity units of each atom of a finite law, in support order."""
    if not is_power_of_two(resolution):
        raise ValueError("resolution must be a positive power of two")
    units = [unit_count(v, resolution) for v in dist.support]
    if max(units) >= 2**63:
        raise CapacityOverflowError("a support value overflows 64-bit capacity units")
    return np.array(units, dtype=np.int64)


def sample_block(
    box: BoxSpec,
    dist: DistributionSpec,
    resolution: int,
    seeds,
    kernel: str | None = None,
) -> np.ndarray:
    """Capacity rows of shape (len(seeds), edges): row i is the field of seeds[i].

    Each row equals ``sample_field(box, dist, resolution, seeds[i]).caps``;
    the law is mapped over the whole block at once, drawn by ``kernel``.
    """
    if not is_power_of_two(resolution):
        raise ValueError("resolution must be a positive power of two")
    u = edge_uniform_rows(seeds, box.edge_count, kernel)
    r = float(resolution)
    if dist.is_finite:
        cum = np.cumsum(np.array([float(p) for p in dist.probs]))
        cum[-1] = 1.0  # guard float drift; u < 1 keeps indices in range
        return _unit_table(dist, resolution)[np.searchsorted(cum, u, side="right")]
    if dist.kind == UNIFORM:
        a, b = dist.support
        x = float(a) * r + u * float(b - a) * r
    elif dist.kind == EXPONENTIAL:
        x = (-np.log1p(-u) / dist.rate) * r
    elif dist.kind == HALF_NORMAL:
        from scipy.special import erfinv  # slow, heavy import that only this law needs

        x = dist.sigma * math.sqrt(2.0) * erfinv(u) * r
    else:
        raise ValueError(f"unknown distribution kind: {dist.kind!r}")
    x = np.floor(x)
    if not (x < 2.0**63).all():  # also false for inf and NaN
        raise CapacityOverflowError("a sampled capacity overflows 64-bit capacity units")
    return x.astype(np.int64)


def sample_field(
    box: BoxSpec,
    dist: DistributionSpec,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
) -> CapacityField:
    """One independent capacity draw per edge, floored onto the 1/R grid."""
    caps = sample_block(box, dist, resolution, [seed])[0]
    return CapacityField(box, resolution, caps)


def _level_step(k: int, resolution: int) -> int:
    """Grid cells per 1/k: flooring onto the 1/k grid is ``caps - caps % step``.

    ``k`` must be a power of two not exceeding ``resolution``, so the coarse
    grid is a sub-grid of the stored one and the operation is exact.
    """
    if not is_power_of_two(k):
        raise ValueError("k must be a positive power of two")
    if k > resolution:
        raise ValueError("k must not exceed the field resolution")
    return resolution // k


def discretize(field: CapacityField, k: int) -> CapacityField:
    """Round capacities down to multiples of 1/k; the resolution is unchanged."""
    step = _level_step(k, field.resolution)
    return CapacityField(field.box, field.resolution, field.caps - field.caps % step)
