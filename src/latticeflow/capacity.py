"""Edge-capacity laws, seeded i.i.d. capacity fields and exact quantisation.

Capacities are stored as non-negative integer counts of 1/R units with R a
power of two (default 2**20). Continuous laws are floored onto the 1/R grid
at sampling time, so the stored field is the exact ground truth every solver
operates on; finite laws whose atoms sit on the grid are stored exactly.
``_check_resolution`` alone checks R, and ``derive_seeds`` each replica index.

Sampling is counter based: the draw for edge id i is a pure function of
(seed, i), so fields are reproducible across platforms, independent of
evaluation order, and replica workers can sample concurrently. The draws
are numpy's ``Philox(key=seed)`` stream, a pure function of key and counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
computed by an array Philox over all rows of a block at once. It never loads
numpy.random and also feeds ``_IntegerStream``, numpy's bounded integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from numbers import Rational

import numpy as np

from .lattice import BoxSpec, _is_bool, edge_map, edges_in_box

DEFAULT_RESOLUTION = 2**20

BERNOULLI = "bernoulli"
FINITE_DISCRETE = "finite_discrete"
UNIFORM = "uniform"
EXPONENTIAL = "exponential"
HALF_NORMAL = "half_normal"

_FINITE_KINDS = (BERNOULLI, FINITE_DISCRETE)


class CapacityOverflowError(OverflowError):
    """Total capacity would overflow the 64-bit accumulator contract."""


def is_power_of_two(n: int) -> bool:
    return isinstance(n, int) and not _is_bool(n) and n >= 1 and n & (n - 1) == 0


def as_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str input.

    Floats, numpy's float64 among them, are interpreted through their
    shortest round-trip decimal representation, so 0.9 means 9/10 rather
    than the nearest binary float.
    """
    if _is_bool(x):
        raise TypeError("booleans are not numeric parameters")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("parameter must be finite")
        return Fraction(repr(float(x)))
    if isinstance(x, (int, Rational, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def unit_count(value: Fraction, resolution: int) -> int:
    """floor(value * resolution): the capacity grid cell of an exact value."""
    if value < 0:
        raise ValueError("capacity values must be non-negative")
    return (value.numerator * resolution) // value.denominator


def read_lam(value) -> Fraction:
    """A flow threshold lam per base site: ``as_fraction(value)``, non-negative."""
    if (lam := as_fraction(value)) < 0:
        raise ValueError("lam must be non-negative")
    return lam


def threshold_units(lam: Fraction, area: int, k: int) -> int:
    """ceil(lam * area * k): the fewest 1/k flow units that reach lam per site of ``area``."""
    return math.ceil(lam * area * k)


def int64_copy(values, what: str) -> np.ndarray:
    """A read-only int64 copy of ``values``; a non-integer dtype raises ValueError."""
    values = np.asarray(values)
    if values.dtype.kind not in "iub":
        raise ValueError(f"{what} must be integers, not {values.dtype}")
    out = values.astype(np.int64)
    if values.dtype.kind == "u" and (out < 0).any():  # only uint64 past 2**63 - 1 wraps
        raise CapacityOverflowError(f"{what} must be below 2**63")
    out.setflags(write=False)
    return out


def _check_seed(seed: int, what: str = "seed") -> int:
    if not isinstance(seed, int) or _is_bool(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"{what} must be a 64-bit unsigned integer")
    return seed


def _check_resolution(resolution: int) -> int:
    """The rule for every resolution R: a power of two, so each 1/k grid is a sub-grid of 1/R."""
    if not is_power_of_two(resolution):
        raise ValueError("resolution must be a power of two")
    return resolution


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
        if _is_bool(rate) or not 0 < rate < math.inf:
            raise ValueError("rate must be positive and finite")
        return cls(EXPONENTIAL, rate=float(rate))

    @classmethod
    def half_normal(cls, sigma: float) -> "DistributionSpec":
        if _is_bool(sigma) or not 0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        return cls(HALF_NORMAL, sigma=float(sigma))

    @property
    def is_finite(self) -> bool:
        return self.kind in _FINITE_KINDS


@dataclass(eq=False)
class CapacityField:
    """One capacity per edge of a box, in integer 1/resolution units.

    Immutable after construction; the backing array is write-locked.
    """

    box: BoxSpec
    resolution: int
    caps: np.ndarray

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        caps = int64_copy(self.caps, "capacities")
        n = self.box.edge_count
        if caps.shape != (n,):
            raise ValueError(f"expected {n} capacities, got shape {caps.shape}")
        if n and int(caps.min()) < 0:
            raise ValueError("capacities must be non-negative")
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
    ints in [0, 2**64), not booleans, and returns a uint64 array; a single
    int index runs the same arithmetic on Python ints and returns an int.
    """
    _check_seed(master)
    ends = [indices[0], indices[-1]] if isinstance(indices, range) and indices else indices
    for i in np.asarray(ends, dtype=object).ravel():  # a range is checked at its two ends, in O(1)
        _check_seed(i, "replica index")
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
    return int(derive_seeds(master, index))


# Philox4x64-10 (Salmon et al. 2011): round multipliers, also halved, and key increments.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _philox_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """Row i is ``Philox(key=seeds[i]).random_raw(count)``, bit for bit.

    All counter blocks of all rows run the ten rounds at once; the key
    ``[seed, 0]`` is bumped between rounds. Counters start at 1, as numpy
    increments before its first buffer. High product words are summed from
    32-bit halves, no partial sum passing 2**64.
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
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(len(seeds), 4 * blocks)
    return words[:, :count]


class _IntegerStream:
    """``Generator(Philox(key=seed)).integers(lo, hi)``, call for call, for
    ranges of at most 2**32 integers. As in numpy, each ``_philox_words`` word
    gives two 32-bit draws, low half first, a call may stop between them, and
    a range of one integer takes none. Draw x gives ``lo + (x * width >> 32)``
    unless the low half of that product is below ``2**32 % width``; then the
    next draw replaces it (Lemire, ACM TOMACS 29(1), 2019)."""

    def __init__(self, seed: int):
        self._seed = np.array([_check_seed(seed)], dtype=np.uint64)
        self._halves: list[int] = []
        self._next = 0  # index of the next draw in _halves, which doubles when used up

    def integers(self, lo: int, hi: int) -> int:
        width = hi - lo
        if not 1 <= width <= 2**32:
            raise ValueError("the stream draws from ranges of 1 to 2**32 integers")
        while width > 1:
            if self._next == len(self._halves):
                words = _philox_words(self._seed, max(32, len(self._halves)))[0]
                self._halves = np.stack([words & _MASK32, words >> 32], axis=-1).ravel().tolist()
            m = self._halves[self._next] * width
            self._next += 1
            if m & _MASK32 >= 2**32 % width:
                return lo + (m >> 32)
        return lo


def edge_uniform_rows(seeds, count: int) -> np.ndarray:
    """Row i holds [0, 1) draws, draw j a function of (seeds[i], j) alone:
    those of a fresh ``Generator(Philox(key=seeds[i])).random(count)``."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):  # any uint64 is a seed
        seeds = np.array([_check_seed(s) for s in np.asarray(seeds, dtype=object).ravel()], dtype=np.uint64)
    return (_philox_words(seeds, count) >> 11) * 2.0**-53  # numpy's next_double


def _unit_table(dist: DistributionSpec, resolution: int) -> np.ndarray:
    """int64 capacity units of each atom of a finite law, in support order."""
    units = [unit_count(v, resolution) for v in dist.support]
    if max(units) >= 2**63:
        raise CapacityOverflowError("a support value overflows 64-bit capacity units")
    return np.array(units, dtype=np.int64)


def caps_from_uniforms(dist: DistributionSpec, resolution: int, u: np.ndarray) -> np.ndarray:
    """int64 capacity units of ``dist`` for uniform draws ``u`` of any shape:
    the draw's quantile, floored onto the 1/resolution grid. Its callers check the resolution."""
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


def sample_block(box: BoxSpec, dist: DistributionSpec, resolution: int, seeds) -> np.ndarray:
    """Capacity rows of shape (len(seeds), edges): row i is the field of seeds[i].

    Each row equals ``sample_field(box, dist, resolution, seeds[i]).caps``;
    the law is mapped over the whole block at once.
    """
    return caps_from_uniforms(dist, _check_resolution(resolution), edge_uniform_rows(seeds, box.edge_count))


def sample_field(
    box: BoxSpec,
    dist: DistributionSpec,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
) -> CapacityField:
    """One independent capacity draw per edge, floored onto the 1/R grid."""
    caps = caps_from_uniforms(dist, resolution, edge_uniform_rows([seed], box.edge_count)[0])
    return CapacityField(box, resolution, caps)  # which checks the resolution


def _level_step(k: int, resolution: int) -> int:
    """Grid cells per 1/k: flooring onto the 1/k grid is ``caps - caps % step``.

    ``k`` must be a power of two not exceeding ``resolution``, so the coarse
    grid is a sub-grid of the stored one and the operation is exact.
    """
    if not is_power_of_two(k) or k > resolution:
        raise ValueError("level must be a power of two no larger than the resolution")
    return resolution // k


def discretize(field: CapacityField, k: int) -> CapacityField:
    """Round capacities down to multiples of 1/k; the resolution is unchanged."""
    step = _level_step(k, field.resolution)
    return CapacityField(field.box, field.resolution, field.caps - field.caps % step)
