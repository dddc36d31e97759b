"""Market model: configuration, instance sampling, and seeded proposal plans.

A market has ``n`` students and ``m = m_ratio * n`` universities, each with
``capacity`` seats.  Every student applies to her ``k`` favorite universities,
chosen uniformly at random without replacement.  For each application the
university observes one scalar signal: applications from students whose
favorite school it is are drawn from the "special" distribution, all others
from the regular one.  Universities rank their applicants by decreasing
signal.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

__all__ = [
    "ConfigurationError",
    "SignalSpec",
    "MarketConfig",
    "MarketInstance",
    "SeededProposalPlan",
    "child_seed",
    "sample_market",
    "build_seeded_plan",
    "complete_instance",
]

SignalSampler = Callable[[np.random.Generator, int], "np.typing.ArrayLike"]

_MAX_SEED = 2**64

# Lists with k(k-1) > _KEY_SORT_RATIO * m sort m keys per student: ``_fill_distinct``
# is faster up to about 34m at m = 50 and past 63m at m = 10^3 (BENCH_20.json).
_KEY_SORT_RATIO = 32

_CHUNK = 1 << 16  # entries per step of the ranking's and blocking check's loops

# Max attempts to repair a proposal-to-student assignment whose target
# university already sits on the student's list.
_SWAP_ATTEMPTS = 200


class ConfigurationError(ValueError):
    """A market configuration violates its invariants."""


def _convert(
    kind: type, name: str, value: Any, error: type[ValueError] = ConfigurationError
) -> Any:
    """``kind(value)``, where ``kind`` is int or float, for a configuration field.

    The conversion must not change the value, so strings, booleans and
    fractional numbers are rejected, with ``error``, rather than parsed or
    truncated.
    """
    try:
        converted = kind(value)
        if converted == value and not isinstance(value, (bool, np.bool_)):
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "an integer" if kind is int else "a number"
    raise error(f"{name} must be {expected}, got {value!r}")


def _id_dtype(*sizes: int) -> np.dtype:
    """The dtype of a market's id tables, given its N = n*k and m: int32 when
    max(N, m) < 2**31, so that every id and the sentinel N fit, else int64."""
    return np.dtype(np.int32 if max(sizes) < 2**31 else np.int64)


def _id_table(
    name: str, table: Any, error: type[ValueError] = ConfigurationError, kind: type = int
) -> np.ndarray:
    """``table`` as a signed integer array of ids, or with ``kind=float`` a
    float64 array of values, each entry checked by ``_convert``.

    A signed integer array of ids, or a float64 array of values, is returned
    as it is, in O(1); the caller checks the ids' range and casts them, a
    market's to ``_id_dtype(N, m)`` (int32 when max(N, m) < 2**31) and a
    matching's to int64.  Any other table is converted entry by entry to
    int64 or float64, so an integral float or int passes and a bool,
    string, ``None``, object or ragged entry raises ``error``, as does a
    fractional or non-finite id or one outside int64.  A NaN value passes,
    as it does in a float64 array.
    """
    dtype = np.int64 if kind is int else np.float64
    if isinstance(table, np.ndarray) and (
        table.dtype.kind == "i" if kind is int else table.dtype == dtype
    ):
        return table
    entries = np.asarray(table, dtype=object)
    values = [
        value if kind is float and isinstance(value, (float, np.floating)) and math.isnan(value)
        else _convert(kind, f"{name} entry", value, error)
        for value in entries.flat
    ]
    try:
        return np.array(values, dtype=dtype).reshape(entries.shape)
    except OverflowError:
        raise error(f"{name} holds an id outside the int64 range") from None


def _json_object(
    name: str, data: Any, keys: Sequence[str], required: Sequence[str] = ()
) -> dict[str, Any]:
    """``data`` checked to be a JSON object whose keys are all in ``keys``
    and include every key in ``required``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {data!r}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ConfigurationError(f"unknown {name} field {unknown[0]!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigurationError(f'{name} needs "{missing[0]}"')
    return data


def child_seed(root: int, index: int) -> int:
    """Derive an independent 64-bit seed for replication ``index``.

    The split is a stated contract: replication seeds are hashes of
    (root, index), so replications may run in any order or in parallel
    without changing results.
    """
    seq = np.random.SeedSequence([int(root), int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


# The hash constants of numpy's SeedSequence (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_words(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(n_words, np.uint32)`` for each column ``e``
    of ``entropy``, four uint32 arrays of words (missing words are 0).

    The hash runs on whole uint32 arrays, which wrap silently where numpy
    scalars would warn.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value *= np.uint32(const)
        value ^= value >> np.uint32(16)
        return value

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const, out = _INIT_B, []
    for i in range(n_words):
        word = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word *= np.uint32(const)
        out.append(word ^ (word >> np.uint32(16)))
    return out


def _uint64_words(words: list[np.ndarray]) -> np.ndarray:
    """(N, len(words) // 2) uint64 table of the uint32 words taken low, high."""
    lo = np.stack(words[0::2], axis=1).astype(np.uint64)
    return lo | np.stack(words[1::2], axis=1).astype(np.uint64) << np.uint64(32)


def _child_streams(root: int, first: int, count: int) -> tuple[list[int], np.ndarray]:
    """``child_seed(root, first + i)`` for each i < ``count``, and the PCG64
    state words, ``SeedSequence(seed).generate_state(4, np.uint64)``, of each.

    One vectorised pass of the SeedSequence hash.  A seed of at most four
    32-bit words hashes as if padded with zero words, so (root, index) is
    the words of root followed by the low and high word of index, and a
    child seed is its low and high word.  ``_seeded_generator`` of a row of
    words is then ``default_rng(seed)``.  ``child_seed`` stays the reference.
    """
    if not 0 <= root < _MAX_SEED or not 0 <= first <= first + count <= _MAX_SEED:
        raise ValueError("root and replication indices must be 64-bit unsigned integers")
    index = np.arange(first, first + count, dtype=np.uint64)
    root_words = [np.full(count, root >> shift & _MASK32, dtype=np.uint32)
                  for shift in ((0, 32) if root >> 32 else (0,))]
    index_words = [(index & np.uint64(_MASK32)).astype(np.uint32),
                   (index >> np.uint64(32)).astype(np.uint32)]
    zeros = np.zeros(count, dtype=np.uint32)
    seeds = _uint64_words(_seed_words((root_words + index_words + [zeros])[:4], 2))[:, 0]
    seed_words = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
                  (seeds >> np.uint64(32)).astype(np.uint32), zeros, zeros]
    return seeds.tolist(), _uint64_words(_seed_words(seed_words, 8))


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands out state words computed ahead of time."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words  # uint64

    def generate_state(self, n_words: int, dtype: Any = np.uint64) -> np.ndarray:
        """The first ``n_words`` words; PCG64 asks for four uint64 words."""
        if np.dtype(dtype) != np.uint64 or n_words > self.words.size:
            raise ValueError(f"only {self.words.size} uint64 state words were computed")
        return self.words[:n_words].copy()


def _seeded_generator(words: np.ndarray) -> np.random.Generator:
    """The generator that ``default_rng`` builds from the seed of these PCG64 state words."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


@dataclass(frozen=True)
class SignalSpec:
    """Distribution of the signals universities observe per application.

    With a shift ``delta`` >= 0, favorite-school applications draw
    Normal(delta, 1) and all others Normal(0, 1); at delta 0, the default,
    university preferences are uniformly random and applications carry no
    signal about fit.  With both samplers instead (``custom``), the caller
    supplies each distribution; ``sampler(rng, size)`` returns ``size``
    signals as a deterministic function of the generator state.
    """

    delta: float = 0.0
    special_sampler: SignalSampler | None = None
    regular_sampler: SignalSampler | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.delta, numbers.Real) or isinstance(self.delta, bool):
            raise ConfigurationError(f"signal shift must be a number, got {self.delta!r}")
        if not 0.0 <= self.delta < math.inf:
            raise ConfigurationError("gaussian signal shift must be finite and >= 0")
        # a float, and 0.0 rather than -0.0, which tables print as "-0"
        object.__setattr__(self, "delta", float(self.delta) + 0.0)
        if self.special_sampler is not None or self.regular_sampler is not None:
            if self.delta != 0.0:
                raise ConfigurationError(f"custom signals take no shift, got {self.delta!r}")
            for name in ("special", "regular"):
                sampler = getattr(self, f"{name}_sampler")
                if not callable(sampler):
                    raise ConfigurationError(f"{name} sampler is not callable: {sampler!r}")

    @classmethod
    def iid(cls) -> "SignalSpec":
        return cls()

    @classmethod
    def gaussian(cls, delta: float) -> "SignalSpec":
        return cls(delta=delta)

    @classmethod
    def custom(cls, special: SignalSampler, regular: SignalSampler) -> "SignalSpec":
        return cls(special_sampler=special, regular_sampler=regular)

    @property
    def is_custom(self) -> bool:
        """True when the caller's samplers draw the signals."""
        return self.special_sampler is not None

    @property
    def is_iid_equivalent(self) -> bool:
        """True when both branches are the same distribution."""
        return not self.is_custom and self.delta == 0.0

    @property
    def delta_tag(self) -> float | None:
        """Shift value for tabular output, or None for custom samplers."""
        return None if self.is_custom else self.delta

    def draw_batch(self, special: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One signal per entry of the boolean mask ``special``; custom samplers are
        called once each, the special one for ``out[special]``, then the regular one."""
        special = np.asarray(special, dtype=bool)
        if not self.is_custom:
            out = rng.standard_normal(special.shape)
            if self.delta != 0.0:
                out += self.delta * special  # in place; faster than a masked add
            return out
        out = np.empty(special.shape)
        for name, mask in (("special", special), ("regular", ~special)):
            drawn = getattr(self, f"{name}_sampler")(rng, size := int(mask.sum()))
            try:
                values = np.asarray(drawn, dtype=np.float64)
            except (TypeError, ValueError):
                values = None
            if values is None or values.shape != (size,):
                raise ConfigurationError(f"{name} sampler must give a flat array of {size} numbers")
            out[mask] = values
        return out


# The keys of a market configuration document, "delta" the signal's shift.
# Each is also the destination of the CLI flag that sets it.
_CONFIG_FIELDS = ("n", "m_ratio", "capacity", "k", "delta", "seed")


@dataclass(frozen=True)
class MarketConfig:
    """Scalar parameters of one market.

    n: number of students.  m_ratio: universities per student; m_ratio * n
    must be integral.  capacity: seats per university.  k: applications per
    student, 1 <= k <= m.  seed: root RNG seed, 0 <= seed < 2**64.
    """

    n: int
    m_ratio: float = 1.0
    capacity: int = 1
    k: int = 1
    signal: SignalSpec = SignalSpec()
    seed: int = 0

    def __post_init__(self) -> None:
        # bool is an int subclass, and math.isfinite takes no strings: both are
        # rejected by name here rather than failing later in sampling
        for name in ("n", "capacity", "k", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.m_ratio, numbers.Real) or isinstance(self.m_ratio, bool):
            raise ConfigurationError(f"m_ratio must be a number, got {self.m_ratio!r}")
        if self.n < 1:
            raise ConfigurationError("n must be a positive integer")
        m_exact = self.m_ratio * self.n
        m = round(m_exact) if math.isfinite(m_exact) else 0
        if self.m_ratio <= 0 or abs(m_exact - m) > 1e-9 or m < 1:
            raise ConfigurationError(
                f"m_ratio * n must be a positive integer, got {m_exact}"
            )
        if self.capacity < 1:
            raise ConfigurationError("capacity must be a positive integer")
        if not 1 <= self.k <= m:
            raise ConfigurationError(f"k must satisfy 1 <= k <= {m}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ConfigurationError("seed must be a 64-bit unsigned integer")

    @property
    def m(self) -> int:
        return round(self.m_ratio * self.n)

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "MarketConfig":
        """A configuration from a flat JSON object of the ``_CONFIG_FIELDS``,
        the document that the CLI's ``--config`` reads; every field but ``n``
        has its default.  ``delta`` is the Normal signal's shift; custom
        samplers cannot come from a file.
        """
        _json_object("market configuration", data, _CONFIG_FIELDS, required=("n",))
        delta = _convert(float, "delta", data.get("delta", 0.0))
        return cls(
            n=_convert(int, "n", data["n"]),
            m_ratio=_convert(float, "m_ratio", data.get("m_ratio", 1.0)),
            capacity=_convert(int, "capacity", data.get("capacity", 1)),
            k=_convert(int, "k", data.get("k", 1)),
            signal=SignalSpec(delta),
            seed=_convert(int, "seed", data.get("seed", 0)),
        )


def _rank_within_universities(
    uni: np.ndarray, signals: np.ndarray, tiebreaks: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order applications within each university: highest signal first.

    Returns (place, order, offsets): ``order`` lists application indices
    grouped by university in preference order, signal down and then
    tiebreak up, exactly as ``np.lexsort((tiebreaks, -signals, uni))``;
    ``offsets`` (int64) delimits the groups; ``place``, the inverse of
    ``order``, gives each application's index in it.  ``place`` and ``order``
    are ids of ``_id_dtype(uni.size, m)``.  An application's 0-based rank at
    its university is ``place - offsets[uni]``, so two applications to one
    university compare by place as by rank.  One value sort of packed 64-bit
    keys (university, descending signal bits cut to fit, index) does it: the
    cut is monotone, so only runs of equal university and cut signal can be
    out of order, and one lexsort of their members sets them right.  The key
    and the places are built in place by ``_CHUNK`` entries, so no temporary
    beside the key is N-sized.  NaN signals, or ids too wide to leave a
    signal bit, take the lexsort.
    """
    dtype = _id_dtype(uni.size, m)
    ub, ib = max(1, (m - 1).bit_length()), max(1, (uni.size - 1).bit_length())
    if ub + ib < 64 and not np.isnan(signals).any():
        one, key = np.uint64(1), np.empty(uni.size, np.uint64)
        for lo in range(0, max(uni.size, 1), _CHUNK):  # in place; runs once at N = 0
            part = key[lo : lo + _CHUNK]
            np.add(signals[lo : lo + _CHUNK], 0.0, out=part.view(np.float64))  # folds -0.0 into 0.0
            part ^= ((part >> np.uint64(63)) - one) >> one  # flips nonnegatives: descending order
            part >>= np.uint64(ub + ib)
            part |= uni[lo : lo + _CHUNK].astype(np.uint64) << np.uint64(64 - ub - ib)
            part <<= np.uint64(ib)
            part |= np.arange(lo, lo + part.size, dtype=np.uint64)
        del part  # a view of the key would keep it alive
        key.sort()
        order = np.bitwise_and(
            key, np.uint64((1 << ib) - 1), out=np.empty(uni.size, dtype), casting="unsafe"
        )
        key >>= np.uint64(ib)  # university and cut signal
        tie = np.zeros(uni.size + 1, bool)  # tie[i + 1]: entry i equals entry i + 1
        np.equal(key[1:], key[:-1], out=tie[1:-1])
        pos = np.flatnonzero(np.logical_or(tie[:-1], tie[1:], out=tie[:-1]))  # ties either side
        del tie
        members = order[pos]
        order[pos] = members[np.lexsort((tiebreaks[members], -signals[members], key[pos]))]
        counts = np.bincount(np.right_shift(key, np.uint64(64 - ub - ib), out=key).view(np.int64),
                             minlength=m)
        del key  # before the places: 4 MB of the traced peak at N = 5*10^5
    else:
        order = np.lexsort((tiebreaks, -signals, uni)).astype(dtype)
        counts = np.bincount(uni, minlength=m)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    place = np.empty(uni.size, dtype)
    for lo in range(0, uni.size, _CHUNK):  # chunk-sized temporaries, as the key's
        place[order[lo : lo + _CHUNK]] = np.arange(lo, min(lo + _CHUNK, uni.size), dtype=dtype)
    return place, order, offsets


def _repeats(table: np.ndarray) -> np.ndarray:
    """Row mask of a (rows, k) table: True where a row holds some value twice.

    Many rows take the k(k-1)/2 compares of contiguous columns, O(1) per
    entry and pair; a few rows, where each compare costs mostly its call,
    take one sort of every row.
    """
    rows, k = table.shape
    if rows <= 100 * (k - 1):
        srt = np.sort(table, axis=1)
        return (srt[:, 1:] == srt[:, :-1]).any(axis=1)
    cols = table.T.copy()
    out, same = np.zeros(rows, dtype=bool), np.empty(rows, dtype=bool)
    for i in range(k - 1):
        for j in range(i + 1, k):
            out |= np.equal(cols[i], cols[j], out=same)
    return out


def _codes(uniforms: np.ndarray, m: int) -> np.ndarray:
    """floor(u * (m - j)) of each uniform u of rank j (axis -2), scaling
    ``uniforms``, in the least signed dtype that holds m.  Each code in
    0..m-j-1 has probability within a relative 2(m - j) * 2**-53 of 1/(m - j)
    (u is a multiple of 2**-53, the product rounds); no u < 1 gives m - j."""
    uniforms *= m - np.arange(uniforms.shape[-2])[:, None]
    return uniforms.astype(np.min_scalar_type(-m))


def _fill_distinct(
    codes: np.ndarray, dtype: np.dtype, first: np.ndarray | None = None
) -> np.ndarray:
    """Decode a rank-major (..., k, rows) table of codes in place into lists,
    row-major (..., rows, k) ids of ``dtype``.  Code x at rank j names the x-th
    university in id order that ranks 0..j-1 do not list, the least fixed
    point of y = x + #{earlier entries <= y} from y = x.  With ``first``,
    ranks j < first[s] of row s hold given universities, which come back.

    Decoding runs from the last rank to the first (Lehmer codes): each entry
    pushes up by one every later entry at or above it; the inverse pass,
    from the first rank, makes the given universities codes.  O(k^2) work
    per row in O(k) array calls, against O(m log m) for a sort of m keys.
    """
    k = codes.shape[-2]
    if first is not None:
        given = np.arange(k)[:, None] < first
        for j in range(k - 1):
            later = codes[..., j + 1 :, :]
            later -= (later > codes[..., j : j + 1, :]) & given[j + 1 :]
    for j in range(k - 2, -1, -1):
        later = codes[..., j + 1 :, :]
        later += later >= codes[..., j : j + 1, :]
    return np.ascontiguousarray(np.swapaxes(codes, -1, -2), dtype=dtype)


class MarketInstance:
    """One realized market: preference lists plus per-application signals.

    Immutable after construction.  ``prefs[s, r]`` is student ``s``'s
    rank-(r+1) university; ``signals[s, r]`` is the signal that university
    observed for the application; ``tiebreaks[s, r]`` orders equal signals.

    Application ``s*k + r`` sits at index ``_uni_place[s*k + r]`` of
    ``_uni_order``, the applications grouped by university in preference
    order, whose groups ``_uni_offsets`` delimits; its 0-based rank at its
    university is its place less its university's offset.

    ``prefs``, ``_uni_place`` and ``_uni_order`` hold ids of
    ``_id_dtype(n*k, m)``: int32 when max(n*k, m) < 2**31, else int64,
    whatever integer dtype ``prefs`` came in; ``_uni_offsets`` is int64.
    """

    __slots__ = (
        "config",
        "prefs",
        "signals",
        "tiebreaks",
        "_uni_place",
        "_uni_order",
        "_uni_offsets",
    )

    def __init__(
        self,
        config: MarketConfig,
        prefs: np.ndarray,
        signals: np.ndarray,
        tiebreaks: np.ndarray,
    ) -> None:
        prefs = np.ascontiguousarray(_id_table("preference table", prefs))
        signals = np.ascontiguousarray(_id_table("signal table", signals, kind=float))
        tiebreaks = np.ascontiguousarray(_id_table("tiebreak table", tiebreaks, kind=float))
        n, m, k = config.n, config.m, config.k
        if prefs.shape != (n, k) or signals.shape != (n, k) or tiebreaks.shape != (n, k):
            raise ConfigurationError("preference/signal tables must be (n, k)")
        if prefs.min(initial=0) < 0 or prefs.max(initial=0) >= m:
            raise ConfigurationError("university ids out of range")
        if _repeats(prefs).any():
            raise ConfigurationError("a student lists the same university twice")
        prefs = prefs.astype(_id_dtype(n * k, m), copy=False)

        self.config = config
        self.prefs = prefs
        self.signals = signals
        self.tiebreaks = tiebreaks
        place, order, offsets = _rank_within_universities(
            prefs.ravel(), signals.ravel(), tiebreaks.ravel(), m
        )
        self._uni_place = place
        self._uni_order = order
        self._uni_offsets = offsets
        for arr in (prefs, signals, tiebreaks, place, order, offsets):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def m(self) -> int:
        return self.config.m

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def capacity(self) -> int:
        return self.config.capacity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarketInstance):
            return NotImplemented
        return (
            self.config == other.config
            and np.array_equal(self.prefs, other.prefs)
            and np.array_equal(self.signals, other.signals)
            and np.array_equal(self.tiebreaks, other.tiebreaks)
        )

    def __repr__(self) -> str:
        return f"MarketInstance(n={self.n}, m={self.m}, k={self.k}, L={self.capacity})"


def sample_market(config: MarketConfig) -> MarketInstance:
    """Sample one market instance from ``default_rng(config.seed)``, so
    identical configurations produce bit-identical instances.

    Three generator calls: list uniforms, one per cell, rank-major (k, n),
    which ``_fill_distinct`` decodes; then tiebreaks and signals, (n, k).
    With k(k-1) > 32m the first call draws (n, m) keys instead, and each
    list is the universities of its k smallest keys, in order.
    """
    return _sample_stack(config, [config.seed])


def _sample_stack(
    config: MarketConfig, seeds: Sequence[Any], shifts: Sequence[float] | None = None
) -> MarketInstance:
    """Markets of ``config`` side by side in one block-diagonal instance.

    Block b (students b*n.., universities b*m..) is the market
    ``sample_market(replace(config, seed=seeds[b]))``: its own generator
    (``seeds[b]`` may be one) makes the same three calls, straight into the
    stack's tables, signals last so that a custom sampler's draws shift
    nothing else; the lists are decoded for every block at once.

    ``shifts`` holds one Gaussian shift per block (default: every block
    ``config.signal.delta``), so that blocks of any shift share a stack.
    Each run of blocks with one non-zero shift gets it added at once,
    exactly as ``draw_batch`` adds it; the other blocks get nothing added.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, m, k, signal = config.n, config.m, config.k, config.signal
    shape = (len(rngs), n, k)
    keyed = k * (k - 1) > _KEY_SORT_RATIO * m
    lists = np.empty((len(rngs), n, m) if keyed else (len(rngs), k, n))  # keys or uniforms
    special = np.arange(k) == 0  # rank 1 is the favorite school
    signals, tiebreaks = np.empty(shape), np.empty(shape)
    for b, rng in enumerate(rngs):
        rng.random(out=lists[b])
        rng.random(out=tiebreaks[b])
        if signal.is_custom:
            signals[b] = signal.draw_batch(np.broadcast_to(special, (n, k)), rng)
        else:
            rng.standard_normal(out=signals[b])
    dtype = _id_dtype(signals.size, len(rngs) * m)  # the stack's ids
    if keyed:
        prefs = np.argsort(lists, axis=2)[..., :k].astype(dtype)
    else:
        prefs = _fill_distinct(_codes(lists, m), dtype)
    del lists  # before the instance ranks
    shifts = np.full(len(rngs), signal.delta) if shifts is None else np.asarray(shifts, float)
    cuts = [0, *(np.flatnonzero(np.diff(shifts)) + 1).tolist(), len(rngs)]
    for lo, hi in zip(cuts, cuts[1:]):
        if shifts[lo] != 0.0:
            signals[lo:hi] += float(shifts[lo]) * special  # what draw_batch adds
    prefs += (m * np.arange(len(rngs), dtype=dtype))[:, None, None]
    return MarketInstance(
        replace(config, n=len(rngs) * n), prefs.reshape(-1, k),
        signals.reshape(-1, k), tiebreaks.reshape(-1, k),
    )


@dataclass(frozen=True)
class SeededProposalPlan:
    """Pre-made proposals per rank, with acceptance labels and owners.

    A plan holds what ``complete_instance`` and ``continue_rejection_chains``
    read; the fractions and slack that sized it are not kept.
    ``proposal_student`` is -1 for proposals that could not be assigned to
    any eligible student.  ``inconsistent`` flags students whose proposal
    record has a gap: they lack a rank-1 proposal, or their last proposal
    was rejected before rank k without a follow-up.  Its universities, ranks
    and students hold ids of the market's ``_id_dtype``.
    """

    config: MarketConfig
    proposal_uni: np.ndarray
    proposal_rank: np.ndarray  # 1-based proposal type
    proposal_signal: np.ndarray
    proposal_tiebreak: np.ndarray
    proposal_accepted: np.ndarray
    proposal_student: np.ndarray
    inconsistent: np.ndarray  # (n,) bool

    def accepted_partner_array(self) -> np.ndarray:
        """Student -> university map following the accepted proposals."""
        partner = np.full(self.config.n, -1, dtype=np.int64)
        mask = self.proposal_accepted & (self.proposal_student >= 0)
        partner[self.proposal_student[mask]] = self.proposal_uni[mask]
        return partner

    def assigned_rank_counts(self) -> np.ndarray:
        """Number of proposals assigned to each student (a rank prefix)."""
        counts = np.zeros(self.config.n, dtype=np.int64)  # bincount would copy ids to intp
        np.add.at(counts, self.proposal_student[self.proposal_student >= 0], 1)
        return counts


def _validate_rank_fractions(
    rank_fractions: Any, k: int | None = None, leading_one: bool = True
) -> np.ndarray:
    """Check a per-rank proposal-fraction vector; return it as a float array.

    The entries must lie in [0, 1] and be nonincreasing.  With
    ``leading_one`` the rank-1 entry must be 1, as for a full rank vector;
    without it the vector may be all-zero, as for a partial proposal plan.
    """
    fractions = np.asarray(rank_fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("rank fractions must be a nonempty vector")
    if k is not None and fractions.shape != (k,):
        raise ValueError(f"expected {k} rank fractions, got {fractions.shape}")
    if not np.isfinite(fractions).all():
        raise ValueError("rank fractions must be finite")
    if leading_one and abs(fractions[0] - 1.0) > 1e-9:
        raise ValueError("the rank-1 fraction must be 1")
    if (fractions < -1e-12).any() or (fractions > 1 + 1e-12).any():
        raise ValueError("rank fractions must lie in [0, 1]")
    if (np.diff(fractions) > 1e-9).any():
        raise ValueError("rank fractions must be nonincreasing")
    return fractions


def _throw_proposals(
    counts: np.ndarray, m: int, config: MarketConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Throw ``counts[i]`` rank-(i+1) proposals at ``m`` uniformly random universities.

    Rank-1 proposals draw special signals.  Every university labels its
    top-``capacity`` proposals by signal accepted.  Returns (university,
    0-based rank, signal, tiebreak, accepted) per proposal, grouped by rank;
    the universities and ranks are ids of the market's ``_id_dtype``.
    """
    total = int(counts.sum())
    dtype = _id_dtype(config.n * config.k, m)
    uni = rng.integers(0, m, size=total, dtype=np.int64).astype(dtype)  # int64 keeps the stream
    ranks = np.repeat(np.arange(counts.size, dtype=dtype), counts)
    signals = config.signal.draw_batch(ranks == 0, rng)
    tiebreaks = rng.random(total)
    place, _, offsets = _rank_within_universities(uni, signals, tiebreaks, m)
    return uni, ranks, signals, tiebreaks, place < offsets[uni] + config.capacity


def build_seeded_plan(
    rank_fractions: Any,
    config: MarketConfig,
    slack: float | None = None,
) -> SeededProposalPlan:
    """Draw pre-made proposals per rank, from ``default_rng(config.seed)``,
    and label acceptances.

    For each rank i, ``floor(fraction_i * n - slack)`` proposals are thrown
    at uniformly random universities (slack defaults to n**0.6).  Each
    university labels its top-``capacity`` proposals by signal "accepted".
    Rank-1 proposals are assigned to random students; rank-i proposals go
    to students whose rank-(i-1) proposal was rejected.  Students left
    without a follow-up proposal are flagged inconsistent.

    When a rank has more proposals than eligible students, accepted
    proposals are assigned first and the surplus stays unassigned; this
    keeps the accepted labels binding for the students that do hold them.
    """
    rng = np.random.default_rng(config.seed)
    n, m, k = config.n, config.m, config.k
    fractions = _validate_rank_fractions(rank_fractions, k)
    slack = float(n) ** 0.6 if slack is None else _convert(float, "slack", slack, ValueError)
    if not 0 <= slack < math.inf:
        raise ValueError("slack must be finite and nonnegative")

    counts = np.maximum(np.floor(fractions * n - slack), 0.0).astype(np.int64)
    prop_uni, prop_rank, prop_signal, prop_tiebreak, accepted = _throw_proposals(
        counts, m, config, rng
    )
    prop_rank += 1

    prop_student = np.full(prop_uni.size, -1, dtype=prop_uni.dtype)
    inconsistent = np.zeros(n, dtype=bool)
    held = np.full((n, k), -1, prop_uni.dtype)  # university of each student's rank-r proposal

    offsets = np.concatenate(([0], np.cumsum(counts)))
    eligible = np.arange(n, dtype=np.int64)
    for i in range(k):
        props = np.arange(offsets[i], offsets[i + 1], dtype=np.int64)
        if eligible.size >= props.size:
            perm = rng.permutation(eligible.size)
            students = eligible[perm[: props.size]]
            inconsistent[eligible[perm[props.size:]]] = True
        else:
            acc = props[accepted[props]]
            rej = props[~accepted[props]]
            ordered = np.concatenate((rng.permutation(acc), rng.permutation(rej)))
            props = ordered[: eligible.size]
            students = rng.permutation(eligible)

        # A pair clashes when its university is already on the student's list.
        # Swaps leave both their pairs valid, so they only cure clashes: the
        # clashes found up front, re-checked in index order, are all to repair.
        targets = prop_uni[props]
        listed = held[:, :i]
        for idx in np.flatnonzero((listed[students] == targets[:, None]).any(axis=1)):
            s = students[idx]
            if targets[idx] not in listed[s]:
                continue
            # swap owners with another pair that stays valid both ways; a pair
            # whose own repair failed has no student and is no partner
            for _ in range(_SWAP_ATTEMPTS):
                j = int(rng.integers(props.size))
                s2 = students[j]
                if j == idx or s2 < 0:
                    continue
                if targets[idx] not in listed[s2] and targets[j] not in listed[s]:
                    students[idx], students[j] = s2, s
                    break
            else:
                students[idx] = -1
                inconsistent[s] = True

        kept = students >= 0
        prop_student[props[kept]] = students[kept]
        held[students[kept], i] = targets[kept]
        eligible = np.sort(students[kept & ~accepted[props]])

    for arr in (prop_uni, prop_rank, prop_signal, prop_tiebreak, accepted, prop_student, inconsistent):
        arr.setflags(write=False)
    return SeededProposalPlan(
        config=config,
        proposal_uni=prop_uni,
        proposal_rank=prop_rank,
        proposal_signal=prop_signal,
        proposal_tiebreak=prop_tiebreak,
        proposal_accepted=accepted,
        proposal_student=prop_student,
        inconsistent=inconsistent,
    )


def complete_instance(plan: SeededProposalPlan) -> MarketInstance:
    """Fill a seeded plan out into a full market instance, drawing from
    ``default_rng(child_seed(plan.config.seed, 1))``.

    Assigned proposals become the prefix of each student's list, keeping
    their signals and tiebreaks.  The remaining ranks (the holes) are drawn
    uniformly among unlisted universities; their signals come from the
    regular distribution except for a fresh rank-1 slot, which is a
    favorite-school application.

    Stream layout, three calls: the list uniforms that ``sample_market``
    draws, (k, n), of which the holes' are decoded after the prefix; then
    one tiebreak and then one signal per hole, in the order of the holes'
    flat ids s*k + r.  With k(k-1) > 32m the first call draws (n, m) keys,
    those of a student's prefix sorting last.
    """
    return MarketInstance(plan.config, *_completed_tables(plan))


def _completed_tables(plan: SeededProposalPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``complete_instance``'s tables; its scratch is gone before the instance ranks."""
    config = plan.config
    rng = np.random.default_rng(child_seed(config.seed, 1))
    n, m, k = config.n, config.m, config.k
    dtype = _id_dtype(n * k, m)  # holds every cell id s*k + r and r*n + s below n*k
    assigned = np.flatnonzero(plan.proposal_student >= 0)
    students, universities = plan.proposal_student[assigned], plan.proposal_uni[assigned]
    ranks = (plan.proposal_rank[assigned] - 1).astype(dtype, copy=False)
    first = plan.assigned_rank_counts()  # every student holds a prefix of ranks
    # each assigned proposal's cell s*k + r; the holes fill the rest
    cells = students * k + ranks
    if k * (k - 1) > _KEY_SORT_RATIO * m:
        keys = rng.random((n, m))
        keys.ravel()[students.astype(np.int64) * m + universities] = 2.0  # listed ones sort last
        slots = np.maximum(np.arange(k) - first[:, None], 0)
        prefs = np.take_along_axis(np.argsort(keys, axis=1), slots, axis=1).astype(dtype)
        prefs.ravel()[cells] = universities
    else:
        codes = _codes(rng.random((k, n)), m)
        codes.ravel()[ranks * n + students] = universities
        prefs = _fill_distinct(codes, dtype, first)
        del codes
    del students, ranks, universities
    tiebreaks, signals = np.empty(n * k), np.empty(n * k)
    tiebreaks[cells] = plan.proposal_tiebreak[assigned]
    signals[cells] = plan.proposal_signal[assigned]
    del cells, assigned
    holes = np.flatnonzero(np.arange(k) >= first[:, None]).astype(dtype)
    tiebreaks[holes] = rng.random(holes.size)
    signals[holes] = config.signal.draw_batch(holes % k == 0, rng)
    return prefs, signals.reshape(n, k), tiebreaks.reshape(n, k)
