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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

__all__ = [
    "ConfigurationError",
    "SignalSpec",
    "MarketConfig",
    "MarketInstance",
    "SeededProposalPlan",
    "child_seed",
    "make_rng",
    "sample_market",
    "build_seeded_plan",
    "complete_instance",
]

SignalSampler = Callable[[np.random.Generator], float]

_MAX_SEED = 2**64

# Fixed stream index used when tiebreaks must be re-derived (JSON reload).
_TIEBREAK_STREAM = 0x7EB

# Rounds of row rejection in ``_fill_distinct`` before the key sort takes over.
_REJECTION_ROUNDS = 64

# Max attempts to repair a proposal-to-student assignment whose target
# university already sits on the student's list.
_SWAP_ATTEMPTS = 200


class ConfigurationError(ValueError):
    """A market configuration violates its invariants."""


def _convert(kind: type, name: str, value: Any) -> Any:
    """``kind(value)``, where ``kind`` is int or float, for a configuration field.

    The conversion must not change the value, so strings, booleans and
    fractional numbers are rejected rather than parsed or truncated.
    """
    try:
        converted = kind(value)
        if converted == value and not isinstance(value, bool):
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "an integer" if kind is int else "a number"
    raise ConfigurationError(f"{name} must be {expected}, got {value!r}")


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


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


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

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        words = self.words
        if np.dtype(dtype) == np.uint32:
            words = words.astype("<u8").view("<u4")
        if n_words > words.size:
            raise ValueError(f"only {words.size} state words were computed")
        return words[:n_words].astype(dtype)


def _seeded_generator(words: np.ndarray) -> np.random.Generator:
    """The generator that ``default_rng`` builds from the seed of these PCG64 state words."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


@dataclass(frozen=True)
class SignalSpec:
    """Distribution of the signals universities observe per application.

    kind "iid": both branches are standard normal, so university
    preferences are uniformly random and applications carry no signal
    about fit.  kind "gaussian": favorite-school applications draw
    Normal(delta, 1), all others Normal(0, 1).  kind "custom": caller
    supplies both samplers; they must be deterministic functions of the
    generator state.
    """

    kind: str = "iid"
    delta: float = 0.0
    special_sampler: SignalSampler | None = None
    regular_sampler: SignalSampler | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "gaussian", "custom"):
            raise ConfigurationError(f"unknown signal kind: {self.kind!r}")
        if self.kind == "gaussian" and not 0.0 <= self.delta < math.inf:
            raise ConfigurationError("gaussian signal shift must be finite and >= 0")
        if self.kind == "iid":
            if self.delta != 0.0:
                raise ConfigurationError("iid signals take no shift")
            object.__setattr__(self, "delta", 0.0)  # not -0.0, which tables print as "-0"
        if self.kind == "custom" and (
            self.special_sampler is None or self.regular_sampler is None
        ):
            raise ConfigurationError("custom signals need both samplers")

    @classmethod
    def iid(cls) -> "SignalSpec":
        return cls(kind="iid")

    @classmethod
    def gaussian(cls, delta: float) -> "SignalSpec":
        return cls(kind="gaussian", delta=float(delta))

    @classmethod
    def custom(cls, special: SignalSampler, regular: SignalSampler) -> "SignalSpec":
        return cls(kind="custom", special_sampler=special, regular_sampler=regular)

    @property
    def is_iid_equivalent(self) -> bool:
        """True when both branches are the same distribution."""
        return self.kind == "iid" or (self.kind == "gaussian" and self.delta == 0.0)

    @property
    def delta_tag(self) -> float | None:
        """Shift value for tabular output, or None for custom samplers."""
        if self.kind == "custom":
            return None
        return float(self.delta)

    def draw(self, is_special: bool, rng: np.random.Generator) -> float:
        if self.kind == "custom":
            sampler = self.special_sampler if is_special else self.regular_sampler
            assert sampler is not None
            return float(sampler(rng))
        value = float(rng.standard_normal())
        if is_special and self.kind == "gaussian":
            value += self.delta
        return value

    def draw_batch(self, special: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One signal per entry of the boolean mask ``special``."""
        special = np.asarray(special, dtype=bool)
        if self.kind == "custom":
            draws = [self.draw(bool(is_special), rng) for is_special in special.ravel()]
            return np.array(draws, dtype=np.float64).reshape(special.shape)
        out = rng.standard_normal(special.shape)
        if self.kind == "gaussian" and self.delta != 0.0:
            out += self.delta * special  # in place; faster than a masked add
        return out

    def to_json_dict(self) -> dict[str, Any]:
        if self.kind == "custom":
            raise ConfigurationError("custom signal specs are not serializable")
        return {"kind": self.kind, "delta": self.delta}

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "SignalSpec":
        """Inverse of ``to_json_dict``; the shift defaults to 0."""
        _json_object("signal", data, ("kind", "delta"), required=("kind",))
        return cls(kind=data["kind"], delta=_convert(float, "signal delta", data.get("delta", 0.0)))


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
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError("n must be a positive integer")
        m_exact = self.m_ratio * self.n
        m = round(m_exact) if math.isfinite(m_exact) else 0
        if self.m_ratio <= 0 or abs(m_exact - m) > 1e-9 or m < 1:
            raise ConfigurationError(
                f"m_ratio * n must be a positive integer, got {m_exact}"
            )
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise ConfigurationError("capacity must be a positive integer")
        if not isinstance(self.k, int) or not 1 <= self.k <= m:
            raise ConfigurationError(f"k must satisfy 1 <= k <= {m}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ConfigurationError("seed must be a 64-bit unsigned integer")

    @property
    def m(self) -> int:
        return round(self.m_ratio * self.n)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "m_ratio": self.m_ratio,
            "capacity": self.capacity,
            "k": self.k,
            "signal": self.signal.to_json_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "MarketConfig":
        """Inverse of ``to_json_dict``; every field but ``n`` has its default.

        Shorthands: "signal" may be a kind name, and a top-level "delta" is
        the shift wherever "signal" sets none.  A kind left unnamed is
        "gaussian" for a non-zero shift and "iid" otherwise.
        """
        keys = [f.name for f in fields(cls)] + ["delta"]
        _json_object("market configuration", data, keys, required=("n",))
        signal = data.get("signal")
        if isinstance(signal, dict):
            signal = {"delta": data.get("delta", 0.0), **signal}
        elif signal is None or isinstance(signal, str):
            delta = _convert(float, "delta", data.get("delta", 0.0))
            kind = signal if signal is not None else "gaussian" if delta != 0.0 else "iid"
            signal = {"kind": kind, "delta": delta}
        return cls(
            n=_convert(int, "n", data["n"]),
            m_ratio=_convert(float, "m_ratio", data.get("m_ratio", 1.0)),
            capacity=_convert(int, "capacity", data.get("capacity", 1)),
            k=_convert(int, "k", data.get("k", 1)),
            signal=SignalSpec.from_json_dict(signal),
            seed=_convert(int, "seed", data.get("seed", 0)),
        )


def _rank_within_universities(
    uni: np.ndarray, signals: np.ndarray, tiebreaks: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank applications within each university: 0 = highest signal.

    Returns (ranks, order, offsets): ``order`` lists application indices
    grouped by university in preference order, signal down and then
    tiebreak up, exactly as ``np.lexsort((tiebreaks, -signals, uni))``;
    ``offsets`` delimits the groups.  One value sort of packed 64-bit keys
    (university, descending signal bits cut to fit, index) does it: the
    cut is monotone, so only runs of equal university and cut signal can
    be out of order, and one lexsort of their members sets them right.
    NaN signals, or ids too wide to leave a signal bit, take the lexsort.
    """
    ub, ib = max(1, (m - 1).bit_length()), max(1, (uni.size - 1).bit_length())
    if ub + ib < 64 and not np.isnan(signals).any():
        one, key = np.uint64(1), (signals + 0.0).view(np.uint64)  # + 0.0 folds -0.0 into 0.0
        key ^= ((key >> np.uint64(63)) - one) >> one  # flips nonnegatives: descending order
        key >>= np.uint64(ub + ib)
        key |= uni.astype(np.uint64) << np.uint64(64 - ub - ib)
        key <<= np.uint64(ib)
        key |= np.arange(uni.size, dtype=np.uint64)
        key.sort()
        order = (key & np.uint64((1 << ib) - 1)).view(np.int64)
        key >>= np.uint64(ib)  # university and cut signal
        tie = np.concatenate(([False], key[1:] == key[:-1], [False]))
        pos = np.flatnonzero(tie[1:] | tie[:-1])
        members = order[pos]
        order[pos] = members[np.lexsort((tiebreaks[members], -signals[members], key[pos]))]
        grouped = np.right_shift(key, np.uint64(64 - ub - ib), out=key).view(np.int64)
    else:
        order = np.lexsort((tiebreaks, -signals, uni))
        grouped = uni[order]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(grouped, minlength=m))))
    ranks = np.empty(uni.size, dtype=np.int64)
    ranks[order] = np.arange(uni.size, dtype=np.int64) - offsets[grouped]
    return ranks, order, offsets


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


def _fill_distinct(
    prefs: np.ndarray, first: np.ndarray, m: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Fill each row's cells ``prefs[s, first[s]:]`` in place so that every row is distinct.

    ``prefs`` is (blocks * rows, k); block b (rows b*rows..) draws from
    ``rngs[b]`` what it would draw alone, its hole cells in the order of
    their flat ids s*k + r.  A row's fresh entries are a uniform ordered
    sample of the universities its other cells do not list.  When
    k(k-1) <= m, holes are drawn uniformly and rows that repeat a
    university (chance <= k(k-1)/2m <= 1/2) redrawn, in rounds that blocks
    with such rows join; the pending rows are an index array, so a round
    costs O(pending rows).  Rows left after ``_REJECTION_ROUNDS`` rounds,
    and all rows when k(k-1) > m (m < k**2), take the unlisted universities
    with the smallest of m uniform random keys.  Returns ``prefs``.
    """
    k = prefs.shape[1]
    bounds = prefs.shape[0] // len(rngs) * np.arange(len(rngs) + 1)
    cells = prefs.reshape(-1)
    rows = np.flatnonzero(first < k)
    whole = not first[rows].any()  # every hole row is a whole row
    for _ in range(_REJECTION_ROUNDS if k * (k - 1) <= m else 0):
        if not rows.size:
            return prefs
        if whole:
            counts = k * np.diff(np.searchsorted(rows, bounds))
        else:
            lengths = k - first[rows]
            ends = np.cumsum(lengths)
            # the hole cells of the pending rows by flat id, and their count per block
            holes = np.arange(ends[-1]) + np.repeat((rows + 1) * k - ends, lengths)
            counts = np.diff(np.concatenate(([0], ends))[np.searchsorted(rows, bounds)])
        draws = np.concatenate([
            rng.integers(0, m, size=count, dtype=np.int64)
            for rng, count in zip(rngs, counts.tolist()) if count
        ])
        if whole:
            prefs[rows] = draws.reshape(-1, k)
        else:
            cells[holes] = draws
        rows = rows[_repeats(prefs[rows])]
    cuts = np.searchsorted(rows, bounds)
    for rng, todo in zip(rngs, np.split(rows, cuts[1:-1])):
        if todo.size:
            row_prefs, fill = prefs[todo], np.arange(k) >= first[todo][:, None]
            keys = rng.random((todo.size, m))
            keys[np.nonzero(~fill)[0], row_prefs[~fill]] = 2.0  # listed universities sort last
            picks = np.argsort(keys, axis=1)[:, :k]
            row_prefs[fill] = picks[np.arange(k) < fill.sum(axis=1)[:, None]]
            prefs[todo] = row_prefs
    return prefs


class MarketInstance:
    """One realized market: preference lists plus per-application signals.

    Immutable after construction.  ``prefs[s, r]`` is student ``s``'s
    rank-(r+1) university; ``signals[s, r]`` is the signal that university
    observed for the application; ``tiebreaks[s, r]`` orders equal signals.
    ``blocks`` > 1 marks that many equal markets side by side (``_sample_stack``),
    and is checked: block-offset ids already keep the ranking per block.
    """

    __slots__ = (
        "config",
        "prefs",
        "signals",
        "tiebreaks",
        "uni_rank",
        "_uni_order",
        "_uni_offsets",
    )

    def __init__(
        self,
        config: MarketConfig,
        prefs: np.ndarray,
        signals: np.ndarray,
        tiebreaks: np.ndarray,
        blocks: int = 1,
    ) -> None:
        prefs = np.ascontiguousarray(prefs, dtype=np.int64)
        signals = np.ascontiguousarray(signals, dtype=np.float64)
        tiebreaks = np.ascontiguousarray(tiebreaks, dtype=np.float64)
        n, m, k = config.n, config.m, config.k
        if prefs.shape != (n, k) or signals.shape != (n, k) or tiebreaks.shape != (n, k):
            raise ConfigurationError("preference/signal tables must be (n, k)")
        if prefs.min(initial=0) < 0 or prefs.max(initial=0) >= m:
            raise ConfigurationError("university ids out of range")
        if _repeats(prefs).any():
            raise ConfigurationError("a student lists the same university twice")
        if blocks > 1 and (
            n % blocks or m % blocks
            or (prefs // (m // blocks) != (np.arange(n) // (n // blocks))[:, None]).any()
        ):
            raise ConfigurationError("a block's students must list only its universities")

        self.config = config
        self.prefs = prefs
        self.signals = signals
        self.tiebreaks = tiebreaks
        ranks, order, offsets = _rank_within_universities(
            prefs.ravel(), signals.ravel(), tiebreaks.ravel(), m
        )
        self.uni_rank = ranks.reshape(n, k)
        self._uni_order = order
        self._uni_offsets = offsets
        for arr in (self.prefs, self.signals, self.tiebreaks, self.uni_rank):
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

    def to_json_dict(self) -> dict[str, Any]:
        """Schema: config object, preference lists, sparse signal triples."""
        triples = [
            [int(self.prefs[s, r]), s, float(self.signals[s, r])]
            for s in range(self.n)
            for r in range(self.k)
        ]
        return {
            "config": self.config.to_json_dict(),
            "preferences": self.prefs.tolist(),
            "signals": triples,
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "MarketInstance":
        """Rebuild an instance from its JSON document.

        Tiebreaks are not part of the schema; they are re-derived
        deterministically from the config seed.  With continuous signal
        distributions ties have probability zero, so reloaded instances
        behave identically.  The document holds exactly the three fields
        that ``to_json_dict`` writes; a missing or unknown one raises a
        ConfigurationError that names it.
        """
        keys = ("config", "preferences", "signals")
        _json_object("market instance", data, keys, required=keys)
        config = MarketConfig.from_json_dict(data["config"])
        rows = []
        for s, row in enumerate(data["preferences"]):
            if not isinstance(row, (list, tuple)):
                raise ConfigurationError(f"preference row {s} is not a list: {row!r}")
            if len(row) != config.k:
                raise ConfigurationError(
                    f"preference row {s} lists {len(row)} universities, not k = {config.k}"
                )
            rows.append([_convert(int, f"preference row {s} entry {r}", u)
                         for r, u in enumerate(row)])
        prefs = np.array(rows, dtype=np.int64).reshape(-1, config.k)
        table: dict[tuple[int, int], float] = {}
        for i, entry in enumerate(data["signals"]):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigurationError(
                    f"signal entry {i} is not a [university, student, signal] triple: {entry!r}"
                )
            u = _convert(int, f"signal entry {i} university", entry[0])
            s = _convert(int, f"signal entry {i} student", entry[1])
            v = _convert(float, f"signal entry {i} signal", entry[2])
            if (u, s) in table:
                raise ConfigurationError(f"two signals for university {u}, student {s}")
            table[u, s] = v
        listed = [(u, s) for s, row in enumerate(prefs.tolist()) for u in row]
        for u, s in listed:
            if (u, s) not in table:
                raise ConfigurationError(f"no signal for university {u}, student {s}")
        unlisted = sorted(table.keys() - set(listed))
        if unlisted:
            u, s = unlisted[0]
            raise ConfigurationError(f"a signal for university {u}, student {s}, not on her list")
        signals = np.array([table[pair] for pair in listed], dtype=np.float64).reshape(prefs.shape)
        rng = make_rng(child_seed(config.seed, _TIEBREAK_STREAM))
        tiebreaks = rng.random((config.n, config.k))
        return cls(config, prefs, signals, tiebreaks)


def sample_market(config: MarketConfig, rng: np.random.Generator | None = None) -> MarketInstance:
    """Sample one market instance.

    With ``rng=None`` the generator is seeded from ``config.seed``, so
    identical configurations produce bit-identical instances.
    """
    return _sample_stack(config, [config.seed if rng is None else rng])


def _sample_stack(config: MarketConfig, seeds: Sequence[Any]) -> MarketInstance:
    """Markets of ``config`` side by side in one block-diagonal instance.

    Block b (students b*n.., universities b*m..) is the market
    ``sample_market(replace(config, seed=seeds[b]))``: its own generator
    (``seeds[b]`` may be one) makes the same calls in the same order, the
    list draws of ``_fill_distinct``, one ``draw_batch`` and one ``random``,
    the last two straight into the stack's tables, with the Gaussian shift
    added to the whole stack at once.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, m, k, signal = config.n, config.m, config.k, config.signal
    shape = (len(rngs), n, k)
    first = np.zeros(len(rngs) * n, dtype=np.int64)  # every cell is a hole
    prefs = _fill_distinct(np.empty((first.size, k), dtype=np.int64), first, m, rngs)
    prefs += np.repeat(m * np.arange(len(rngs)), n)[:, None]
    special = np.arange(k) == 0  # rank 1 is the favorite school
    signals, tiebreaks = np.empty(shape), np.empty(shape)
    for b, rng in enumerate(rngs):
        if signal.kind == "custom":
            signals[b] = signal.draw_batch(np.broadcast_to(special, (n, k)), rng)
        else:
            rng.standard_normal(out=signals[b])
        rng.random(out=tiebreaks[b])
    if signal.kind == "gaussian" and signal.delta != 0.0:
        signals += signal.delta * special  # what draw_batch adds, for every block at once
    return MarketInstance(
        replace(config, n=len(rngs) * n), prefs,
        signals.reshape(-1, k), tiebreaks.reshape(-1, k), len(rngs),
    )


@dataclass(frozen=True)
class SeededProposalPlan:
    """Pre-made proposals per rank, with acceptance labels and owners.

    ``proposal_student`` is -1 for proposals that could not be assigned to
    any eligible student.  ``inconsistent`` flags students whose proposal
    record has a gap: they lack a rank-1 proposal, or their last proposal
    was rejected before rank k without a follow-up.
    """

    config: MarketConfig
    rank_fractions: tuple[float, ...]
    slack: float
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
        assigned = self.proposal_student >= 0
        return np.bincount(self.proposal_student[assigned], minlength=self.config.n)


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
    0-based rank, signal, tiebreak, accepted) per proposal, grouped by rank.
    """
    total = int(counts.sum())
    uni = rng.integers(0, m, size=total, dtype=np.int64)
    ranks = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    signals = config.signal.draw_batch(ranks == 0, rng)
    tiebreaks = rng.random(total)
    within, _, _ = _rank_within_universities(uni, signals, tiebreaks, m)
    return uni, ranks, signals, tiebreaks, within < config.capacity


def build_seeded_plan(
    rank_fractions: Any,
    config: MarketConfig,
    rng: np.random.Generator | None = None,
    slack: float | None = None,
) -> SeededProposalPlan:
    """Draw pre-made proposals per rank and label acceptances.

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
    if rng is None:
        rng = make_rng(config.seed)
    n, m, k = config.n, config.m, config.k
    fractions = _validate_rank_fractions(rank_fractions, k)
    if slack is None:
        slack = float(n) ** 0.6
    if not 0 <= slack < math.inf:
        raise ValueError("slack must be finite and nonnegative")

    counts = np.maximum(np.floor(fractions * n - slack), 0.0).astype(np.int64)
    prop_uni, prop_rank, prop_signal, prop_tiebreak, accepted = _throw_proposals(
        counts, m, config, rng
    )
    prop_rank += 1

    prop_student = np.full(prop_uni.size, -1, dtype=np.int64)
    inconsistent = np.zeros(n, dtype=bool)
    held = np.full((n, k), -1, dtype=np.int64)  # university of each student's rank-r proposal

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
        rank_fractions=tuple(float(f) for f in fractions),
        slack=float(slack),
        proposal_uni=prop_uni,
        proposal_rank=prop_rank,
        proposal_signal=prop_signal,
        proposal_tiebreak=prop_tiebreak,
        proposal_accepted=accepted,
        proposal_student=prop_student,
        inconsistent=inconsistent,
    )


def complete_instance(
    plan: SeededProposalPlan, rng: np.random.Generator | None = None
) -> MarketInstance:
    """Fill a seeded plan out into a full market instance.

    Assigned proposals become the prefix of each student's list, keeping
    their signals and tiebreaks.  The remaining ranks (the holes) are drawn
    uniformly among unlisted universities; their signals come from the
    regular distribution except for a fresh rank-1 slot, which is a
    favorite-school application.

    Stream layout: every hole is filled first (``_fill_distinct``), then
    one signal is drawn per hole, then one tiebreak per hole, both in the
    order of the holes' flat ids s*k + r.  Every table is addressed by that
    id: the proposals land through one cell index, and the holes are one
    ``flatnonzero``.
    """
    config = plan.config
    if rng is None:
        rng = make_rng(child_seed(config.seed, 1))
    n, m, k = config.n, config.m, config.k
    prefs = np.full(n * k, -1, dtype=np.int64)
    signals = np.zeros(n * k, dtype=np.float64)
    tiebreaks = np.zeros(n * k, dtype=np.float64)

    # each assigned proposal fills the cell s*k + r of its student and rank
    assigned = np.flatnonzero(plan.proposal_student >= 0)
    cells = plan.proposal_student[assigned] * k + plan.proposal_rank[assigned] - 1
    prefs[cells] = plan.proposal_uni[assigned]
    signals[cells] = plan.proposal_signal[assigned]
    tiebreaks[cells] = plan.proposal_tiebreak[assigned]

    first = plan.assigned_rank_counts()
    _fill_distinct(prefs.reshape(n, k), first, m, [rng])
    holes = np.flatnonzero(np.arange(k) >= first[:, None])
    signals[holes] = config.signal.draw_batch(holes % k == 0, rng)
    tiebreaks[holes] = rng.random(holes.size)
    return MarketInstance(
        config, prefs.reshape(n, k), signals.reshape(n, k), tiebreaks.reshape(n, k)
    )
