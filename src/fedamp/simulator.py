"""Round-based simulation of private distributed SGD.

Each round: every client joins with probability p, each participant
samples each of its local elements with probability q, the sampled
per-sample gradients of all participants are clipped to norm C and summed,
the coordinator adds centered Gaussian noise (std sigma per coordinate) and
scales by 1/(p N q d) for unbiasedness, then takes a gradient step.

All clients' elements sit in one stacked, read-only feature and label
array, client i owning one run of rows. The random draws of a block of
rounds are made together, one call per stream: all the participation
coins, all the noise, and per client the masks of every round it takes
part in. The block keeps the stack rows of the sampled elements, not the
elements themselves, so its memory does not grow with the model dimension.
A PCG64 stream gives the same values however its draws are split into
calls, so a block's draws, and the stream states it leaves, are those of
drawing one round at a time. A round gathers its rows and takes the
gradient step. It keeps only the noisy estimate it releases; what only
inspection reads of it is built from the block on first read.

Synthetic linear and logistic regression stand in for real workloads;
everything is driven by seeded generator streams so that runs are
bit-reproducible and the noise stream is independent of the sampling
streams by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .numerics import DomainError, Rule, checked


# mask and noise draws per block of rounds in run_training: bounds its
# memory, not its results
_DRAW_BLOCK = 1 << 18


class TrainingDivergedError(RuntimeError):
    """Loss or weights became non-finite during training."""


class Task(Enum):
    LINEAR_REGRESSION = "linear_regression"
    LOGISTIC_REGRESSION = "logistic_regression"


_CONFIG_RULES = {**dict.fromkeys(("N", "d", "T", "m"), Rule.POSITIVE_COUNT),
                 "p": Rule.PROBABILITY, "q": Rule.PROBABILITY, "C": Rule.POSITIVE,
                 "sigma": Rule.NONNEGATIVE, "eta": Rule.POSITIVE}


@dataclass(frozen=True)
class SimConfig:
    """Protocol and task parameters for one training run."""

    N: int
    d: int
    p: float
    q: float
    C: float
    sigma: float
    T: int
    eta: float
    m: int
    seed: int

    def __post_init__(self) -> None:
        for name, rule in _CONFIG_RULES.items():
            object.__setattr__(self, name, checked(name, getattr(self, name), rule))
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ClientData:
    """Every client's elements, stacked in client order: client i owns
    rows offsets[i] to offsets[i + 1] of features and labels."""

    features: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise DomainError("features must be 2-d and labels 1-d")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DomainError("features and labels disagree on sample count")
        offsets = self.offsets
        if (offsets.ndim != 1 or offsets.size < 2 or offsets.dtype.kind not in "iu"
                or offsets[0] != 0 or offsets[-1] != self.labels.shape[0]
                or (np.diff(offsets) < 0).any()):
            raise DomainError("offsets must rise from 0 to the sample count")

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass(frozen=True)
class ModelState:
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.weights).all():
            raise TrainingDivergedError("non-finite weights")


@dataclass
class Streams:
    """Independent generator streams split from one master seed.

    The noise stream never sees sampling decisions. Participation draws
    one coin per client per round and does not depend on the data. Each
    client owns a generator for its element masks, drawn from only in the
    rounds it takes part in, so one client's dataset growing by an element
    leaves every other client's draws untouched in every round. Client i's
    stream gives the values of `PCG64(SeedSequence(seed).spawn(4)[2].spawn(N)[i])`.
    """

    data: np.random.Generator
    participation: np.random.Generator
    elements: list[np.random.Generator]
    noise: np.random.Generator


# SeedSequence's hash constants (numpy's bit_generator, after O'Neill's seed_seq_fe)
_MASK32, _POOL_SIZE = 0xFFFFFFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix; each call advances the hash constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)
    return hashmix


def _spawned_states(seed: int, key: int, n: int) -> np.ndarray:
    """generate_state(4, uint64) of each of SeedSequence(seed, spawn_key=(key,)).spawn(n),
    one row per child. A word is a Python int while it is the same for all
    children and a uint32 array once it is not."""
    def mix(x, y):
        value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return value ^ (value >> 16)

    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # the seed's words, zero-padded to the pool size, then the spawn key
    entropy = words + [0] * (_POOL_SIZE - len(words)) + [key, np.arange(n, dtype=np.uint32)]
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[_POOL_SIZE:], range(_POOL_SIZE)):
        pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    state = np.array([hashmix(pool[k % _POOL_SIZE]) for k in range(2 * _POOL_SIZE)], np.uint64)
    # uint32 words pair up little-endian into uint64 words
    return np.ascontiguousarray((state[0::2] | (state[1::2] << 32)).T)


@dataclass
class _GeneratedState(ISeedSequence):
    """A seed sequence whose generate_state(4, uint64) is already known."""
    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64), "only (4, uint64) is known"
        return self.state


def make_streams(seed: int, n_clients: int) -> Streams:
    """The run's streams. The element streams equal those `SeedSequence.spawn`
    gives (see `Streams`), their seeds hashed for all clients in one vectorized pass."""
    root = np.random.SeedSequence(seed)
    data_ss, part_ss, _, noise_ss = root.spawn(4)
    element_generators = [
        np.random.Generator(np.random.PCG64(_GeneratedState(state)))
        for state in _spawned_states(int(seed), 2, n_clients)
    ]
    return Streams(
        data=np.random.Generator(np.random.PCG64(data_ss)),
        participation=np.random.Generator(np.random.PCG64(part_ss)),
        elements=element_generators,
        noise=np.random.Generator(np.random.PCG64(noise_ss)),
    )


def _mean(values: np.ndarray) -> np.floating:
    # np.mean's own two steps on a float64 vector, without its wrapper's cost
    return np.add.reduce(values) / values.size


def _clip_rows(rows: np.ndarray, C: float) -> np.ndarray:
    # np.linalg.norm's own formula for axis=1, without its wrapper's cost
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    scale = np.maximum(1.0, norms / C)
    return rows / scale[:, None]


def make_synthetic_datasets(
    config: SimConfig, task: Task, rng: np.random.Generator
) -> ClientData:
    """Seeded datasets for N clients of d elements, stacked, labelled through
    a planted parameter vector drawn first. Each client draws its features
    and then its label noise; its margins are its own matrix-vector product,
    since one product over the whole stack can differ from them in the last bit."""
    N, d, m = config.N, config.d, config.m
    w_star = rng.standard_normal(m) * (2.0 / math.sqrt(m))
    X = np.empty((N * d, m))
    margins = np.empty(N * d)
    draws = np.empty(N * d)
    # the linear task's label noise or the logistic task's label uniforms;
    # random(d) gives the values of uniform(size=d)
    draw = rng.standard_normal if task is Task.LINEAR_REGRESSION else rng.random
    for start in range(0, N * d, d):
        client = slice(start, start + d)
        rng.standard_normal(out=X[client])
        np.matmul(X[client], w_star, out=margins[client])
        draw(out=draws[client])
    if task is Task.LINEAR_REGRESSION:
        y = margins + 0.1 * draws
    else:
        # scipy's expit formula, 1 / (1 + e^-x); the margins are far from overflow
        y = np.where(draws < 1.0 / (1.0 + np.exp(-margins)), 1.0, -1.0)
    X.setflags(write=False)
    y.setflags(write=False)
    offsets = np.arange(0, N * d + 1, d)
    offsets.setflags(write=False)
    return ClientData(features=X, labels=y, offsets=offsets)


def task_loss(task: Task, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    margins = X @ w
    if task is Task.LINEAR_REGRESSION:
        r = margins - y
        return float(0.5 * _mean(r * r))
    # npy_logaddexp's log(1 + e^z), on vector exp and log1p, not its scalar loop
    z = -y * margins
    return float(_mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))))


def task_sample_grads(
    task: Task, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-sample gradients, one row per element of (X, y). The logistic
    factor -y expit(-y margin) is -y / (1 + e^(y margin)), scipy's expit
    formula: 0 where e^(y margin) overflows, which run_training ignores."""
    margins = X @ w
    if task is Task.LINEAR_REGRESSION:
        return (margins - y)[:, None] * X
    return (-y / (1.0 + np.exp(y * margins)))[:, None] * X


@dataclass(frozen=True)
class RoundBlock:
    """The draws of a block of rounds, read-only, over one ClientData.

    The flat arrays list the rounds in order: the client of each (round,
    participant) pair, and the stack row of each sampled element. Round r
    owns entries pair_at[r] to pair_at[r + 1] of participants and row_at[r]
    to row_at[r + 1] of rows; noise[r] is its standard normal noise row.
    """

    data: ClientData
    participants: np.ndarray
    rows: np.ndarray
    noise: np.ndarray
    pair_at: tuple[int, ...]
    row_at: tuple[int, ...]


@dataclass(frozen=True)
class RoundOutcome:
    """What round `index` of `block` released. The attributes that only
    inspection reads are built from the block on first read."""

    block: RoundBlock
    index: int
    noisy_estimate: np.ndarray

    @cached_property
    def participants(self) -> tuple[int, ...]:
        at = self.block.pair_at
        return tuple(self.block.participants[at[self.index]:at[self.index + 1]].tolist())

    @cached_property
    def sampled_elements(self) -> dict[int, tuple[int, ...]]:
        """Per participant, the indices of its sampled elements in its own data."""
        at, offsets = self.block.row_at, self.block.data.offsets
        rows = self.block.rows[at[self.index]:at[self.index + 1]]
        # a round's rows ascend, so its owners do; every owner is a participant
        owners = np.searchsorted(offsets, rows, side="right") - 1
        elements = (rows - offsets[owners]).tolist()
        cuts = [*np.searchsorted(owners, self.participants).tolist(), len(elements)]
        return {i: tuple(elements[a:b]) for i, a, b in zip(self.participants, cuts, cuts[1:])}


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start of each run of the given lengths, then the end of the last."""
    return np.concatenate([[0], np.cumsum(counts)])


def draw_rounds(
    config: SimConfig,
    data: ClientData,
    streams: Streams,
    rounds: int,
) -> RoundBlock:
    """The draws of the next `rounds` rounds, one call per stream.

    Participation takes one (rounds, N) block of coins and noise one
    (rounds, m) block; each client draws the masks of all the rounds it
    takes part in with one call. A PCG64 stream yields the same values
    however its draws are split into calls, so the draws and the final
    stream states equal those of `rounds` one-round calls.
    """
    coins = streams.participation.uniform(size=(rounds, config.N)) < config.p
    noise = streams.noise.standard_normal((rounds, config.m))
    sizes = data.sizes
    takes = np.count_nonzero(coins, axis=0)
    # a client's stream advances only in rounds it takes part in
    uniforms = [
        streams.elements[i].random(k * n)
        for i, (k, n) in enumerate(zip(takes.tolist(), sizes.tolist()))
        if k
    ]
    masks = np.concatenate([np.empty(0), *uniforms]) < config.q

    # (round, participant) pairs in round order. The k-th round a client
    # takes part in reads the k-th block of its masks; element e of pair j
    # sits at first[j] + e in the round-ordered elements.
    round_of, client = np.nonzero(coins)
    lengths = sizes[client]
    first = _offsets(lengths)
    taken_before = (np.cumsum(coins, axis=0) - 1)[round_of, client]
    mask_start = _offsets(takes * sizes)[client] + taken_before * lengths
    position = np.arange(first[-1])
    mask = masks[np.repeat(mask_start - first[:-1], lengths) + position]
    sampled = np.flatnonzero(mask)
    pair = np.searchsorted(first, sampled, side="right") - 1  # the last to start at or before
    rows = (data.offsets[client] - first[:-1])[pair] + sampled

    pair_at = _offsets(np.count_nonzero(coins, axis=1))
    row_at = np.searchsorted(sampled, first[pair_at])
    for array in (client, rows, noise):
        array.setflags(write=False)
    return RoundBlock(
        data=data,
        participants=client,
        rows=rows,
        noise=noise,
        pair_at=tuple(pair_at.tolist()),
        row_at=tuple(row_at.tolist()),
    )


def run_round(
    state: ModelState, config: SimConfig, block: RoundBlock, r: int, task: Task
) -> tuple[ModelState, RoundOutcome]:
    """Round r of the block at the config's sigma: its sampled rows are
    gathered, clipped and summed together, the noise is added and the
    step taken."""
    rows = block.rows[block.row_at[r]:block.row_at[r + 1]]
    X = block.data.features.take(rows, axis=0)
    y = block.data.labels.take(rows)
    clipped = _clip_rows(task_sample_grads(task, state.weights, X, y), config.C)
    total = clipped.sum(axis=0)

    scale = config.p * config.N * config.q * config.d
    estimate = (total + config.sigma * block.noise[r]) / scale
    new_weights = state.weights - config.eta * estimate
    return ModelState(weights=new_weights), RoundOutcome(block, r, estimate)


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    loss: float
    grad_norm: float
    participants: int
    sampled_elements: int


def run_training(config: SimConfig, task: Task) -> list[MetricsRow]:
    """Full training run at config.sigma, one metrics row per iteration."""
    streams = make_streams(config.seed, config.N)
    data = make_synthetic_datasets(config, task, streams.data)

    # a block of rounds holds at most about _DRAW_BLOCK mask and noise draws
    block_rounds = max(1, _DRAW_BLOCK // (data.labels.size + config.m))
    state = ModelState(weights=np.zeros(config.m))
    rows = []
    # Overflow to inf is legitimate in a round's step and loss: ModelState
    # and the loss check below turn it into a divergence error, not a warning.
    # In the logistic factor's e^(y margin) it is legitimate too: the factor
    # is then exactly 0, as scipy's expit gives.
    with np.errstate(over="ignore"):
        for start in range(0, config.T, block_rounds):
            rounds = min(block_rounds, config.T - start)
            block = draw_rounds(config, data, streams, rounds)
            for r in range(rounds):
                t = start + r
                try:
                    state, outcome = run_round(state, config, block, r, task)
                except TrainingDivergedError as exc:
                    raise TrainingDivergedError(f"weights diverged at iteration {t}") from exc
                loss = task_loss(task, state.weights, data.features, data.labels)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(f"loss diverged at iteration {t}")
                # grad_norm: np.linalg.norm's formula for a 1-d float vector, without its wrapper
                rows.append(
                    MetricsRow(
                        iteration=t,
                        loss=loss,
                        grad_norm=math.sqrt(outcome.noisy_estimate.dot(outcome.noisy_estimate)),
                        participants=block.pair_at[r + 1] - block.pair_at[r],
                        sampled_elements=block.row_at[r + 1] - block.row_at[r],
                    )
                )
    return rows
