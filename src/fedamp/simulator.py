"""Round-based simulation of private distributed SGD.

Each round: every client joins with probability p, each participant
samples each of its local elements with probability q, the sampled
per-sample gradients of all participants are clipped to norm C and summed,
the coordinator adds centered Gaussian noise (std sigma per coordinate) and
scales by 1/(p N q d) for unbiasedness, then takes a gradient step.

The random draws of a block of rounds are made together, one call per
stream: all the participation coins, all the noise, and per client the
masks of every round it takes part in; one gather then picks the sampled
rows of all those rounds. A PCG64 stream gives the same values however its
draws are split into calls, so a block's draws, and the stream states it
leaves, are those of drawing one round at a time. A round then only takes
the gradient step on its draws.

Synthetic linear and logistic regression stand in for real workloads;
everything is driven by seeded generator streams so that runs are
bit-reproducible and the noise stream is independent of the sampling
streams by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import expit

from .numerics import DomainError


# mask draws per block of rounds in run_training: bounds its memory, not its results
_DRAW_BLOCK = 1 << 18


class TrainingDivergedError(RuntimeError):
    """Loss or weights became non-finite during training."""


class Task(Enum):
    LINEAR_REGRESSION = "linear_regression"
    LOGISTIC_REGRESSION = "logistic_regression"


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
        for name in ("N", "d", "T", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 1 <= value < math.inf or int(value) != value:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        for name in ("p", "q"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or not 0.0 < value <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1], got {value}")
        if not math.isfinite(self.C) or self.C <= 0.0:
            raise DomainError(f"C must be finite and positive, got {self.C}")
        if self.sigma is None or not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not math.isfinite(self.eta) or self.eta <= 0.0:
            raise DomainError(f"eta must be finite and positive, got {self.eta}")


@dataclass(frozen=True)
class ClientDataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise DomainError("features must be 2-d and labels 1-d")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DomainError("features and labels disagree on sample count")

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class RoundOutcome:
    participants: tuple[int, ...]
    element_mask: np.ndarray
    client_sizes: tuple[int, ...]
    noisy_estimate: np.ndarray
    raw_sum: np.ndarray
    max_clipped_norm: float

    @cached_property
    def sampled_elements(self) -> dict[int, tuple[int, ...]]:
        blocks = np.split(self.element_mask, np.cumsum(self.client_sizes)[:-1])
        return {i: tuple(np.flatnonzero(b).tolist()) for i, b in zip(self.participants, blocks)}


@dataclass(frozen=True)
class ModelState:
    weights: np.ndarray
    iteration: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.weights).all():
            raise TrainingDivergedError(f"non-finite weights at iteration {self.iteration}")


@dataclass
class Streams:
    """Independent generator streams split from one master seed.

    The noise stream never sees sampling decisions. Participation draws
    one coin per client per round and does not depend on the data. Each
    client owns a generator for its element masks, drawn from only in the
    rounds it takes part in, so one client's dataset growing by an element
    leaves every other client's draws untouched in every round.
    """

    data: np.random.Generator
    participation: np.random.Generator
    elements: list[np.random.Generator]
    noise: np.random.Generator


def make_streams(seed: int, n_clients: int) -> Streams:
    root = np.random.SeedSequence(seed)
    data_ss, part_ss, elem_ss, noise_ss = root.spawn(4)
    element_generators = [
        np.random.Generator(np.random.PCG64(child))
        for child in elem_ss.spawn(n_clients)
    ]
    return Streams(
        data=np.random.Generator(np.random.PCG64(data_ss)),
        participation=np.random.Generator(np.random.PCG64(part_ss)),
        elements=element_generators,
        noise=np.random.Generator(np.random.PCG64(noise_ss)),
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own formula for axis=1, without its wrapper's cost
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _mean(values: np.ndarray) -> np.floating:
    # np.mean's own two steps on a float64 vector, without its wrapper's cost
    return np.add.reduce(values) / values.size


def _clip_rows(rows: np.ndarray, C: float) -> np.ndarray:
    norms = _row_norms(rows)
    scale = np.maximum(1.0, norms / C)
    return rows / scale[:, None]


def make_synthetic_datasets(
    config: SimConfig, task: Task, rng: np.random.Generator
) -> tuple[list[ClientDataset], np.ndarray]:
    """Seeded datasets for N clients plus the planted parameter vector."""
    w_star = rng.standard_normal(config.m) * (2.0 / math.sqrt(config.m))
    datasets = []
    for _ in range(config.N):
        X = rng.standard_normal((config.d, config.m))
        margins = X @ w_star
        if task is Task.LINEAR_REGRESSION:
            y = margins + 0.1 * rng.standard_normal(config.d)
        else:
            y = np.where(rng.uniform(size=config.d) < expit(margins), 1.0, -1.0)
        X.setflags(write=False)
        y.setflags(write=False)
        datasets.append(ClientDataset(features=X, labels=y))
    return datasets, w_star


def task_loss(task: Task, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    # Overflow to inf is legitimate here; run_training turns it into a
    # divergence error rather than a warning.
    with np.errstate(over="ignore"):
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
    """Per-sample gradients, one row per element of (X, y)."""
    margins = X @ w
    if task is Task.LINEAR_REGRESSION:
        return (margins - y)[:, None] * X
    return (-y * expit(-y * margins))[:, None] * X


@dataclass(frozen=True)
class RoundDraw:
    """One round's random draws, read-only: the participants, each one's
    size and element mask (joined into one flat mask), the sampled rows of
    all participants in that order, and the standard normal noise row."""

    participants: tuple[int, ...]
    client_sizes: tuple[int, ...]
    element_mask: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    noise: np.ndarray


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start of each run of the given lengths, then the end of the last."""
    return np.concatenate([[0], np.cumsum(counts)])


def draw_rounds(
    config: SimConfig,
    datasets: Sequence[ClientDataset],
    streams: Streams,
    rounds: int,
) -> list[RoundDraw]:
    """The draws of the next `rounds` rounds, one call per stream.

    Participation takes one (rounds, N) block of coins and noise one
    (rounds, m) block; each client draws the masks of all the rounds it
    takes part in with one call, and one fancy index gathers the sampled
    rows in (round, participant, element) order. A PCG64 stream yields the
    same values however its draws are split into calls, so the draws and
    the final stream states equal those of `rounds` one-round calls.
    """
    coins = streams.participation.uniform(size=(rounds, config.N)) < config.p
    noise = streams.noise.standard_normal((rounds, config.m))
    sizes = np.array([len(ds) for ds in datasets])
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
    rows = np.repeat(_offsets(sizes)[client] - first[:-1], lengths)[sampled] + sampled
    features = np.concatenate([ds.features for ds in datasets])[rows]
    labels = np.concatenate([ds.labels for ds in datasets])[rows]
    for block in (noise, mask, features, labels):
        block.setflags(write=False)

    pair_at = _offsets(np.count_nonzero(coins, axis=1))
    element_at = first[pair_at]
    sampled_at = np.searchsorted(sampled, element_at).tolist()
    pair_at, element_at = pair_at.tolist(), element_at.tolist()
    clients, client_sizes = client.tolist(), lengths.tolist()
    return [
        RoundDraw(
            participants=tuple(clients[pair_at[r]:pair_at[r + 1]]),
            client_sizes=tuple(client_sizes[pair_at[r]:pair_at[r + 1]]),
            element_mask=mask[element_at[r]:element_at[r + 1]],
            features=features[sampled_at[r]:sampled_at[r + 1]],
            labels=labels[sampled_at[r]:sampled_at[r + 1]],
            noise=noise[r],
        )
        for r in range(rounds)
    ]


def run_round(
    state: ModelState, config: SimConfig, draw: RoundDraw, task: Task
) -> tuple[ModelState, RoundOutcome]:
    """One protocol round at the config's sigma on the given draws: the
    sampled rows are clipped and summed together, the noise is added and
    the step taken."""
    grads = task_sample_grads(task, state.weights, draw.features, draw.labels)
    clipped = _clip_rows(grads, config.C)
    total = clipped.sum(axis=0)

    scale = config.p * config.N * config.q * config.d
    # overflow here is legitimate; ModelState turns it into a divergence error
    with np.errstate(over="ignore"):
        estimate = (total + config.sigma * draw.noise) / scale
        new_weights = state.weights - config.eta * estimate
    new_state = ModelState(weights=new_weights, iteration=state.iteration + 1)
    outcome = RoundOutcome(
        participants=draw.participants,
        element_mask=draw.element_mask,
        client_sizes=draw.client_sizes,
        noisy_estimate=estimate,
        raw_sum=total,
        max_clipped_norm=float(_row_norms(clipped).max(initial=0.0)),
    )
    return new_state, outcome


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
    datasets, _ = make_synthetic_datasets(config, task, streams.data)
    all_X = np.vstack([ds.features for ds in datasets])
    all_y = np.concatenate([ds.labels for ds in datasets])

    # a block of rounds holds at most about _DRAW_BLOCK mask draws
    block = max(1, _DRAW_BLOCK // all_y.size)
    state = ModelState(weights=np.zeros(config.m), iteration=0)
    rows = []
    for start in range(0, config.T, block):
        draws = draw_rounds(config, datasets, streams, min(block, config.T - start))
        for t, draw in enumerate(draws, start):
            try:
                state, outcome = run_round(state, config, draw, task)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"weights diverged at iteration {t}") from exc
            loss = task_loss(task, state.weights, all_X, all_y)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"loss diverged at iteration {t}")
            rows.append(
                MetricsRow(
                    iteration=t,
                    loss=loss,
                    grad_norm=float(np.linalg.norm(outcome.noisy_estimate)),
                    participants=len(outcome.participants),
                    sampled_elements=len(draw.labels),
                )
            )
    return rows
