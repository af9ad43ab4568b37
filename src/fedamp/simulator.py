"""Round-based simulation of private distributed SGD.

Each round: every client joins with probability p, each participant
samples each of its local elements with probability q, the sampled
per-sample gradients of all participants are clipped to norm C and summed,
the coordinator adds centered Gaussian noise (std sigma per coordinate) and
scales by 1/(p N q d) for unbiasedness, then takes a gradient step.

Synthetic linear and logistic regression stand in for real workloads;
everything is driven by seeded generator streams so that runs are
bit-reproducible and the noise stream is independent of the sampling
streams by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, TextIO

import numpy as np
from scipy.special import expit

from .accountant import Scheme, calibrate_sigma
from .numerics import DomainError


class TrainingDivergedError(RuntimeError):
    """Loss or weights became non-finite during training."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class Task(Enum):
    LINEAR_REGRESSION = "linear_regression"
    LOGISTIC_REGRESSION = "logistic_regression"


@dataclass(frozen=True)
class SimConfig:
    """Protocol and task parameters for one training run.

    sigma None means "calibrate from the per-round privacy target".
    """

    N: int
    d: int
    p: float
    q: float
    C: float
    sigma: float | None
    T: int
    eta: float
    m: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("N", "d", "T", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or int(value) != value or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        for name in ("p", "q"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or not 0.0 < value <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1], got {value}")
        if not math.isfinite(self.C) or self.C <= 0.0:
            raise DomainError(f"C must be positive, got {self.C}")
        if self.sigma is not None and (
            not math.isfinite(self.sigma) or self.sigma < 0.0
        ):
            raise DomainError(f"sigma must be >= 0 or None, got {self.sigma}")
        if not math.isfinite(self.eta) or self.eta <= 0.0:
            raise DomainError(f"eta must be positive, got {self.eta}")


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
    sampled_elements: dict[int, tuple[int, ...]]
    noisy_estimate: np.ndarray
    raw_sum: np.ndarray
    max_clipped_norm: float


@dataclass(frozen=True)
class ModelState:
    weights: np.ndarray
    iteration: int

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.weights)):
            raise TrainingDivergedError(
                f"non-finite weights at iteration {self.iteration}", self.iteration
            )


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


def _clip_rows(rows: np.ndarray, C: float) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
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
            return float(0.5 * np.mean(r * r))
        return float(np.mean(np.logaddexp(0.0, -y * margins)))


def task_sample_grads(
    task: Task, w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-sample gradients, one row per element of (X, y)."""
    margins = X @ w
    if task is Task.LINEAR_REGRESSION:
        return (margins - y)[:, None] * X
    return (-y * expit(-y * margins))[:, None] * X


def run_round(
    state: ModelState,
    config: SimConfig,
    datasets: Sequence[ClientDataset],
    streams: Streams,
    task: Task,
) -> tuple[ModelState, RoundOutcome]:
    """One protocol round at the config's sigma, which must be set.

    Every round draws one participation coin per client and the noise
    vector. Only participants draw element masks, each from its own
    stream, so a client's stream advances only in rounds it takes part in.
    The sampled rows of all participants are clipped and summed together.
    """
    part_u = streams.participation.uniform(size=config.N)
    noise = streams.noise.standard_normal(config.m)
    participants = tuple(np.flatnonzero(part_u < config.p).tolist())

    sampled: dict[int, tuple[int, ...]] = {}
    # the empty leading blocks keep a round without participants well defined
    features = [np.empty((0, config.m))]
    labels = [np.empty(0)]
    for i in participants:
        ds = datasets[i]
        mask = streams.elements[i].uniform(size=len(ds)) < config.q
        sampled[i] = tuple(np.flatnonzero(mask).tolist())
        features.append(ds.features[mask])
        labels.append(ds.labels[mask])
    grads = task_sample_grads(
        task, state.weights, np.concatenate(features), np.concatenate(labels)
    )
    clipped = _clip_rows(grads, config.C)
    total = clipped.sum(axis=0)

    scale = config.p * config.N * config.q * config.d
    # overflow here is legitimate; ModelState turns it into a divergence error
    with np.errstate(over="ignore"):
        estimate = (total + config.sigma * noise) / scale
        new_weights = state.weights - config.eta * estimate
    new_state = ModelState(weights=new_weights, iteration=state.iteration + 1)
    outcome = RoundOutcome(
        participants=participants,
        sampled_elements=sampled,
        noisy_estimate=estimate,
        raw_sum=total,
        max_clipped_norm=float(np.linalg.norm(clipped, axis=1).max(initial=0.0)),
    )
    return new_state, outcome


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    loss: float
    grad_norm: float
    participants: int
    sampled_elements: int
    sigma: float
    eps_round: float | None
    delta_round: float | None


METRICS_HEADER = (
    "iteration",
    "loss",
    "grad_norm",
    "participants",
    "sampled_elements",
    "sigma",
    "eps_round",
    "delta_round",
)


def run_training(
    config: SimConfig,
    task: Task,
    eps_per_round: float | None = None,
    delta_per_round: float | None = None,
    calibration_scheme: Scheme = Scheme.MAIN,
) -> list[MetricsRow]:
    """Full training run returning one metrics row per iteration.

    sigma comes from the config when set; otherwise both per-round
    targets must be given and the noise is calibrated with the requested
    scheme. The certified (eps, delta) appear in every row only when the
    targets are known.
    """
    if config.sigma is None:
        if eps_per_round is None or delta_per_round is None:
            raise DomainError(
                "config.sigma is None: eps_per_round and delta_per_round required"
            )
        sigma = calibrate_sigma(
            calibration_scheme,
            p=config.p,
            q=config.q,
            d=config.d,
            C=config.C,
            eps_target=eps_per_round,
            delta_target=delta_per_round,
        )
    else:
        sigma = config.sigma
    effective = replace(config, sigma=sigma)
    streams = make_streams(config.seed, config.N)
    datasets, _ = make_synthetic_datasets(effective, task, streams.data)
    all_X = np.vstack([ds.features for ds in datasets])
    all_y = np.concatenate([ds.labels for ds in datasets])

    state = ModelState(weights=np.zeros(config.m), iteration=0)
    rows = []
    for t in range(config.T):
        try:
            state, outcome = run_round(state, effective, datasets, streams, task)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"weights diverged at iteration {t}", t
            ) from exc
        loss = task_loss(task, state.weights, all_X, all_y)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss diverged at iteration {t}", t)
        rows.append(
            MetricsRow(
                iteration=t,
                loss=loss,
                grad_norm=float(np.linalg.norm(outcome.noisy_estimate)),
                participants=len(outcome.participants),
                sampled_elements=sum(len(s) for s in outcome.sampled_elements.values()),
                sigma=sigma,
                eps_round=eps_per_round,
                delta_round=delta_per_round,
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # 17 significant digits: lossless for 64-bit floats.
    return "%.17g" % float(value)


def write_metrics_csv(rows: Sequence[MetricsRow], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.iteration,
                _fmt(row.loss),
                _fmt(row.grad_norm),
                row.participants,
                row.sampled_elements,
                _fmt(row.sigma),
                _fmt(row.eps_round),
                _fmt(row.delta_round),
            ]
        )
