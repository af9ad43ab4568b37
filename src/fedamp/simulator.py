"""Round-based simulation of private distributed SGD.

Each round: every available client joins with probability p, each
participant samples each of its local elements with probability q,
per-sample gradients are clipped to norm C and summed, the coordinator
adds centered Gaussian noise (std sigma per coordinate) and scales by
1/(p N_t q d) for unbiasedness, then takes a gradient step.

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
    availability < 1 makes the number of reachable clients N_t random.
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
    availability: float = 1.0

    def __post_init__(self) -> None:
        for name in ("N", "d", "T", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or int(value) != value or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        for name in ("p", "q", "availability"):
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
    available_count: int
    noisy_estimate: np.ndarray | None
    raw_sum: np.ndarray | None = None
    max_clipped_norm: float | None = None


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

    The noise stream never sees sampling decisions; each client owns a
    generator for its element masks, so one client's dataset growing by
    an element leaves every other client's draws untouched.
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


def with_extra_element(
    datasets: Sequence[ClientDataset],
    client: int,
    feature: np.ndarray,
    label: float,
) -> list[ClientDataset]:
    """Copy of the dataset list with one element appended to one client."""
    out = list(datasets)
    grown = ClientDataset(
        features=np.vstack([out[client].features, np.asarray(feature, float)]),
        labels=np.append(out[client].labels, float(label)),
    )
    out[client] = grown
    return out


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
    instrumented: bool = False,
) -> tuple[ModelState, RoundOutcome]:
    """One protocol round; always consumes the same stream layout.

    Availability, participation, per-client element masks, and the noise
    vector are drawn every round regardless of who participates, so a
    round's draws stay aligned under counterfactual changes elsewhere.
    N_t = 0 skips the update but still counts the iteration.
    """
    n = config.N
    avail_u = streams.participation.uniform(size=n)
    part_u = streams.participation.uniform(size=n)
    masks = [
        streams.elements[i].uniform(size=len(datasets[i])) < config.q
        for i in range(n)
    ]
    noise = streams.noise.standard_normal(config.m)

    available = avail_u < config.availability
    n_t = int(np.count_nonzero(available))
    participating = available & (part_u < config.p)
    participants = tuple(int(i) for i in np.nonzero(participating)[0])

    if n_t == 0:
        return (
            ModelState(weights=state.weights, iteration=state.iteration + 1),
            RoundOutcome(
                participants=(),
                sampled_elements={},
                available_count=0,
                noisy_estimate=None,
            ),
        )

    total = np.zeros(config.m)
    sampled: dict[int, tuple[int, ...]] = {}
    max_norm = 0.0
    for i in participants:
        mask = masks[i]
        sampled[i] = tuple(int(j) for j in np.nonzero(mask)[0])
        if not sampled[i]:
            continue
        ds = datasets[i]
        grads = task_sample_grads(
            task, state.weights, ds.features[mask], ds.labels[mask]
        )
        clipped = _clip_rows(grads, config.C)
        if instrumented:
            max_norm = max(max_norm, float(np.linalg.norm(clipped, axis=1).max()))
        total += clipped.sum(axis=0)

    sigma = config.sigma if config.sigma is not None else 0.0
    scale = config.p * n_t * config.q * config.d
    # overflow here is legitimate; ModelState turns it into a divergence error
    with np.errstate(over="ignore"):
        estimate = (total + sigma * noise) / scale
        new_weights = state.weights - config.eta * estimate
    new_state = ModelState(weights=new_weights, iteration=state.iteration + 1)
    outcome = RoundOutcome(
        participants=participants,
        sampled_elements=sampled,
        available_count=n_t,
        noisy_estimate=estimate,
        raw_sum=total.copy() if instrumented else None,
        max_clipped_norm=max_norm if instrumented else None,
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
        grad_norm = (
            float(np.linalg.norm(outcome.noisy_estimate))
            if outcome.noisy_estimate is not None
            else float("nan")
        )
        rows.append(
            MetricsRow(
                iteration=t,
                loss=loss,
                grad_norm=grad_norm,
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
