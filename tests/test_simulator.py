import csv
import io
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import expit

from fedamp import simulator
from fedamp.accountant import Scheme, calibrate_sigma
from fedamp.cli import main
from fedamp.numerics import DomainError
from fedamp.simulator import (
    ClientData,
    MetricsRow,
    ModelState,
    SimConfig,
    Task,
    TrainingDivergedError,
    _clip_rows,
    draw_rounds,
    make_streams,
    make_synthetic_datasets,
    run_round,
    run_training,
    task_loss,
    task_sample_grads,
)


def config(**overrides) -> SimConfig:
    base = dict(
        N=20, d=5, p=0.5, q=0.5, C=1.0, sigma=1.0, T=10, eta=0.1, m=3, seed=0
    )
    base.update(overrides)
    return SimConfig(**base)


def simulate_rows(cfg: SimConfig, *flags: str) -> list[dict]:
    """Rows of `fedamp simulate` on cfg's protocol; cfg.sigma is passed as
    --sigma only when no --eps/--delta flags ask for calibration."""
    args = ["simulate", "--task", Task.LINEAR_REGRESSION.value]
    for name in ("N", "d", "p", "q", "C", "T", "eta", "m", "seed"):
        args += [f"--{name}", repr(getattr(cfg, name))]
    if not flags:
        args += ["--sigma", repr(cfg.sigma)]
    result = CliRunner().invoke(main, args + list(flags))
    assert result.exit_code == 0, result.output
    return list(csv.DictReader(io.StringIO(result.stdout)))


def fresh_world(cfg: SimConfig, task: Task = Task.LINEAR_REGRESSION):
    streams = make_streams(cfg.seed, cfg.N)
    return streams, make_synthetic_datasets(cfg, task, streams.data)


def client(data: ClientData, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Client i's features and labels."""
    rows = slice(data.offsets[i], data.offsets[i + 1])
    return data.features[rows], data.labels[rows]


def one_round(state, cfg, data, streams, task=Task.LINEAR_REGRESSION):
    """One protocol round on a one-round draw."""
    block = draw_rounds(cfg, data, streams, 1)
    return run_round(state, cfg, block, 0, task)


def gathered_clipped(state, cfg, outcome, task=Task.LINEAR_REGRESSION) -> np.ndarray:
    """The clipped per-sample gradients of the outcome's round at the state
    it started from, recomputed by `_clip_rows` on the rows its block gathers."""
    block, r = outcome.block, outcome.index
    rows = block.rows[block.row_at[r]:block.row_at[r + 1]]
    grads = task_sample_grads(task, state.weights, block.data.features[rows],
                              block.data.labels[rows])
    return _clip_rows(grads, cfg.C)


def released(cfg, outcome, total) -> np.ndarray:
    """The noisy estimate run_round releases from the clipped sum `total`."""
    scale = cfg.p * cfg.N * cfg.q * cfg.d
    return (total + cfg.sigma * outcome.block.noise[outcome.index]) / scale


def mask_draws(cfg, data, streams, rounds) -> list:
    """Per round, its participants and their concatenated element masks,
    drawn one round and one participant at a time."""
    draws = []
    for _ in range(rounds):
        coins = streams.participation.uniform(size=cfg.N) < cfg.p
        participants = tuple(np.flatnonzero(coins).tolist())
        streams.noise.standard_normal(cfg.m)
        masks = [streams.elements[i].uniform(size=data.sizes[i]) < cfg.q for i in participants]
        draws.append((participants, np.concatenate([np.empty(0, bool), *masks])))
    return draws


def stream_states(streams) -> list:
    return [g.bit_generator.state for g in
            (streams.data, streams.participation, streams.noise, *streams.elements)]


def with_extra_element(
    data: ClientData,
    i: int,
    feature: np.ndarray,
    label: float,
) -> ClientData:
    """Copy of the data with one element appended to client i."""
    end = data.offsets[i + 1]
    offsets = data.offsets.copy()
    offsets[i + 1:] += 1
    return ClientData(
        features=np.insert(data.features, end, np.asarray(feature, float), axis=0),
        labels=np.insert(data.labels, end, float(label)),
        offsets=offsets,
    )


def reference_datasets(config: SimConfig, task: Task, rng: np.random.Generator):
    """The per-client construction that `make_synthetic_datasets` replaced,
    kept as an independent reference: the planted vector, then one features
    array, one margin product and one label array per client."""
    w_star = rng.standard_normal(config.m) * (2.0 / math.sqrt(config.m))
    features, labels = [], []
    for _ in range(config.N):
        X = rng.standard_normal((config.d, config.m))
        margins = X @ w_star
        if task is Task.LINEAR_REGRESSION:
            y = margins + 0.1 * rng.standard_normal(config.d)
        else:
            y = np.where(rng.uniform(size=config.d) < expit(margins), 1.0, -1.0)
        features.append(X)
        labels.append(y)
    return features, labels


def reference_round(state, config, data, streams, task):
    """The per-participant round loop that `run_round` replaced, kept as an
    independent reference: one uniform draw, one index tuple and one boolean
    row selection per participant, and norms through `np.linalg.norm`."""
    part_u = streams.participation.uniform(size=config.N)
    noise = streams.noise.standard_normal(config.m)
    participants = tuple(np.flatnonzero(part_u < config.p).tolist())

    sampled = {}
    features = [np.empty((0, config.m))]
    labels = [np.empty(0)]
    for i in participants:
        X, y = client(data, i)
        mask = streams.elements[i].uniform(size=len(y)) < config.q
        sampled[i] = tuple(np.flatnonzero(mask).tolist())
        features.append(X[mask])
        labels.append(y[mask])
    grads = task_sample_grads(
        task, state.weights, np.concatenate(features), np.concatenate(labels)
    )
    norms = np.linalg.norm(grads, axis=1)
    clipped = grads / np.maximum(1.0, norms / config.C)[:, None]
    total = clipped.sum(axis=0)

    scale = config.p * config.N * config.q * config.d
    estimate = (total + config.sigma * noise) / scale
    new_weights = state.weights - config.eta * estimate
    return new_weights, participants, sampled, clipped, estimate


class TestClipGradient:
    """Per-sample gradient clipping, one gradient per row of `_clip_rows`."""

    def test_short_vector_unchanged(self):
        g = np.array([[0.3, -0.4]])
        np.testing.assert_array_equal(_clip_rows(g, 1.0), g)

    def test_long_vector_scaled_to_norm_c(self):
        g = np.array([[3.0, 4.0]])
        clipped = _clip_rows(g, 1.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(clipped, g / 5.0)

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            _clip_rows(np.zeros((1, 4)), 0.5), np.zeros((1, 4))
        )


class TestSimConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(N=0),
            dict(d=0),
            dict(T=0),
            dict(m=0),
            dict(p=0.0),
            dict(q=1.5),
            dict(C=-1.0),
            dict(sigma=-0.5),
            dict(eta=0.0),
            dict(sigma=None),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(DomainError):
            config(**overrides)

    @pytest.mark.parametrize("name", ["N", "d", "T", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sizes_rejected(self, name, value):
        with pytest.raises(DomainError):
            config(**{name: value})

    @pytest.mark.parametrize("name", ["C", "eta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_scale_message(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive, got"):
            config(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="^seed must be a non-negative integer, got"):
            config(seed=seed)

    def test_validated_values_stored_as_int_and_float(self):
        # counts given as floats, rates as strings and scales as ints or
        # numpy floats are stored as the int and float config, and train as it
        typed = config(T=4)
        loose = config(N=20.0, d=5.0, T=4.0, m=3.0, p="0.5", q="0.5", C=1, sigma=1,
                       eta=np.float64(0.1))
        for name in ("N", "d", "T", "m"):
            assert type(getattr(loose, name)) is int
        for name in ("p", "q", "C", "sigma", "eta"):
            assert type(getattr(loose, name)) is float
        assert loose == typed
        for task in Task:
            assert run_training(loose, task) == run_training(typed, task)

    def test_negative_seed_is_usage_error(self):
        result = CliRunner().invoke(main, [
            "simulate", "--task", "linear_regression", "--N", "3", "--d", "2", "--p", "1",
            "--q", "1", "--C", "1", "--T", "1", "--eta", "0.1", "--m", "2", "--seed", "-1",
            "--sigma", "0",
        ])
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert isinstance(result.exception, SystemExit)


class TestMakeStreams:
    """The element streams are derived in one pass for all clients, and
    equal those of `SeedSequence.spawn`, state for state."""

    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200]
    )
    def test_equals_seed_sequence_spawn(self, seed, n):
        streams = make_streams(seed, n)
        children = np.random.SeedSequence(seed).spawn(4)
        reference = [np.random.PCG64(child) for child in children[2].spawn(n)]
        assert len(streams.elements) == n
        for generator, bit_generator in zip(streams.elements, reference):
            assert generator.bit_generator.state == bit_generator.state
            expected = np.random.Generator(bit_generator).integers(0, 2**63, 64)
            assert generator.integers(0, 2**63, 64).tobytes() == expected.tobytes()
            assert generator.bit_generator.state == bit_generator.state
        for generator, child in zip(
            (streams.data, streams.participation, streams.noise), children[:2] + children[3:]
        ):
            assert generator.bit_generator.seed_seq.spawn_key == child.spawn_key
            assert generator.bit_generator.state == np.random.PCG64(child).state


class TestSyntheticData:
    def test_shapes_and_determinism(self):
        cfg = config(N=7, d=4, m=3)
        _, data = fresh_world(cfg)
        assert data.sizes.tolist() == [4] * 7
        assert data.features.shape == (28, 3)
        assert data.labels.shape == (28,)
        _, again = fresh_world(cfg)
        np.testing.assert_array_equal(client(data, 3)[0], client(again, 3)[0])
        np.testing.assert_array_equal(data.labels, again.labels)

    @pytest.mark.parametrize("task", list(Task))
    @pytest.mark.parametrize(
        "N, d, m", [(1, 1, 1), (6, 1, 4), (5, 7, 1), (12, 30, 20), (3, 200, 9)]
    )
    def test_matches_per_client_reference(self, task, N, d, m):
        cfg = config(N=N, d=d, m=m, seed=N + d + m)
        # the labels carry the planted vector through the margins
        streams, data = fresh_world(cfg, task)
        ref_rng = make_streams(cfg.seed, cfg.N).data
        features, labels = reference_datasets(cfg, task, ref_rng)
        for got, want in ((data.features, np.concatenate(features)),
                          (data.labels, np.concatenate(labels))):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert data.offsets.tolist() == list(range(0, N * d + 1, d))
        assert streams.data.bit_generator.state == ref_rng.bit_generator.state

    def test_logistic_labels_are_signs(self):
        cfg = config(N=5, d=6, m=3)
        _, data = fresh_world(cfg, Task.LOGISTIC_REGRESSION)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_arrays_are_read_only(self):
        _, data = fresh_world(config())
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 99.0
        with pytest.raises(ValueError):
            data.offsets[1] = 0

    def test_dataset_validation(self):
        with pytest.raises(DomainError):
            ClientData(features=np.zeros((3, 2)), labels=np.zeros(4), offsets=np.array([0, 4]))
        with pytest.raises(DomainError):
            ClientData(features=np.zeros(3), labels=np.zeros(3), offsets=np.array([0, 3]))
        for offsets in ([0, 2], [1, 3], [0, 2, 1, 3], [0.0, 3.0], [3], [[0, 3]]):
            with pytest.raises(DomainError, match="offsets"):
                ClientData(features=np.zeros((3, 2)), labels=np.zeros(3),
                           offsets=np.array(offsets))


class TestWithExtraElement:
    def test_appends_one_element(self):
        _, data = fresh_world(config(N=4, d=5, m=3))
        grown = with_extra_element(data, 2, np.ones(3), 1.0)
        X, y = client(grown, 2)
        assert len(y) == 6
        assert len(client(data, 2)[1]) == 5  # original untouched
        np.testing.assert_array_equal(X[-1], np.ones(3))
        assert y[-1] == 1.0

    def test_other_clients_share_objects(self):
        # the other clients keep their elements, byte for byte
        _, data = fresh_world(config(N=4))
        grown = with_extra_element(data, 1, np.zeros(3), -1.0)
        for i in (0, 2, 3):
            for got, want in zip(client(grown, i), client(data, i)):
                assert got.tobytes() == want.tobytes()


class TestTaskFunctions:
    def test_linear_per_sample_grads(self):
        w = np.array([1.0, -2.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        y = np.array([0.5, 0.5, 0.0])
        grads = task_sample_grads(Task.LINEAR_REGRESSION, w, X, y)
        np.testing.assert_allclose(grads, (X @ w - y)[:, None] * X)

    def test_logistic_grads_match_finite_differences(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4) * 0.5
        X = rng.standard_normal((6, 4))
        y = np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
        grads = task_sample_grads(Task.LOGISTIC_REGRESSION, w, X, y)
        mean_grad = grads.mean(axis=0)
        h = 1e-6
        for k in range(4):
            bump = w.copy()
            bump[k] += h
            numeric = (
                task_loss(Task.LOGISTIC_REGRESSION, bump, X, y)
                - task_loss(Task.LOGISTIC_REGRESSION, w, X, y)
            ) / h
            assert mean_grad[k] == pytest.approx(numeric, abs=1e-5)

    def test_logistic_loss_matches_logaddexp(self):
        # one element per call, so the mean is the element's own loss;
        # with X = [[1]] and y = [-1] the loss is log(1 + e^z) at margin z
        def loss_at(z):
            return task_loss(
                Task.LOGISTIC_REGRESSION,
                np.array([z]), np.ones((1, 1)), np.array([-1.0]),
            )

        rng = np.random.default_rng(21)
        margins = rng.standard_normal(2000) * 10.0 ** rng.uniform(-4.0, 3.0, 2000)
        for z in margins:
            expected = float(np.logaddexp(0.0, z))
            assert abs(loss_at(z) - expected) <= 4 * math.ulp(expected), z
        for z in (0.0, 745.0, -745.0, 1e4, -1e4, math.inf, -math.inf):
            assert loss_at(z) == float(np.logaddexp(0.0, z)), z
        assert math.isnan(loss_at(math.nan))

    def test_logistic_factor_is_scipys_expit_formula(self):
        # X = [m, 1] at w = [1, 0]: the margin is m and the second column of
        # a gradient row is the factor -y expit(-y m) itself
        rng = np.random.default_rng(8)
        margins = np.concatenate([
            rng.standard_normal(20000) * 10.0 ** rng.uniform(-3.0, 2.8, 20000),
            [800.0, -800.0, 709.9, -709.9, 1e300, -1e300, 0.0],
        ])
        y = np.where(rng.uniform(size=margins.size) < 0.5, 1.0, -1.0)
        X = np.column_stack([margins, np.ones_like(margins)])
        # run_training ignores overflow around every round; nothing else warns
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            factor = task_sample_grads(Task.LOGISTIC_REGRESSION, np.array([1.0, 0.0]), X, y)[:, 1]
            formula = -y * (1.0 / (1.0 + np.exp(-(-y * margins))))
        assert factor.tobytes() == formula.tobytes()
        # numpy's exp and the C library's, which scipy's expit calls, differ
        # by at most 1 ulp; 1 + e and the quotient can take that to 4
        np.testing.assert_array_max_ulp(factor, -y * expit(-y * margins), maxulp=4)
        far = np.abs(margins) > 709.8
        assert np.array_equal(factor[far], np.where(y * margins > 0, 0.0, -y)[far])

    def test_linear_loss(self):
        w = np.zeros(2)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, -2.0])
        assert task_loss(Task.LINEAR_REGRESSION, w, X, y) == pytest.approx(2.0)


class TestRunRound:
    def test_deterministic_across_stream_rebuilds(self):
        cfg = config()
        streams_a, data = fresh_world(cfg)
        streams_b = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
        state = ModelState(weights=np.zeros(cfg.m))
        _, out_a = one_round(state, cfg, data, streams_a)
        _, out_b = one_round(state, cfg, data, streams_b)
        assert out_a.participants == out_b.participants
        assert out_a.sampled_elements == out_b.sampled_elements
        np.testing.assert_array_equal(out_a.noisy_estimate, out_b.noisy_estimate)

    def test_full_participation_noiseless_mean(self):
        cfg = config(p=1.0, q=1.0, sigma=0.0, N=6, d=4, m=3)
        streams, data = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m))
        new_state, outcome = one_round(state, cfg, data, streams)
        manual = np.zeros(cfg.m)
        for i in range(cfg.N):
            grads = task_sample_grads(
                Task.LINEAR_REGRESSION, state.weights, *client(data, i)
            )
            norms = np.linalg.norm(grads, axis=1)
            manual += (grads / np.maximum(1.0, norms / cfg.C)[:, None]).sum(axis=0)
        manual /= 1.0 * cfg.N * 1.0 * cfg.d
        np.testing.assert_allclose(outcome.noisy_estimate, manual, rtol=1e-12)
        np.testing.assert_allclose(
            new_state.weights, -cfg.eta * manual, rtol=1e-12
        )

    def test_only_participants_draw_element_masks(self):
        cfg = config(N=4, p=0.25)
        streams, data = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m))
        empty_rounds = 0
        for _ in range(20):
            before = [g.bit_generator.state for g in streams.elements]
            start = state
            state, outcome = one_round(state, cfg, data, streams)
            for i, g in enumerate(streams.elements):
                advanced = g.bit_generator.state != before[i]
                assert advanced == (i in outcome.participants)
            clipped = gathered_clipped(start, cfg, outcome)
            total = clipped.sum(axis=0)
            assert total.shape == (cfg.m,)
            assert outcome.noisy_estimate.tobytes() == released(cfg, outcome, total).tobytes()
            max_norm = np.linalg.norm(clipped, axis=1).max(initial=0.0)
            assert 0.0 <= max_norm <= cfg.C + 1e-12
            if not outcome.participants:
                empty_rounds += 1
                np.testing.assert_array_equal(total, np.zeros(cfg.m))
                assert max_norm == 0.0
        assert 0 < empty_rounds < 20

    def test_clipping_invariant(self):
        cfg = config(C=0.3, T=1)
        streams, data = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m))
        for _ in range(25):
            start = state
            state, outcome = one_round(state, cfg, data, streams)
            clipped = gathered_clipped(start, cfg, outcome)
            released_total = released(cfg, outcome, clipped.sum(axis=0))
            assert outcome.noisy_estimate.tobytes() == released_total.tobytes()
            assert np.linalg.norm(clipped, axis=1).max(initial=0.0) <= cfg.C + 1e-12

    def test_coupling_between_neighboring_datasets(self):
        # growing client 0 leaves every other client's round draws untouched
        cfg = config(N=8, q=0.4)
        streams_a, data = fresh_world(cfg)
        streams_b = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
        grown = with_extra_element(data, 0, np.full(cfg.m, 0.1), 1.0)
        state = ModelState(weights=np.zeros(cfg.m))
        for _ in range(10):
            _, out_a = one_round(state, cfg, data, streams_a)
            _, out_b = one_round(state, cfg, grown, streams_b)
            assert out_a.participants == out_b.participants
            for i in out_a.participants:
                if i != 0:
                    assert out_a.sampled_elements[i] == out_b.sampled_elements[i]


class TestRoundReference:
    @pytest.mark.parametrize("task", list(Task))
    def test_matches_per_participant_loop(self, task):
        # ragged clients: three of them hold one or two extra elements
        cfg = config(N=12, d=6, p=0.5, q=0.4, C=0.5, sigma=0.7, eta=0.3, m=4, seed=5)
        streams, data = fresh_world(cfg, task)
        ref_streams = make_streams(cfg.seed, cfg.N)
        make_synthetic_datasets(cfg, task, ref_streams.data)
        rng = np.random.default_rng(8)
        for i in (0, 4, 4, 9):
            data = with_extra_element(
                data, i, rng.standard_normal(cfg.m), rng.choice([-1.0, 1.0])
            )
        state = ModelState(weights=np.zeros(cfg.m))
        ref_weights = state.weights
        for _ in range(60):
            ref = reference_round(ModelState(weights=ref_weights), cfg, data, ref_streams, task)
            start = state
            state, outcome = one_round(state, cfg, data, streams, task)
            ref_weights, participants, sampled, ref_clipped, estimate = ref
            assert outcome.participants == participants
            assert outcome.sampled_elements == sampled
            assert gathered_clipped(start, cfg, outcome, task).tobytes() == ref_clipped.tobytes()
            assert outcome.noisy_estimate.tobytes() == estimate.tobytes()
            assert state.weights.tobytes() == ref_weights.tobytes()
            assert stream_states(streams) == stream_states(ref_streams)
        assert set(data.sizes.tolist()) == {6, 7, 8}

    def test_attributes_built_on_read_equal_eager_values(self):
        # what run_training never reads is built from the block on first
        # read: each participant's sampled elements, placed at its own
        # rows of the stack, are the rows the round gathered
        cfg = config(N=12, d=6, p=0.3, q=0.4, C=0.5, m=4, seed=3)
        streams, data = fresh_world(cfg)
        data = with_extra_element(data, 4, np.ones(cfg.m), 1.0)
        rounds = 30
        block = draw_rounds(cfg, data, streams, rounds)
        state = ModelState(weights=np.full(cfg.m, 0.2))
        for r in range(rounds):
            _, outcome = run_round(state, cfg, block, r, Task.LINEAR_REGRESSION)
            rows = block.rows[block.row_at[r]:block.row_at[r + 1]]
            participants = outcome.participants
            sampled = outcome.sampled_elements
            assert tuple(sampled) == participants
            element_rows = [data.offsets[i] + e for i in participants for e in sampled[i]]
            assert element_rows == rows.tolist()
            assert outcome.participants is participants  # built once
            assert outcome.sampled_elements is sampled

    def test_metrics_count_matches_sampled_elements(self, monkeypatch):
        outcomes = []

        def recording_round(*args):
            new_state, outcome = run_round(*args)
            outcomes.append(outcome)
            return new_state, outcome

        monkeypatch.setattr(simulator, "run_round", recording_round)
        rows = run_training(config(T=30), Task.LOGISTIC_REGRESSION)
        assert len(outcomes) == 30
        for row, outcome in zip(rows, outcomes):
            assert row.sampled_elements == sum(
                len(s) for s in outcome.sampled_elements.values()
            )
            assert row.participants == len(outcome.sampled_elements)


class TestInspectionAttributes:
    """A round's participants and sampled elements, built from its block's
    rows, equal the mask-based construction they replaced: the round's flat
    element mask split by client size, one block per participant."""

    @staticmethod
    def mask_based(cfg, data, streams, rounds) -> list:
        expected = []
        for participants, mask in mask_draws(cfg, data, streams, rounds):
            sizes = data.sizes[list(participants)]
            blocks = np.split(mask, np.cumsum(sizes)[:-1])
            expected.append((participants, {
                i: tuple(np.flatnonzero(b).tolist()) for i, b in zip(participants, blocks)
            }))
        return expected

    def test_equal_mask_based_construction(self, monkeypatch):
        outcomes = []

        def recording_round(*args):
            new_state, outcome = run_round(*args)
            outcomes.append(outcome)
            return new_state, outcome

        monkeypatch.setattr(simulator, "run_round", recording_round)
        empty_rounds = empty_participants = 0
        for seed in range(30):
            # ragged clients, some of them empty, and rounds nobody joins
            rng = np.random.default_rng(seed)
            sizes = rng.integers(0, 6, size=12)
            sizes[seed % 12] = 0
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            data = ClientData(features=rng.standard_normal((offsets[-1], 3)),
                              labels=rng.standard_normal(offsets[-1]), offsets=offsets)
            cfg = config(N=12, p=0.15, q=0.5, T=40, m=3, seed=seed)
            expected = self.mask_based(cfg, data, make_streams(cfg.seed, cfg.N), cfg.T)

            # the rounds of run_training, whose rows count what it measured
            monkeypatch.setattr(simulator, "make_synthetic_datasets", lambda *args: data)
            outcomes.clear()
            rows = run_training(cfg, Task.LINEAR_REGRESSION)
            for row, outcome, (participants, sampled) in zip(rows, outcomes, expected, strict=True):
                assert outcome.participants == participants
                assert outcome.sampled_elements == sampled
                assert row.participants == len(sampled)
                assert row.sampled_elements == sum(len(s) for s in sampled.values())

            # blocks of other lengths over the same draws
            streams = make_streams(cfg.seed, cfg.N)
            state = ModelState(weights=np.zeros(cfg.m))
            got = []
            for rounds in (1, 7, 32):
                block = draw_rounds(cfg, data, streams, rounds)
                for r in range(rounds):
                    _, outcome = run_round(state, cfg, block, r, Task.LINEAR_REGRESSION)
                    got.append((outcome.participants, outcome.sampled_elements))
            assert got == expected

            empty_rounds += sum(not participants for participants, _ in expected)
            empty_participants += sum(
                sizes[i] == 0 for participants, _ in expected for i in participants
            )
        assert empty_rounds > 0 and empty_participants > 0


class TestDrawRounds:
    """Each round of an R-round block equals a one-round block, array for
    array, and the block leaves every stream in the state R one-round
    blocks leave."""

    @pytest.mark.parametrize(
        "overrides, rounds, kind",
        [
            (dict(N=12, d=6, p=0.5, q=0.4, m=4, seed=5), 40, "ragged"),
            (dict(N=3, d=4, p=0.1, q=0.5, seed=1), 30, "empty rounds"),
            (dict(N=5, d=4, p=1.0, q=1.0, seed=2), 7, "p = q = 1"),
        ],
    )
    def test_block_equals_one_round_draws(self, overrides, rounds, kind):
        cfg = config(**overrides)
        streams, data = fresh_world(cfg)
        one_streams, _ = fresh_world(cfg)
        rng = np.random.default_rng(8)
        for i in (0, 1, 1):
            data = with_extra_element(
                data, i, rng.standard_normal(cfg.m), rng.choice([-1.0, 1.0])
            )
        block = draw_rounds(cfg, data, streams, rounds)
        singles = [draw_rounds(cfg, data, one_streams, 1) for _ in range(rounds)]
        assert block.noise.shape == (rounds, cfg.m)
        assert not block.noise.flags.writeable
        per_round = (("participants", "pair_at"), ("rows", "row_at"))
        for r, single in enumerate(singles):
            assert block.data is single.data is data
            assert block.noise[r].tobytes() == single.noise[0].tobytes()
            for name, at in per_round:
                lo, hi = getattr(block, at)[r:r + 2]
                x, y = getattr(block, name)[lo:hi], getattr(single, name)
                assert getattr(single, at) == (0, len(y)), name
                assert (x.dtype, x.shape) == (y.dtype, y.shape), name
                assert x.tobytes() == y.tobytes(), name
                assert not (x.flags.writeable or y.flags.writeable), name
        assert stream_states(streams) == stream_states(one_streams)

        assert set(data.sizes.tolist()) == {cfg.d, cfg.d + 1, cfg.d + 2}
        pairs = np.diff(block.pair_at)
        if kind == "empty rounds":
            assert (pairs == 0).any() and (pairs > 0).any()
        if kind == "p = q = 1":
            assert (pairs == cfg.N).all()
            assert (np.diff(block.row_at) == data.labels.size).all()
            assert block.rows.tobytes() == np.tile(np.arange(data.labels.size), rounds).tobytes()

    def test_rows_with_empty_clients_equal_repeat_formula(self):
        sizes = np.array([3, 0, 5, 0, 0, 2, 4, 0, 1, 0, 0])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rng = np.random.default_rng(3)
        data = ClientData(features=rng.standard_normal((offsets[-1], 3)),
                          labels=rng.standard_normal(offsets[-1]), offsets=offsets)
        cfg = config(N=sizes.size, p=0.7, q=0.6)
        block = draw_rounds(cfg, data, make_streams(cfg.seed, cfg.N), 25)
        draws = mask_draws(cfg, data, make_streams(cfg.seed, cfg.N), 25)
        participants = np.array([i for pairs, _ in draws for i in pairs], dtype=int)
        assert block.participants.tolist() == participants.tolist()
        # the element-length repeat that draw_rounds replaced
        client_sizes = data.sizes[participants]
        first = np.concatenate([[0], np.cumsum(client_sizes)])
        sampled = np.flatnonzero(np.concatenate([mask for _, mask in draws]))
        expected = np.repeat(
            data.offsets[participants] - first[:-1], client_sizes
        )[sampled] + sampled
        assert block.rows.tobytes() == expected.tobytes()
        assert (client_sizes == 0).any() and block.rows.size > 0

    @pytest.mark.parametrize("task", list(Task))
    def test_run_training_blocks_equal_one_round_loop(self, task, monkeypatch):
        # 100 clients of 1000 elements: blocks of 2, 2 and 1 rounds
        cfg = config(N=100, d=1000, p=0.1, q=0.1, T=5, seed=4)
        blocks = []

        def recording_draw(config, data, streams, rounds):
            blocks.append(rounds)
            return draw_rounds(config, data, streams, rounds)

        monkeypatch.setattr(simulator, "draw_rounds", recording_draw)
        rows = run_training(cfg, task)
        assert blocks == [2, 2, 1]

        streams, data = fresh_world(cfg, task)
        state = ModelState(weights=np.zeros(cfg.m))
        expected = []
        for t in range(cfg.T):
            state, outcome = one_round(state, cfg, data, streams, task)
            expected.append(MetricsRow(
                iteration=t,
                loss=task_loss(task, state.weights, data.features, data.labels),
                grad_norm=float(np.linalg.norm(outcome.noisy_estimate)),
                participants=len(outcome.participants),
                sampled_elements=sum(len(s) for s in outcome.sampled_elements.values()),
            ))
        assert rows == expected


class TestRoundStatistics:
    def test_means_and_noise_independence(self):
        cfg = config(N=30, d=5, p=0.3, q=0.4, sigma=1.0, m=3)
        streams, data = fresh_world(cfg)
        state = ModelState(weights=np.zeros(cfg.m))
        rounds, block_rounds = 10_000, 1_000
        participant_counts = np.empty(rounds)
        element_counts = np.empty(rounds)
        noise_first = np.empty(rounds)
        scale = cfg.p * cfg.N * cfg.q * cfg.d
        for start in range(0, rounds, block_rounds):
            block = draw_rounds(cfg, data, streams, block_rounds)
            for r in range(block_rounds):
                t = start + r
                _, outcome = run_round(state, cfg, block, r, Task.LINEAR_REGRESSION)
                participant_counts[t] = len(outcome.participants)
                element_counts[t] = sum(
                    len(s) for s in outcome.sampled_elements.values()
                )
                total = gathered_clipped(state, cfg, outcome).sum(axis=0)
                noise_first[t] = (
                    outcome.noisy_estimate[0] * scale - total[0]
                ) / cfg.sigma

        se_participants = math.sqrt(cfg.N * cfg.p * (1.0 - cfg.p) / rounds)
        assert participant_counts.mean() == pytest.approx(
            cfg.N * cfg.p, abs=3.0 * se_participants
        )

        per_client_var = cfg.p * (
            cfg.d * cfg.q * (1.0 - cfg.q)
            + (1.0 - cfg.p) * (cfg.q * cfg.d) ** 2
        )
        se_elements = math.sqrt(cfg.N * per_client_var / rounds)
        assert element_counts.mean() == pytest.approx(
            cfg.N * cfg.p * cfg.q * cfg.d, abs=3.0 * se_elements
        )

        # the noise stream never sees sampling decisions
        r = np.corrcoef(noise_first, participant_counts)[0, 1]
        assert abs(r) < 0.05


class TestSensitivity:
    def test_summed_update_moves_at_most_c(self):
        # one round per seed: the grown client consumes one extra mask draw,
        # so its stream only stays aligned with the base world within a round
        for seed in range(20):
            cfg = config(N=6, d=5, q=0.5, C=0.7, sigma=1.0, m=3, seed=seed)
            streams_a, data = fresh_world(cfg)
            streams_b = make_streams(cfg.seed, cfg.N)
            make_synthetic_datasets(cfg, Task.LINEAR_REGRESSION, streams_b.data)
            grown = with_extra_element(data, 0, np.full(cfg.m, 2.0), -3.0)
            rng = np.random.default_rng(seed)
            state = ModelState(weights=rng.standard_normal(cfg.m))
            _, out_a = one_round(state, cfg, data, streams_a)
            _, out_b = one_round(state, cfg, grown, streams_b)
            sum_a, sum_b = (gathered_clipped(state, cfg, out).sum(axis=0) for out in (out_a, out_b))
            for out, total in ((out_a, sum_a), (out_b, sum_b)):
                assert out.noisy_estimate.tobytes() == released(cfg, out, total).tobytes()
            shift = float(np.linalg.norm(sum_b - sum_a))
            assert shift <= cfg.C + 1e-12


class TestRunTraining:
    def test_deterministic(self):
        cfg = config(T=8)
        a = run_training(cfg, Task.LINEAR_REGRESSION)
        b = run_training(cfg, Task.LINEAR_REGRESSION)
        assert [r.loss for r in a] == [r.loss for r in b]
        c = run_training(config(T=8, seed=1), Task.LINEAR_REGRESSION)
        assert [r.loss for r in a] != [r.loss for r in c]

    def test_noiseless_full_batch_descends(self):
        cfg = config(p=1.0, q=1.0, sigma=0.0, T=50, eta=0.5, N=10, d=8, m=4)
        rows = run_training(cfg, Task.LINEAR_REGRESSION)
        losses = [r.loss for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0] * 0.5

    def test_metrics_rows_without_targets(self):
        # a row holds what the round measured; sigma and any privacy
        # target belong to whoever chose the sigma
        rows = run_training(config(T=5, sigma=0.8), Task.LINEAR_REGRESSION)
        assert [r.iteration for r in rows] == list(range(5))
        assert [f.name for f in fields(MetricsRow)] == [
            "iteration", "loss", "grad_norm", "participants", "sampled_elements",
        ]

    def test_calibrated_mode_records_targets(self):
        # calibration lives in `fedamp simulate`: its calibrated run is
        # run_training at calibrate_sigma's sigma, with the targets in each row
        cfg = config(T=3, p=0.5, q=0.5, d=8)
        rows = simulate_rows(cfg, "--eps", "0.5", "--delta", "1e-5", "--scheme", "ub")
        expected = calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        trained = run_training(config(T=3, p=0.5, q=0.5, d=8, sigma=expected),
                               Task.LINEAR_REGRESSION)
        assert [float(r["loss"]) for r in rows] == [r.loss for r in trained]
        assert all(float(r["sigma"]) == expected for r in rows)
        assert all(float(r["eps_round"]) == 0.5 and float(r["delta_round"]) == 1e-5
                   for r in rows)

    def test_default_scheme_is_certified(self):
        # with no scheme named, calibration uses ub, which is a certificate;
        # main calibrates less noise and is marked uncertified
        cfg = config(T=2, p=0.5, q=0.5, d=8)
        targets = ("--eps", "0.5", "--delta", "1e-5")
        default = simulate_rows(cfg, *targets)
        main_rows = simulate_rows(cfg, *targets, "--scheme", "main")
        expected = calibrate_sigma(
            Scheme.UPPER_BOUND, p=0.5, q=0.5, d=8, C=1.0,
            eps_target=0.5, delta_target=1e-5,
        )
        assert all(float(r["sigma"]) == expected and r["certified"] == "true"
                   for r in default)
        assert all(r["certified"] == "false" for r in main_rows)
        fixed = simulate_rows(config(T=2, sigma=0.8))
        assert all(r["certified"] == "" for r in fixed)

    @pytest.mark.parametrize(
        "targets",
        [
            dict(eps_per_round=0.5, delta_per_round=1e-9),
            dict(eps_per_round=0.5),
            dict(delta_per_round=1e-9),
        ],
    )
    def test_sigma_with_targets_rejected(self, targets):
        # a set sigma was not calibrated to the targets, so they must not
        # appear in the rows as if certified: the trainer takes none
        with pytest.raises(TypeError):
            run_training(config(sigma=0.01), Task.LINEAR_REGRESSION, **targets)

    def test_sigma_none_without_targets_rejected(self):
        with pytest.raises(DomainError):
            run_training(config(sigma=None), Task.LINEAR_REGRESSION)

    def test_peak_memory_does_not_grow_with_m(self):
        # p = q = 1 samples every element of every round. A block keeps the
        # sampled rows' stack indices, not their features, so its memory
        # does not scale with the model dimension m.
        peaks = {}
        for m in (8, 64):
            cfg = config(N=20, d=50, p=1.0, q=1.0, T=200, m=m)
            tracemalloc.start()
            try:
                run_training(cfg, Task.LINEAR_REGRESSION)
                peaks[m] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        assert peaks[64] < 16.0, peaks
        assert peaks[64] - peaks[8] < 4.0, peaks

    def test_loss_divergence_is_reported(self):
        # clipping bounds each update, so the squared residual is what
        # overflows first at an absurd step size
        cfg = config(T=5, eta=1e160, sigma=0.0, p=1.0, q=1.0)
        with pytest.raises(TrainingDivergedError, match="loss diverged"):
            run_training(cfg, Task.LINEAR_REGRESSION)

    def test_weight_divergence_is_reported(self):
        cfg = config(T=5, sigma=1e308, eta=1e10)
        with pytest.raises(TrainingDivergedError, match="weights diverged"):
            run_training(cfg, Task.LINEAR_REGRESSION)
