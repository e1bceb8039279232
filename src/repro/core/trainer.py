"""Training loop for LightLT (Algorithm 1, lines 2-6).

One :class:`Trainer` owns a model, its criterion (which carries the class
prototypes), an AdamW optimiser over both, and a learning-rate schedule —
cosine annealing for the image profiles, linear-with-warmup for text, as in
§V-A4. :func:`evaluate_map` implements the retrieval evaluation protocol:
index the database with the model's codes, rank it for each query with ADC
lookups, and score MAP.

The loop itself is factored into a :class:`TrainingSession` — the mutable
state of one fit — so the fault-tolerant runtime can drive it epoch by
epoch: ``run_epoch`` advances one epoch (skipping any step whose loss or
gradient norm is non-finite), ``capture``/``restore`` round-trip the entire
session through :mod:`repro.resilience.checkpoint` bit-exactly, and
``Trainer.fit(checkpoint_dir=..., resume=True)`` continues an interrupted
run from the newest valid checkpoint.

The loop is instrumented through :mod:`repro.obs` (off by default): with
observability enabled, every epoch runs inside a ``train.epoch`` span and
emits per-step wall time, total loss, and pre-clip gradient norm
histograms, per-epoch loss-component gauges, and attempted/skipped step
counters — see ``docs/metrics.md`` for the catalogue. Disabled, the only
cost is one flag check per step; the recorded :class:`TrainingHistory` is
identical either way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.losses import LightLTCriterion, LossConfig
from repro.core.model import LightLT, LightLTConfig
from repro.core.warmstart import warm_start_codebooks
from repro.data.datasets import RetrievalDataset
from repro.data.loader import DataLoader
from repro.data.longtail import class_counts
from repro.nn import AdamW, ConstantLR, CosineAnnealingLR, LinearWarmupLR, Module, Tensor
from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.errors import IncompatibleStateError
from repro.retrieval.metrics import mean_average_precision
from repro.rng import make_rng, spawn

SCHEDULES = ("cosine", "linear_warmup", "constant")

SESSION_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 2e-3
    weight_decay: float = 1e-2
    schedule: str = "cosine"
    warmup_fraction: float = 0.1
    max_grad_norm: float | None = 5.0
    warm_start: bool = True  # residual k-means codebook initialisation
    # The paper fine-tunes its pre-trained backbone at LR 5e-5 while the
    # quantization module adapts far faster; this scale reproduces that
    # two-speed optimisation (backbone LR = learning_rate × scale).
    backbone_lr_scale: float = 0.3
    # Compatibility spelling: training always runs the single-node kernels
    # (docs/architecture.md, "The training path"); ``True`` is the only
    # value that means it.
    fused: bool = True

    def __post_init__(self) -> None:
        if self.fused is not True:
            raise ValueError(
                "TrainingConfig.fused is a compatibility spelling: training always "
                f"runs the single-node kernels, so it only accepts True (got {self.fused!r})"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch mean loss terms recorded during a fit.

    ``events`` records runtime interventions — guard rollbacks, learning
    rate backoffs, skipped steps — so a training run's failure/recovery
    story is inspectable after the fact and survives checkpointing.
    """

    epochs: list[dict[str, float]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def last(self) -> dict[str, float]:
        if not self.epochs:
            raise RuntimeError("history is empty; call fit first")
        return self.epochs[-1]

    def series(self, key: str) -> list[float]:
        return [epoch[key] for epoch in self.epochs if key in epoch]


@dataclass
class TrainerHooks:
    """Optional instrumentation points in the epoch loop.

    ``transform_loss(epoch, step, value)`` may replace the scalar loss seen
    by the non-finite guard — the fault-injection harness uses it to poison
    chosen steps. ``after_epoch(epoch, session)`` runs after an epoch's
    checkpoint is written; raising from it simulates a crash between
    epochs.
    """

    transform_loss: Callable[[int, int, float], float] | None = None
    after_epoch: Callable[[int, "TrainingSession"], None] | None = None


@dataclass
class EpochReport:
    """What :meth:`TrainingSession.run_epoch` observed in one epoch."""

    terms: dict[str, float]
    skipped_steps: int
    grad_norm_max: float

    @property
    def healthy(self) -> bool:
        """True when every step updated and every recorded term is finite."""
        return self.skipped_steps == 0 and all(
            math.isfinite(v) for v in self.terms.values()
        )


def clip_gradients(params, max_norm: float, flat_grad: np.ndarray | None = None) -> float:
    """Scale gradients so their global ℓ2 norm is at most ``max_norm``.

    A non-finite global norm (a NaN or Inf anywhere in the gradients) would
    propagate a NaN scale into *every* gradient; instead the step is zeroed
    — all gradients set to 0 so a subsequent optimiser step is harmless —
    and the non-finite norm is returned so the caller can surface the event.

    ``flat_grad`` (the AdamW gradient arena, of which every ``param.grad``
    is a view) lets both the norm and the scale run as one
    whole-arena op instead of a per-parameter loop; the result differs from
    the loop only in floating-point summation order.
    """
    if flat_grad is not None:
        norm = float(np.sqrt(float((flat_grad * flat_grad).sum())))
        if not math.isfinite(norm):
            flat_grad[...] = 0.0
            return norm
        if norm > max_norm > 0:
            flat_grad *= max_norm / norm
        return norm
    total_sq = 0.0
    for param in params:
        if param.grad is not None:
            total_sq += float((param.grad**2).sum())
    norm = float(np.sqrt(total_sq))
    if not math.isfinite(norm):
        for param in params:
            if param.grad is not None:
                param.grad[...] = 0.0
        return norm
    if norm > max_norm > 0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


def _module_rng_states(module: Module) -> dict[str, dict]:
    """Snapshot every forward-time generator in a module tree (dropout).

    Keyed by traversal position, which is deterministic for a fixed
    architecture — sufficient for restoring into an identically-built model.
    """
    states = {}
    for i, sub in enumerate(module.modules()):
        rng = getattr(sub, "_rng", None)
        if isinstance(rng, np.random.Generator):
            states[str(i)] = rng.bit_generator.state
    return states


def _restore_module_rng_states(module: Module, states: dict[str, dict]) -> None:
    own = {}
    for i, sub in enumerate(module.modules()):
        rng = getattr(sub, "_rng", None)
        if isinstance(rng, np.random.Generator):
            own[str(i)] = rng
    if set(own) != set(states):
        raise IncompatibleStateError(
            f"module RNG layout mismatch: checkpoint has generators at "
            f"{sorted(states)}, model has them at {sorted(own)}"
        )
    for key, rng in own.items():
        rng.bit_generator.state = states[key]


class TrainingSession:
    """The complete mutable state of one training run.

    Everything that changes during ``fit`` lives here — model, criterion,
    optimiser moments, scheduler position, data-loader and dropout RNGs,
    and the recorded history — so a session can be advanced one epoch at a
    time, serialised after any epoch, and reconstructed bit-exactly.
    """

    def __init__(
        self,
        trainer: "Trainer",
        model: LightLT,
        criterion: LightLTCriterion,
        optimizer: AdamW,
        scheduler,
        loader: DataLoader,
        flat_params: list,
        num_epochs: int,
    ):
        self.trainer = trainer
        self.model = model
        self.criterion = criterion
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.loader = loader
        self.flat_params = flat_params
        self.num_epochs = num_epochs
        self.history = TrainingHistory()

    @property
    def epochs_completed(self) -> int:
        return len(self.history.epochs)

    @property
    def finished(self) -> bool:
        return self.epochs_completed >= self.num_epochs

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def run_epoch(self, hooks: TrainerHooks | None = None) -> EpochReport:
        """Advance one epoch; returns what happened.

        Each step's loss is checked *before* backprop: a non-finite loss
        (or a non-finite gradient norm caught by :func:`clip_gradients`)
        skips the parameter update for that batch instead of poisoning the
        weights. The scheduler still advances on skipped steps so the LR
        trajectory stays deterministic. Skipped steps are excluded from the
        epoch's recorded means and counted in the report.
        """
        config = self.trainer.training_config
        epoch = self.epochs_completed
        epoch_terms: dict[str, list[float]] = {}
        skipped = 0
        grad_norm_max = 0.0
        obs = get_obs()
        epoch_start = time.perf_counter() if obs.enabled else 0.0
        if obs.enabled:
            # Resolved once per epoch; the per-step loop only calls
            # observe()/inc() on the instruments.
            registry = obs.registry
            step_time_hist = registry.histogram(metric_names.TRAIN_STEP_TIME)
            step_loss_hist = registry.histogram(metric_names.TRAIN_STEP_LOSS)
            grad_norm_hist = registry.histogram(metric_names.TRAIN_STEP_GRAD_NORM)
            steps_counter = registry.counter(metric_names.TRAIN_STEPS_TOTAL)
            skipped_counter = registry.counter(metric_names.TRAIN_STEPS_SKIPPED)
        with obs.span("train.epoch", epoch=epoch):
            for step, (features, labels) in enumerate(self.loader):
                step_start = time.perf_counter() if obs.enabled else 0.0
                self.optimizer.zero_grad()
                output = self.model(Tensor(features))
                breakdown = self.criterion(
                    output.logits, output.quantized, labels, embedding=output.embedding
                )
                total_value = float(breakdown.total.data)
                if hooks is not None and hooks.transform_loss is not None:
                    total_value = float(hooks.transform_loss(epoch, step, total_value))
                step_ok = math.isfinite(total_value)
                norm = math.nan
                if step_ok:
                    breakdown.total.backward()
                    if config.max_grad_norm is not None:
                        # The optimiser's arena holds every managed gradient
                        # contiguously; zero_grad() at the top of the step
                        # re-synced the views, so the whole-arena clip sees
                        # exactly flat_params' gradients.
                        norm = clip_gradients(
                            self.flat_params,
                            config.max_grad_norm,
                            flat_grad=self.optimizer._flat_grad,
                        )
                        if math.isfinite(norm):
                            grad_norm_max = max(grad_norm_max, norm)
                        else:
                            step_ok = False  # clip_gradients zeroed the gradients
                if step_ok:
                    self.optimizer.step()
                else:
                    skipped += 1
                    self.optimizer.zero_grad()
                self.scheduler.step()
                if step_ok:
                    for key, value in breakdown.to_floats().items():
                        epoch_terms.setdefault(key, []).append(value)
                if obs.enabled:
                    step_time_hist.observe(time.perf_counter() - step_start)
                    steps_counter.inc()
                    if not step_ok:
                        skipped_counter.inc()
                    if math.isfinite(total_value):
                        step_loss_hist.observe(total_value)
                    if math.isfinite(norm):
                        grad_norm_hist.observe(norm)
        if epoch_terms:
            terms = {key: float(np.mean(values)) for key, values in epoch_terms.items()}
        else:
            terms = {"total": float("nan")}  # every step was skipped
        self.history.epochs.append(terms)
        if obs.enabled:
            obs.registry.histogram(metric_names.TRAIN_EPOCH_TIME).observe(
                time.perf_counter() - epoch_start
            )
            for key, value in terms.items():
                obs.registry.gauge(
                    metric_names.TRAIN_EPOCH_LOSS_PREFIX + key
                ).set(value)
        return EpochReport(
            terms=terms, skipped_steps=skipped, grad_norm_max=grad_norm_max
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """Serialise the session into a checkpointable state tree."""
        return {
            "format": SESSION_FORMAT_VERSION,
            "epoch": self.epochs_completed,
            "seed": self.trainer.seed,
            "num_epochs": self.num_epochs,
            "model": self.model.state_dict(),
            "criterion": self.criterion.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": self.scheduler.state_dict(),
            "rng": {
                "loader": self.loader.rng_state(),
                "model": _module_rng_states(self.model),
                "criterion": _module_rng_states(self.criterion),
            },
            "history": {
                "epochs": [dict(e) for e in self.history.epochs],
                "events": [dict(e) for e in self.history.events],
            },
        }

    def restore(self, state: dict) -> None:
        """Load a state tree produced by :meth:`capture`.

        Raises :class:`IncompatibleStateError` when the checkpoint belongs
        to a differently-configured run (other seed, horizon, architecture,
        or parameter shapes) — resuming across such a change could not be
        bit-exact, so it is refused loudly.
        """
        try:
            fmt = int(state.get("format", SESSION_FORMAT_VERSION))
            if fmt != SESSION_FORMAT_VERSION:
                raise IncompatibleStateError(
                    f"unsupported session format {fmt} "
                    f"(expected {SESSION_FORMAT_VERSION})"
                )
            if int(state["seed"]) != self.trainer.seed:
                raise IncompatibleStateError(
                    f"checkpoint was written by a run with seed "
                    f"{int(state['seed'])}, this run uses seed "
                    f"{self.trainer.seed}; resuming would not be reproducible"
                )
            if int(state["num_epochs"]) != self.num_epochs:
                raise IncompatibleStateError(
                    f"checkpoint expects a {int(state['num_epochs'])}-epoch "
                    f"run, this run has {self.num_epochs} epochs"
                )
            self.model.load_state_dict(state["model"])
            self.criterion.load_state_dict(state["criterion"])
            self.optimizer.load_state_dict(state["optimizer"])
            self.scheduler.load_state_dict(state["scheduler"])
            self.loader.set_rng_state(state["rng"]["loader"])
            _restore_module_rng_states(self.model, state["rng"]["model"])
            _restore_module_rng_states(self.criterion, state["rng"]["criterion"])
            history = state["history"]
            self.history.epochs = [dict(e) for e in history["epochs"]]
            self.history.events = [dict(e) for e in history["events"]]
        except IncompatibleStateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise IncompatibleStateError(
                f"checkpoint does not fit this training session: {exc}"
            ) from exc


class Trainer:
    """Trains one LightLT model end to end on a long-tail dataset."""

    def __init__(
        self,
        model_config: LightLTConfig,
        loss_config: LossConfig = LossConfig(),
        training_config: TrainingConfig = TrainingConfig(),
        seed: int = 0,
    ):
        self.model_config = model_config
        self.loss_config = loss_config
        self.training_config = training_config
        self.seed = seed

    def build(self, dataset: RetrievalDataset) -> tuple[LightLT, LightLTCriterion]:
        """Instantiate a fresh model + criterion for ``dataset``."""
        rng = make_rng(self.seed)
        model_rng, criterion_rng, _ = spawn(rng, 3)
        model = LightLT(self.model_config, rng=model_rng)
        criterion = LightLTCriterion(
            num_classes=dataset.num_classes,
            dim=self.model_config.embed_dim,
            train_class_counts=class_counts(dataset.train.labels, dataset.num_classes),
            config=self.loss_config,
            rng=criterion_rng,
        )
        return model, criterion

    def start_session(
        self,
        dataset: RetrievalDataset,
        model: LightLT | None = None,
        criterion: LightLTCriterion | None = None,
        trainable_params: list | None = None,
        epochs: int | None = None,
        run_warm_start: bool | None = None,
    ) -> TrainingSession:
        """Build model/criterion/optimiser/loader and return a fresh session.

        This is ``fit`` minus the epoch loop: the fault-tolerant runtime
        (checkpoint resume, guarded training) drives the returned session
        itself.
        """
        config = self.training_config
        built_here = model is None or criterion is None
        if built_here:
            model, criterion = self.build(dataset)
        if run_warm_start is None:
            run_warm_start = built_here and config.warm_start
        if run_warm_start:
            warm_start_codebooks(
                model, dataset.train.features, rng=spawn(make_rng(self.seed), 3)[2]
            )
            warm_start_prototypes(model, criterion, dataset)
        model.train()
        if trainable_params is not None:
            flat_params = list(trainable_params)
            groups = flat_params
        else:
            backbone_params = model.backbone.parameters()
            other_params = (
                model.dsq.parameters()
                + model.classifier.parameters()
                + criterion.parameters()
            )
            flat_params = backbone_params + other_params
            groups = [
                {"params": backbone_params, "lr_scale": config.backbone_lr_scale},
                {"params": other_params, "lr_scale": 1.0},
            ]
        optimizer = AdamW(
            groups,
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        num_epochs = epochs if epochs is not None else config.epochs
        loader = DataLoader(
            dataset.train,
            batch_size=config.batch_size,
            rng=spawn(make_rng(self.seed), 2)[1],
        )
        total_steps = max(len(loader) * num_epochs, 1)
        scheduler = self._make_scheduler(optimizer, total_steps)
        return TrainingSession(
            trainer=self,
            model=model,
            criterion=criterion,
            optimizer=optimizer,
            scheduler=scheduler,
            loader=loader,
            flat_params=flat_params,
            num_epochs=num_epochs,
        )

    def fit(
        self,
        dataset: RetrievalDataset,
        model: LightLT | None = None,
        criterion: LightLTCriterion | None = None,
        trainable_params: list | None = None,
        epochs: int | None = None,
        run_warm_start: bool | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        keep_checkpoints: int = 3,
        hooks: TrainerHooks | None = None,
    ) -> tuple[LightLT, LightLTCriterion, TrainingHistory]:
        """Run the optimisation loop; returns (model, criterion, history).

        ``trainable_params`` restricts optimisation to a parameter subset —
        the hook the ensemble fine-tuning step uses to update only the DSQ
        module (§III-E). ``run_warm_start`` forces or suppresses the
        codebook/prototype warm start; by default it runs only for
        freshly-built models.

        With ``checkpoint_dir`` set, the full session state is written
        atomically after every epoch (keeping the newest
        ``keep_checkpoints`` files); ``resume=True`` then continues an
        interrupted run bit-exactly from the newest valid checkpoint,
        falling back past corrupt ones.
        """
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        session = self.start_session(
            dataset,
            model=model,
            criterion=criterion,
            trainable_params=trainable_params,
            epochs=epochs,
            run_warm_start=run_warm_start,
        )
        manager = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
            if resume:
                state = manager.load_latest_valid()
                if state is not None:
                    session.restore(state)
        while not session.finished:
            session.run_epoch(hooks=hooks)
            if manager is not None:
                manager.save(session.capture())
            if hooks is not None and hooks.after_epoch is not None:
                hooks.after_epoch(session.epochs_completed - 1, session)
        session.model.eval()
        return session.model, session.criterion, session.history

    def _make_scheduler(self, optimizer: AdamW, total_steps: int):
        config = self.training_config
        warmup = int(config.warmup_fraction * total_steps)
        if config.schedule == "cosine":
            return CosineAnnealingLR(optimizer, total_steps)
        if config.schedule == "linear_warmup":
            return LinearWarmupLR(optimizer, total_steps, warmup_steps=warmup)
        return ConstantLR(optimizer, total_steps)


def warm_start_prototypes(
    model: LightLT,
    criterion: LightLTCriterion,
    dataset: RetrievalDataset,
) -> None:
    """Initialise the class prototypes ``z_c`` at the embedding class means.

    Random prototypes start near the origin while embeddings live at the
    class-separation radius, so the center/ranking losses would initially
    drag the whole representation toward zero. Class-mean initialisation
    makes both losses pull in the intended direction from step one.
    """
    embeddings = model.embed(dataset.train.features)
    for class_id in range(dataset.num_classes):
        mask = dataset.train.labels == class_id
        if mask.any():
            criterion.prototypes.data[class_id] = embeddings[mask].mean(axis=0)
    model.train()


def evaluate_map(
    model: LightLT,
    dataset: RetrievalDataset,
    cutoff: int | None = None,
) -> float:
    """Retrieval MAP of a trained model on a dataset (§V-A3 protocol).

    The database split is quantized and indexed; queries are embedded (kept
    continuous) and ranked against it with ADC lookup tables; relevance is
    label equality over the full database ranking.
    """
    index = model.build_index(dataset.database.features, labels=dataset.database.labels)
    ranked_labels = model.search_ranked_labels(dataset.query.features, index)
    return mean_average_precision(ranked_labels, dataset.query.labels, cutoff=cutoff)


def train_lightlt(
    dataset: RetrievalDataset,
    model_config: LightLTConfig | None = None,
    loss_config: LossConfig = LossConfig(),
    training_config: TrainingConfig = TrainingConfig(),
    seed: int = 0,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> tuple[LightLT, TrainingHistory]:
    """Convenience one-call training entry point used by examples/benches."""
    if model_config is None:
        model_config = LightLTConfig(
            input_dim=dataset.dim, num_classes=dataset.num_classes
        )
    trainer = Trainer(model_config, loss_config, training_config, seed=seed)
    model, _, history = trainer.fit(
        dataset, checkpoint_dir=checkpoint_dir, resume=resume
    )
    return model, history
