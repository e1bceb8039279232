"""Budget-driven config recommendation over a tune artifact.

``repro tune --latency-ms B --recall R --memory-mb M`` answers "which
serving configuration should I deploy?" from a finished sweep: the
candidate pool is every *measured* grid point plus *interpolated* IVF
operating points the grid never ran — intermediate ``nprobe`` values
whose latency comes from the calibrated
:class:`~repro.retrieval.costs.CostModel` and whose recall is
log2-linearly interpolated between the bracketing measurements.

Selection is deterministic for a fixed artifact: among candidates meeting
every stated budget, the highest recall wins; ties break to lower
latency, then lower memory, then the lexicographically smallest config.
When nothing fits, the nearest miss (smallest worst budget overrun) is
returned with ``feasible=False`` so callers — the CLI exits non-zero, the
nightly gate fails — can tell the difference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.retrieval.costs import (
    COST_FEATURE_NAMES,
    CostModel,
    SearchConfig,
    serving_memory_bytes,
)

__all__ = ["Recommendation", "TuneRequest", "model_from_report", "recommend"]

_EPS = 1e-12


@dataclass(frozen=True)
class TuneRequest:
    """The stated budget: any subset of latency / recall / memory.

    ``latency_ms`` and ``memory_mb`` are ceilings, ``recall`` is a floor;
    ``None`` leaves that axis unconstrained. ``k`` must match the sweep's
    (recall and latency were measured at a specific ``k``).
    """

    latency_ms: float | None = None
    recall: float | None = None
    memory_mb: float | None = None
    k: int = 10

    def __post_init__(self) -> None:
        if self.latency_ms is None and self.recall is None and self.memory_mb is None:
            raise ValueError("state at least one budget (latency/recall/memory)")
        for name in ("latency_ms", "memory_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.recall is not None and not 0.0 < self.recall <= 1.0:
            raise ValueError("recall must be in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class Recommendation:
    """The chosen configuration and its (measured or modelled) figures.

    ``source`` is ``"measured"`` for a grid point the sweep actually ran
    and ``"interpolated"`` for a model-priced ``nprobe`` between two
    measured ones. ``feasible`` is False when no candidate met every
    stated budget — the returned config is then the nearest miss and
    ``note`` says which budget broke. ``note`` also reports measured points
    of an older artifact that were skipped because this build cannot serve
    them.
    """

    config: dict = field(compare=False)
    latency_ms: float
    recall: float
    memory_mb: float
    source: str
    feasible: bool
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)

    def summary_lines(self) -> list[str]:
        config = self.config
        shape = (
            f"M={config['num_codebooks']} K={config['num_codewords']} "
            f"({config.get('code_dtype', '?')} codes)"
        )
        if config.get("nprobe", 0) > 0 and config.get("num_cells", 0) > 0:
            shape += f", ivf {config['num_cells']} cells nprobe={config['nprobe']}"
        else:
            shape += (
                f", exhaustive {config.get('workers', 1)}w/"
                f"{config.get('num_shards', 1)}s"
            )
        if config.get("query_encoder", "none") != "none":
            shape += f", {config['query_encoder']} query encoder"
        lines = [
            f"recommended: {shape} [{self.source}]",
            f"  latency {self.latency_ms:.3f} ms, recall@k {self.recall:.3f}, "
            f"memory {self.memory_mb:.2f} MB",
        ]
        if not self.feasible:
            lines.append(f"  INFEASIBLE: {self.note}")
        elif self.note:
            lines.append(f"  note: {self.note}")
        return lines


def model_from_report(model_dict: dict) -> CostModel:
    """Rebuild the fitted :class:`CostModel` from an artifact's ``model``.

    Columns the artifact predates (the v7 ``encode_*`` terms) default to
    0.0 — an old sweep priced no query encoders, so the rebuilt model
    prices them as free rather than refusing to load — and coefficients
    this build has no column for are ignored.
    """
    coefficients = model_dict["coefficients"]
    return CostModel(
        np.array([coefficients.get(name, 0.0) for name in COST_FEATURE_NAMES])
    )


def _tune_phase(results: dict, profile: str | None) -> tuple[str, dict]:
    profiles = results.get("profiles") or {}
    names = [profile] if profile is not None else list(profiles)
    for name in names:
        tune = ((profiles.get(name) or {}).get("phases") or {}).get("tune")
        if tune:
            return name, tune
    raise ValueError(
        "no tune phase in the results file — run `repro tune` first"
    )


def _family_key(config: dict) -> tuple:
    """Everything but ``nprobe``: the axis interpolation sweeps along.

    ``query_encoder`` is part of the key (``.get`` for pre-v7 artifacts):
    a light-encoder point and a full-path point at the same IVF shape are
    different serving configurations and must never be interpolated
    between.
    """
    return (
        config["num_codebooks"], config["num_codewords"],
        config["num_cells"],
        config["workers"], config["num_shards"],
        config.get("query_encoder", "none"),
    )


def _interpolated(points: list[dict], model: CostModel, k: int,
                  n_queries: int = 1) -> list[dict]:
    """Model-priced nprobe candidates between measured IVF grid points."""
    families: dict[tuple, list[dict]] = {}
    for entry in points:
        config = entry["config"]
        if config["nprobe"] > 0 and config["num_cells"] > 0:
            families.setdefault(_family_key(config), []).append(entry)
    extra: list[dict] = []
    for family in families.values():
        family.sort(key=lambda entry: entry["config"]["nprobe"])
        measured = {entry["config"]["nprobe"] for entry in family}
        if len(measured) < 2:
            continue
        low, high = min(measured), max(measured)
        base = dict(family[0]["config"])
        for nprobe in range(low + 1, high):
            if nprobe in measured:
                continue
            config = {**base, "nprobe": nprobe}
            search = SearchConfig(
                n_db=config["n_db"], dim=config["dim"],
                num_codebooks=config["num_codebooks"],
                num_codewords=config["num_codewords"], k=k,
                workers=config["workers"], num_shards=config["num_shards"],
                num_cells=config["num_cells"], nprobe=nprobe,
                query_encoder=config.get("query_encoder", "none"),
            )
            # Recall rises roughly linearly in log2(nprobe); interpolate
            # between the bracketing measurements on that axis.
            lower = [e for e in family if e["config"]["nprobe"] < nprobe][-1]
            upper = [e for e in family if e["config"]["nprobe"] > nprobe][0]
            x0, x1 = (np.log2(lower["config"]["nprobe"]),
                      np.log2(upper["config"]["nprobe"]))
            weight = (np.log2(nprobe) - x0) / max(x1 - x0, _EPS)
            recall = (1 - weight) * lower["recall"] + weight * upper["recall"]
            extra.append({
                "config": config,
                "latency_ms": model.predict(search, n_queries) * 1e3,
                "recall": float(recall),
                "memory_mb": serving_memory_bytes(search) / 2**20,
                "source": "interpolated",
            })
    return extra


def _violation(candidate: dict, request: TuneRequest) -> float:
    """Worst budget overrun ratio (1.0 = exactly on budget)."""
    ratios = [1.0]
    if request.latency_ms is not None:
        ratios.append(candidate["latency_ms"] / request.latency_ms)
    if request.memory_mb is not None:
        ratios.append(candidate["memory_mb"] / request.memory_mb)
    if request.recall is not None:
        ratios.append(request.recall / max(candidate["recall"], _EPS))
    return max(ratios)


def _sort_key(candidate: dict) -> tuple:
    config = candidate["config"]
    return (
        -candidate["recall"],
        candidate["latency_ms"],
        candidate["memory_mb"],
        tuple(sorted((key, str(value)) for key, value in config.items())),
    )


def recommend(
    results: dict, request: TuneRequest, profile: str | None = None
) -> Recommendation:
    """Pick the best configuration in ``results`` for ``request``.

    Deterministic for a fixed artifact: candidates are the measured grid
    points plus model-interpolated nprobe points, filtered by the stated
    budgets, ranked by (recall desc, latency asc, memory asc, config).
    """
    _, tune = _tune_phase(results, profile)
    if request.k != tune.get("k", request.k):
        raise ValueError(
            f"request k={request.k} but the sweep measured k={tune['k']} — "
            "re-run the sweep with --k"
        )
    model = model_from_report(tune["model"])
    # Artifacts written while the IVF scan had a uint8-LUT variant carry
    # points measured under it; this build serves float32 tables only.
    points = [
        entry for entry in tune["points"]
        if entry["config"].get("lut_dtype", "float32") == "float32"
    ]
    skipped = len(tune["points"]) - len(points)
    skip_note = (
        f"skipped {skipped} measured point(s) with a quantized LUT, which "
        "this build does not serve"
        if skipped else ""
    )
    candidates = [
        {**{key: entry[key] for key in ("config", "latency_ms", "recall",
                                        "memory_mb")},
         "source": "measured"}
        for entry in points
    ]
    candidates.extend(
        _interpolated(points, model, tune["k"], tune.get("n_queries", 1))
    )
    feasible = [c for c in candidates if _violation(c, request) <= 1.0]
    if feasible:
        best = min(feasible, key=_sort_key)
        return Recommendation(
            config=dict(best["config"]),
            latency_ms=best["latency_ms"],
            recall=best["recall"],
            memory_mb=best["memory_mb"],
            source=best["source"],
            feasible=True,
            note=skip_note,
        )
    best = min(candidates, key=lambda c: (_violation(c, request),
                                          _sort_key(c)))
    note = (
        f"no grid or interpolated point meets every budget; nearest "
        f"miss overruns by x{_violation(best, request):.2f}"
    )
    if skip_note:
        note += "; " + skip_note
    return Recommendation(
        config=dict(best["config"]),
        latency_ms=best["latency_ms"],
        recall=best["recall"],
        memory_mb=best["memory_mb"],
        source=best["source"],
        feasible=False,
        note=note,
    )
