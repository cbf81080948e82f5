"""Seeded synthetic data for desk-scale verification.

Spots sit on rectangular grids (one per slide); latent pathway activities are
low-frequency cosine mixtures over the grid, pathway member genes are
Poisson-upregulated with activity, and patch features are a fixed random
linear map of the activities mixed with noise by the coupling parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import (
    RAW_COUNTS,
    ExpressionMatrix,
    GeneSet,
    GeneSetCollection,
    PatchFeatureMatrix,
    SpotGeometry,
    SurvivalRecord,
    SurvivalTable,
)
from .errors import ConfigError, PearlError


@dataclass
class SynthConfig:
    """The `synth` config section: sizes of the dataset and survival cohort."""

    n_spots: int = 1200
    n_genes: int = 120
    n_pathways: int = 10
    noise_sigma: float = 0.05
    coupling: float = 0.95
    n_slides: int = 2
    d_img: int = 64
    n_subjects: int = 100
    censor_rate: float = 0.3
    embed_dim: int = 256

    def __post_init__(self):
        for name in ("n_spots", "n_genes", "n_pathways", "n_slides", "d_img", "n_subjects",
                     "embed_dim"):
            if getattr(self, name) < 1:
                raise PearlError(f"{name} must be >= 1")
        if self.n_spots < 2:  # activities are standardised over the spots
            raise PearlError("n_spots must be >= 2")
        if self.n_genes < 3 * self.n_pathways:  # each pathway gets >= 3 genes of its own
            raise PearlError(f"n_genes must be >= 3 * n_pathways = {3 * self.n_pathways}")
        if self.n_slides > self.n_spots:
            raise PearlError("n_slides must be <= n_spots")
        if not 0 <= self.noise_sigma < math.inf:
            raise PearlError("noise_sigma must be finite and >= 0")
        for name in ("coupling", "censor_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise PearlError(f"{name} must be in [0, 1]")


def _grid_layout(n_spots, n_slides):
    """Split spots over slides as near-square grids; returns per-slide (rows, cols)."""
    per = [n_spots // n_slides + (1 if i < n_spots % n_slides else 0) for i in range(n_slides)]
    layouts = []
    for n in per:
        rows = max(1, int(math.sqrt(n)))
        cols = (n + rows - 1) // rows
        layouts.append((n, rows, cols))
    return layouts


def gen_st_dataset(
    seed,
    n_spots,
    n_genes,
    n_pathways,
    noise_sigma=0.05,
    coupling=0.95,
    n_slides=2,
    d_img=64,
    genes_per_pathway=None,
    activity_strength=1.2,
    activity_noise=0.25,
):
    """Returns (ExpressionMatrix, [SpotGeometry], GeneSetCollection,
    PatchFeatureMatrix, latent activities)."""
    if not 0.0 <= coupling <= 1.0:
        raise PearlError("coupling must be in [0, 1]")
    if genes_per_pathway is None:
        genes_per_pathway = max(3, (n_genes * 3 // 5) // n_pathways)
    if n_pathways * genes_per_pathway > n_genes:
        raise PearlError(
            f"{n_pathways} pathways x {genes_per_pathway} genes exceed {n_genes} genes"
        )
    rng = np.random.default_rng(seed)

    # geometry: near-square grid per slide, raw coords = 100 * grid indices,
    # uv = the grid position scaled to the slide's unit square
    geoms = []
    uv = np.zeros((n_spots, 2))
    for si, (n, rows, cols) in enumerate(_grid_layout(n_spots, n_slides)):
        slide = f"slide{si}"
        for k in range(n):
            r, c = divmod(k, cols)
            uv[len(geoms)] = (c / max(cols - 1, 1), r / max(rows - 1, 1))
            geoms.append(
                SpotGeometry(
                    spot_id=f"{slide}_r{r}_c{c}",
                    slide_id=slide,
                    x=100.0 * c,
                    y=100.0 * r,
                    array_row=r,
                    array_col=c,
                )
            )
    spot_ids = [g.spot_id for g in geoms]

    # latent activities: per-pathway cosine mixtures over unit-square coords,
    # plus a small white component so neighboring spots stay distinguishable
    activities = np.zeros((n_spots, n_pathways))
    for k in range(n_pathways):
        field_val = np.zeros(n_spots)
        for _ in range(3):
            freq = rng.uniform(0.5, 3.0, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.normal(0, 1)
            field_val += amp * np.cos(2 * np.pi * (uv @ freq) + phase)
        field_val += activity_noise * rng.normal(size=n_spots)
        activities[:, k] = field_val
    activities = (activities - activities.mean(axis=0)) / activities.std(axis=0)

    gene_ids = [f"G{j:05d}" for j in range(n_genes)]
    sets = []
    gene_pathway = np.full(n_genes, -1)
    for k in range(n_pathways):
        members = range(k * genes_per_pathway, (k + 1) * genes_per_pathway)
        gene_pathway[list(members)] = k
        sets.append(
            GeneSet(
                name=f"PW{k:03d}",
                description=f"synthetic pathway {k}",
                genes=frozenset(gene_ids[j] for j in members),
            )
        )
    collection = GeneSetCollection(sets=sets)

    base_log = rng.uniform(np.log(2.0), np.log(20.0), size=n_genes)
    log_rate = np.tile(base_log, (n_spots, 1))
    member = gene_pathway >= 0
    log_rate[:, member] += activity_strength * activities[:, gene_pathway[member]]
    if noise_sigma > 0:
        log_rate += noise_sigma * rng.normal(size=log_rate.shape)
    try:
        counts = rng.poisson(np.exp(log_rate)).astype(np.float64)
    except ValueError:  # numpy refuses a rate whose draws could overflow int64
        raise ConfigError(
            f"synth: noise_sigma {noise_sigma} makes a Poisson rate too large"
        ) from None
    # kept as CSR because perfbench/workloads.py reads `expr.matrix.toarray()`;
    # the package's one scipy import, made only here
    import scipy.sparse as sp

    expr = ExpressionMatrix(
        spot_ids=spot_ids,
        gene_ids=gene_ids,
        matrix=sp.csr_matrix(counts),
        value_kind=RAW_COUNTS,
    )

    w_map = rng.normal(size=(n_pathways, d_img)) / math.sqrt(n_pathways)
    eps = rng.normal(size=(n_spots, d_img))
    features = coupling * (activities @ w_map) + ((1.0 - coupling) + noise_sigma) * eps
    patch = PatchFeatureMatrix(spot_ids=spot_ids, features=features)
    return expr, geoms, collection, patch, activities


def gen_survival_cohort(
    seed, n_subjects, censor_rate=0.3, spots_per_slide=16, embed_dim=256, risk_strength=1.5
):
    """Returns (SurvivalTable, {slide_id: (M, embed_dim) embeddings}, planted risks).

    Survival times are exponential with rate exp(risk); censoring is an
    independent uniform fraction of the event time.
    """
    if not 0.0 <= censor_rate <= 1.0:
        raise PearlError("censor_rate must be in [0, 1]")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=embed_dim)
    direction /= np.linalg.norm(direction)
    rows, embeddings, risks = [], {}, np.zeros(n_subjects)
    for i in range(n_subjects):
        latent = rng.normal(size=embed_dim)
        risk = risk_strength * float(direction @ latent)
        risks[i] = risk
        slide = f"subj{i:04d}_slide0"
        embeddings[slide] = latent + 0.1 * rng.normal(size=(spots_per_slide, embed_dim))
        event_time = rng.exponential(1.0 / np.exp(risk))
        if rng.uniform() < censor_rate:
            t = event_time * rng.uniform(0.05, 1.0)
            event = False
        else:
            t, event = event_time, True
        rows.append(
            SurvivalRecord(
                subject_id=f"subj{i:04d}",
                time=max(t, 1e-9),
                event=event,
                slide_ids=(slide,),
            )
        )
    return SurvivalTable(rows), embeddings, risks
