"""E18 — single-pass sketched factorization vs the 2+2q-pass rSVD.

The PR-9 ``factorizer`` knob swaps Algorithm 3's randomized SVD for the
streamed two-sided sketch (``docs/algorithms.md`` §9); this experiment
compares the two at *equal rank* on the E8 small-graph suite, along the
axes the swap is supposed to move: operator pass counts (read from the
telemetry counters — one streamed pass for the symmetric NetMF matrix vs
``2 + 2q`` for rSVD), wall-clock, peak anonymous/RSS memory (fresh
process per configuration), and downstream micro-F1 (acceptance
criterion: within 2 points of the rSVD baseline).
"""

from __future__ import annotations

import pytest

from benchmarks.harness import SEED, classification_row, embed, load, run_probe
from repro import telemetry

WINDOW = 10
MULTIPLIER = 5.0  # the E8 panel config
DIMENSION = 32
RSVD_POWER_ITERATIONS = 2  # randomized_svd default -> 2 + 2q = 6 passes


@pytest.fixture(scope="module")
def bundle():
    return load("blogcatalog_like")


def _run(graph, factorizer, **overrides):
    kwargs = dict(
        dimension=DIMENSION, window=WINDOW, multiplier=MULTIPLIER,
        factorizer=factorizer,
    )
    kwargs.update(overrides)
    return embed("lightne", graph, **kwargs)


def test_e18_quality_at_equal_rank(table):
    """Headline comparison on the E8 small-graph suite: same rank, same
    pipeline around the factorization — micro-F1 of the single-pass
    backend must be within 2 points of rSVD (acceptance criterion)."""
    rows = []
    for dataset in ("blogcatalog_like", "youtube_like"):
        data = load(dataset)
        micro = {}
        for factorizer in ("rsvd", "single_pass"):
            result = _run(data.graph, factorizer)
            assert result.info["factorizer"] == factorizer
            scores = classification_row(
                result.vectors, data.labels, (0.1, 0.5), repeats=2
            )
            micro[factorizer] = scores["micro@0.5"]
            rows.append(
                {
                    "dataset": dataset,
                    "factorizer": factorizer,
                    "time_s": round(result.total_seconds, 3),
                    **scores,
                }
            )
        assert micro["single_pass"] >= micro["rsvd"] - 2.0, (
            f"{dataset}: single_pass micro@0.5 {micro['single_pass']} more "
            f"than 2 points below rsvd {micro['rsvd']}"
        )
    table(
        f"E18 — factorizer quality at equal rank "
        f"(d={DIMENSION}, T={WINDOW}, M={MULTIPLIER:g}Tm)",
        rows,
    )


def test_e18_operator_passes(bundle, table):
    """The pass-count story, measured: the symmetric NetMF matrix is read
    once by the streamed sketch vs 2 + 2q times by rSVD."""
    rows = []
    counts = {}
    telemetry.enable()
    try:
        for factorizer, counter in (
            ("rsvd", "svd.operator_passes"),
            ("single_pass", "sketch.operator_passes"),
        ):
            telemetry.reset_metrics()
            _run(bundle.graph, factorizer)
            snapshot = telemetry.get_metrics().snapshot()
            counts[factorizer] = snapshot["counters"].get(counter, 0)
            rows.append({"factorizer": factorizer, "passes": counts[factorizer]})
    finally:
        telemetry.disable()
        telemetry.reset_metrics()
    table("E18 — operator passes over the NetMF matrix", rows)
    assert counts["single_pass"] == 1, counts
    assert counts["rsvd"] == 2 + 2 * RSVD_POWER_ITERATIONS, counts


_MEMORY_PROBE = """
import json
from benchmarks.harness import SEED
from repro.datasets import load_dataset
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.telemetry.memory import MemorySampler
bundle = load_dataset("blogcatalog_like", seed=SEED)
params = LightNEParams(
    dimension=__DIMENSION__, window=__WINDOW__,
    sample_multiplier=__MULTIPLIER__, factorizer=__FACTORIZER__,
)
with MemorySampler(0.005) as sampler:
    result = lightne_embedding(bundle.graph, params, seed=SEED)
p = sampler.profile
print(json.dumps(dict(
    anon=p.anon_peak_bytes, rss=p.rss_peak_bytes,
    time_s=result.total_seconds,
)))
"""


def test_e18_peak_memory(table):
    """Fresh interpreter per factorizer (high-water marks never shrink),
    same rank: peak anon/RSS of the full embed."""
    results = {}
    for factorizer in ("rsvd", "single_pass"):
        script = (
            _MEMORY_PROBE
            .replace("__DIMENSION__", str(DIMENSION))
            .replace("__WINDOW__", str(WINDOW))
            .replace("__MULTIPLIER__", str(MULTIPLIER))
            .replace("__FACTORIZER__", repr(factorizer))
        )
        results[factorizer] = run_probe(script)
    table(
        "E18 — peak memory per factorizer (fresh process per row, "
        f"blogcatalog_like, d={DIMENSION})",
        [
            {
                "factorizer": name,
                "anon_peak_MiB": round(r["anon"] / 2**20, 1)
                if r["anon"] is not None else None,
                "rss_peak_MiB": round(r["rss"] / 2**20, 1)
                if r["rss"] is not None else None,
                "time_s": round(r["time_s"], 3),
            }
            for name, r in results.items()
        ],
    )
    for r in results.values():
        assert r["time_s"] > 0
