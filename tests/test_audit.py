"""Tests for the determinism audit: ``lightne audit`` / repro.telemetry.audit.

The load-bearing property is *localization*: when a perturbation is injected
into one pipeline stage, the audit must name that stage — not merely report
that the final embeddings differ.  Perturbation-injection tests monkeypatch
individual stage functions and assert ``first_divergence`` lands exactly
there; CLI tests cover run selection (indices, id prefixes, default pairing)
and the ``--strict`` exit-code contract CI relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.embedding.lightne as lightne_mod
from repro.embedding.lightne import LightNEParams, lightne_embedding
from repro.telemetry import audit, health, ledger
from repro.telemetry.audit import AuditDelta, compare_runs, select_runs
from repro.telemetry.ledger import RunLedger, RunRecord

SMALL = dict(dimension=8, window=3, negative_samples=1, workers=1)


def run_into_ledger(path, graph, *, seed=3, **overrides):
    """One health-recorded lightne run appended to the ledger at ``path``."""
    params = LightNEParams(**{**SMALL, **overrides})
    with ledger.enabled_scope(path=str(path), dataset="er"):
        with health.policy_scope("record"):
            return lightne_embedding(graph, params, seed=seed)


def make_record(digests, *, stats=None, method="lightne", **kw):
    stages = [
        {"stage": s, "digest": d, "norm": 1.0, "nonfinite": 0}
        for s, d in digests.items()
    ]
    if stats:
        for entry in stages:
            entry.update(stats.get(entry["stage"], {}))
    return RunRecord(
        method=method,
        dataset=kw.pop("dataset", "ds"),
        params=kw.pop("params", {"dimension": 8}),
        stages={"svd": 1.0},
        total_s=1.0,
        digests=dict(digests),
        health={"policy": "record", "ok": True, "stages": stages, "probes": []},
        **kw,
    )


# ---------------------------------------------------------------------------
# Pure comparison logic.
# ---------------------------------------------------------------------------


class TestCompareRuns:
    def test_identical(self):
        a = make_record({"sparsifier": "aa", "svd": "bb", "final": "cc"})
        b = make_record({"sparsifier": "aa", "svd": "bb", "final": "cc"})
        report = compare_runs(a, b)
        assert report.identical
        assert report.first_divergence is None
        assert [d.stage for d in report.compared] == [
            "sparsifier", "svd", "final",
        ]

    def test_first_divergence_is_earliest(self):
        a = make_record({"sparsifier": "aa", "svd": "bb", "final": "cc"})
        b = make_record({"sparsifier": "aa", "svd": "XX", "final": "YY"})
        report = compare_runs(a, b)
        assert not report.identical
        assert report.first_divergence == "svd"

    def test_missing_stage_counts_as_divergence(self):
        a = make_record({"sparsifier": "aa", "svd": "bb"})
        b = make_record({"sparsifier": "aa"})
        report = compare_runs(a, b)
        assert report.first_divergence == "svd"
        (row,) = [d.as_row() for d in report.deltas if d.stage == "svd"]
        assert row["verdict"] == "missing in b"

    def test_no_digests_warns(self):
        a = make_record({})
        b = make_record({"svd": "bb"})
        report = compare_runs(a, b)
        assert any("no stage digests" in w for w in report.warnings)

    def test_failed_probe_surfaces_as_warning(self):
        a = make_record({"svd": "bb"})
        a.health["probes"] = [
            {"name": "finite", "stage": "svd", "value": 1.0, "ok": False}
        ]
        b = make_record({"svd": "bb"})
        report = compare_runs(a, b)
        assert any("probe finite failed" in w for w in report.warnings)

    def test_delta_norm_in_rows(self):
        a = make_record({"svd": "bb"}, stats={"svd": {"norm": 2.0}})
        b = make_record({"svd": "XX"}, stats={"svd": {"norm": 2.5}})
        (row,) = compare_runs(a, b).rows()
        assert row["delta_norm"] == pytest.approx(0.5)
        assert row["verdict"] == "DIVERGED"


class TestAuditDelta:
    def test_match_states(self):
        assert AuditDelta("s", "aa", "aa").match is True
        assert AuditDelta("s", "aa", "bb").match is False
        assert AuditDelta("s", "aa", None).match is None
        assert AuditDelta("s", "aa", None).diverged


# ---------------------------------------------------------------------------
# Run selection.
# ---------------------------------------------------------------------------


class TestSelectRuns:
    def _records(self, n=4):
        # Explicit non-numeric run ids: prefix-selection tests must not
        # depend on what the random hex ids happen to start with.
        return [
            make_record({"svd": f"d{i}"}, seed=i, run_id=f"run{i}abcdef")
            for i in range(n)
        ]

    def test_positive_indices_are_one_based(self):
        records = self._records()
        a, b = select_runs(records, ["1", "2"])
        assert (a, b) == (records[0], records[1])

    def test_negative_indices_from_end(self):
        records = self._records()
        a, b = select_runs(records, ["-2", "-1"])
        assert (a, b) == (records[-2], records[-1])

    def test_id_prefix(self):
        records = self._records()
        a, b = select_runs(
            records, [records[0].run_id[:6], records[2].run_id[:6]]
        )
        assert (a, b) == (records[0], records[2])

    def test_default_pairs_newest_with_same_group(self):
        records = self._records(3)
        a, b = select_runs(records, [])
        assert b is records[-1]
        assert a is records[-2]

    def test_numeric_prefix_falls_back_when_index_out_of_range(self):
        records = self._records()
        records[1].run_id = "123456abcdef"  # digits, but not a valid index
        a, b = select_runs(records, ["123456", "1"])
        assert (a, b) == (records[1], records[0])

    def test_bad_specs_raise(self):
        records = self._records()
        with pytest.raises(SystemExit, match="1-based"):
            select_runs(records, ["0", "1"])
        with pytest.raises(SystemExit, match="out of range"):
            select_runs(records, ["1", "99"])
        with pytest.raises(SystemExit, match="no run with id prefix"):
            select_runs(records, ["zzzz", "1"])
        with pytest.raises(SystemExit, match="exactly two"):
            select_runs(records, ["1"])


# ---------------------------------------------------------------------------
# Perturbation injection: the audit must localize the tampered stage.
# ---------------------------------------------------------------------------


class TestPerturbationLocalization:
    def test_clean_runs_are_identical(self, er_graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_into_ledger(path, er_graph)
        run_into_ledger(path, er_graph, workers=2, backend="process")
        a, b = RunLedger(str(path)).records()
        report = compare_runs(a, b)
        assert report.identical, report.rows()

    @pytest.mark.parametrize(
        "target,expected_stage",
        [
            ("spectral_propagation", "propagation"),
            ("embedding_from_svd", "svd"),
        ],
    )
    def test_injected_perturbation_localized(
        self, er_graph, tmp_path, monkeypatch, target, expected_stage
    ):
        path = tmp_path / "runs.jsonl"
        run_into_ledger(path, er_graph)

        clean = getattr(lightne_mod, target)

        def perturbed(*args, **kwargs):
            out = clean(*args, **kwargs).copy()
            out.flat[0] += 1e-9
            return out

        monkeypatch.setattr(lightne_mod, target, perturbed)
        run_into_ledger(path, er_graph)

        a, b = RunLedger(str(path)).records()
        report = compare_runs(a, b)
        assert report.first_divergence == expected_stage
        # Everything upstream of the injected stage matched bit for bit.
        for delta in report.deltas:
            if delta.stage == expected_stage:
                break
            assert delta.match is True, delta.stage

    def test_sparsifier_perturbation_diverges_from_the_start(
        self, er_graph, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        run_into_ledger(path, er_graph, seed=3)
        run_into_ledger(path, er_graph, seed=4)  # different draws everywhere
        a, b = RunLedger(str(path)).records()
        assert compare_runs(a, b).first_divergence == "sparsifier"


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


class TestAuditCLI:
    @pytest.fixture()
    def two_run_ledger(self, er_graph, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_into_ledger(path, er_graph)
        run_into_ledger(path, er_graph)
        return path

    def test_identical_exit_zero_and_table(
        self, two_run_ledger, tmp_path, capsys
    ):
        table = tmp_path / "audit.txt"
        code = audit.main(
            [
                "--ledger", str(two_run_ledger), "1", "2",
                "--strict", "--table-out", str(table),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IDENTICAL" in out
        assert "first diverging stage" not in out
        assert "sparsifier" in table.read_text()

    def test_strict_fails_on_divergence(
        self, er_graph, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "runs.jsonl"
        run_into_ledger(path, er_graph)
        clean = lightne_mod.spectral_propagation

        def perturbed(*args, **kwargs):
            out = clean(*args, **kwargs).copy()
            out[0, 0] += 1e-9
            return out

        monkeypatch.setattr(lightne_mod, "spectral_propagation", perturbed)
        run_into_ledger(path, er_graph)

        assert audit.main(["--ledger", str(path), "1", "2"]) == 0  # report-only
        code = audit.main(["--ledger", str(path), "1", "2", "--strict"])
        assert code == 1
        assert "first diverging stage: propagation" in capsys.readouterr().out

    def test_method_filter_and_empty_ledger(self, two_run_ledger, capsys):
        code = audit.main(
            ["--ledger", str(two_run_ledger), "--method", "netsmf"]
        )
        assert code == 0  # nothing to compare: warn, don't block
        assert "no matching runs" in capsys.readouterr().out
        assert (
            audit.main(
                ["--ledger", str(two_run_ledger), "--method", "netsmf",
                 "--strict"]
            )
            == 1
        )

    def test_ledger_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            audit.main(["1", "2"])
        assert excinfo.value.code == 2
        assert "--ledger" in capsys.readouterr().err

    def test_lightne_cli_audit_subcommand(self, two_run_ledger, capsys):
        from repro.cli import main as cli_main

        code = cli_main(
            ["audit", "--ledger", str(two_run_ledger), "1", "2", "--strict"]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out
