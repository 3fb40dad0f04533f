"""Tests for the paper-reproduction figures pipeline (repro.figures).

Check-grammar evaluation, registry integrity, the runner's exit
contract (0 all shapes hold / 1 regression / 2 usage), checkpointed
resume through the shared artifact store, the figures_manifest.json
schema, and both renderers (EXPERIMENTS.md and the self-contained HTML
dashboard).  The sweep-backed tests use the quick profile restricted to
one figure so the whole module stays at test scale.
"""

import json
import os
from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.errors import ConfigValidationError
from repro.figures import (describe_check, evaluate_check, figure_ids,
                           figure_registry, render_dashboard,
                           render_experiments_md, run_figures,
                           select_figures)
from repro.figures.runner import MANIFEST_SCHEMA


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One trace-cache directory for the module (runs share traces)."""
    path = tmp_path_factory.mktemp("figures_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestCheckGrammar:
    def test_constant_comparisons(self):
        m = {"x": 2.0}
        assert evaluate_check(("gt", 1.0), "x", m)
        assert not evaluate_check(("gt", 2.0), "x", m)
        assert evaluate_check(("ge", 2.0), "x", m)
        assert evaluate_check(("lt", 3.0), "x", m)
        assert evaluate_check(("le", 2.0), "x", m)
        assert evaluate_check(("eq", 2.0), "x", m)

    def test_range_is_exclusive(self):
        m = {"x": 1.0}
        assert evaluate_check(("range", 0.9, 1.1), "x", m)
        assert not evaluate_check(("range", 1.0, 1.1), "x", m)

    def test_key_comparisons_with_scale_and_offset(self):
        m = {"libra": 1.10, "ptr": 1.00}
        assert evaluate_check(("gt_key", "ptr"), "libra", m)
        assert evaluate_check(("ge_key", "ptr", 1.1), "libra", m)
        assert not evaluate_check(("gt_key", "ptr", 1.2), "libra", m)
        assert evaluate_check(("le_key", "ptr", 1.0, 0.1), "libra", m)

    def test_missing_key_is_registry_bug(self):
        with pytest.raises(ConfigValidationError, match="unmeasured"):
            evaluate_check(("gt", 0.0), "nope", {"x": 1.0})
        with pytest.raises(ConfigValidationError, match="unmeasured"):
            evaluate_check(("gt_key", "nope"), "x", {"x": 1.0})

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigValidationError, match="unknown check"):
            evaluate_check(("approx", 1.0), "x", {"x": 1.0})

    def test_describe_check(self):
        assert describe_check(("gt", 1.03)) == "value > 1.03"
        assert describe_check(("range", 0.85, 1.1)) == \
            "0.85 < value < 1.1"
        assert describe_check(("gt_key", "ptr")) == "value > ptr"
        assert describe_check(("ge_key", "ptr", 0.99)) == \
            "value >= ptr*0.99"
        assert describe_check(("ge_key", "ptr", 1.0, -0.01)) == \
            "value >= ptr-0.01"


class TestRegistry:
    def test_profiles_register_the_same_figures(self):
        assert figure_ids(quick=False) == figure_ids(quick=True)
        assert len(figure_ids()) == 11

    def test_quick_stores_never_collide_with_full(self):
        full = figure_registry(quick=False)
        quick = figure_registry(quick=True)
        for fid, figure in quick.items():
            if figure.spec is None:
                assert full[fid].spec is None
                continue
            assert figure.spec.name.endswith("-quick")
            assert figure.spec.name != full[fid].spec.name

    def test_specs_validate_and_are_shared(self):
        registry = figure_registry(quick=True)
        for figure in registry.values():
            if figure.spec is not None:
                figure.spec.validate()
        # Figs 7 and 11-15 all read the one memory-intensive grid.
        memory = registry["fig11"].spec
        for fid in ("fig7", "fig12", "fig13", "fig14", "fig15"):
            assert registry[fid].spec is memory
        assert registry["table1"].spec is None

    def test_select_figures_keeps_registry_order(self):
        registry = figure_registry(quick=True)
        picked = select_figures(registry, ["table2", "fig1"])
        assert [f.fid for f in picked] == ["fig1", "table2"]

    def test_select_figures_rejects_unknown(self):
        with pytest.raises(ConfigValidationError, match="nosuchfig"):
            select_figures(figure_registry(quick=True), ["nosuchfig"])


@pytest.fixture(scope="module")
def tables_report(tmp_path_factory):
    """Config-only figures: no sweep, so this is effectively free."""
    store = tmp_path_factory.mktemp("tables_store")
    return run_figures(only=["table1", "table2"], quick=True,
                       store_root=str(store))


class TestTablesRun:
    def test_all_claims_hold(self, tables_report):
        assert [f.fid for f in tables_report.figures] == ["table1",
                                                          "table2"]
        assert all(f.status == "pass" for f in tables_report.figures)
        assert tables_report.exit_code == 0

    def test_config_tables_carry_no_sweep_provenance(self, tables_report):
        manifest = tables_report.to_manifest()
        for figure in manifest["figures"]:
            assert "sweep" not in figure

    def test_manifest_schema(self, tables_report):
        manifest = tables_report.to_manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["quick"] is True
        assert manifest["exit_code"] == 0
        assert manifest["counts"]["pass"] == 2
        assert manifest["generated"]
        exp = manifest["figures"][0]["expectations"][0]
        assert {"key", "measured", "passed", "check",
                "claim"} <= set(exp)
        json.dumps(manifest)  # round-trippable, no exotic types

    def test_seeded_regression_flips_exit_code(self, tmp_path):
        report = run_figures(only=["table1"], quick=True,
                             store_root=str(tmp_path),
                             seed_regression=["table1"])
        assert report.exit_code == 1
        (outcome,) = report.figures
        assert outcome.status == "fail"
        assert all(e.seeded and not e.passed
                   for e in outcome.expectations)
        assert report.to_manifest()["figures"][0]["expectations"][0][
            "seeded"] is True


@pytest.fixture(scope="module")
def fig17_store(tmp_path_factory):
    return tmp_path_factory.mktemp("fig17_store")


@pytest.fixture(scope="module")
def fig17_report(shared_cache_dir, fig17_store):
    """One quick sweep-backed figure (4 benchmarks x 3 kinds)."""
    return run_figures(only=["fig17"], quick=True,
                       store_root=str(fig17_store))


class TestSweepBackedRun:
    def test_fig17_evaluates_from_checkpoints(self, fig17_report):
        (outcome,) = fig17_report.figures
        assert outcome.status == "pass"
        assert outcome.spec_name == "figures-headline-compute-quick"
        assert outcome.points_total == 12
        assert outcome.points_executed == 12
        assert outcome.points_resumed == 0
        assert outcome.points_failed == 0
        assert set(outcome.metrics) == {"ptr_speedup", "libra_speedup",
                                        "scheduler_gain",
                                        "worst_bench_libra_vs_ptr"}
        assert outcome.plot["type"] == "bars"

    def test_rerun_resumes_without_executing(self, fig17_report,
                                             fig17_store, monkeypatch):
        import repro.experiments.engine as engine

        def forbidden(point):
            raise AssertionError(
                f"re-executed checkpointed point {point.point_id}")

        monkeypatch.setattr(engine, "execute_point", forbidden)
        again = run_figures(only=["fig17"], quick=True,
                            store_root=str(fig17_store))
        (outcome,) = again.figures
        assert outcome.status == "pass"
        assert outcome.points_resumed == 12
        assert outcome.points_executed == 0
        assert (outcome.metrics
                == fig17_report.figures[0].metrics)

    def test_matrices_cover_multi_kind_sweeps(self, fig17_report):
        matrices = fig17_report.matrices()
        (matrix,) = matrices.values()
        assert set(matrix.kinds) == {"baseline", "ptr", "libra"}
        assert len(matrix.rows) == 4


class TestMarkdownRenderer:
    def test_registry_figures_render_with_verdicts(self, tables_report):
        text = render_experiments_md(tables_report)
        assert "# EXPERIMENTS — paper vs. measured" in text
        assert "## Table I — simulation parameters" in text
        assert "**Shape verdict:** ✅ PASS" in text
        assert "| metric | measured | paper | delta |" in text

    def test_uncovered_sections_keep_their_evidence(self, tables_report):
        text = render_experiments_md(tables_report)
        heading = "## Asserted by the benchmark suite"
        assert heading in text
        bench_only = text.split(heading, 1)[1].split("\n## ", 1)[0]
        # A bench-only figure keeps its claim even when not selected...
        assert "Figure 19 — threshold sensitivity" in bench_only
        # ...but a registered figure outside --only is not bench-only.
        for figure in figure_registry(quick=True).values():
            assert figure.title not in bench_only, figure.fid

    def test_seeded_regression_visible(self, tmp_path):
        report = run_figures(only=["table2"], quick=True,
                             store_root=str(tmp_path),
                             seed_regression=["table2"])
        text = render_experiments_md(report)
        assert "**Shape verdict:** ❌ FAIL" in text
        assert "*(seeded regression)*" in text

    def test_sweep_matrix_rendered(self, fig17_report):
        text = render_experiments_md(fig17_report)
        assert "## Sweep matrix: figures-headline-compute-quick" in text
        assert "| **geomean**" in text


class _MarkupAudit(HTMLParser):
    VOID = {"br", "hr", "img", "meta", "link", "input", "path", "rect",
            "circle", "line", "polyline", "polygon", "stop", "use"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.external = []
        self.scripts = 0

    def handle_starttag(self, tag, attrs):
        if tag == "script":
            self.scripts += 1
        for name, value in attrs:
            if name in ("src", "href") and value and \
                    not value.startswith("#"):
                self.external.append(value)
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        while self.stack and self.stack[-1] != tag:
            self.stack.pop()  # tolerate implicitly-closed tags
        if self.stack:
            self.stack.pop()


class TestHtmlDashboard:
    def test_self_contained_document(self, fig17_report):
        html = render_dashboard(fig17_report)
        audit = _MarkupAudit()
        audit.feed(html)
        assert audit.external == []  # no fonts, CDNs, stylesheets
        assert audit.scripts == 0
        assert audit.stack == []  # every element closed
        assert html.startswith("<!DOCTYPE html>")

    def test_figures_and_plots_present(self, fig17_report):
        html = render_dashboard(fig17_report)
        assert "Figure 17" in html
        assert "<svg" in html
        assert "figures-headline-compute-quick" in html
        (outcome,) = fig17_report.figures
        assert outcome.spec_fingerprint[:12] in html

    def test_failed_figure_gets_fail_badge(self, tmp_path):
        report = run_figures(only=["table1"], quick=True,
                             store_root=str(tmp_path),
                             seed_regression=["table1"])
        html = render_dashboard(report)
        assert "FAIL" in html

    def test_perf_markdown_embedded(self, tables_report):
        html = render_dashboard(tables_report,
                                perf_markdown="## DRAM bandwidth over "
                                              "time\nunique-sentinel")
        assert "unique-sentinel" in html


class TestCliContract:
    def test_unknown_figure_is_usage_error(self, tmp_path):
        assert main(["figures", "--only", "nosuchfig", "--quick",
                     "--out", str(tmp_path / "out"),
                     "--store", str(tmp_path / "store")]) == 2

    def test_tables_run_writes_all_artifacts(self, capsys, tmp_path):
        out = tmp_path / "out"
        code = main(["figures", "--only", "table1,table2", "--quick",
                     "--format", "both", "--out", str(out),
                     "--store", str(tmp_path / "store")])
        assert code == 0
        manifest = json.loads(
            (out / "figures_manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert [f["id"] for f in manifest["figures"]] == ["table1",
                                                          "table2"]
        assert (out / "figures_dashboard.html").exists()
        assert (out / "EXPERIMENTS.md").exists()
        printed = capsys.readouterr().out
        assert "figures: 2/2 pass" in printed

    def test_seeded_regression_exits_one(self, capsys, tmp_path):
        out = tmp_path / "out"
        code = main(["figures", "--only", "table1", "--quick",
                     "--seed-regression", "table1", "--format", "md",
                     "--out", str(out),
                     "--store", str(tmp_path / "store")])
        assert code == 1
        manifest = json.loads(
            (out / "figures_manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert manifest["counts"]["fail"] == 1
