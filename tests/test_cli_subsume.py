"""CLI smoke tests for ``--subsume``/``--no-subsume`` (PR satellite).

Pins the flag's reach (analyze, litmus, repair), its interaction with
the ``--check`` exit-code contract (0 clean / 1 violation / 2 coverage
/ 3 usage), its reach through the ``symbolic`` alias, and — the
cache-compatibility bar — that adding the knob did not invalidate any
existing ``ResultStore`` key: a defaulted ``subsume=False`` is omitted
from the canonical options, so reports stored before the knob existed
stay addressable.
"""

import json

import pytest

from repro.api.cli import main
from repro.api.project import AnalysisOptions
from repro.serve.keys import canonical_options, store_key


class TestAnalyzeFlag:
    def test_subsume_insecure_exits_1(self, capsys):
        assert main(["analyze", "kocher_01", "--subsume", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["details"]["subsume"] is True
        assert data["subsumption"]["enabled"] is True
        assert data["schema_version"] == 8

    def test_no_subsume_insecure_exits_1(self, capsys):
        assert main(["analyze", "kocher_01", "--no-subsume",
                     "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["details"]["subsume"] is False
        assert data["subsumption"]["enabled"] is False
        assert data["subsumption"]["states_subsumed"] == 0

    def test_subsume_secure_exits_0(self, capsys):
        assert main(["analyze", "v1_fig8_fence", "--subsume",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "SECURE" in out

    def test_same_verdict_both_ways(self, capsys):
        codes = {}
        for flag in ("--subsume", "--no-subsume"):
            codes[flag] = main(["analyze", "v1_fig8_fence", flag,
                                "--json"])
            data = json.loads(capsys.readouterr().out)
            codes[flag] = (codes[flag], data["status"],
                           [v["observation"] for v in data["violations"]])
        assert codes["--subsume"] == codes["--no-subsume"]

    def test_render_reports_subsumed_count(self, capsys):
        """Human output mentions subsumption only when it fired."""
        assert main(["analyze", "kocher_05", "--subsume",
                     "--max-paths", "20000"]) == 1
        out = capsys.readouterr().out
        # kocher_05 at its default bound may or may not subsume; the
        # render contract is: the marker appears iff the count is live.
        assert ("subsumed" in out) == (", 0 subsumed" not in out and
                                       "subsumed" in out)

    def test_usage_error_exits_3(self, capsys):
        assert main(["analyze", "no_such_case_xyz", "--subsume"]) == 3

    def test_symbolic_alias_honours_flag(self, capsys):
        """``-a symbolic`` runs pitchfork, which acts on the knob."""
        code = main(["analyze", "kocher_01", "-a", "symbolic",
                     "--subsume", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["analysis"] == "pitchfork"
        assert data["details"]["subsume"] is True
        assert "subsume_ignored" not in data["details"]

    def test_repair_accepts_flag(self, capsys):
        assert main(["repair", "kocher_01", "--subsume", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] in ("repaired", "already-secure")


class TestLitmusFlag:
    def test_litmus_suite_with_subsume(self, capsys):
        """A whole suite still classifies every case as expected."""
        assert main(["litmus", "aliasing", "--subsume", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert not data["mismatches"]

    def test_litmus_check_exit_1_on_flagged(self, capsys):
        assert main(["litmus", "aliasing", "--subsume", "--check"]) == 1
        capsys.readouterr()


class TestStoreKeyCompatibility:
    """Adding the subsume knob must not re-key the result store."""

    FP = "fp0123456789abcdef"

    def test_defaulted_subsume_is_omitted(self):
        assert ("subsume", False) not in canonical_options(
            AnalysisOptions())
        assert ("subsume", False) not in canonical_options(
            AnalysisOptions(subsume=False))

    def test_pre_knob_keys_unchanged(self):
        """The canonical tuple (and so the store key) of every options
        shape expressible before this PR is byte-identical to what a
        post-PR writer computes for the same request."""
        shapes = [AnalysisOptions(),
                  AnalysisOptions(bound=40),
                  AnalysisOptions(bound=40, prune="full", max_paths=500),
                  AnalysisOptions.paper()]
        for options in shapes:
            explicit = options.with_(subsume=False)
            assert canonical_options(options) == \
                canonical_options(explicit)
            assert store_key("pitchfork", self.FP, options) == \
                store_key("pitchfork", self.FP, explicit)

    def test_enabled_subsume_gets_its_own_key(self):
        plain = store_key("pitchfork", self.FP, AnalysisOptions())
        subs = store_key("pitchfork", self.FP,
                         AnalysisOptions(subsume=True))
        assert plain != subs
        assert ("subsume", True) in canonical_options(
            AnalysisOptions(subsume=True))

    def test_round_trip_back_to_default_is_omitted(self):
        options = AnalysisOptions(subsume=True).with_(subsume=False)
        assert canonical_options(options) == \
            canonical_options(AnalysisOptions())
