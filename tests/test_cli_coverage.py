"""CLI listing and error-path coverage (PR satellites).

Covers the ``repro list`` alias fix — registered analysis aliases
(``mitigate``/``mitigation`` → ``repair`` etc.) must be printed in both
the text and ``--json`` listings — and the error paths of
``repro.api.cli`` the coverage floor flagged: bad ``--reg`` pairs,
unknown targets and suites, string ``SystemExit`` payloads, the
repair subcommand's verifier restriction, and the ``--prune`` flag's
validation path.
"""

import json

import pytest

from repro.api.cli import main


class TestListAliases:
    """`repro list` omitted registered analysis aliases (fixed here)."""

    def test_text_listing_names_aliases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "aliases:" in out
        assert "mitigate, mitigation -> repair" in out
        assert "table2, two_phase, twophase -> two-phase" in out
        assert "cache, cache_attack -> cache-attack" in out

    def test_json_listing_names_aliases(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["aliases"]["mitigate"] == "repair"
        assert data["aliases"]["mitigation"] == "repair"
        assert data["aliases"]["table2"] == "two-phase"
        assert set(data["aliases"]) >= {"cache", "cache_attack",
                                        "two_phase", "twophase"}

    def test_every_alias_resolves(self):
        """Printed aliases must actually be accepted by get_analysis."""
        from repro.api.analyses import (available_aliases,
                                        available_analyses, get_analysis)
        for alias, target in available_aliases().items():
            assert get_analysis(alias).name == target
            assert target in available_analyses()


class TestErrorPaths:
    def test_bad_reg_pair_exits_3(self, capsys):
        assert main(["analyze", "nosuch.s", "--reg", "ra9"]) == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_target_exits_3(self, capsys):
        assert main(["analyze", "no_such_case_xyz"]) == 3
        err = capsys.readouterr().err
        assert "unknown target" in err

    def test_unreadable_file_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "gone.s"
        assert main(["analyze", str(missing)]) == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_suite_exits_3(self, capsys):
        assert main(["litmus", "not_a_suite"]) == 3
        assert "unknown suite" in capsys.readouterr().err

    def test_unknown_analysis_exits_3(self, capsys):
        assert main(["analyze", "kocher_01", "-a", "bogus"]) == 3
        assert "unknown analysis" in capsys.readouterr().err

    def test_repair_rejects_other_verifiers(self, capsys):
        assert main(["repair", "kocher_01", "-a", "sct"]) == 3
        assert "pitchfork" in capsys.readouterr().err

    def test_bad_flag_value_exits_3(self, capsys):
        # argparse rejects the bad choice; the custom parser maps usage
        # errors to exit 3 (not argparse's default 2, which would
        # collide with the --check coverage gate).
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "kocher_01", "--prune", "everything"])
        assert exc.value.code == 3

    def test_bad_option_value_via_api_exits_3(self, capsys):
        # values argparse can't pre-validate surface as ValueError -> 3
        assert main(["analyze", "kocher_01", "--bound", "-3"]) == 3
        assert "error" in capsys.readouterr().err


class TestPruneFlag:
    def test_prune_full_payload(self, capsys):
        main(["analyze", "kocher_13", "--prune", "full", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["details"]["prune"] == "full"
        assert data["pruning"]["level"] == "full"

    def test_prune_default_absent_means_full(self, capsys):
        main(["analyze", "kocher_13", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["pruning"]["level"] == "full"
