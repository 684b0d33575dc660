"""repro.mitigate: localization, per-site passes, the repair loop, and
the asm round-trip the repaired programs rely on."""

import json
import random

import pytest

from repro.api import AnalysisManager, AnalysisOptions, Project, Report
from repro.asm import assemble, to_source
from repro.asm.disasm import _referenced_points
from repro.core.directives import RETIRE, Execute, Fetch
from repro.core.machine import Machine
from repro.core.isa import Fence, Load, Op
from repro.core.sct import check_sct
from repro.ctcomp.passes import (count_fences, fence_loads, harden,
                                 insert_fences, retpolinize)
from repro.litmus import all_cases, expected_repair_status, find_case, \
    load_suite
from repro.mitigate import (LocalizeStats, MitigationError, apply_fence,
                            apply_slh, localize, localize_all, remove_fence,
                            remove_slh, repair, replay_attribution,
                            verify_certificate)
from repro.mitigate.localize import _flagged, _site
from repro.pitchfork.explorer import Violation
from repro.pitchfork import analyze, enumerate_schedules


def _case_kwargs(case):
    """The exploration knobs a litmus case's ground truth requires."""
    options = AnalysisOptions.for_case(case)
    return dict(bound=options.bound, fwd_hazards=options.fwd_hazards,
                explore_aliasing=options.explore_aliasing,
                jmpi_targets=options.jmpi_targets,
                rsb_targets=options.rsb_targets,
                max_paths=options.max_paths)


def _repair_case(case, **overrides):
    return repair(case.program, case.make_config(),
                  AnalysisOptions.for_case(case), name=case.name,
                  **overrides)


def _round_trips(program) -> bool:
    base = _referenced_points(program)[0]
    return assemble(to_source(program), base=base) == program


# ---------------------------------------------------------------------------
# asm round-trip (satellite): every pass output prints and re-parses
# ---------------------------------------------------------------------------

class TestAsmRoundTrip:
    def test_explicit_successor_grammar(self):
        program = assemble("%ra = op mov, 1 -> 4\n"
                           "%rb = load [32] -> 1\n"
                           "store %ra, [33] -> 5\n"
                           "fence -> 2\n"
                           "halt\n")
        assert program[1].next == 4
        assert program[2].next == 1
        assert program[3].next == 5
        assert program[4].next == 2

    def test_entry_directive_accepts_points(self):
        program = assemble(".entry 2\n%ra = op mov, 1\n%rb = op mov, 2\n")
        assert program.entry == 2

    def test_every_litmus_program_round_trips(self):
        for case in all_cases():
            assert _round_trips(case.program), case.name

    @pytest.mark.parametrize("transform", [insert_fences, retpolinize,
                                           fence_loads, harden])
    def test_every_blanket_pass_output_round_trips(self, transform):
        for case in all_cases():
            assert _round_trips(transform(case.program)), case.name

    def test_program_equality_is_structural(self):
        a = assemble("%ra = op mov, 1\nhalt\n")
        b = assemble("lbl: %ra = op mov, 1\nhalt\n")
        assert a == b                # labels are metadata
        c = assemble("%ra = op mov, 2\nhalt\n")
        assert a != c
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

class TestLocalize:
    def _sites(self, name):
        case = find_case(name)
        kwargs = _case_kwargs(case)
        report = analyze(case.program, case.make_config(),
                         name=case.name, stop_at_first=False,
                         rsb_policy=case.rsb_policy, **kwargs)
        machine = Machine(case.program, rsb_policy=case.rsb_policy)
        return case, localize_all(machine, case.make_config(),
                                  report.violations)

    def test_kocher_01_attributed_to_transmit_load(self):
        case, sites = self._sites("kocher_01")
        assert len(sites) == 1
        site = sites[0]
        assert site.cause == "v1" and site.kind == "load"
        # The mispredicted bounds check opened the window…
        assert site.branch_pp == case.program.label("body") - 1
        # …the transmitting load was flagged, and the access load that
        # read the secret is recorded as the taint source.
        assert site.taint_pp == case.program.label("body")
        assert site.leak_pp == site.taint_pp + 1

    def test_v4_case_attributed_to_bypassed_store(self):
        _case, sites = self._sites("v4_fig7")
        assert any(s.cause == "v4" and s.store_pps for s in sites)

    def test_v2_and_ret2spec_attribution(self):
        _case, sites = self._sites("v2_fig11")
        assert any(s.cause == "v2" and s.jmpi_pp is not None for s in sites)
        _case, sites = self._sites("ret2spec_fig12")
        assert any(s.cause == "ret2spec" for s in sites)

    def test_sequential_leak_classified_as_sequential(self):
        _case, sites = self._sites("v1_sequential_leak")
        assert sites and all(s.cause == "sequential" for s in sites)


def _reference_site(machine, config, violation):
    """Localization without shared prefixes: the witness replayed from
    step 0 by ``replay_attribution``."""
    configs, index_pp = replay_attribution(machine, config,
                                           violation.schedule)
    pre = configs[-2] if len(configs) >= 2 else configs[-1]
    flagged, leak_pp = _flagged(pre, index_pp, violation.directive)
    return _site(machine, pre, index_pp, violation, flagged, leak_pp)


def _first_per_point(sites):
    seen = {}
    for site in sites:
        seen.setdefault(site.leak_pp, site)
    return list(seen.values())


def _reference_sites(machine, config, violations):
    return _first_per_point(_reference_site(machine, config, v)
                            for v in violations)


#: Two leaks whose witnesses part at their first directive: the
#: mispredicted arm (``fetch: True``) leaks at 3, the architectural arm
#: at 5.
DISJOINT_ARMS = """\
br gt, 4, %ra -> 2, 4
%rb = load [64, %ra]
%rc = load [68, %rb] -> 6
%rb = load [64, %ra]
%rc = load [68, %rb]
halt
"""


class TestSharedPrefixLocalization:
    """``localize_all`` steps each shared schedule prefix once; its
    sites must equal a from-scratch replay of every witness."""

    def test_equals_per_witness_replay_on_every_flagged_case(self):
        batches = 0
        for case in all_cases():
            if not (case.leaks_speculatively or case.leaks_sequentially):
                continue
            kwargs = _case_kwargs(case)
            machine = Machine(case.program, rsb_policy=case.rsb_policy)
            for strategy in ("dfs", "mcts"):
                report = analyze(case.program, case.make_config(),
                                 stop_at_first=False, strategy=strategy,
                                 rsb_policy=case.rsb_policy, **kwargs)
                witnesses = list(report.violations)
                # Each witness's own site does not depend on the batch
                # order, so it is replayed once for all three orders.
                reference = [_reference_site(machine, case.make_config(), v)
                             for v in witnesses]
                order = list(range(len(witnesses)))
                shuffled = list(order)
                random.Random(case.name).shuffle(shuffled)
                for perm in (order, order[::-1], shuffled):
                    batch = [witnesses[i] for i in perm]
                    expected = _first_per_point(reference[i] for i in perm)
                    assert localize_all(machine, case.make_config(),
                                        batch) == expected, \
                        (case.name, strategy)
                    batches += 1
        assert batches >= 3 * 2 * 30

    def _disjoint(self):
        program = assemble(DISJOINT_ARMS)
        config = find_case("v1_fig1").make_config()
        report = analyze(program, config, stop_at_first=False, bound=12)
        return Machine(program), config, list(report.violations)

    def test_witnesses_sharing_no_prefix(self):
        machine, config, witnesses = self._disjoint()
        assert len({v.schedule[0] for v in witnesses}) == len(witnesses) == 2
        stats = LocalizeStats()
        sites = localize_all(machine, config, witnesses, stats=stats)
        assert sites == _reference_sites(machine, config, witnesses)
        assert sorted((s.leak_pp, s.cause) for s in sites) == \
            [(3, "v1"), (5, "sequential")]
        # Nothing shared: every witness is stepped up to its flagging
        # directive.
        assert stats.steps == sum(len(v.schedule) - 1 for v in witnesses)

    def test_one_directive_witness(self):
        # A witness whose only directive is the flagging one is
        # attributed at the initial configuration, also between longer
        # witnesses that must be re-stepped around it.
        machine, config, witnesses = self._disjoint()
        first = witnesses[0]
        short = Violation(first.observation, 0, first.schedule[0], None,
                          first.schedule[:1], first.trace[:1])
        for batch in ([short], [short] + witnesses,
                      [witnesses[0], short, witnesses[1]]):
            assert localize_all(machine, config, batch) == \
                _reference_sites(machine, config, batch)
        assert localize(machine, config, short) == \
            _reference_sites(machine, config, [short])[0]

    def test_index_reused_after_rollback(self):
        # The first witness squashes buffer index 2 and refetches it
        # from point 4; the second still holds the index as fetched
        # from point 2 on their shared prefix.  Its leak point must
        # come from its own fetch, not the first witness's.
        machine, config, _witnesses = self._disjoint()
        refetch = (Fetch(True), Fetch(), Execute(1), Fetch(), RETIRE)
        leak = (Fetch(True), Fetch(), Execute(2))
        final = config
        for directive in leak:
            final, trace = machine.step(final, directive)
        batch = [Violation(trace[0], 4, RETIRE, None, refetch, trace),
                 Violation(trace[0], 2, Execute(2), 2, leak, trace)]
        sites = localize_all(machine, config, batch)
        assert sites == _reference_sites(machine, config, batch)
        assert sites[-1].leak_pp == 2 and sites[-1].branch_pp == 1

    def test_repair_counts_localization_steps(self, monkeypatch):
        import repro.mitigate.synth as synth
        batches = []
        real = synth.localize_all

        def recording(machine, config, violations, **kwargs):
            batches.append(list(violations))
            return real(machine, config, batches[-1], **kwargs)

        monkeypatch.setattr(synth, "localize_all", recording)
        case = find_case("diffregress_store_addr_transient")
        result = _repair_case(case)
        witnesses = [v for batch in batches for v in batch]
        assert len(witnesses) >= 2
        assert witnesses[0].schedule[0] == witnesses[1].schedule[0]
        assert 0 < result.localize_steps < \
            sum(len(v.schedule) for v in witnesses)
        # A measure of the repairer, not a claim of the certificate.
        assert "localize_steps" not in result.certificate
        report = Project.from_litmus(case.name).analyses.repair()
        assert report.details["localize_steps"] == result.localize_steps


# ---------------------------------------------------------------------------
# per-site passes
# ---------------------------------------------------------------------------

class TestPasses:
    def test_fence_splice_and_inverse(self):
        case = find_case("kocher_01")
        pp = case.program.label("body")
        repaired, applied = apply_fence(case.program, pp)
        assert isinstance(repaired[pp], Fence)
        assert isinstance(repaired[applied.relocated_pp], Load)
        assert repaired[applied.relocated_pp] == case.program[pp]
        assert _round_trips(repaired)
        assert remove_fence(repaired, applied) == case.program

    def test_slh_masks_register_operands_only(self):
        case = find_case("kocher_01")
        machine = Machine(case.program)
        report = analyze(case.program, case.make_config(),
                         stop_at_first=False, **_case_kwargs(case))
        site = localize_all(machine, case.make_config(),
                            report.violations)[0]
        repaired, applied = apply_slh(case.program, site, site.taint_pp)
        assert applied.masked_regs == ("rx",)
        head = repaired[site.taint_pp]
        assert isinstance(head, Op)          # the mask sequence head
        load = repaired[applied.relocated_pp]
        assert isinstance(load, Load)
        assert _round_trips(repaired)
        assert remove_slh(repaired, applied) == case.program

    def test_slh_refuses_non_loads(self):
        case = find_case("kocher_01")
        machine = Machine(case.program)
        report = analyze(case.program, case.make_config(),
                         stop_at_first=False, **_case_kwargs(case))
        site = localize_all(machine, case.make_config(),
                            report.violations)[0]
        with pytest.raises(MitigationError):
            apply_slh(case.program, site, site.branch_pp)


# ---------------------------------------------------------------------------
# the repair loop across the whole registry (acceptance)
# ---------------------------------------------------------------------------

class TestRepairRegistry:
    def test_every_case_repairs_to_its_expected_status(self):
        for case in all_cases():
            result = _repair_case(case)
            assert result.status == expected_repair_status(case), \
                f"{case.name}: {result.status}"
            assert result.secure, case.name
            # The repaired program is printable and re-parseable.
            assert _round_trips(result.program), case.name
            # The certificate re-verifies from scratch.
            assert verify_certificate(
                result.certificate, case.make_config(),
                rsb_policy=case.rsb_policy, original=case.program,
                **_case_kwargs(case)), case.name
            # Repairs never alter the sequential semantics.
            assert result.semantics_preserved, case.name
            assert result.overhead_steps >= 0, case.name

    def test_sequential_residue_is_reported_not_hidden(self):
        case = find_case("kocher_02")
        result = _repair_case(case)
        assert result.status == "sequential-residual"
        assert result.sequential_leaks
        # The verifier's last word still shows the architectural leak.
        assert not result.final_report.secure


class TestSemanticsFailures:
    """Equivalence-check rejections are named and surfaced, never
    swallowed (the old bare ``except Exception`` hid them all)."""

    def test_preserves_semantics_names_the_divergence(self):
        from repro.core import Config, Memory, run_sequential
        from repro.mitigate.synth import _preserves_semantics
        cfg = Config.initial({}, Memory(), pc=1)
        base_prog = assemble("%ra = op add, 1, 0\nhalt")
        base = run_sequential(Machine(base_prog), cfg, max_retires=10)
        same = assemble("%ra = op add, 0, 1\nhalt")
        assert _preserves_semantics(base, same, cfg, "directive", 10) is None
        wrong_reg = assemble("%ra = op add, 2, 0\nhalt")
        why = _preserves_semantics(base, wrong_reg, cfg, "directive", 10)
        assert why == "final value of register ra diverges"
        extra_store = assemble(
            "%ra = op add, 1, 0\nstore 1, [0x40]\nhalt")
        why = _preserves_semantics(base, extra_store, cfg, "directive", 10)
        assert why == "observation trace diverges"

    def test_rejected_candidates_land_in_the_repair_report(self, monkeypatch):
        # Force every SLH candidate (no new fence) to fail equivalence:
        # the loop must fall back to fences, and the report must list
        # each rejection with its point and reason.
        import repro.mitigate.synth as synth
        case = find_case("kocher_01")
        real = synth._preserves_semantics
        base_fences = count_fences(case.program)

        def fake(base_result, candidate, config, rsb_policy, max_retires):
            if count_fences(candidate) == base_fences:
                return "injected divergence"
            return real(base_result, candidate, config, rsb_policy,
                        max_retires)

        monkeypatch.setattr(synth, "_preserves_semantics", fake)
        result = _repair_case(case, policy="slh")
        assert result.secure
        assert any("rejected): injected divergence" in entry
                   for entry in result.semantics_failures)
        assert result.certificate["semantics_failures"] == \
            list(result.semantics_failures)

    def test_clean_repairs_report_no_failures(self):
        result = _repair_case(find_case("kocher_01"))
        assert result.semantics_failures == ()
        assert result.certificate["semantics_failures"] == []


class TestMinimality:
    def test_fence_policy_beats_blanket_on_at_least_10_kocher_cases(self):
        strictly_fewer = 0
        for case in load_suite("kocher"):
            result = _repair_case(case, policy="fence")
            assert result.secure, case.name
            if result.status == "repaired" and \
                    result.fences_added < result.blanket_fences:
                strictly_fewer += 1
        assert strictly_fewer >= 10

    def test_every_remaining_fence_is_load_bearing(self):
        # Local minimality (the shrink invariant's fixpoint): removing
        # any single surviving fence re-introduces a transient leak.
        for name in ("kocher_01", "v4_fig7", "v2_fig11"):
            case = find_case(name)
            result = _repair_case(case, policy="fence")
            assert result.status == "repaired"
            fence_steps = [s for s in result.steps
                           if s.applied.policy == "fence"]
            assert fence_steps, name
            for step in fence_steps:
                weakened = remove_fence(result.program, step.applied)
                assert weakened is not None
                report = analyze(weakened,
                                 case.make_config().with_(
                                     pc=weakened.entry),
                                 stop_at_first=False,
                                 rsb_policy=case.rsb_policy,
                                 **_case_kwargs(case))
                assert not report.secure, (name, step.applied.site_pp)

    def test_auto_policy_prefers_masks_over_fences_for_v1(self):
        result = _repair_case(find_case("kocher_01"))
        assert result.status == "repaired"
        assert result.slh_sites == 1 and result.fences_added == 0
        assert result.fences_added < result.blanket_fences


# ---------------------------------------------------------------------------
# blanket hardening property (satellite): the baseline the loop beats
# ---------------------------------------------------------------------------

class TestBlanketHardening:
    def test_harden_closes_every_speculative_leak(self):
        # Pitchfork property across the full registry: the blanket
        # combination (retpoline + fence-after-branch + fence-before-
        # load) removes every speculation-introduced leak; what remains
        # violates *sequential* constant time, which no fence can fix.
        for case in all_cases():
            hardened = harden(case.program)
            config = case.make_config().with_(pc=hardened.entry)
            report = analyze(hardened, config, stop_at_first=False,
                             rsb_policy=case.rsb_policy,
                             **_case_kwargs(case))
            if case.leaks_sequentially:
                assert not report.secure, case.name
            else:
                assert report.secure, case.name

    def test_harden_passes_check_sct(self):
        # The two-trace Definition 3.1 check over enumerated tool
        # schedules agrees: hardened programs are SCT except the
        # sequentially-leaking ones.
        for case in all_cases():
            hardened = harden(case.program)
            machine = Machine(hardened, rsb_policy=case.rsb_policy)
            config = case.make_config().with_(pc=hardened.entry)
            schedules = enumerate_schedules(machine, config, bound=6,
                                            fwd_hazards=True, max_paths=400)
            result = check_sct(machine, config, schedules)
            assert result.ok == (not case.leaks_sequentially), case.name

    def test_blanket_baseline_is_recorded(self):
        # The fence counts the repair loop is measured against.
        for case in load_suite("kocher"):
            blanket = count_fences(insert_fences(case.program)) \
                - count_fences(case.program)
            result = _repair_case(case)
            assert result.blanket_fences == blanket
            if result.status == "repaired":
                assert blanket >= 2   # the baseline is never trivial


# ---------------------------------------------------------------------------
# API / Report / CLI integration
# ---------------------------------------------------------------------------

class TestRepairAnalysis:
    def test_hub_runs_repair(self):
        report = Project.from_litmus("kocher_01").analyses.repair()
        assert report.status == "repaired" and report.ok
        assert report.mitigation is not None
        assert report.mitigation["slh_sites"] == 1
        assert report.mitigation["fences_added"] == 0
        assert report.states_stepped > 0

    def test_report_round_trip_covers_mitigation(self):
        report = Project.from_litmus("kocher_01").analyses.repair()
        data = json.loads(report.to_json())
        assert data["schema_version"] == 8
        assert data["mitigation"]["steps"]
        assert Report.from_json(report.to_json()) == report

    def test_certificate_program_reassembles(self):
        project = Project.from_litmus("v4_fig7")
        report = project.analyses.repair()
        cert = report.mitigation
        repaired = assemble(cert["program"], base=cert["base"])
        check = analyze(repaired,
                        project.config().with_(pc=repaired.entry),
                        stop_at_first=False,
                        bound=project.options.bound,
                        fwd_hazards=project.options.fwd_hazards)
        assert check.secure

    def test_policy_fence_respected(self):
        report = Project.from_litmus("kocher_01").analyses.repair(
            policy="fence")
        assert report.mitigation["slh_sites"] == 0
        assert report.mitigation["fences_added"] >= 1

    def test_manager_batch_repair(self):
        projects = [Project.from_litmus(n)
                    for n in ("kocher_01", "kocher_03", "v4_fig7")]
        manager = AnalysisManager("repair")
        reports = manager.run(projects)
        assert [r.status for r in reports] == ["repaired"] * 3
        again = manager.run(projects)
        assert manager.cache_info.hits == 3
        assert again == reports

    def test_gave_up_surfaces_as_insecure(self):
        # A hopeless budget still terminates and reports honestly.
        report = Project.from_litmus("kocher_01").analyses.repair(
            max_repair_rounds=1, policy="fence", shrink=False)
        # One round places a fence but never re-verifies clean: the
        # loop ends without a "repaired" verdict.
        assert report.status in ("gave-up", "repaired")
        if report.status == "gave-up":
            assert not report.ok

    def test_options_validate_policy(self):
        with pytest.raises(ValueError):
            AnalysisOptions(policy="nonsense")
        with pytest.raises(ValueError):
            AnalysisOptions(max_repair_rounds=0)


class TestRepairCLI:
    def test_repair_flagged_case_exits_0_when_repaired(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "kocher_01"]) == 0
        out = capsys.readouterr().out
        assert "REPAIRED" in out and "SLH" in out

    def test_repair_json_carries_certificate(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "kocher_01", "--policy", "fence",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "repaired"
        assert data["mitigation"]["fences_added"] >= 1
        assert "fence" in data["mitigation"]["program"]

    def test_repair_sequential_residual_exits_1(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "v1_sequential_leak"]) == 1

    def test_repair_check_passes_on_full_coverage(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "kocher_01", "--check"]) == 0

    def test_repair_rejects_other_verifiers_exit_3(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "kocher_01", "-a", "sct"]) == 3

    def test_repair_accepts_pitchfork_verifier_flag(self, capsys):
        from repro.api.cli import main
        assert main(["repair", "kocher_01", "-a", "pitchfork",
                     "--strategy", "random"]) == 0
