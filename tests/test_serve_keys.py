"""Cache-key stability: the contract the disk store lives on.

A content address must not depend on anything process-local: not dict
order, not ``PYTHONHASHSEED``, not how the options object was built.
These tests pin (a) the canonical-options reduction, (b) digest
equality across *fresh interpreter processes with different hash
seeds*, (c) the once-per-process digest of a registry target, and (d)
the ``strip_volatile`` normaliser used by every daemon-vs-direct
differential gate.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.api import AnalysisOptions, Project
from repro.api.cli import main
from repro.litmus import find_case, registry
from repro.serve import (canonical_options, fingerprint_digest,
                         options_digest, resolve_project, spec_for_asm,
                         spec_for_name, store_key, strip_volatile)
from repro.serve import keys


# -- canonical options -------------------------------------------------------


def test_default_options_canonicalize_empty():
    assert canonical_options(AnalysisOptions()) == ()


def test_non_default_fields_appear_sorted():
    options = AnalysisOptions(max_paths=500, bound=7, strategy="random")
    canon = canonical_options(options)
    assert canon == (("bound", 7), ("max_paths", 500),
                     ("strategy", "random"))


def test_field_set_back_to_default_is_omitted():
    default_bound = AnalysisOptions().bound
    options = AnalysisOptions(max_paths=200).with_(bound=default_bound)
    assert ("bound", default_bound) not in canonical_options(options)
    assert canonical_options(options) == (("max_paths", 200),)


def test_equivalent_constructions_share_a_key():
    a = AnalysisOptions(bound=9, max_paths=500)
    b = AnalysisOptions().with_(max_paths=500).with_(bound=9)
    assert canonical_options(a) == canonical_options(b)
    assert options_digest(a) == options_digest(b)


def test_different_options_differ():
    assert (options_digest(AnalysisOptions(bound=5))
            != options_digest(AnalysisOptions(bound=6)))


# -- target fingerprints -----------------------------------------------------


def test_same_target_same_digest():
    a = Project.from_litmus("kocher_01")
    b = Project.from_litmus("kocher_01")
    assert fingerprint_digest(a) == fingerprint_digest(b)


def test_different_targets_differ():
    a = Project.from_litmus("kocher_01")
    b = Project.from_litmus("kocher_02")
    assert fingerprint_digest(a) != fingerprint_digest(b)


def test_register_values_reach_the_digest():
    source = "entry: %rb = load [0x40, %ra]\n       halt"
    a = Project.from_asm(source, regs={"ra": 4})
    b = Project.from_asm(source, regs={"ra": 8})
    assert fingerprint_digest(a) != fingerprint_digest(b)


def _fresh_digest(project):
    text = keys._target_text(project.name, project.program,
                             project.config())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _count_renders(monkeypatch):
    calls = []
    render = keys._target_text

    def counted(*args):
        calls.append(args[0])
        return render(*args)
    monkeypatch.setattr(keys, "_target_text", counted)
    return calls


def _listed_names(capsys):
    assert main(["list", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    return [name for group in ("litmus_suites", "case_studies")
            for names in listing[group].values() for name in names]


def test_memoised_digest_equals_a_fresh_one_for_every_listed_name(
        capsys, monkeypatch):
    names = _listed_names(capsys)
    assert {"kocher_01", "haystack_01", "secretbox-c"} <= set(names)
    for name in names:
        project = resolve_project(spec_for_name(name))
        fingerprint_digest(project)
        calls = _count_renders(monkeypatch)
        again = resolve_project(spec_for_name(name))
        memoised = fingerprint_digest(again.with_options(bound=3))
        assert calls == [], name             # served from the memo
        monkeypatch.undo()
        assert memoised == fingerprint_digest(again) \
            == _fresh_digest(again), name


def test_an_asm_target_is_digested_on_every_call(monkeypatch):
    spec = spec_for_asm("entry: %rb = load [0x40, %ra]\n       halt",
                        regs={"ra": 4})
    calls = _count_renders(monkeypatch)
    digests = {fingerprint_digest(resolve_project(spec)) for _ in range(2)}
    assert len(calls) == 2
    monkeypatch.undo()
    assert digests == {_fresh_digest(resolve_project(spec))}


def test_a_rebuilt_registry_misses_the_memo(monkeypatch):
    before = fingerprint_digest(Project.from_litmus("kocher_01"))
    calls = _count_renders(monkeypatch)
    assert fingerprint_digest(Project.from_litmus("kocher_01")) == before
    assert calls == []
    late = replace(find_case("kocher_02"), name="zz_late_case")
    registry.suite("zz_late")(lambda: [late])
    try:
        rebuilt = Project.from_litmus("kocher_01")   # rebuilds the registry
        assert fingerprint_digest(rebuilt) == before
        assert calls == ["kocher_01"]
        assert fingerprint_digest(Project.from_litmus("zz_late_case")) \
            != fingerprint_digest(Project.from_litmus("kocher_02"))
    finally:
        del registry._SUITES["zz_late"]


def test_store_key_accepts_options_or_canonical_tuple():
    project = Project.from_litmus("kocher_01")
    fp = fingerprint_digest(project)
    options = AnalysisOptions(max_paths=500)
    assert (store_key("pitchfork", fp, options)
            == store_key("pitchfork", fp, canonical_options(options)))
    assert store_key("pitchfork", fp, options) \
        != store_key("two-phase", fp, options)


# -- pinned keys -------------------------------------------------------------

#: Literal digests for three option sets (keys at ``SEMANTICS_EPOCH``
#: 1).  A store filled by an earlier build of the same epoch must stay
#: addressable, so any change to the option schema (field names,
#: defaults, inheritance) that moves these is a break unless it bumps
#: the epoch.
_KOCHER_01 = ("90fc5e28bad1662ef29daff314f68a2e"
              "dec8172c4bb77f526eb6623a1100f42d")
_PINNED = [
    (AnalysisOptions(),
     "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
     "cab8e20d15f2eb34153d777814030cb588b825cb8997ab8aea40737cf7658484"),
    (AnalysisOptions.table2(),
     "9926d68521ceac3b1b6de3a732aa82bd42faa37bf8666d99dd0b737378e8b75e",
     "f28979d79ff3c5b3788d0316e10545591e097d18960f16666b356dc0bcb6bf49"),
    (AnalysisOptions(strategy="mcts", prune="full", subsume=True,
                     jmpi_targets=[7, 3]),
     "f3954e90038eed8ba95968da3058e29ea1175ba460caf27f3dbeb56987bf2682",
     "38af9c20db42443c4779fe4949640f0561a937e57386dd5082d35fa3a8d4b0ce"),
]


def test_pinned_target_digest():
    assert fingerprint_digest(Project.from_litmus("kocher_01")) == _KOCHER_01


@pytest.mark.parametrize("options,opt_digest,key", _PINNED,
                         ids=["default", "table2", "tuned"])
def test_pinned_store_keys(options, opt_digest, key):
    assert options_digest(options) == opt_digest
    assert store_key("pitchfork", _KOCHER_01, options) == key


# -- cross-process stability -------------------------------------------------

_CHILD = """
import json, sys
from repro.api import AnalysisOptions, Project
from repro.serve import fingerprint_digest, options_digest, store_key
project = Project.from_litmus("kocher_03")
options = AnalysisOptions(bound=11, max_paths=500, strategy="random")
fp = fingerprint_digest(project)
print(json.dumps({"fp": fp, "opt": options_digest(options),
                  "key": store_key("pitchfork", fp, options)}))
"""


def test_digests_stable_across_processes_and_hash_seeds():
    """The key of one (target, options) pair is identical in fresh
    interpreters started with different PYTHONHASHSEEDs — the property
    that lets a store outlive the daemon that filled it."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "src"))
    outputs = []
    for seed in ("0", "42", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _CHILD],
                              capture_output=True, text=True, check=True,
                              env=env)
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] == outputs[2]


# -- the differential normaliser ---------------------------------------------


def test_strip_volatile_zeroes_timings_and_drops_cache():
    report = Project.from_litmus("kocher_01").run("pitchfork")
    noisy = report.to_dict()
    noisy["details"] = dict(noisy.get("details") or {},
                            cache={"source": "memory"})
    stripped = strip_volatile(noisy)
    assert stripped["wall_time"] == 0.0
    assert all(p["wall_time"] == 0.0 for p in stripped["phases"])
    assert "cache" not in stripped["details"]
    # Everything non-volatile survives untouched.
    assert stripped["status"] == noisy["status"]
    assert stripped["violations"] == noisy["violations"]


def test_strip_volatile_is_a_copy():
    report = Project.from_litmus("kocher_01").run("pitchfork")
    original = report.to_dict()
    before = json.dumps(original, sort_keys=True)
    strip_volatile(original)
    assert json.dumps(original, sort_keys=True) == before


def test_two_runs_identical_after_strip():
    project = Project.from_litmus("kocher_02")
    a = strip_volatile(project.run("pitchfork").to_dict())
    b = strip_volatile(project.run("pitchfork").to_dict())
    assert a == b
